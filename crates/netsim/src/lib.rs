//! # cc-netsim: deterministic link conditions and fault injection
//!
//! The paper's round/word bounds assume a perfect synchronous clique;
//! production links have latency skew, stragglers, loss, and crashing
//! nodes. This crate conditions any [`Transport`] with those imperfections
//! — **deterministically**. [`NetsimTransport`] wraps a backend the same
//! way `TracedTransport` does and models, per round:
//!
//! * **latency + stragglers** — every delivering link draws a seeded
//!   latency (`base + per_word · words + jitter`, occasionally multiplied
//!   by a straggler factor); the round's *simulated* completion time is
//!   the max over links and accumulates in
//!   [`Transport::sim_time_ns`], a new accounting column alongside
//!   rounds/words;
//! * **loss + retransmit** — links draw losses and pay retransmits with
//!   exponential backoff in simulated time; a link that exhausts its
//!   retry budget fails loudly (panic), never silently;
//! * **crash/restart fault plans** — on a schedule derived from the seed,
//!   a node "crashes" after a barrier; the engine's recovery loop
//!   re-ships its serialized [`cc_runtime::WireProgram`] state
//!   ([`Transport::take_crash`] / [`Transport::on_recovery`]) and the
//!   wrapper charges the outage and re-ship cost to simulated time.
//!
//! ## Determinism split
//!
//! Conditioning is an *observer* of deliveries: results, rounds, words,
//! pattern fingerprints, and barrier epochs stay bit-identical to the
//! unconditioned fabric — under loss and under crash recovery (the
//! `WireProgram` codec contract makes a restarted node bit-identical to
//! one that never crashed). What *does* move — `sim_time_ns`, retransmit
//! and fault counts — is a pure function of
//! `(seed, epoch, src, dst)`: every draw comes from one splitmix64 chain
//! over those coordinates, so a rerun with the same seed reproduces every
//! delay, loss, and crash exactly, on any backend.
//!
//! Profiles are selected like every other knob in the workspace:
//! `CC_NETSIM=off|lan|wan|lossy|flaky-node[:seed]` retargets every
//! default-configured simulation ([`NetsimConfig::from_env_or`]), or set
//! [`NetsimConfig`] on the clique config directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cc_runtime::{LinkLoads, ResidentOutcome, Word};
use cc_telemetry::{Event, TraceLevel};
use cc_transport::{LinkSlab, RoundDelivery, Transport};
use std::sync::Arc;

/// Default RNG seed when a profile spec carries no `:seed` suffix.
pub const DEFAULT_NETSIM_SEED: u64 = 0x5eed_c0de;

/// Retransmit budget per link per round. With the lossiest built-in
/// profile (8% loss) the chance of exhausting it is ~`0.08^12` ≈ 1e-13
/// per link-round: the budget exists to turn a *misconfigured* model into
/// a loud failure, not to fire under the shipped profiles.
pub const MAX_DELIVERY_ATTEMPTS: u32 = 12;

/// Simulated outage cost of one node crash, in multiples of the profile's
/// base link latency (detection + restart before the state re-ship).
const CRASH_OUTAGE_MULT: u64 = 50;

/// The built-in network-condition profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NetsimProfile {
    /// No conditioning: the wrapper is never installed and the fabric
    /// behaves exactly as before (the default).
    #[default]
    Off,
    /// Datacenter LAN: tens of microseconds per link, light jitter, rare
    /// mild stragglers, no loss.
    Lan,
    /// Wide-area links: tens of milliseconds, heavy jitter, noticeable
    /// stragglers, occasional loss.
    Wan,
    /// A degraded fabric: moderate latency with 8% per-link loss — the
    /// retransmit/backoff machinery carries real weight.
    Lossy,
    /// A cluster with an unreliable member: mild LAN-like links plus a
    /// seeded node crash every few barriers, exercising the
    /// crash/restart recovery path.
    FlakyNode,
}

impl NetsimProfile {
    /// Stable lowercase profile name (`"off"`, `"lan"`, …).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            NetsimProfile::Off => "off",
            NetsimProfile::Lan => "lan",
            NetsimProfile::Wan => "wan",
            NetsimProfile::Lossy => "lossy",
            NetsimProfile::FlakyNode => "flaky-node",
        }
    }

    /// The link model this profile conditions rounds with.
    fn model(self) -> LinkModel {
        match self {
            // `Off` never builds a wrapper; the zero model is inert anyway.
            NetsimProfile::Off => LinkModel {
                base_ns: 0,
                per_word_ns: 0,
                jitter_ns: 0,
                straggler_permille: 0,
                straggler_mult: 1,
                loss_permille: 0,
                crash_period: 0,
            },
            NetsimProfile::Lan => LinkModel {
                base_ns: 50_000,
                per_word_ns: 8,
                jitter_ns: 30_000,
                straggler_permille: 5,
                straggler_mult: 4,
                loss_permille: 0,
                crash_period: 0,
            },
            NetsimProfile::Wan => LinkModel {
                base_ns: 40_000_000,
                per_word_ns: 64,
                jitter_ns: 15_000_000,
                straggler_permille: 20,
                straggler_mult: 3,
                loss_permille: 2,
                crash_period: 0,
            },
            NetsimProfile::Lossy => LinkModel {
                base_ns: 2_000_000,
                per_word_ns: 16,
                jitter_ns: 1_000_000,
                straggler_permille: 10,
                straggler_mult: 4,
                loss_permille: 80,
                crash_period: 0,
            },
            NetsimProfile::FlakyNode => LinkModel {
                base_ns: 500_000,
                per_word_ns: 8,
                jitter_ns: 200_000,
                straggler_permille: 10,
                straggler_mult: 3,
                loss_permille: 5,
                crash_period: 12,
            },
        }
    }
}

/// Which network conditions a simulation runs under: a profile plus the
/// seed every latency/loss/crash draw derives from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetsimConfig {
    /// Condition profile ([`NetsimProfile::Off`] disables the layer).
    pub profile: NetsimProfile,
    /// Root seed of the per-`(epoch, src, dst)` draw chain.
    pub seed: u64,
}

impl Default for NetsimConfig {
    fn default() -> Self {
        Self {
            profile: NetsimProfile::Off,
            seed: DEFAULT_NETSIM_SEED,
        }
    }
}

impl NetsimConfig {
    /// Whether conditioning is on at all.
    #[must_use]
    pub fn enabled(self) -> bool {
        self.profile != NetsimProfile::Off
    }

    /// Parses a `CC_NETSIM` spec: a profile name (`off`, `lan`, `wan`,
    /// `lossy`, `flaky-node`/`flaky`), optionally suffixed `:<seed>` as in
    /// `lossy:7`. `off` takes no suffix. `None` for unknown names **or**
    /// malformed suffixes — `lossy:banana` must not silently mean "default
    /// seed" (the shared `env_config` contract).
    #[must_use]
    pub fn parse(raw: &str) -> Option<Self> {
        let lower = raw.to_ascii_lowercase();
        let (name, rest) = match lower.split_once(':') {
            Some((name, rest)) => (name, Some(rest)),
            None => (lower.as_str(), None),
        };
        let profile = match name {
            "off" | "none" => NetsimProfile::Off,
            "lan" => NetsimProfile::Lan,
            "wan" => NetsimProfile::Wan,
            "lossy" => NetsimProfile::Lossy,
            "flaky-node" | "flaky" => NetsimProfile::FlakyNode,
            _ => return None,
        };
        let seed = match rest {
            None => DEFAULT_NETSIM_SEED,
            // `off:anything` is malformed: there is no seed to configure.
            Some(_) if profile == NetsimProfile::Off => return None,
            Some(s) => s.parse().ok()?,
        };
        Some(Self { profile, seed })
    }

    /// Resolves a `CC_NETSIM` spec against a fallback: `None` (unset)
    /// resolves to the fallback, a parseable value to its config, and a
    /// malformed value to an error carrying the raw spec. A thin wrapper
    /// over the shared [`cc_runtime::env_config::resolve`].
    pub fn resolve(spec: Option<&str>, fallback: NetsimConfig) -> Result<Self, String> {
        cc_runtime::env_config::resolve(spec, fallback, Self::parse)
    }

    /// Reads the conditioning config from the `CC_NETSIM` environment
    /// variable, falling back to `fallback` when unset. An unrecognised
    /// value is a misconfiguration, not a preference for the default: it
    /// is reported once per process (the shared
    /// [`cc_runtime::env_config`] contract) before falling back.
    #[must_use]
    pub fn from_env_or(fallback: NetsimConfig) -> Self {
        cc_runtime::env_config::from_env_or(
            "cc-netsim",
            "CC_NETSIM",
            "off, lan, wan, lossy, or flaky-node (optionally :<seed>)",
            fallback,
            Self::parse,
        )
    }
}

/// The per-link condition parameters one profile applies.
#[derive(Debug, Clone, Copy)]
struct LinkModel {
    /// Fixed per-delivery latency floor, simulated ns.
    base_ns: u64,
    /// Additional latency per word carried.
    per_word_ns: u64,
    /// Uniform jitter range added on top (`[0, jitter_ns)`).
    jitter_ns: u64,
    /// Per-mille chance a link straggles this round.
    straggler_permille: u64,
    /// Latency multiplier a straggling link pays.
    straggler_mult: u64,
    /// Per-mille chance one delivery attempt is lost.
    loss_permille: u64,
    /// Inject a node crash after every `crash_period`-th barrier
    /// (`0` = no fault plan).
    crash_period: u64,
}

/// splitmix64 finalisation step — the workspace's standard seeded-draw
/// primitive (same constants as the route/batch seeds elsewhere).
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Draw salts: disjoint input lanes of the per-link chain.
const SALT_JITTER: u64 = 0;
const SALT_STRAGGLE: u64 = 1;
const SALT_CRASH: u64 = 2;
/// Loss attempts use `SALT_LOSS + attempt`, one draw per attempt.
const SALT_LOSS: u64 = 16;

/// One deterministic draw keyed by `(seed, epoch, src, dst, salt)` — the
/// whole conditioning layer's only randomness source, so identical seeds
/// replay identical conditions on any backend.
fn draw(seed: u64, epoch: u64, src: u64, dst: u64, salt: u64) -> u64 {
    let mut h = splitmix(seed ^ 0x6e65_7473_696d); // "netsim"
    h = splitmix(h ^ epoch);
    h = splitmix(h ^ (src << 32) ^ dst);
    splitmix(h ^ salt)
}

/// One round's simulated aggregate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct RoundSim {
    /// The slowest link's simulated delivery time.
    sim_ns: u64,
    /// Retransmissions across all links.
    retransmits: u64,
    /// Links hit by straggler injection.
    stragglers: u64,
}

/// Conditions one committed round: draws every delivering link's latency,
/// straggler status, and loss/retransmit sequence, and returns the round's
/// simulated aggregate. Emits per-link retransmit events at
/// [`TraceLevel::Full`] and the round aggregate at [`TraceLevel::Rounds`].
///
/// # Panics
///
/// Panics when a link exhausts [`MAX_DELIVERY_ATTEMPTS`]: past the budget
/// the modelled network is considered partitioned, and a silent hang or
/// fallback would mask the misconfiguration.
fn condition_round(
    model: &LinkModel,
    profile: &'static str,
    seed: u64,
    epoch: u64,
    loads: &LinkLoads,
) -> RoundSim {
    let tel = cc_telemetry::global();
    let mut sim = RoundSim::default();
    let mut links = 0usize;
    for (src, dst, words) in loads.iter() {
        links += 1;
        let (s, d) = (src as u64, dst as u64);
        let jitter = match model.jitter_ns {
            0 => 0,
            j => draw(seed, epoch, s, d, SALT_JITTER) % j,
        };
        let wire_ns = model.base_ns + model.per_word_ns * words as u64 + jitter;
        let mut link_ns = wire_ns;

        // Loss: each attempt draws independently; a lost attempt pays an
        // exponentially growing backoff plus the resend itself.
        let mut attempts = 1u32;
        let mut backoff = model.base_ns.max(1);
        while model.loss_permille > 0
            && draw(seed, epoch, s, d, SALT_LOSS + u64::from(attempts)) % 1000 < model.loss_permille
        {
            assert!(
                attempts < MAX_DELIVERY_ATTEMPTS,
                "cc-netsim[{profile}]: link {src}->{dst} exhausted its retransmit budget \
                 ({MAX_DELIVERY_ATTEMPTS} attempts) at epoch {epoch} — the modelled network \
                 is effectively partitioned"
            );
            attempts += 1;
            sim.retransmits += 1;
            link_ns += backoff + wire_ns;
            backoff = backoff.saturating_mul(2);
        }
        if attempts > 1 {
            tel.emit(TraceLevel::Full, || Event::NetsimRetransmit {
                profile,
                epoch,
                src,
                dst,
                attempts,
            });
        }

        // Stragglers multiply the whole (retransmit-inclusive) link time.
        if model.straggler_permille > 0
            && draw(seed, epoch, s, d, SALT_STRAGGLE) % 1000 < model.straggler_permille
        {
            link_ns = link_ns.saturating_mul(model.straggler_mult);
            sim.stragglers += 1;
        }
        sim.sim_ns = sim.sim_ns.max(link_ns);
    }
    // An empty barrier still synchronises: charge the latency floor.
    if links == 0 {
        sim.sim_ns = model.base_ns;
    }
    tel.emit(TraceLevel::Rounds, || Event::NetsimRound {
        profile,
        epoch,
        links,
        sim_ns: sim.sim_ns,
        retransmits: sim.retransmits,
        stragglers: sim.stragglers,
    });
    sim
}

/// A [`Transport`] decorator applying a [`NetsimProfile`]'s conditions to
/// every round barrier. Deliveries pass through untouched (the determinism
/// contract); the wrapper only *accounts*: simulated time, retransmits,
/// stragglers, and — for fault-plan profiles — crash/restart injections
/// surfaced through [`Transport::take_crash`] for the engine's recovery
/// loop.
#[derive(Debug)]
pub struct NetsimTransport {
    inner: Box<dyn Transport>,
    profile: &'static str,
    model: LinkModel,
    seed: u64,
    sim_time_ns: u64,
    retransmits: u64,
    faults: u64,
    pending_crash: Option<usize>,
}

impl NetsimTransport {
    /// Wraps `inner` under `cfg`'s conditions. [`NetsimProfile::Off`]
    /// returns `inner` unchanged — an off profile costs nothing, not even
    /// a forwarding layer.
    #[must_use]
    pub fn wrap(inner: Box<dyn Transport>, cfg: NetsimConfig) -> Box<dyn Transport> {
        if !cfg.enabled() {
            return inner;
        }
        Box::new(Self {
            inner,
            profile: cfg.profile.name(),
            model: cfg.profile.model(),
            seed: cfg.seed,
            sim_time_ns: 0,
            retransmits: 0,
            faults: 0,
            pending_crash: None,
        })
    }

    /// Injects a crash if the fault plan schedules one after the barrier
    /// that just committed `epoch`.
    fn maybe_crash(&mut self, epoch: u64) {
        if self.model.crash_period == 0 || !(epoch + 1).is_multiple_of(self.model.crash_period) {
            return;
        }
        let node = (draw(self.seed, epoch, 0, 0, SALT_CRASH) % self.inner.n() as u64) as usize;
        self.pending_crash = Some(node);
        self.faults += 1;
        // Detection + restart outage, before the state re-ship.
        self.sim_time_ns += CRASH_OUTAGE_MULT * self.model.base_ns;
        let profile = self.profile;
        cc_telemetry::global().emit(TraceLevel::Summary, || Event::NetsimFault {
            profile,
            epoch,
            node,
            kind: "crash",
            state_words: 0,
        });
    }
}

impl Transport for NetsimTransport {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn n(&self) -> usize {
        self.inner.n()
    }

    fn send(&mut self, src: usize, dst: usize, words: &[Word]) {
        self.inner.send(src, dst, words);
    }

    fn send_slab(&mut self, slab: LinkSlab) {
        self.inner.send_slab(slab);
    }

    fn broadcast(&mut self, src: usize, slab: Arc<[Word]>) {
        self.inner.broadcast(src, slab);
    }

    fn finish_round(&mut self) -> RoundDelivery {
        let rd = self.inner.finish_round();
        // `finish_round` already advanced the epoch; condition the one
        // this barrier committed.
        let epoch = self.inner.epoch().saturating_sub(1);
        let sim = condition_round(&self.model, self.profile, self.seed, epoch, &rd.loads);
        self.sim_time_ns += sim.sim_ns;
        self.retransmits += sim.retransmits;
        self.maybe_crash(epoch);
        rd
    }

    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }

    fn is_resident(&self) -> bool {
        // A fault plan needs the checkpointable classical loop: resident
        // sessions run to completion worker-side and cannot be interrupted
        // for a mid-flight restart.
        self.model.crash_period == 0 && self.inner.is_resident()
    }

    fn run_resident(
        &mut self,
        kind: &str,
        states: Vec<Vec<Word>>,
        on_round: &mut dyn FnMut(&LinkLoads),
    ) -> Option<ResidentOutcome> {
        let (model, profile, seed) = (self.model, self.profile, self.seed);
        let mut epoch = self.inner.epoch();
        let mut sim_ns = 0u64;
        let mut retransmits = 0u64;
        let outcome = self.inner.run_resident(kind, states, &mut |loads| {
            let sim = condition_round(&model, profile, seed, epoch, loads);
            sim_ns += sim.sim_ns;
            retransmits += sim.retransmits;
            epoch += 1;
            on_round(loads);
        });
        self.sim_time_ns += sim_ns;
        self.retransmits += retransmits;
        outcome
    }

    fn orchestrator_bytes(&self) -> u64 {
        self.inner.orchestrator_bytes()
    }

    fn sim_time_ns(&self) -> u64 {
        self.sim_time_ns
    }

    fn net_retransmits(&self) -> u64 {
        self.retransmits
    }

    fn net_faults(&self) -> u64 {
        self.faults
    }

    fn has_fault_plan(&self) -> bool {
        self.model.crash_period > 0
    }

    fn take_crash(&mut self) -> Option<usize> {
        self.pending_crash.take()
    }

    fn on_recovery(&mut self, node: usize, state_words: usize) {
        // Re-shipping the checkpoint travels the same modelled link.
        self.sim_time_ns += self.model.base_ns + self.model.per_word_ns * state_words as u64;
        let profile = self.profile;
        let epoch = self.inner.epoch().saturating_sub(1);
        cc_telemetry::global().emit(TraceLevel::Summary, || Event::NetsimFault {
            profile,
            epoch,
            node,
            kind: "recover",
            state_words,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_runtime::{EchoRingProgram, Engine, EngineFabric, ExecutorKind};
    use cc_transport::{InMemoryTransport, TransportFabric};

    fn lossy(seed: u64) -> NetsimConfig {
        NetsimConfig {
            profile: NetsimProfile::Lossy,
            seed,
        }
    }

    fn wrapped(n: usize, cfg: NetsimConfig) -> Box<dyn Transport> {
        NetsimTransport::wrap(Box::new(InMemoryTransport::new(n)), cfg)
    }

    #[test]
    fn parser_accepts_profiles_and_seeds() {
        let c = |profile, seed| Some(NetsimConfig { profile, seed });
        assert_eq!(
            NetsimConfig::parse("off"),
            c(NetsimProfile::Off, DEFAULT_NETSIM_SEED)
        );
        assert_eq!(
            NetsimConfig::parse("LAN"),
            c(NetsimProfile::Lan, DEFAULT_NETSIM_SEED)
        );
        assert_eq!(NetsimConfig::parse("wan:9"), c(NetsimProfile::Wan, 9));
        assert_eq!(NetsimConfig::parse("lossy:0"), c(NetsimProfile::Lossy, 0));
        assert_eq!(
            NetsimConfig::parse("flaky-node:42"),
            c(NetsimProfile::FlakyNode, 42)
        );
        assert_eq!(
            NetsimConfig::parse("flaky"),
            c(NetsimProfile::FlakyNode, DEFAULT_NETSIM_SEED)
        );
        assert_eq!(NetsimConfig::parse("ideal"), None);
    }

    #[test]
    fn parser_rejects_malformed_seed_suffixes() {
        // `lossy:banana` must not silently mean "default seed" — the whole
        // spec is rejected so `from_env_or` falls back (and warns once).
        assert_eq!(NetsimConfig::parse("lossy:banana"), None);
        assert_eq!(NetsimConfig::parse("lossy:"), None, "empty suffix");
        assert_eq!(NetsimConfig::parse("lan:-3"), None);
        assert_eq!(NetsimConfig::parse("wan:7x"), None);
        assert_eq!(NetsimConfig::parse("off:7"), None, "off takes no seed");
        assert_eq!(NetsimConfig::parse(""), None);
    }

    #[test]
    fn resolution_reports_malformed_specs() {
        let fb = NetsimConfig::default();
        assert_eq!(NetsimConfig::resolve(None, fb), Ok(fb));
        assert_eq!(
            NetsimConfig::resolve(Some("lossy:3"), fb),
            Ok(NetsimConfig {
                profile: NetsimProfile::Lossy,
                seed: 3
            })
        );
        assert_eq!(
            NetsimConfig::resolve(Some("chaos"), fb),
            Err("chaos".to_string())
        );
        assert_eq!(NetsimConfig::resolve(Some(""), fb), Err(String::new()));
    }

    #[test]
    fn off_profile_is_free_and_transparent() {
        let t = wrapped(4, NetsimConfig::default());
        assert_eq!(t.sim_time_ns(), 0);
        assert!(!t.has_fault_plan());
        // Off never installs the wrapper at all: the inner backend's name
        // comes straight through and no conditioning state exists.
        assert_eq!(t.name(), "inmemory");
    }

    #[test]
    fn conditioning_is_delivery_transparent() {
        let mut plain: Box<dyn Transport> = Box::new(InMemoryTransport::new(4));
        let mut conditioned = wrapped(4, lossy(7));
        for t in [&mut plain, &mut conditioned] {
            t.send(0, 1, &[7, 8]);
            t.send(2, 3, &[9]);
            t.broadcast(1, vec![42].into());
        }
        let a = plain.finish_round();
        let b = conditioned.finish_round();
        assert_eq!(a, b, "conditioning must not perturb deliveries or loads");
        assert_eq!(plain.epoch(), conditioned.epoch());
        assert!(
            conditioned.sim_time_ns() > 0,
            "a delivering round costs simulated time"
        );
        assert_eq!(plain.sim_time_ns(), 0, "bare backends report none");
    }

    #[test]
    fn sim_time_is_a_pure_function_of_the_seed() {
        let run = |seed: u64| {
            let mut t = wrapped(6, lossy(seed));
            for round in 0..20u64 {
                for src in 0..6 {
                    t.send(src, (src + 1) % 6, &[round, round + 1]);
                }
                t.broadcast(0, vec![round].into());
                let _ = t.finish_round();
            }
            (t.sim_time_ns(), t.net_retransmits())
        };
        let (sim_a, rt_a) = run(41);
        let (sim_b, rt_b) = run(41);
        assert_eq!(sim_a, sim_b, "same seed, same simulated time");
        assert_eq!(rt_a, rt_b, "same seed, same retransmit count");
        assert!(sim_a > 0);
        assert!(
            rt_a > 0,
            "20 rounds × 7 links at 8% loss should retransmit (got 0)"
        );
        let (sim_c, _) = run(99);
        assert_ne!(sim_a, sim_c, "different seeds draw different conditions");
    }

    #[test]
    #[should_panic(expected = "retransmit budget")]
    fn exhausting_the_retransmit_budget_fails_loudly() {
        // A 100% loss model can never deliver: the budget must trip a
        // loud panic, not hang in backoff forever.
        let model = LinkModel {
            base_ns: 1_000,
            per_word_ns: 1,
            jitter_ns: 0,
            straggler_permille: 0,
            straggler_mult: 1,
            loss_permille: 1000,
            crash_period: 0,
        };
        let mut loads = LinkLoads::new(2);
        loads.add(0, 1, 4);
        let _ = condition_round(&model, "partitioned", 7, 0, &loads);
    }

    #[test]
    fn flaky_profile_schedules_seeded_crashes() {
        let cfg = NetsimConfig {
            profile: NetsimProfile::FlakyNode,
            seed: 5,
        };
        let mut t = wrapped(8, cfg);
        assert!(t.has_fault_plan());
        let mut crashes = Vec::new();
        for round in 0..24u64 {
            t.send(0, 1, &[round]);
            let _ = t.finish_round();
            if let Some(node) = t.take_crash() {
                crashes.push((round, node));
            }
        }
        // crash_period = 12: exactly after barriers 11 and 23.
        assert_eq!(crashes.len(), 2, "got {crashes:?}");
        assert_eq!(crashes[0].0, 11);
        assert_eq!(crashes[1].0, 23);
        assert_eq!(t.net_faults(), 2);
        assert!(t.take_crash().is_none(), "crashes surface exactly once");

        // The schedule is a pure function of the seed.
        let mut t2 = wrapped(8, cfg);
        for round in 0..24u64 {
            t2.send(0, 1, &[round]);
            let _ = t2.finish_round();
            if let Some(node) = t2.take_crash() {
                let expect = crashes[if round == 11 { 0 } else { 1 }];
                assert_eq!((round, node), expect);
            }
        }
    }

    #[test]
    fn crash_recovery_replays_the_faultless_engine_run() {
        // EchoRing for 30 rounds under the flaky profile: two crashes land
        // mid-run, the engine re-ships state through the WireProgram codec,
        // and the final states match an unconditioned run bit for bit.
        let engine = Engine::new(ExecutorKind::Sequential);
        let n = 6;
        let programs = || (0..n).map(|_| EchoRingProgram::new(30)).collect::<Vec<_>>();

        let mut plain_fabric = EngineFabric::new(engine.executor());
        let plain = engine.run_wire_traced_on(&mut plain_fabric, programs(), |_| {});

        let cfg = NetsimConfig {
            profile: NetsimProfile::FlakyNode,
            seed: 17,
        };
        let mut transport = wrapped(n, cfg);
        let report = {
            let mut fabric = TransportFabric::new(transport.as_mut());
            engine.run_wire_traced_on(&mut fabric, programs(), |_| {})
        };

        assert_eq!(report.rounds, plain.rounds);
        assert_eq!(report.words, plain.words);
        assert_eq!(report.engine_rounds, plain.engine_rounds);
        for (node, (a, b)) in report.programs.iter().zip(&plain.programs).enumerate() {
            assert_eq!(a, b, "node {node} diverged under crash recovery");
        }
        assert!(
            transport.net_faults() >= 2,
            "31 barriers at crash_period 12 must crash at least twice"
        );
        assert!(transport.sim_time_ns() > 0);
    }
}
