//! The structured events instrumented layers emit.

/// Power-of-two histogram of per-link word counts within one transport
/// round: bucket `i` counts links that carried `w` words with
/// `floor(log2(w)) == i` (clamped to the last bucket), so bucket 0 is
/// single-word links, bucket 3 is links carrying 8–15 words, and so on.
/// Merging across rounds is element-wise addition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkHistogram {
    /// `buckets[i]` — links whose word count lies in `[2^i, 2^(i+1))`.
    pub buckets: [u64; Self::BUCKETS],
}

impl LinkHistogram {
    /// Number of buckets; the last bucket absorbs everything at or above
    /// `2^(BUCKETS-1)` words.
    pub const BUCKETS: usize = 16;

    /// Counts one link that carried `words` words (zero-word links are
    /// never charged and never counted).
    pub fn add(&mut self, words: u64) {
        if words == 0 {
            return;
        }
        let bucket = (63 - words.leading_zeros() as usize).min(Self::BUCKETS - 1);
        self.buckets[bucket] += 1;
    }

    /// Element-wise merge of another histogram into this one.
    pub fn merge(&mut self, other: &LinkHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    /// Total links counted.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }
}

/// One structured observation from an instrumented layer. Events are data,
/// not behaviour: sinks aggregate or serialise them, and nothing in the
/// simulation ever reads one back.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A malformed `CC_*` environment value was ignored (the
    /// [`crate::env_config::warn_once`] contract routed through the sink).
    ConfigWarning {
        /// Reporting crate (`"cc-runtime"`, `"cc-transport"`, …).
        owner: String,
        /// The environment variable.
        var: &'static str,
        /// The rejected raw value.
        raw: String,
        /// The accepted grammar.
        expected: String,
        /// The fallback that was used instead.
        using: String,
    },
    /// A named monotone counter increment.
    Counter {
        /// Counter name (aggregated by name in the memory sink).
        name: &'static str,
        /// Increment.
        delta: u64,
    },
    /// A named gauge observation (last value wins in the memory sink).
    Gauge {
        /// Gauge name.
        name: &'static str,
        /// Observed value.
        value: f64,
    },
    /// A clique accounting phase opened ([`TraceLevel::Summary`]).
    ///
    /// [`TraceLevel::Summary`]: crate::TraceLevel::Summary
    PhaseStart {
        /// Phase name.
        name: String,
    },
    /// A clique accounting phase closed, with the rounds/words charged to
    /// the whole clique while it ran and its own wall-clock
    /// ([`TraceLevel::Summary`]).
    ///
    /// [`TraceLevel::Summary`]: crate::TraceLevel::Summary
    PhaseEnd {
        /// Phase name.
        name: String,
        /// Link-level rounds charged while the phase was open.
        rounds: u64,
        /// Words delivered while the phase was open.
        words: u64,
        /// Wall-clock the phase body took.
        wall_ns: u64,
    },
    /// One engine round barrier ([`TraceLevel::Rounds`]): node stepping
    /// wall-clock, barrier (delivery) wall-clock, and the round's link
    /// accounting.
    ///
    /// [`TraceLevel::Rounds`]: crate::TraceLevel::Rounds
    EngineRound {
        /// Engine round index (0-based).
        round: u64,
        /// Nodes still live entering this round.
        live: usize,
        /// Wall-clock of stepping all live nodes.
        step_ns: u64,
        /// Wall-clock of the fabric barrier (merge + deliver + account).
        barrier_ns: u64,
        /// Link-level rounds this barrier charged (the max per-link load).
        rounds: u64,
        /// Words delivered at this barrier.
        words: u64,
    },
    /// One executor fan-out decision ([`TraceLevel::Full`]): how many
    /// independent pieces were queued and whether they dispatched to worker
    /// threads or ran inline under the executor's cutover heuristic.
    ///
    /// [`TraceLevel::Full`]: crate::TraceLevel::Full
    ExecutorDispatch {
        /// Independent pieces in the job (the dispatch queue depth).
        pieces: usize,
        /// Worker threads used; `1` means the job ran inline.
        threads: usize,
    },
    /// One node-local kernel dispatch decision ([`TraceLevel::Full`]): which
    /// multiply kernel the `CC_KERNEL` selection chose for a local product —
    /// the local-compute mirror of [`Event::ExecutorDispatch`]. Also carries
    /// the executor's probe-derived cutover (as `kernel = "probe"`,
    /// `op = "exec_cutover"`, `n` = chosen cutover) when self-tuning runs.
    ///
    /// [`TraceLevel::Full`]: crate::TraceLevel::Full
    KernelDecision {
        /// Kernel actually used (`"naive"`, `"blocked"`, `"strassen"`,
        /// `"bitset"`, `"planes"` for the min-plus distance planes, or
        /// `"probe"` for the cutover micro-probe).
        kernel: &'static str,
        /// Operation dispatched (`"mul_i64"`, `"mul_bool"`,
        /// `"minplus_witness"`, `"exec_cutover"`).
        op: &'static str,
        /// Problem size (output rows), or the probed cutover value.
        n: usize,
        /// Tile edge in effect (`0` when tiling is not involved).
        tile: usize,
    },
    /// One transport round barrier ([`TraceLevel::Rounds`]): per-link load
    /// distribution and the barrier wait (rendezvous) wall-clock.
    ///
    /// [`TraceLevel::Rounds`]: crate::TraceLevel::Rounds
    TransportRound {
        /// Backend name (`"inmemory"`, `"socket"`, `"tcp"`).
        backend: &'static str,
        /// Barrier epoch this round committed.
        epoch: u64,
        /// Charged links this round.
        links: usize,
        /// Total words across all links.
        words: u64,
        /// Heaviest link (the round cost).
        max_link: u64,
        /// Mean words per charged link.
        mean_link: f64,
        /// Wall-clock of the barrier (ship + rendezvous + reassembly).
        barrier_ns: u64,
        /// Per-link word-count histogram.
        hist: LinkHistogram,
    },
    /// One coalesced frame batch shipped by a batching backend
    /// ([`TraceLevel::Full`]).
    ///
    /// [`TraceLevel::Full`]: crate::TraceLevel::Full
    FrameBatch {
        /// Backend name.
        backend: &'static str,
        /// Frames coalesced into the batch.
        frames: usize,
        /// Encoded batch size in bytes.
        bytes: usize,
    },
    /// One program-resident round barrier ([`TraceLevel::Rounds`]): the
    /// workers stepped their shards and exchanged payloads peer-to-peer;
    /// only the commit tokens crossed the orchestrator. The split between
    /// `peer_bytes` and `orchestrator_bytes` is the star-vs-clique
    /// accounting the peer-resident refactor exists to move.
    ///
    /// [`TraceLevel::Rounds`]: crate::TraceLevel::Rounds
    ResidentRound {
        /// Backend name (`"tcp"`).
        backend: &'static str,
        /// Barrier epoch this round committed.
        epoch: u64,
        /// Nodes still live after this round's step.
        live: u64,
        /// Payload bytes exchanged worker→worker this round.
        peer_bytes: u64,
        /// Payload bytes routed through the orchestrator this round
        /// (`0` by construction in resident mode).
        orchestrator_bytes: u64,
    },
    /// One network-conditioned round barrier ([`TraceLevel::Rounds`]): the
    /// netsim wrapper's per-round aggregate — simulated completion time
    /// (the max over delivering links, retransmits included) and how many
    /// links retransmitted or straggled.
    ///
    /// [`TraceLevel::Rounds`]: crate::TraceLevel::Rounds
    NetsimRound {
        /// Conditioning profile name (`"lan"`, `"wan"`, `"lossy"`,
        /// `"flaky-node"`).
        profile: &'static str,
        /// Barrier epoch this round committed.
        epoch: u64,
        /// Charged links this round.
        links: usize,
        /// Simulated round completion time: the slowest link's delivery
        /// time in simulated nanoseconds.
        sim_ns: u64,
        /// Simulated retransmissions across all links this round.
        retransmits: u64,
        /// Links hit by straggler injection this round.
        stragglers: u64,
    },
    /// One lossy link's simulated retransmit sequence within a round
    /// ([`TraceLevel::Full`]).
    ///
    /// [`TraceLevel::Full`]: crate::TraceLevel::Full
    NetsimRetransmit {
        /// Conditioning profile name.
        profile: &'static str,
        /// Barrier epoch the retransmits happened in.
        epoch: u64,
        /// Link source node.
        src: usize,
        /// Link destination node.
        dst: usize,
        /// Delivery attempts the link needed (`2` means one retransmit).
        attempts: u32,
    },
    /// One injected node fault or its recovery ([`TraceLevel::Summary`]).
    ///
    /// [`TraceLevel::Summary`]: crate::TraceLevel::Summary
    NetsimFault {
        /// Conditioning profile name.
        profile: &'static str,
        /// Barrier epoch the fault was injected after.
        epoch: u64,
        /// The crashed / recovered node.
        node: usize,
        /// `"crash"` or `"recover"`.
        kind: &'static str,
        /// Words of serialized program state re-shipped (`0` for crashes;
        /// recoveries carry the checkpoint size).
        state_words: usize,
    },
    /// An event captured inside a worker process and merged into the
    /// orchestrator's stream with per-process attribution
    /// ([`crate::Telemetry::merge_worker`]). Wrapping — instead of a
    /// `worker_id` on every variant — keeps orchestrator-emitted events
    /// and worker-emitted events structurally distinct, so aggregates can
    /// attribute without double counting.
    Worker {
        /// Worker process index (the transport shard id).
        worker: u32,
        /// The event exactly as the worker emitted it.
        event: Box<Event>,
    },
    /// A warm-pool checkout boundary ([`TraceLevel::Summary`]): the clique
    /// was reset for reuse, discarding the accounting totals recorded here.
    /// Delimits phases from different checkouts in long captures.
    ///
    /// [`TraceLevel::Summary`]: crate::TraceLevel::Summary
    Reset {
        /// Link-level rounds accumulated by the life being discarded.
        rounds: u64,
        /// Words accumulated by the life being discarded.
        words: u64,
        /// Fabric barrier epoch at reset (epochs keep counting across
        /// resets).
        epoch: u64,
    },
    /// One worker's lane through one barrier ([`TraceLevel::Rounds`]),
    /// measured by the orchestrator's commit-collection loop: wall-clock
    /// from barrier start until this worker's commit token was read. The
    /// per-epoch maximum identifies the worker that closed the barrier
    /// (the round's critical path); the spread is straggler skew.
    ///
    /// [`TraceLevel::Rounds`]: crate::TraceLevel::Rounds
    BarrierLane {
        /// Backend name (`"socket"`, `"tcp"`).
        backend: &'static str,
        /// Barrier epoch the lane belongs to.
        epoch: u64,
        /// Worker process index.
        worker: u32,
        /// Wall-clock from barrier start to this worker's commit token.
        wall_ns: u64,
    },
}

/// Serialises one event as a single-line JSON object (the [`crate::JsonlSink`]
/// wire format). Hand-rolled — the workspace carries no serde — with string
/// fields escaped.
#[must_use]
pub fn event_json(event: &Event) -> String {
    match event {
        Event::ConfigWarning {
            owner,
            var,
            raw,
            expected,
            using,
        } => format!(
            "{{\"event\":\"config_warning\",\"owner\":{},\"var\":{},\"raw\":{},\
             \"expected\":{},\"using\":{}}}",
            js(owner),
            js(var),
            js(raw),
            js(expected),
            js(using)
        ),
        Event::Counter { name, delta } => {
            format!(
                "{{\"event\":\"counter\",\"name\":{},\"delta\":{delta}}}",
                js(name)
            )
        }
        Event::Gauge { name, value } => {
            format!(
                "{{\"event\":\"gauge\",\"name\":{},\"value\":{value}}}",
                js(name)
            )
        }
        Event::PhaseStart { name } => {
            format!("{{\"event\":\"phase_start\",\"name\":{}}}", js(name))
        }
        Event::PhaseEnd {
            name,
            rounds,
            words,
            wall_ns,
        } => format!(
            "{{\"event\":\"phase_end\",\"name\":{},\"rounds\":{rounds},\"words\":{words},\
             \"wall_ns\":{wall_ns}}}",
            js(name)
        ),
        Event::EngineRound {
            round,
            live,
            step_ns,
            barrier_ns,
            rounds,
            words,
        } => format!(
            "{{\"event\":\"engine_round\",\"round\":{round},\"live\":{live},\
             \"step_ns\":{step_ns},\"barrier_ns\":{barrier_ns},\"rounds\":{rounds},\
             \"words\":{words}}}"
        ),
        Event::ExecutorDispatch { pieces, threads } => {
            format!("{{\"event\":\"executor_dispatch\",\"pieces\":{pieces},\"threads\":{threads}}}")
        }
        Event::KernelDecision {
            kernel,
            op,
            n,
            tile,
        } => format!(
            "{{\"event\":\"kernel_decision\",\"kernel\":{},\"op\":{},\"n\":{n},\"tile\":{tile}}}",
            js(kernel),
            js(op)
        ),
        Event::TransportRound {
            backend,
            epoch,
            links,
            words,
            max_link,
            mean_link,
            barrier_ns,
            hist,
        } => {
            let buckets: Vec<String> = hist.buckets.iter().map(u64::to_string).collect();
            format!(
                "{{\"event\":\"transport_round\",\"backend\":{},\"epoch\":{epoch},\
                 \"links\":{links},\"words\":{words},\"max_link\":{max_link},\
                 \"mean_link\":{mean_link},\"barrier_ns\":{barrier_ns},\
                 \"hist\":[{}]}}",
                js(backend),
                buckets.join(",")
            )
        }
        Event::FrameBatch {
            backend,
            frames,
            bytes,
        } => format!(
            "{{\"event\":\"frame_batch\",\"backend\":{},\"frames\":{frames},\"bytes\":{bytes}}}",
            js(backend)
        ),
        Event::ResidentRound {
            backend,
            epoch,
            live,
            peer_bytes,
            orchestrator_bytes,
        } => format!(
            "{{\"event\":\"resident_round\",\"backend\":{},\"epoch\":{epoch},\"live\":{live},\
             \"peer_bytes\":{peer_bytes},\"orchestrator_bytes\":{orchestrator_bytes}}}",
            js(backend)
        ),
        Event::NetsimRound {
            profile,
            epoch,
            links,
            sim_ns,
            retransmits,
            stragglers,
        } => format!(
            "{{\"event\":\"netsim_round\",\"profile\":{},\"epoch\":{epoch},\"links\":{links},\
             \"sim_ns\":{sim_ns},\"retransmits\":{retransmits},\"stragglers\":{stragglers}}}",
            js(profile)
        ),
        Event::NetsimRetransmit {
            profile,
            epoch,
            src,
            dst,
            attempts,
        } => format!(
            "{{\"event\":\"netsim_retransmit\",\"profile\":{},\"epoch\":{epoch},\"src\":{src},\
             \"dst\":{dst},\"attempts\":{attempts}}}",
            js(profile)
        ),
        Event::NetsimFault {
            profile,
            epoch,
            node,
            kind,
            state_words,
        } => format!(
            "{{\"event\":\"netsim_fault\",\"profile\":{},\"epoch\":{epoch},\"node\":{node},\
             \"kind\":{},\"state_words\":{state_words}}}",
            js(profile),
            js(kind)
        ),
        Event::Worker { worker, event } => format!(
            "{{\"event\":\"worker\",\"worker\":{worker},\"inner\":{}}}",
            event_json(event)
        ),
        Event::Reset {
            rounds,
            words,
            epoch,
        } => {
            format!(
                "{{\"event\":\"reset\",\"rounds\":{rounds},\"words\":{words},\"epoch\":{epoch}}}"
            )
        }
        Event::BarrierLane {
            backend,
            epoch,
            worker,
            wall_ns,
        } => format!(
            "{{\"event\":\"barrier_lane\",\"backend\":{},\"epoch\":{epoch},\"worker\":{worker},\
             \"wall_ns\":{wall_ns}}}",
            js(backend)
        ),
    }
}

/// Parses one [`event_json`] line back into an [`Event`] — the merge half
/// of the distributed-capture wire format (workers ship `event_json` lines
/// inside `Frame::Telemetry`; the orchestrator and `cc-report --replay`
/// parse them back). Hand-rolled like the writer; returns `None` for
/// malformed lines or unknown event names rather than failing the run —
/// telemetry stays observer-only even against a corrupt capture.
#[must_use]
pub fn event_from_json(line: &str) -> Option<Event> {
    let fields = parse_object(line.trim())?;
    let kind = fields.str_field("event")?;
    let event = match kind.as_str() {
        "config_warning" => Event::ConfigWarning {
            owner: fields.str_field("owner")?,
            var: intern(&fields.str_field("var")?),
            raw: fields.str_field("raw")?,
            expected: fields.str_field("expected")?,
            using: fields.str_field("using")?,
        },
        "counter" => Event::Counter {
            name: intern(&fields.str_field("name")?),
            delta: fields.u64_field("delta")?,
        },
        "gauge" => Event::Gauge {
            name: intern(&fields.str_field("name")?),
            value: fields.f64_field("value")?,
        },
        "phase_start" => Event::PhaseStart {
            name: fields.str_field("name")?,
        },
        "phase_end" => Event::PhaseEnd {
            name: fields.str_field("name")?,
            rounds: fields.u64_field("rounds")?,
            words: fields.u64_field("words")?,
            wall_ns: fields.u64_field("wall_ns")?,
        },
        "engine_round" => Event::EngineRound {
            round: fields.u64_field("round")?,
            live: fields.usize_field("live")?,
            step_ns: fields.u64_field("step_ns")?,
            barrier_ns: fields.u64_field("barrier_ns")?,
            rounds: fields.u64_field("rounds")?,
            words: fields.u64_field("words")?,
        },
        "executor_dispatch" => Event::ExecutorDispatch {
            pieces: fields.usize_field("pieces")?,
            threads: fields.usize_field("threads")?,
        },
        "kernel_decision" => Event::KernelDecision {
            kernel: intern(&fields.str_field("kernel")?),
            op: intern(&fields.str_field("op")?),
            n: fields.usize_field("n")?,
            tile: fields.usize_field("tile")?,
        },
        "transport_round" => {
            let buckets = fields.array_field("hist")?;
            if buckets.len() != LinkHistogram::BUCKETS {
                return None;
            }
            let mut hist = LinkHistogram::default();
            hist.buckets.copy_from_slice(&buckets);
            Event::TransportRound {
                backend: intern(&fields.str_field("backend")?),
                epoch: fields.u64_field("epoch")?,
                links: fields.usize_field("links")?,
                words: fields.u64_field("words")?,
                max_link: fields.u64_field("max_link")?,
                mean_link: fields.f64_field("mean_link")?,
                barrier_ns: fields.u64_field("barrier_ns")?,
                hist,
            }
        }
        "frame_batch" => Event::FrameBatch {
            backend: intern(&fields.str_field("backend")?),
            frames: fields.usize_field("frames")?,
            bytes: fields.usize_field("bytes")?,
        },
        "resident_round" => Event::ResidentRound {
            backend: intern(&fields.str_field("backend")?),
            epoch: fields.u64_field("epoch")?,
            live: fields.u64_field("live")?,
            peer_bytes: fields.u64_field("peer_bytes")?,
            orchestrator_bytes: fields.u64_field("orchestrator_bytes")?,
        },
        "netsim_round" => Event::NetsimRound {
            profile: intern(&fields.str_field("profile")?),
            epoch: fields.u64_field("epoch")?,
            links: fields.usize_field("links")?,
            sim_ns: fields.u64_field("sim_ns")?,
            retransmits: fields.u64_field("retransmits")?,
            stragglers: fields.u64_field("stragglers")?,
        },
        "netsim_retransmit" => Event::NetsimRetransmit {
            profile: intern(&fields.str_field("profile")?),
            epoch: fields.u64_field("epoch")?,
            src: fields.usize_field("src")?,
            dst: fields.usize_field("dst")?,
            attempts: u32::try_from(fields.u64_field("attempts")?).ok()?,
        },
        "netsim_fault" => Event::NetsimFault {
            profile: intern(&fields.str_field("profile")?),
            epoch: fields.u64_field("epoch")?,
            node: fields.usize_field("node")?,
            kind: intern(&fields.str_field("kind")?),
            state_words: fields.usize_field("state_words")?,
        },
        "worker" => Event::Worker {
            worker: u32::try_from(fields.u64_field("worker")?).ok()?,
            event: Box::new(event_from_json(&fields.obj_field("inner")?)?),
        },
        "reset" => Event::Reset {
            rounds: fields.u64_field("rounds")?,
            words: fields.u64_field("words")?,
            epoch: fields.u64_field("epoch")?,
        },
        "barrier_lane" => Event::BarrierLane {
            backend: intern(&fields.str_field("backend")?),
            epoch: fields.u64_field("epoch")?,
            worker: u32::try_from(fields.u64_field("worker")?).ok()?,
            wall_ns: fields.u64_field("wall_ns")?,
        },
        _ => return None,
    };
    Some(event)
}

/// Returns a `'static` copy of `s`, deduplicated through a process-global
/// registry. Parsed events need `&'static str` fields to round-trip into
/// the same [`Event`] shape the emitting side used; the registry bounds
/// the leak to one allocation per distinct name ever parsed.
fn intern(s: &str) -> &'static str {
    use std::collections::BTreeMap;
    use std::sync::{Mutex, OnceLock};
    // Fast path: the names the instrumented layers actually emit.
    const KNOWN: &[&str] = &[
        "inmemory",
        "socket",
        "tcp",
        "lan",
        "wan",
        "lossy",
        "flaky-node",
        "naive",
        "blocked",
        "strassen",
        "bitset",
        "planes",
        "probe",
        "mul_i64",
        "mul_bool",
        "minplus_witness",
        "exec_cutover",
        "crash",
        "recover",
    ];
    if let Some(k) = KNOWN.iter().find(|k| **k == s) {
        return k;
    }
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, &'static str>>> = OnceLock::new();
    let mut map = REGISTRY
        .get_or_init(|| Mutex::new(BTreeMap::new()))
        .lock()
        .expect("intern registry poisoned");
    if let Some(interned) = map.get(s) {
        return interned;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    map.insert(s.to_string(), leaked);
    leaked
}

/// The parsed fields of one flat JSON object: raw number slices (so `u64`
/// stays exact), unescaped strings, `u64` arrays (histograms), and raw
/// nested-object text (re-parsed recursively for [`Event::Worker`]).
struct Fields {
    entries: Vec<(String, Value)>,
}

enum Value {
    Str(String),
    Num(String),
    Arr(Vec<u64>),
    Obj(String),
}

impl Fields {
    fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn str_field(&self, key: &str) -> Option<String> {
        match self.get(key)? {
            Value::Str(s) => Some(s.clone()),
            _ => None,
        }
    }

    fn u64_field(&self, key: &str) -> Option<u64> {
        match self.get(key)? {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    fn usize_field(&self, key: &str) -> Option<usize> {
        usize::try_from(self.u64_field(key)?).ok()
    }

    fn f64_field(&self, key: &str) -> Option<f64> {
        match self.get(key)? {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    fn array_field(&self, key: &str) -> Option<Vec<u64>> {
        match self.get(key)? {
            Value::Arr(v) => Some(v.clone()),
            _ => None,
        }
    }

    fn obj_field(&self, key: &str) -> Option<String> {
        match self.get(key)? {
            Value::Obj(raw) => Some(raw.clone()),
            _ => None,
        }
    }
}

fn parse_object(text: &str) -> Option<Fields> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let fields = p.object()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return None; // trailing garbage after the object
    }
    Some(fields)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Option<()> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Some(())
        } else {
            None
        }
    }

    fn object(&mut self) -> Option<Fields> {
        self.eat(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Some(Fields { entries });
        }
        loop {
            let key = self.string()?;
            self.eat(b':')?;
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Some(Fields { entries });
                }
                _ => return None,
            }
        }
    }

    fn value(&mut self) -> Option<Value> {
        self.skip_ws();
        match self.bytes.get(self.pos)? {
            b'"' => Some(Value::Str(self.string()?)),
            b'[' => Some(Value::Arr(self.array()?)),
            b'{' => Some(Value::Obj(self.raw_object()?)),
            _ => Some(Value::Num(self.number()?)),
        }
    }

    fn string(&mut self) -> Option<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos)? {
                b'"' => {
                    self.pos += 1;
                    return Some(out);
                }
                b'\\' => {
                    self.pos += 1;
                    match self.bytes.get(self.pos)? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self.bytes.get(self.pos + 1..self.pos + 5)?;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            out.push(char::from_u32(code)?);
                            self.pos += 4;
                        }
                        _ => return None,
                    }
                    self.pos += 1;
                }
                _ => {
                    // Multi-byte UTF-8 sequences pass through verbatim;
                    // re-slice on char boundaries via str indexing.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..]).ok()?;
                    let c = rest.chars().next()?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Option<String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        if self.pos == start {
            return None;
        }
        String::from_utf8(self.bytes[start..self.pos].to_vec()).ok()
    }

    fn array(&mut self) -> Option<Vec<u64>> {
        self.eat(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Some(out);
        }
        loop {
            out.push(self.number()?.parse().ok()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Some(out);
                }
                _ => return None,
            }
        }
    }

    /// Consumes one balanced nested object and returns its raw text
    /// (strings skipped correctly so braces inside values don't miscount).
    fn raw_object(&mut self) -> Option<String> {
        self.skip_ws();
        let start = self.pos;
        if self.bytes.get(self.pos) != Some(&b'{') {
            return None;
        }
        let mut depth = 0usize;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'{' => {
                    depth += 1;
                    self.pos += 1;
                }
                b'}' => {
                    depth -= 1;
                    self.pos += 1;
                    if depth == 0 {
                        let raw = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?;
                        return Some(raw.to_string());
                    }
                }
                b'"' => {
                    self.string()?;
                }
                _ => self.pos += 1,
            }
        }
        None
    }
}

/// Minimal JSON string quoting: escapes quotes, backslashes, and control
/// characters (config warnings carry raw environment values).
fn js(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_power_of_two_ranges() {
        let mut h = LinkHistogram::default();
        h.add(0); // never charged, never counted
        h.add(1);
        h.add(2);
        h.add(3);
        h.add(8);
        h.add(15);
        h.add(u64::MAX); // clamps into the last bucket
        assert_eq!(h.buckets[0], 1, "one single-word link");
        assert_eq!(h.buckets[1], 2, "two links in [2,4)");
        assert_eq!(h.buckets[3], 2, "two links in [8,16)");
        assert_eq!(h.buckets[LinkHistogram::BUCKETS - 1], 1);
        assert_eq!(h.total(), 6);

        let mut other = LinkHistogram::default();
        other.add(1);
        h.merge(&other);
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.total(), 7);
    }

    #[test]
    fn event_json_escapes_raw_values() {
        let line = event_json(&Event::ConfigWarning {
            owner: "cc-runtime".to_string(),
            var: "CC_EXECUTOR",
            raw: "para\"llel\\x\n".to_string(),
            expected: "names".to_string(),
            using: "Sequential".to_string(),
        });
        assert!(line.contains("\\\"llel\\\\x\\n"), "escaped: {line}");
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert_eq!(line.matches('\n').count(), 0, "one line per event");
    }

    #[test]
    fn event_json_covers_every_variant() {
        let events = [
            Event::Counter {
                name: "c",
                delta: 1,
            },
            Event::Gauge {
                name: "g",
                value: 0.5,
            },
            Event::PhaseStart {
                name: "p".to_string(),
            },
            Event::PhaseEnd {
                name: "p".to_string(),
                rounds: 1,
                words: 2,
                wall_ns: 3,
            },
            Event::EngineRound {
                round: 0,
                live: 4,
                step_ns: 10,
                barrier_ns: 20,
                rounds: 1,
                words: 8,
            },
            Event::ExecutorDispatch {
                pieces: 64,
                threads: 1,
            },
            Event::KernelDecision {
                kernel: "bitset",
                op: "mul_bool",
                n: 256,
                tile: 0,
            },
            Event::TransportRound {
                backend: "inmemory",
                epoch: 7,
                links: 3,
                words: 9,
                max_link: 4,
                mean_link: 3.0,
                barrier_ns: 100,
                hist: LinkHistogram::default(),
            },
            Event::FrameBatch {
                backend: "socket",
                frames: 12,
                bytes: 4096,
            },
            Event::ResidentRound {
                backend: "tcp",
                epoch: 3,
                live: 5,
                peer_bytes: 2048,
                orchestrator_bytes: 0,
            },
            Event::NetsimRound {
                profile: "lossy",
                epoch: 2,
                links: 12,
                sim_ns: 1_500_000,
                retransmits: 3,
                stragglers: 1,
            },
            Event::NetsimRetransmit {
                profile: "lossy",
                epoch: 2,
                src: 0,
                dst: 5,
                attempts: 2,
            },
            Event::NetsimFault {
                profile: "flaky-node",
                epoch: 11,
                node: 4,
                kind: "recover",
                state_words: 64,
            },
            Event::Worker {
                worker: 2,
                event: Box::new(Event::FrameBatch {
                    backend: "tcp",
                    frames: 3,
                    bytes: 512,
                }),
            },
            Event::Reset {
                rounds: 40,
                words: 9000,
                epoch: 17,
            },
            Event::BarrierLane {
                backend: "socket",
                epoch: 5,
                worker: 1,
                wall_ns: 120_000,
            },
        ];
        for e in &events {
            let line = event_json(e);
            assert!(
                line.starts_with("{\"event\":\"") && line.ends_with('}'),
                "malformed line for {e:?}: {line}"
            );
        }
    }

    /// The distributed-capture wire format is `event_json` lines parsed
    /// back by `event_from_json`; every variant must survive the trip
    /// bit-for-bit (including a non-trivial histogram, an escaped raw
    /// value, and a nested worker wrapper).
    #[test]
    fn event_json_round_trips_through_the_parser() {
        let mut hist = LinkHistogram::default();
        hist.add(1);
        hist.add(9);
        hist.add(u64::MAX);
        let events = [
            Event::ConfigWarning {
                owner: "cc-runtime".to_string(),
                var: "CC_EXECUTOR",
                raw: "para\"llel\\x\n\u{1}".to_string(),
                expected: "sequential or parallel".to_string(),
                using: "Sequential".to_string(),
            },
            Event::Counter {
                name: "config_warnings",
                delta: 3,
            },
            Event::Gauge {
                name: "service_cache_hits",
                value: 0.125,
            },
            Event::PhaseStart {
                name: "triangles".to_string(),
            },
            Event::PhaseEnd {
                name: "triangles".to_string(),
                rounds: 12,
                words: 3456,
                wall_ns: 7_890_123,
            },
            Event::EngineRound {
                round: 4,
                live: 16,
                step_ns: 100,
                barrier_ns: 200,
                rounds: 1,
                words: 64,
            },
            Event::ExecutorDispatch {
                pieces: 64,
                threads: 4,
            },
            Event::KernelDecision {
                kernel: "bitset",
                op: "mul_bool",
                n: 256,
                tile: 64,
            },
            Event::TransportRound {
                backend: "socket",
                epoch: 7,
                links: 240,
                words: 9_999,
                max_link: 52,
                mean_link: 41.662_5,
                barrier_ns: 1_234_567,
                hist,
            },
            Event::FrameBatch {
                backend: "socket",
                frames: 17,
                bytes: 65_536,
            },
            Event::ResidentRound {
                backend: "tcp",
                epoch: 3,
                live: 5,
                peer_bytes: 2_048,
                orchestrator_bytes: 0,
            },
            Event::NetsimRound {
                profile: "lossy",
                epoch: 2,
                links: 12,
                sim_ns: 1_500_000,
                retransmits: 3,
                stragglers: 1,
            },
            Event::NetsimRetransmit {
                profile: "lossy",
                epoch: 2,
                src: 0,
                dst: 5,
                attempts: 2,
            },
            Event::NetsimFault {
                profile: "flaky-node",
                epoch: 11,
                node: 4,
                kind: "recover",
                state_words: 64,
            },
            Event::Worker {
                worker: 2,
                event: Box::new(Event::ResidentRound {
                    backend: "tcp",
                    epoch: 9,
                    live: 8,
                    peer_bytes: 4_096,
                    orchestrator_bytes: 0,
                }),
            },
            Event::Reset {
                rounds: 40,
                words: 9_000,
                epoch: 17,
            },
            Event::BarrierLane {
                backend: "tcp",
                epoch: 5,
                worker: 1,
                wall_ns: 120_000,
            },
        ];
        for e in &events {
            let line = event_json(e);
            let parsed = event_from_json(&line);
            assert_eq!(parsed.as_ref(), Some(e), "round trip failed: {line}");
        }
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        for bad in [
            "",
            "{",
            "not json",
            "{\"event\":\"no_such_event\"}",
            "{\"event\":\"counter\",\"name\":\"c\"}", // missing delta
            "{\"event\":\"counter\",\"name\":\"c\",\"delta\":1} trailing",
            "{\"event\":\"worker\",\"worker\":0,\"inner\":{\"event\":\"bogus\"}}",
            "{\"event\":\"transport_round\",\"backend\":\"socket\",\"epoch\":0,\
             \"links\":0,\"words\":0,\"max_link\":0,\"mean_link\":0,\"barrier_ns\":0,\
             \"hist\":[1,2]}", // short histogram
        ] {
            assert!(event_from_json(bad).is_none(), "accepted: {bad}");
        }
    }

    #[test]
    fn intern_returns_stable_references() {
        let a = event_from_json("{\"event\":\"counter\",\"name\":\"brand_new_name\",\"delta\":1}")
            .expect("parses");
        let b = event_from_json("{\"event\":\"counter\",\"name\":\"brand_new_name\",\"delta\":2}")
            .expect("parses");
        let (Event::Counter { name: na, .. }, Event::Counter { name: nb, .. }) = (&a, &b) else {
            panic!("wrong variants");
        };
        assert!(std::ptr::eq(*na, *nb), "same interned pointer");
    }
}
