//! Round and traffic accounting.

use cc_runtime::LinkLoads;
use std::collections::BTreeMap;
use std::fmt;
use std::time::Instant;

/// Per-phase round, word, and wall-clock counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Synchronous rounds executed while the phase was active.
    pub rounds: u64,
    /// Total words delivered while the phase was active.
    pub words: u64,
    /// Wall-clock spent inside the phase, in nanoseconds. Like rounds and
    /// words, nested phases attribute their time to every enclosing phase
    /// (an enclosing phase's interval contains its inner phases').
    pub wall_ns: u64,
    /// Simulated network time accrued while the phase was active, in
    /// nanoseconds. Zero unless a `cc-netsim` condition profile is active
    /// (`CC_NETSIM` / [`crate::CliqueConfig::netsim`]); follows the same
    /// nested-attribution rule as rounds and words.
    pub sim_time_ns: u64,
}

/// Cumulative execution statistics for a [`crate::Clique`].
///
/// Phases are named by [`crate::Clique::phase`]; nested phases attribute their
/// cost to every enclosing phase, so a top-level phase reports the full cost
/// of the algorithm it wraps. Wall-clock follows the same rule: each phase is
/// charged the real time between its push and its pop, which spans any inner
/// phases.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    rounds: u64,
    words: u64,
    sim_time_ns: u64,
    phases: BTreeMap<String, PhaseStats>,
    stack: Vec<(String, Instant)>,
    /// Fingerprints of flush-level communication patterns (for obliviousness
    /// tests); populated only when pattern recording is enabled.
    fingerprints: Vec<u64>,
    record_patterns: bool,
}

impl Stats {
    pub(crate) fn new(record_patterns: bool) -> Self {
        Self {
            record_patterns,
            ..Self::default()
        }
    }

    /// Total rounds executed so far.
    #[must_use]
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Total words delivered so far.
    #[must_use]
    pub fn words(&self) -> u64 {
        self.words
    }

    /// Total simulated network time accrued so far, in nanoseconds. Zero
    /// unless a `cc-netsim` condition profile is active; for a fixed
    /// profile and seed the value is bit-reproducible across runs.
    #[must_use]
    pub fn sim_time_ns(&self) -> u64 {
        self.sim_time_ns
    }

    /// Statistics for a named phase, if that phase ever ran.
    #[must_use]
    pub fn phase(&self, name: &str) -> Option<PhaseStats> {
        self.phases.get(name).copied()
    }

    /// All phase names seen so far, in lexicographic order.
    pub fn phase_names(&self) -> impl Iterator<Item = &str> {
        self.phases.keys().map(String::as_str)
    }

    /// Fingerprints of each executed flush's communication pattern.
    ///
    /// Two runs with identical fingerprint sequences used identical
    /// communication patterns (same per-link word counts in the same order),
    /// which is the paper's notion of an *oblivious* algorithm.
    #[must_use]
    pub fn pattern_fingerprints(&self) -> &[u64] {
        &self.fingerprints
    }

    pub(crate) fn charge(&mut self, rounds: u64, words: u64) {
        self.rounds += rounds;
        self.words += words;
        for (name, _) in &self.stack {
            let e = self.phases.entry(name.clone()).or_default();
            e.rounds += rounds;
            e.words += words;
        }
    }

    /// Charges simulated network time, attributing it to every active phase
    /// (the same nesting rule as [`Stats::charge`]).
    pub(crate) fn charge_sim_time(&mut self, sim_ns: u64) {
        if sim_ns == 0 {
            return;
        }
        self.sim_time_ns += sim_ns;
        for (name, _) in &self.stack {
            let e = self.phases.entry(name.clone()).or_default();
            e.sim_time_ns += sim_ns;
        }
    }

    pub(crate) fn push_phase(&mut self, name: &str) {
        self.stack.push((name.to_owned(), Instant::now()));
        self.phases.entry(name.to_owned()).or_default();
    }

    /// Closes the innermost phase, charging its elapsed wall-clock, and
    /// returns `(name, this run's elapsed ns)`. Only the popped frame is
    /// charged here: enclosing frames' own intervals span this one, so
    /// nested attribution falls out when *they* pop.
    pub(crate) fn pop_phase(&mut self) -> (String, u64) {
        let (name, started) = self.stack.pop().expect("phase stack underflow");
        let elapsed = started.elapsed().as_nanos() as u64;
        let e = self.phases.entry(name.clone()).or_default();
        e.wall_ns += elapsed;
        (name, elapsed)
    }

    /// Appends the fingerprint of one barrier's loads when patterns are
    /// recorded; otherwise the loads are not walked at all.
    pub(crate) fn record_fingerprint(&mut self, loads: &LinkLoads) {
        if !self.record_patterns {
            return;
        }
        // FNV-1a over the canonical (src, dst, len) triples.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for (s, d, l) in loads.iter() {
            mix(s as u64);
            mix(d as u64);
            mix(l as u64);
        }
        self.fingerprints.push(h);
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.sim_time_ns > 0 {
            writeln!(
                f,
                "rounds={} words={} sim={:.3}ms",
                self.rounds,
                self.words,
                self.sim_time_ns as f64 / 1_000_000.0
            )?;
        } else {
            writeln!(f, "rounds={} words={}", self.rounds, self.words)?;
        }
        for (name, p) in &self.phases {
            write!(
                f,
                "  {name}: rounds={} words={} wall={:.3}ms",
                p.rounds,
                p.words,
                p.wall_ns as f64 / 1_000_000.0
            )?;
            if p.sim_time_ns > 0 {
                write!(f, " sim={:.3}ms", p.sim_time_ns as f64 / 1_000_000.0)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Burns a little CPU so elapsed intervals are reliably non-zero
    /// (sleeping would slow the suite for no extra confidence).
    fn spin() {
        let mut acc = 0u64;
        for i in 0..20_000u64 {
            acc = acc.wrapping_add(std::hint::black_box(i).wrapping_mul(31));
        }
        std::hint::black_box(acc);
    }

    #[test]
    fn nested_phase_attribution() {
        let mut s = Stats::new(false);
        s.push_phase("outer");
        s.charge(1, 10);
        s.push_phase("inner");
        s.charge(2, 20);
        s.pop_phase();
        s.charge(3, 30);
        s.pop_phase();
        assert_eq!(s.rounds(), 6);
        assert_eq!(s.words(), 60);
        let outer = s.phase("outer").unwrap();
        assert_eq!((outer.rounds, outer.words), (6, 60));
        let inner = s.phase("inner").unwrap();
        assert_eq!((inner.rounds, inner.words), (2, 20));
        assert!(s.phase("missing").is_none());
    }

    #[test]
    fn nested_phases_attribute_wall_clock_to_every_enclosing_phase() {
        let mut s = Stats::new(false);
        s.push_phase("outer");
        spin();
        s.push_phase("inner");
        spin();
        let (name, inner_ns) = s.pop_phase();
        assert_eq!(name, "inner");
        assert!(inner_ns > 0, "spinning must register on the clock");
        spin();
        let (name, outer_ns) = s.pop_phase();
        assert_eq!(name, "outer");
        assert_eq!(s.phase("inner").unwrap().wall_ns, inner_ns);
        assert_eq!(s.phase("outer").unwrap().wall_ns, outer_ns);
        // The outer interval spans the inner one plus its own work.
        assert!(
            outer_ns > inner_ns,
            "outer ({outer_ns}ns) must include inner ({inner_ns}ns)"
        );
    }

    #[test]
    fn repeated_phases_accumulate_monotonically() {
        let mut s = Stats::new(false);
        let mut last_total = 0;
        let mut elapsed_sum = 0;
        for _ in 0..3 {
            s.push_phase("mm");
            spin();
            let (_, elapsed_ns) = s.pop_phase();
            assert!(elapsed_ns > 0, "each run must register on the clock");
            elapsed_sum += elapsed_ns;
            let total = s.phase("mm").unwrap().wall_ns;
            assert!(
                total > last_total,
                "wall-clock must be monotone across runs"
            );
            last_total = total;
        }
        assert_eq!(s.phase("mm").unwrap().wall_ns, elapsed_sum);
    }

    #[test]
    fn fingerprints_detect_pattern_changes() {
        let loads = |first: usize| {
            let mut loads = LinkLoads::new(2);
            loads.add(0, 1, first);
            loads.add(1, 0, 2);
            loads
        };
        let mut a = Stats::new(true);
        a.record_fingerprint(&loads(3));
        let mut b = Stats::new(true);
        b.record_fingerprint(&loads(3));
        assert_eq!(a.pattern_fingerprints(), b.pattern_fingerprints());
        let mut c = Stats::new(true);
        c.record_fingerprint(&loads(4));
        assert_ne!(a.pattern_fingerprints(), c.pattern_fingerprints());
    }

    #[test]
    fn display_is_nonempty() {
        let s = Stats::new(false);
        assert!(!format!("{s}").is_empty());
    }
}
