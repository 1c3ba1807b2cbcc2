//! The link-level cost model shared by the engine and the wire simulator.

/// Per-link word counts of one communication step, in deterministic
/// `(src, dst)` order. One link moves one word per round, so a step costs
/// [`LinkLoads::rounds`] synchronous rounds. Self-links (`src == dst`) are
/// local memory moves and are never recorded. Used for round accounting and
/// obliviousness fingerprints; keeping this type in one place is what keeps
/// engine-driven and flush-driven accounting bit-identical.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkLoads {
    loads: Vec<(usize, usize, usize)>,
    /// The longest entry of `loads`, kept as entries are added.
    rounds: u64,
    /// The sum of `loads`, kept as entries are added.
    words: u64,
}

impl LinkLoads {
    /// Creates an empty load set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `words` on the `(src, dst)` link. Zero-word entries and
    /// self-links are ignored. Callers must add entries in canonical
    /// `(src, dst)` order for fingerprints to be executor-independent.
    pub fn add(&mut self, src: usize, dst: usize, words: usize) {
        if words > 0 && src != dst {
            self.loads.push((src, dst, words));
            self.rounds = self.rounds.max(words as u64);
            self.words += words as u64;
        }
    }

    /// The number of synchronous rounds needed to drain these loads: the
    /// maximum over directed links of the number of words on that link
    /// (each link carries one word per round).
    #[must_use]
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Total words crossing links.
    #[must_use]
    pub fn words(&self) -> u64 {
        self.words
    }

    /// Iterates over `(src, dst, words)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        self.loads.iter().copied()
    }

    /// Maximum number of words sent by any single node in this step.
    #[must_use]
    pub fn max_out(&self, n: usize) -> usize {
        let mut out = vec![0usize; n];
        for &(s, _, w) in &self.loads {
            out[s] += w;
        }
        out.into_iter().max().unwrap_or(0)
    }

    /// Maximum number of words received by any single node in this step.
    #[must_use]
    pub fn max_in(&self, n: usize) -> usize {
        let mut inc = vec![0usize; n];
        for &(_, d, w) in &self.loads {
            inc[d] += w;
        }
        inc.into_iter().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_out_maxima() {
        let mut loads = LinkLoads::new();
        loads.add(0, 1, 5);
        loads.add(0, 2, 3);
        loads.add(2, 1, 4);
        assert_eq!(loads.rounds(), 5);
        assert_eq!(loads.words(), 12);
        assert_eq!(loads.max_out(3), 8);
        assert_eq!(loads.max_in(3), 9);
    }

    #[test]
    fn self_links_and_empty_entries_are_ignored() {
        let mut loads = LinkLoads::new();
        loads.add(1, 1, 10);
        loads.add(0, 1, 0);
        assert_eq!(loads.rounds(), 0);
        assert_eq!(loads.iter().count(), 0);
    }

    #[test]
    fn kept_totals_equal_a_rescan_after_every_add() {
        let mut loads = LinkLoads::new();
        let adds = [
            (0, 1, 3),
            (2, 2, 50),
            (1, 0, 0),
            (2, 0, 7),
            (0, 0, 9),
            (1, 2, 7),
            (2, 1, 1),
        ];
        for (src, dst, words) in adds {
            loads.add(src, dst, words);
            let entries: Vec<u64> = loads.iter().map(|(_, _, w)| w as u64).collect();
            assert_eq!(loads.rounds(), entries.iter().copied().max().unwrap_or(0));
            assert_eq!(loads.words(), entries.iter().sum::<u64>());
        }
        assert_eq!((loads.rounds(), loads.words()), (7, 18));
    }
}
