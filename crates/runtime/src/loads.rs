//! The link-level cost model shared by the engine and the wire simulator.

use std::fmt;
use std::sync::Arc;

/// Per-link word counts of one communication step. One link moves one word
/// per round, so a step costs [`LinkLoads::rounds`] synchronous rounds.
/// Self-links (`src == dst`) are local memory moves and are never charged.
/// Used for round accounting and obliviousness fingerprints; keeping this
/// type in one place is what keeps engine-driven and flush-driven
/// accounting bit-identical.
///
/// # Representation
///
/// One dense table of `n²` `u32` counts in **destination-major** order —
/// link `(src, dst)` at `counts[dst * n + src]`, the layout of every slab
/// offset table and of every worker's commit table — held behind an `Arc`,
/// so a routed step whose loads are known in advance hands the same table
/// to every round barrier it ships through by cloning a pointer.
/// [`LinkLoads::rounds`] and [`LinkLoads::words`] are computed when the
/// table is built, in one sequential pass. The table may hold self-link
/// counts (a slab's self-links occupy words); they are skipped by every
/// accessor but [`LinkLoads::counts`].
///
/// [`LinkLoads::iter`] transposes on demand into the canonical
/// `(src, dst, words)` triples, source-major: only the consumers that
/// iterate (pattern fingerprints, traces, the link simulator) pay for the
/// strided walk.
///
/// Equality is semantic: two loads are equal when they charge the same
/// words on the same links, whatever their self-link entries.
#[derive(Clone, Default)]
pub struct LinkLoads {
    n: usize,
    /// `counts[dst * n + src]`, self-links included; empty when `n == 0`.
    counts: Arc<[u32]>,
    /// The longest non-self link.
    rounds: u64,
    /// The sum over non-self links.
    words: u64,
}

impl LinkLoads {
    /// An empty load set for a clique of `n` nodes.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self::from_counts(n, vec![0; n * n])
    }

    /// The loads of a destination-major count table (`counts[dst * n + src]`,
    /// length `n²`; self-link entries are kept but never charged), with the
    /// round and word totals taken in one pass over it.
    ///
    /// # Panics
    ///
    /// Panics if `counts.len() != n * n`.
    #[must_use]
    pub fn from_counts(n: usize, counts: impl Into<Arc<[u32]>>) -> Self {
        let counts = counts.into();
        assert_eq!(counts.len(), n * n, "one count per directed link");
        let (mut rounds, mut words) = (0u32, 0u64);
        for (dst, row) in counts.chunks_exact(n.max(1)).enumerate() {
            for side in [&row[..dst], &row[dst + 1..]] {
                rounds = side.iter().fold(rounds, |m, &c| m.max(c));
                words += side.iter().map(|&c| u64::from(c)).sum::<u64>();
            }
        }
        Self {
            n,
            counts,
            rounds: u64::from(rounds),
            words,
        }
    }

    /// `words` as a link count of the `(src, dst)` link.
    ///
    /// # Panics
    ///
    /// Panics, naming the link, if `words` does not fit in a `u32`.
    #[must_use]
    pub fn count(src: usize, dst: usize, words: usize) -> u32 {
        u32::try_from(words).unwrap_or_else(|_| {
            panic!("link ({src}, {dst}) carries {words} words, more than a u32 link count holds")
        })
    }

    /// Records `words` more on the `(src, dst)` link. Zero-word entries and
    /// self-links are ignored; the order of calls does not matter.
    ///
    /// # Panics
    ///
    /// Panics if a node index is out of range or the link's count overflows
    /// a `u32`.
    pub fn add(&mut self, src: usize, dst: usize, words: usize) {
        let n = self.n;
        assert!(src < n && dst < n, "node index out of range (n={n})");
        if words > 0 && src != dst {
            let count = &mut Arc::make_mut(&mut self.counts)[dst * n + src];
            *count = Self::count(src, dst, *count as usize + words);
            self.rounds = self.rounds.max(u64::from(*count));
            self.words += words as u64;
        }
    }

    /// Clique size the table is laid out for.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The destination-major count table, `counts[dst * n + src]`, self-link
    /// entries included.
    #[must_use]
    pub fn counts(&self) -> &[u32] {
        &self.counts
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

    /// The charged links as `(src, dst, words)`, in canonical `(src, dst)`
    /// order; empty links and self-links are skipped.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        let n = self.n;
        (0..n)
            .flat_map(move |src| (0..n).map(move |dst| (src, dst)))
            .filter(|&(src, dst)| src != dst)
            .map(move |(src, dst)| (src, dst, self.counts[dst * n + src] as usize))
            .filter(|&(_, _, words)| words > 0)
    }

    /// Maximum number of words sent by any single node in this step.
    #[must_use]
    pub fn max_out(&self) -> usize {
        let mut out = vec![0usize; self.n];
        for (s, _, w) in self.iter() {
            out[s] += w;
        }
        out.into_iter().max().unwrap_or(0)
    }

    /// Maximum number of words received by any single node in this step.
    #[must_use]
    pub fn max_in(&self) -> usize {
        let mut inc = vec![0usize; self.n];
        for (_, d, w) in self.iter() {
            inc[d] += w;
        }
        inc.into_iter().max().unwrap_or(0)
    }
}

impl PartialEq for LinkLoads {
    fn eq(&self, other: &Self) -> bool {
        (self.rounds, self.words) == (other.rounds, other.words) && self.iter().eq(other.iter())
    }
}

impl Eq for LinkLoads {}

impl fmt::Debug for LinkLoads {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LinkLoads")
            .field("rounds", &self.rounds)
            .field("words", &self.words)
            .field("links", &self.iter().collect::<Vec<_>>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn in_out_maxima() {
        let mut loads = LinkLoads::new(3);
        loads.add(0, 1, 5);
        loads.add(0, 2, 3);
        loads.add(2, 1, 4);
        assert_eq!(loads.rounds(), 5);
        assert_eq!(loads.words(), 12);
        assert_eq!(loads.max_out(), 8);
        assert_eq!(loads.max_in(), 9);
    }

    #[test]
    fn self_links_and_empty_entries_are_ignored() {
        let mut loads = LinkLoads::new(2);
        loads.add(1, 1, 10);
        loads.add(0, 1, 0);
        assert_eq!(loads.rounds(), 0);
        assert_eq!(loads.iter().count(), 0);
        // A table's self-link entries are kept but never charged.
        let table = LinkLoads::from_counts(2, vec![7, 0, 0, 9]);
        assert_eq!((table.rounds(), table.words()), (0, 0));
        assert_eq!(table.counts(), &[7, 0, 0, 9]);
        assert_eq!(table, loads);
        assert_eq!(LinkLoads::default(), LinkLoads::new(4));
    }

    #[test]
    fn kept_totals_equal_a_rescan_after_every_add() {
        let mut loads = LinkLoads::new(3);
        let adds = [
            (0, 1, 3),
            (2, 2, 50),
            (1, 0, 0),
            (2, 0, 7),
            (0, 0, 9),
            (1, 2, 7),
            (2, 1, 1),
            (0, 1, 2),
        ];
        for (src, dst, words) in adds {
            loads.add(src, dst, words);
            let entries: Vec<u64> = loads.iter().map(|(_, _, w)| w as u64).collect();
            assert_eq!(loads.rounds(), entries.iter().copied().max().unwrap_or(0));
            assert_eq!(loads.words(), entries.iter().sum::<u64>());
        }
        assert_eq!((loads.rounds(), loads.words()), (7, 20));
        assert_eq!(loads.iter().next(), Some((0, 1, 5)), "one entry per link");
    }

    #[test]
    #[should_panic(expected = "link (2, 0) carries 4294967296 words")]
    fn a_count_past_u32_names_its_link() {
        let mut loads = LinkLoads::new(3);
        loads.add(2, 0, u32::MAX as usize);
        loads.add(2, 0, 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn a_table_equals_its_links_added_one_by_one(
            n in 1usize..9,
            cells in proptest::collection::vec(0u32..4, 81),
            scale in 0u32..3,
        ) {
            // Zeros, self-links and a few counts near the top of the range.
            let counts: Vec<u32> = cells[..n * n]
                .iter()
                .map(|&c| if scale == 2 && c == 3 { u32::MAX / 4 } else { c * (scale + 1) })
                .collect();
            let table = LinkLoads::from_counts(n, counts.clone());
            let mut added = LinkLoads::new(n);
            for (at, &c) in counts.iter().enumerate().rev() {
                added.add(at % n, at / n, c as usize);
            }
            prop_assert_eq!(table.rounds(), added.rounds());
            prop_assert_eq!(table.words(), added.words());
            prop_assert_eq!(&table, &added);
            let triples: Vec<_> = table.iter().collect();
            prop_assert!(triples.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
            let expected: Vec<_> = (0..n)
                .flat_map(|src| (0..n).map(move |dst| (src, dst)))
                .map(|(src, dst)| (src, dst, counts[dst * n + src] as usize))
                .filter(|&(src, dst, w)| src != dst && w > 0)
                .collect();
            prop_assert_eq!(triples, expected);
        }
    }
}
