//! The flat, destination-major buffer holding one round's unicast traffic,
//! and the round's delivery.

use crate::{LinkLoads, Outbox, Word};
use std::ops::Range;
use std::sync::Arc;

/// One round's unicast traffic on all `n²` directed links, in **one**
/// contiguous buffer.
///
/// The layout is destination-major: link `(src, dst)` has index
/// `dst * n + src`, and its words are
/// `words[offsets[dst * n + src]..offsets[dst * n + src + 1]]`, in send
/// order. One destination's `n` incoming links are therefore adjacent — both
/// in `offsets` and in `words` — which is what lets a worker's shard, a
/// node's inbox row, or the whole round move as a single slice.
///
/// A slab is the single representation of a round from the primitive that
/// builds it ([`LinkSlab::from_runs`], a two-pass counting sort, or
/// [`LinkSlab::gather`] over per-node [`Outbox`]es) through the fabric and
/// the barrier to the delivery the caller reads back
/// ([`RoundDelivery::unicast`]); the in-memory barrier *moves* it, never
/// copies it.
///
/// A slab whose per-link counts were known before it was filled (a routed
/// step's, from its relay schedule) can carry them as [`LinkLoads`]
/// ([`LinkSlab::with_loads`]), so the barrier need not recount them;
/// [`LinkSlab::validate`] checks them against the offset table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkSlab {
    n: usize,
    offsets: Vec<usize>,
    words: Vec<Word>,
    /// The per-link counts of `offsets`, when whoever built the slab knew
    /// them already.
    loads: Option<LinkLoads>,
}

impl LinkSlab {
    /// A slab with no traffic for a clique of `n` nodes.
    #[must_use]
    pub fn empty(n: usize) -> Self {
        Self::from_raw(n, vec![0; n * n + 1], Vec::new())
    }

    /// Assembles a slab from its raw parts **without validating them**: a
    /// fabric checks the layout invariants when the slab is handed to it
    /// (see [`LinkSlab::validate`]).
    #[must_use]
    pub fn from_raw(n: usize, offsets: Vec<usize>, words: Vec<Word>) -> Self {
        Self {
            n,
            offsets,
            words,
            loads: None,
        }
    }

    /// Attaches the slab's own per-link word counts, self-links included
    /// (`loads.counts()[dst * n + src]` must be the length of link
    /// `(src, dst)`; [`LinkSlab::validate`] checks it). An in-memory round
    /// that is exactly this slab is charged these loads as they are.
    #[must_use]
    pub fn with_loads(mut self, loads: LinkLoads) -> Self {
        self.loads = Some(loads);
        self
    }

    /// Detaches the loads [`LinkSlab::with_loads`] attached, if any.
    pub fn take_loads(&mut self) -> Option<LinkLoads> {
        self.loads.take()
    }

    /// Builds a slab from `(src, dst, words)` runs by a two-pass counting
    /// sort: the iterator is walked once to size every link and once to
    /// scatter, so runs for one link concatenate in iteration order.
    ///
    /// # Panics
    ///
    /// Panics if a node index is out of range.
    #[must_use]
    pub fn from_runs<'a, I>(n: usize, runs: I) -> Self
    where
        I: Iterator<Item = (usize, usize, &'a [Word])> + Clone,
    {
        // The offset table is the only n² table: pass one counts link `at`
        // two slots ahead, so after the prefix sum `offsets[at + 1]` is the
        // link's start and serves as its cursor in pass two, which leaves
        // it at the link's end — the next link's start.
        let mut offsets = vec![0usize; n * n + 2];
        for (src, dst, words) in runs.clone() {
            assert!(src < n && dst < n, "node index out of range (n={n})");
            offsets[dst * n + src + 2] += words.len();
        }
        for at in 2..offsets.len() {
            offsets[at] += offsets[at - 1];
        }
        let mut words = vec![0; offsets[n * n + 1]];
        for (src, dst, run) in runs {
            let cursor = &mut offsets[dst * n + src + 1];
            words[*cursor..*cursor + run.len()].copy_from_slice(run);
            *cursor += run.len();
        }
        offsets.pop();
        Self::from_raw(n, offsets, words)
    }

    /// Gathers the outboxes of consecutive nodes (`outboxes[i]` belongs to
    /// node `first + i`) into one slab of an `n`-clique, each link's
    /// messages concatenated in send order.
    ///
    /// # Panics
    ///
    /// Panics if a node index or a destination is out of range.
    #[must_use]
    pub fn gather(n: usize, first: usize, outboxes: &[Outbox]) -> Self {
        let runs = outboxes.iter().enumerate().flat_map(|(i, out)| {
            out.messages()
                .map(move |(dst, words)| (first + i, dst, words))
        });
        Self::from_runs(n, runs)
    }

    /// Clique size this slab was laid out for.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The words on the `(src, dst)` link, in send order (possibly empty).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn link(&self, src: usize, dst: usize) -> &[Word] {
        assert!(
            src < self.n && dst < self.n,
            "node index out of range (n={})",
            self.n
        );
        let at = dst * self.n + src;
        &self.words[self.offsets[at]..self.offsets[at + 1]]
    }

    /// The non-empty links into the destinations `dsts`, as
    /// `(src, dst, words)` in slab order (`dst`-major, then `src`).
    pub fn runs(&self, dsts: Range<usize>) -> impl Iterator<Item = (usize, usize, &[Word])> {
        dsts.flat_map(move |dst| (0..self.n).map(move |src| (src, dst, self.link(src, dst))))
            .filter(|(_, _, words)| !words.is_empty())
    }

    /// The destination shard `dsts` as it goes onto the wire: the word count
    /// of every link into it, in link order, and the links' words — one
    /// contiguous slice of the slab.
    ///
    /// # Panics
    ///
    /// The iterator panics, naming the link, on a link holding more than
    /// `u32::MAX` words.
    pub fn shard(&self, dsts: Range<usize>) -> (impl ExactSizeIterator<Item = u32> + '_, &[Word]) {
        let (n, first) = (self.n, dsts.start * self.n);
        let offsets = &self.offsets[first..=dsts.end * n];
        let lens = offsets.windows(2).enumerate().map(move |(i, w)| {
            let at = first + i;
            LinkLoads::count(at % n, at / n, w[1] - w[0])
        });
        let words = &self.words[offsets[0]..offsets[offsets.len() - 1]];
        (lens, words)
    }

    /// Everything `dst` received, all sources concatenated in source order.
    #[must_use]
    pub fn row(&self, dst: usize) -> &[Word] {
        &self.words[self.offsets[dst * self.n]..self.offsets[(dst + 1) * self.n]]
    }

    /// Total words in the slab (self-links included).
    #[must_use]
    pub fn total_words(&self) -> usize {
        self.words.len()
    }

    /// Checks the layout invariants against a fabric of `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics — with a distinct message per violation — if the slab was
    /// built for a different `n`, its offset table is not `n² + 1` long,
    /// does not start at zero, decreases anywhere, or does not end at
    /// `words.len()`, or if attached loads disagree with a link's length.
    pub fn validate(&self, n: usize) {
        assert_eq!(
            self.n, n,
            "slab laid out for n={} handed to a fabric of n={n}",
            self.n
        );
        assert_eq!(
            self.offsets.len(),
            n * n + 1,
            "slab offset table has {} entries, expected n*n+1 = {}",
            self.offsets.len(),
            n * n + 1
        );
        assert_eq!(self.offsets[0], 0, "slab offsets must start at 0");
        if let Some(at) = self.offsets.windows(2).position(|w| w[0] > w[1]) {
            panic!("slab offsets are not monotone at link index {at}");
        }
        assert_eq!(
            self.offsets[n * n],
            self.words.len(),
            "slab offsets end at {} but the slab holds {} words",
            self.offsets[n * n],
            self.words.len()
        );
        if let Some(loads) = &self.loads {
            assert_eq!(loads.n(), n, "attached loads laid out for n={}", loads.n());
            let lens = self.offsets.windows(2).map(|w| w[1] - w[0]);
            if let Some(at) = lens
                .zip(loads.counts())
                .position(|(len, &count)| len != count as usize)
            {
                panic!("attached loads disagree with the slab at link index {at}");
            }
        }
    }

    /// The round's per-link accounting, read straight off the offset table
    /// in one pass: a link is charged its unicast words plus everything
    /// `src` broadcast this round (`bcasts[src]`, one lane per node);
    /// self-links are free.
    ///
    /// # Panics
    ///
    /// Panics if `bcasts` does not hold exactly one lane per node, and,
    /// naming the link, if a link's charge does not fit in a `u32`.
    #[must_use]
    pub fn link_loads(&self, bcasts: &[Vec<Arc<[Word]>>]) -> LinkLoads {
        let n = self.n;
        assert_eq!(
            bcasts.len(),
            n,
            "link_loads needs one broadcast lane per node (n={n}), got {}",
            bcasts.len()
        );
        let bcast: Vec<usize> = bcasts
            .iter()
            .map(|slabs| slabs.iter().map(|s| s.len()).sum())
            .collect();
        let mut counts = Vec::with_capacity(n * n);
        for dst in 0..n {
            let row = self.offsets[dst * n..=dst * n + n].windows(2);
            counts.extend(row.zip(&bcast).enumerate().map(|(src, (w, &extra))| {
                let extra = if src == dst { 0 } else { extra };
                LinkLoads::count(src, dst, w[1] - w[0] + extra)
            }));
        }
        LinkLoads::from_counts(n, counts)
    }
}

/// Broadcast slabs of one round, indexed by source: `lanes[src]` holds the
/// slabs `src` broadcast, in send order.
pub type BcastLanes = Vec<Vec<Arc<[Word]>>>;

/// Everything a round barrier yields: the delivered unicast traffic, the
/// broadcast slabs, and the round's per-link word accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundDelivery {
    /// The delivered unicast words: node `dst` received
    /// `unicast.link(src, dst)` from `src`, in send order.
    pub unicast: LinkSlab,
    /// `broadcast[src]` — broadcast slabs from `src`, in send order. Every
    /// node receives every slab, the sender included, so the lanes are kept
    /// once per source and shared by all recipients (on every fabric they
    /// are the sender's own `Arc`s).
    pub broadcast: BcastLanes,
    /// The round's link loads; self-links are free, and
    /// [`LinkLoads::iter`] yields the charged links in canonical
    /// `(src, dst)` order.
    pub loads: LinkLoads,
}

impl RoundDelivery {
    /// The in-memory barrier, the one delivery every in-process fabric
    /// runs: the slab and the lanes are *moved* into the delivery, and the
    /// round is charged the slab's attached loads when it has no broadcast,
    /// or else is recounted off the offset table ([`LinkSlab::link_loads`]).
    ///
    /// The recount costs O(n²) per round whatever the traffic: a slab's
    /// offset table holds all n² links, and the load table is built from it
    /// in one pass. On a 2-CPU x86-64 host a one-word-per-node ring round of
    /// `Engine::run` — the step, [`LinkSlab::gather`] and this delivery —
    /// took ≈ 8 ms at n = 1024 and ≈ 50 ms at n = 2048.
    ///
    /// # Panics
    ///
    /// Panics if `broadcast` does not hold exactly one lane per node.
    #[must_use]
    pub fn in_memory(mut unicast: LinkSlab, broadcast: BcastLanes) -> Self {
        let loads = match unicast.take_loads() {
            Some(loads) if broadcast.iter().all(Vec::is_empty) => loads,
            _ => unicast.link_loads(&broadcast),
        };
        Self {
            unicast,
            broadcast,
            loads,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_concatenate_per_link_in_iteration_order() {
        let runs: Vec<(usize, usize, Vec<Word>)> = vec![
            (0, 1, vec![1, 2]),
            (2, 0, vec![9]),
            (0, 1, vec![3]),
            (1, 1, vec![7, 7]),
            (2, 0, vec![]),
        ];
        let slab = LinkSlab::from_runs(3, runs.iter().map(|(s, d, w)| (*s, *d, w.as_slice())));
        slab.validate(3);
        assert_eq!(slab.link(0, 1), &[1, 2, 3]);
        assert_eq!(slab.link(2, 0), &[9]);
        assert_eq!(slab.link(1, 1), &[7, 7]);
        assert_eq!(slab.link(1, 0), &[] as &[Word]);
        assert_eq!(slab.row(1), &[1, 2, 3, 7, 7]);
        let into_1: Vec<_> = slab.runs(1..3).collect();
        assert_eq!(into_1, vec![(0, 1, &[1, 2, 3][..]), (1, 1, &[7, 7][..])]);
        assert_eq!(slab.total_words(), 6);
    }

    #[test]
    fn loads_are_canonical_and_skip_self_links() {
        let runs = [(2usize, 0usize, [5u64, 6]), (1, 1, [1, 1]), (0, 2, [4, 4])];
        let slab = LinkSlab::from_runs(3, runs.iter().map(|(s, d, w)| (*s, *d, &w[..])));
        let bcasts = vec![vec![], vec![vec![1, 2].into(), vec![3].into()], vec![]];
        let got: Vec<_> = slab.link_loads(&bcasts).iter().collect();
        assert_eq!(got, vec![(0, 2, 2), (1, 0, 3), (1, 2, 3), (2, 0, 2)]);
        let none = vec![Vec::new(); 3];
        assert_eq!(LinkSlab::empty(3).link_loads(&none).iter().count(), 0);
    }

    #[test]
    #[should_panic(expected = "link (1, 0) carries 4294967296 words")]
    fn a_link_charge_past_u32_names_its_link() {
        // Never validated, so no word is allocated: only the offsets count.
        let slab = LinkSlab::from_raw(2, vec![0, 0, 1 << 32, 1 << 32, 1 << 32], vec![]);
        let _ = slab.link_loads(&[vec![], vec![]]);
    }

    #[test]
    #[should_panic(expected = "link_loads needs one broadcast lane per node (n=2), got 1")]
    fn link_loads_refuses_a_short_broadcast_list() {
        let _ = LinkSlab::empty(2).link_loads(&[vec![]]);
    }

    #[test]
    fn attached_loads_are_checked_against_the_offsets() {
        let runs = [(0usize, 1usize, [5u64, 6]), (1, 1, [7, 7])];
        let slab = LinkSlab::from_runs(2, runs.iter().map(|(s, d, w)| (*s, *d, &w[..])));
        let exact = LinkLoads::from_counts(2, vec![0, 0, 2, 2]);
        slab.clone().with_loads(exact.clone()).validate(2);
        // Equal as loads (self-links are free), but not the slab's lengths.
        let free_self = LinkLoads::from_counts(2, vec![0, 0, 2, 0]);
        assert_eq!(free_self, exact);
        let refused = std::panic::catch_unwind(|| slab.with_loads(free_self).validate(2));
        let msg = *refused.unwrap_err().downcast::<String>().unwrap();
        assert_eq!(msg, "attached loads disagree with the slab at link index 3");
    }
}
