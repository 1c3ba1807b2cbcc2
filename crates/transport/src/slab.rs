//! The flat, destination-major buffer holding one round's unicast traffic.

use cc_runtime::{LinkLoads, Word};
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
/// builds it ([`SlabWriter`], a two-pass counting sort) through the
/// transport's pending buffer and the barrier to the delivery the caller
/// reads back ([`crate::RoundDelivery::unicast`]); the in-memory barrier
/// *moves* it, never copies it.
///
/// A slab whose per-link counts were known before it was filled (a routed
/// step's, from its relay schedule) can carry them as [`LinkLoads`] ([`LinkSlab::with_loads`]),
/// so the barrier need not recount them; [`LinkSlab::validate`] checks them
/// against the offset table.
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

    /// Assembles a slab from its raw parts **without validating them**:
    /// [`crate::Transport::send_slab`] checks the layout invariants when the
    /// slab is handed to a fabric (see [`LinkSlab::validate`]).
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
        let mut counts = vec![0usize; n * n];
        for (src, dst, words) in runs.clone() {
            assert!(src < n && dst < n, "node index out of range (n={n})");
            counts[dst * n + src] += words.len();
        }
        let mut writer = SlabWriter::from_counts(n, counts);
        for (src, dst, words) in runs {
            writer.extend(src, dst, words);
        }
        writer.finish()
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
    pub(crate) fn shard(
        &self,
        dsts: Range<usize>,
    ) -> (impl ExactSizeIterator<Item = u32> + '_, &[Word]) {
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

/// Pass two of the counting sort that builds a [`LinkSlab`]: constructed
/// from per-link word counts, then fed exactly that many words per link, in
/// any interleaving across links.
#[derive(Debug)]
pub struct SlabWriter {
    slab: LinkSlab,
    /// `cursor[link]` — where the link's next word lands.
    cursor: Vec<usize>,
}

impl SlabWriter {
    /// Sizes a slab from per-link word counts (`counts[dst * n + src]`,
    /// length `n²`): prefix sums become the offset table.
    ///
    /// # Panics
    ///
    /// Panics if `counts.len() != n * n`.
    #[must_use]
    pub fn from_counts(n: usize, counts: Vec<usize>) -> Self {
        assert_eq!(counts.len(), n * n, "one count per directed link");
        let mut cursor = counts;
        let mut offsets = Vec::with_capacity(n * n + 1);
        let mut at = 0usize;
        for c in &mut cursor {
            offsets.push(at);
            at += std::mem::replace(c, at);
        }
        offsets.push(at);
        Self {
            slab: LinkSlab::from_raw(n, offsets, vec![0; at]),
            cursor,
        }
    }

    /// Appends one word to the `(src, dst)` link.
    pub fn push(&mut self, src: usize, dst: usize, word: Word) {
        debug_assert!(src < self.slab.n && dst < self.slab.n);
        let c = &mut self.cursor[dst * self.slab.n + src];
        self.slab.words[*c] = word;
        *c += 1;
    }

    /// Appends `words` to the `(src, dst)` link.
    pub fn extend(&mut self, src: usize, dst: usize, words: &[Word]) {
        debug_assert!(src < self.slab.n && dst < self.slab.n);
        let c = &mut self.cursor[dst * self.slab.n + src];
        self.slab.words[*c..*c + words.len()].copy_from_slice(words);
        *c += words.len();
    }

    /// The finished slab.
    ///
    /// # Panics
    ///
    /// Panics if any link received a different number of words than it was
    /// sized for (an overfull link would have spilled into its neighbour).
    #[must_use]
    pub fn finish(self) -> LinkSlab {
        assert!(
            self.cursor.iter().eq(&self.slab.offsets[1..]),
            "every link must receive exactly the words it was sized for"
        );
        self.slab
    }
}

/// Builds a [`LinkSlab`] from the star workers' echoed shards, which
/// arrive whole and in destination order, by plain appending, with no
/// counting pass.
#[derive(Debug)]
pub(crate) struct SlabAppender {
    n: usize,
    /// Starts of links `0..offsets.len()`; the last one is still open.
    offsets: Vec<usize>,
    words: Vec<Word>,
}

impl SlabAppender {
    pub(crate) fn new(n: usize) -> Self {
        let mut offsets = Vec::with_capacity(n * n + 1);
        offsets.push(0);
        Self {
            n,
            offsets,
            words: Vec::new(),
        }
    }

    /// Appends a whole destination shard starting at destination `lo`:
    /// `lens` is its per-link word counts in link order, `words` the links'
    /// words end to end.
    ///
    /// # Panics
    ///
    /// Panics if the shard precedes a link already appended to, runs past
    /// the last destination, or `lens` does not sum to `words.len()`.
    pub(crate) fn append_shard(&mut self, lo: usize, lens: &[u32], words: Vec<Word>) {
        let first = lo * self.n;
        assert!(
            first + 1 >= self.offsets.len(),
            "shards must arrive in destination order"
        );
        assert!(
            first + lens.len() <= self.n * self.n,
            "shard runs past the last destination"
        );
        self.offsets.resize(first + 1, self.words.len());
        let mut at = self.words.len();
        self.offsets.extend(lens.iter().map(|&len| {
            at += len as usize;
            at
        }));
        assert_eq!(
            at - self.words.len(),
            words.len(),
            "shard length table does not sum to its word count"
        );
        if self.words.is_empty() {
            self.words = words;
        } else {
            self.words.extend_from_slice(&words);
        }
    }

    pub(crate) fn finish(mut self) -> LinkSlab {
        self.offsets.resize(self.n * self.n + 1, self.words.len());
        LinkSlab::from_raw(self.n, self.offsets, self.words)
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

    #[test]
    fn shards_leave_and_reenter_a_slab_whole() {
        let runs = [
            (1usize, 0usize, vec![8u64]),
            (2, 2, vec![3, 4]),
            (0, 3, vec![5]),
            (3, 4, vec![6, 6, 6]),
        ];
        let slab = LinkSlab::from_runs(5, runs.iter().map(|(s, d, w)| (*s, *d, &w[..])));
        let (lens, words) = slab.shard(2..4);
        assert_eq!(lens.len(), 10);
        assert_eq!(words, &[3, 4, 5]);
        // Destination 1 receives nothing and its shard is never appended:
        // the gap closes as empty links.
        let mut app = SlabAppender::new(5);
        for dsts in [0..1, 2..4, 4..5] {
            let (lens, words) = slab.shard(dsts.clone());
            app.append_shard(dsts.start, &lens.collect::<Vec<_>>(), words.to_vec());
        }
        assert_eq!(app.finish(), slab);
        assert_eq!(SlabAppender::new(3).finish(), LinkSlab::empty(3));
    }

    #[test]
    #[should_panic(expected = "destination order")]
    fn appender_rejects_out_of_order_shards() {
        let mut app = SlabAppender::new(2);
        app.append_shard(1, &[0, 1], vec![7]);
        app.append_shard(0, &[0, 0], vec![]);
    }

    #[test]
    #[should_panic(expected = "does not sum")]
    fn appender_rejects_a_table_that_disagrees_with_the_words() {
        SlabAppender::new(2).append_shard(0, &[1, 1], vec![7]);
    }
}
