//! Per-node message inboxes produced by communication primitives.

use crate::word::{AsWords, Word, WordReader};
use cc_transport::LinkSlab;

/// Messages delivered to every node by one communication step.
///
/// `Inboxes` is indexed by `(destination, source)`; the words from a given
/// source are in the order the source sent them. It is a view of the
/// round's [`LinkSlab`] — the one flat buffer the step's traffic travelled
/// in — so [`Inboxes::received`] is a slice of it, not a per-link vector.
/// Algorithms normally decode inbox contents with [`Inboxes::decode`] using
/// statically known counts (the communication patterns in this crate's
/// clients are oblivious).
#[derive(Debug, Clone)]
pub struct Inboxes {
    slab: LinkSlab,
}

impl Inboxes {
    /// Wraps the slab a round barrier delivered.
    pub(crate) fn from_slab(slab: LinkSlab) -> Self {
        Self { slab }
    }

    /// Delivers whole `(src, dst, words)` messages: each `(dst, src)` pair
    /// receives its messages concatenated in slice order.
    #[cfg(test)]
    fn from_messages(n: usize, msgs: &[(usize, usize, Vec<Word>)]) -> Self {
        Self::from_slab(LinkSlab::from_runs(
            n,
            msgs.iter()
                .map(|(src, dst, words)| (*src, *dst, &words[..])),
        ))
    }

    /// Number of nodes in the clique this inbox set belongs to.
    #[must_use]
    pub fn n(&self) -> usize {
        self.slab.n()
    }

    /// The words `dst` received from `src` (possibly empty).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn received(&self, dst: usize, src: usize) -> &[Word] {
        self.slab.link(src, dst)
    }

    /// Iterates over `(src, words)` pairs with non-empty payloads for `dst`.
    pub fn sources(&self, dst: usize) -> impl Iterator<Item = (usize, &[Word])> {
        self.slab
            .runs(dst..dst + 1)
            .map(|(src, _, words)| (src, words))
    }

    /// Everything `dst` received, every source's words end to end in source
    /// order: one slice of the slab, for a reader that knows each source's
    /// length (an oblivious step) and wants no per-link lookup.
    #[must_use]
    pub fn row(&self, dst: usize) -> &[Word] {
        self.slab.row(dst)
    }

    /// Total number of words delivered to `dst`.
    #[must_use]
    pub fn total_received(&self, dst: usize) -> usize {
        self.slab.row(dst).len()
    }

    /// Decodes exactly `count` values of type `T` from what `dst` received
    /// from `src`.
    ///
    /// # Panics
    ///
    /// Panics if the payload does not contain exactly `count` encoded values.
    #[must_use]
    pub fn decode<T: AsWords>(&self, dst: usize, src: usize, count: usize) -> Vec<T> {
        let words = self.received(dst, src);
        let mut r = WordReader::new(words);
        let out: Vec<T> = (0..count).map(|_| T::read_words(&mut r)).collect();
        assert!(
            r.is_exhausted(),
            "inbox ({dst} <- {src}): {} trailing words after decoding {count} values",
            r.remaining()
        );
        out
    }

    /// Decodes all values of a fixed-width type from what `dst` received from
    /// `src`, consuming the entire payload.
    #[must_use]
    pub fn decode_all<T: AsWords>(&self, dst: usize, src: usize) -> Vec<T> {
        let words = self.received(dst, src);
        let mut r = WordReader::new(words);
        let mut out = Vec::new();
        while !r.is_exhausted() {
            out.push(T::read_words(&mut r));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_decode() {
        let ib = Inboxes::from_messages(3, &[(0, 1, vec![5, 6]), (0, 1, vec![7])]);
        assert_eq!(ib.received(1, 0), &[5, 6, 7]);
        assert_eq!(ib.total_received(1), 3);
        assert_eq!(ib.total_received(0), 0);
        let vals: Vec<u64> = ib.decode(1, 0, 3);
        assert_eq!(vals, vec![5, 6, 7]);
        let all: Vec<u64> = ib.decode_all(1, 0);
        assert_eq!(all, vec![5, 6, 7]);
    }

    #[test]
    fn sources_skips_empty() {
        let ib = Inboxes::from_messages(4, &[(3, 2, vec![9, 8]), (0, 2, vec![1])]);
        let got: Vec<(usize, usize)> = ib.sources(2).map(|(s, w)| (s, w.len())).collect();
        assert_eq!(got, vec![(0, 1), (3, 2)]);
    }

    #[test]
    #[should_panic(expected = "trailing words")]
    fn decode_rejects_wrong_count() {
        let ib = Inboxes::from_messages(2, &[(1, 0, vec![1, 2])]);
        let _: Vec<u64> = ib.decode(0, 1, 1);
    }
}
