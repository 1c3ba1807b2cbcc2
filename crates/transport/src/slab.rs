//! Reassembling a delivered [`LinkSlab`] from the star workers' echoed
//! shards.

use cc_runtime::{LinkSlab, Word};

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
