//! One node's outgoing messages for a communication step, in one flat
//! buffer.

use crate::Word;

/// Incremental word writer: a node's encoders append to it.
///
/// A thin wrapper around `Vec<Word>` so that encoders cannot observe or
/// rewrite previously written traffic.
#[derive(Debug, Default)]
pub struct WordWriter {
    buf: Vec<Word>,
}

impl WordWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer with room for `words` words.
    fn with_capacity(words: usize) -> Self {
        Self {
            buf: Vec::with_capacity(words),
        }
    }

    /// Appends one word.
    // Called once per routed word from other crates' encoders: without the
    // hint it is an out-of-line call per word (no LTO in this workspace).
    #[inline]
    pub fn push(&mut self, w: Word) {
        self.buf.push(w);
    }

    /// Number of words written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` if nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the written words.
    #[must_use]
    pub fn into_words(self) -> Vec<Word> {
        self.buf
    }

    /// Appends already encoded words (a relay forwarding what it
    /// received, say).
    pub fn extend_from_slice(&mut self, words: &[Word]) {
        self.buf.extend_from_slice(words);
    }
}

/// The messages one node sends in one communication step — a routed or
/// exchanged step of a clique, or one round of a [`crate::NodeProgram`]:
/// an ordered list of `(destination, words)` messages whose words all live
/// in **one** [`WordWriter`], so a generator that emits thousands of small
/// messages allocates twice, not thousands of times.
///
/// [`Outbox::message`] opens the next message and returns the writer its
/// words go to; the message ends where the next one starts. Messages to the
/// same destination are delivered concatenated in the order they were
/// opened, and an empty message is legal (it carries no word). A round's
/// outboxes become one [`crate::LinkSlab`] by [`crate::LinkSlab::gather`].
///
/// # Examples
///
/// ```rust
/// use cc_runtime::Outbox;
///
/// let mut out = Outbox::new();
/// out.message(1).push(7);
/// let second = out.message(1);
/// second.push(10);
/// second.push(20);
/// let got: Vec<_> = out.messages().collect();
/// assert_eq!(got, [(1, &[7][..]), (1, &[10, 20][..])]);
///
/// // Cold callers keep building per-message vectors and convert.
/// let out: Outbox = vec![(0, vec![2, 2]), (3, vec![])].into();
/// assert_eq!(out.words(), &[2, 2]);
/// ```
#[derive(Debug, Default)]
pub struct Outbox {
    /// `(destination, index of the message's first word)`, in send order.
    heads: Vec<(usize, usize)>,
    words: WordWriter,
}

impl Outbox {
    /// An outbox with no message.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An outbox with room for `messages` messages of `words` words in all,
    /// for generators whose message lengths the plan fixes: filling it
    /// exactly never reallocates.
    #[must_use]
    pub fn with_capacity(messages: usize, words: usize) -> Self {
        Self {
            heads: Vec::with_capacity(messages),
            words: WordWriter::with_capacity(words),
        }
    }

    /// Opens the next message, addressed to `dst`, and returns the writer
    /// its words are appended to. (`dst` is range-checked by the primitive
    /// the outbox is handed to, which knows `n`.)
    pub fn message(&mut self, dst: usize) -> &mut WordWriter {
        self.heads.push((dst, self.words.len()));
        &mut self.words
    }

    /// Every message's words end to end, in send order.
    #[must_use]
    pub fn words(&self) -> &[Word] {
        &self.words.buf
    }

    /// The messages as `(destination, words)`, in send order.
    pub fn messages(&self) -> impl Iterator<Item = (usize, &[Word])> + Clone {
        let words = self.words();
        let ends = self
            .heads
            .iter()
            .skip(1)
            .map(|&(_, start)| start)
            .chain([words.len()]);
        self.heads
            .iter()
            .zip(ends)
            .map(move |(&(dst, start), end)| (dst, &words[start..end]))
    }
}

impl From<Vec<(usize, Vec<Word>)>> for Outbox {
    fn from(messages: Vec<(usize, Vec<Word>)>) -> Self {
        let mut out = Self::new();
        for (dst, words) in messages {
            out.message(dst).extend_from_slice(&words);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_end_where_the_next_one_starts() {
        let mut out = Outbox::new();
        out.message(3).push(1);
        out.message(0);
        let last = out.message(3);
        last.push(2);
        last.push(3);
        let got: Vec<_> = out.messages().collect();
        assert_eq!(got, vec![(3, &[1][..]), (0, &[][..]), (3, &[2, 3][..])]);
        assert_eq!(Outbox::new().messages().count(), 0);
    }

    #[test]
    fn conversion_keeps_order_and_empty_messages() {
        let out: Outbox = vec![(1, vec![9, 8]), (1, vec![]), (2, vec![7])].into();
        let got: Vec<_> = out.messages().collect();
        assert_eq!(got, vec![(1, &[9, 8][..]), (1, &[][..]), (2, &[7][..])]);
    }
}
