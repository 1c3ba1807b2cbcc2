//! One node's outgoing messages for a communication step, in one flat
//! buffer.

use crate::word::{Word, WordWriter};

/// The messages one node hands to [`crate::Clique::route_par`] (its
/// `route_dynamic_par` twin, or [`crate::Clique::exchange_par`]): an
/// ordered list of `(destination, words)` messages whose words all live in
/// **one** [`WordWriter`], so a generator that emits thousands of small
/// messages allocates twice, not thousands of times.
///
/// [`Outbox::message`] opens the next message and returns the writer its
/// words go to; the message ends where the next one starts. Messages to the
/// same destination are delivered concatenated in the order they were
/// opened, and an empty message is legal (it routes no word).
///
/// # Examples
///
/// ```rust
/// use cc_clique::{AsWords, Clique, Outbox};
///
/// let n = 4;
/// let mut clique = Clique::new(n);
/// let inboxes = clique.route_par(|v| {
///     let mut out = Outbox::new();
///     // Two messages to the right-hand neighbour, encoded in place.
///     (v as u64).write_words(out.message((v + 1) % n));
///     let second = out.message((v + 1) % n);
///     second.push(10);
///     second.push(20);
///     out
/// });
/// assert_eq!(inboxes.received(1, 0), &[0, 10, 20]);
///
/// // Cold callers keep building per-message vectors and convert.
/// let inboxes = clique.route_par(|v| vec![(0, vec![v as u64; v]), (3, vec![])].into());
/// assert_eq!(inboxes.received(0, 2), &[2, 2]);
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
    /// its words are appended to. (`dst` is range-checked by the routing
    /// primitive the outbox is handed to, which knows `n`.)
    pub fn message(&mut self, dst: usize) -> &mut WordWriter {
        self.heads.push((dst, self.words.len()));
        &mut self.words
    }

    /// Every message's words end to end, in send order.
    pub(crate) fn words(&self) -> &[Word] {
        self.words.as_slice()
    }

    /// The messages as `(destination, words)`, in send order.
    pub(crate) fn messages(&self) -> impl Iterator<Item = (usize, &[Word])> + Clone {
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
