//! Words and word-level encodings.
//!
//! The congested clique allows `O(log n)` bits per link per round; this crate
//! models a message word as a `u64`. Values that require `b` bits are charged
//! `⌈b/64⌉` words by their [`AsWords`] encoding, which reproduces the
//! `b / log n` multiplicative factor from the paper for wide entries (e.g.
//! the degree-capped polynomials used for distance products).

/// A single `O(log n)`-bit message word.
pub type Word = u64;

/// Packs two 32-bit values into a single [`Word`].
///
/// Useful for transmitting index pairs such as graph edges `(u, v)` in one
/// word, matching the paper's convention that a pair of node identifiers fits
/// in `O(log n)` bits.
///
/// # Panics
///
/// Panics if either value does not fit in 32 bits.
///
/// # Examples
///
/// ```rust
/// use cc_clique::{pack_pair, unpack_pair};
/// let w = pack_pair(3, 17);
/// assert_eq!(unpack_pair(w), (3, 17));
/// ```
#[must_use]
pub fn pack_pair(a: usize, b: usize) -> Word {
    assert!(
        a <= u32::MAX as usize && b <= u32::MAX as usize,
        "pair element exceeds 32 bits"
    );
    ((a as u64) << 32) | b as u64
}

/// Inverse of [`pack_pair`].
#[must_use]
pub fn unpack_pair(w: Word) -> (usize, usize) {
    ((w >> 32) as usize, (w & 0xffff_ffff) as usize)
}

/// Incremental writer used by [`AsWords::write_words`].
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
    pub(crate) fn with_capacity(words: usize) -> Self {
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

    /// Appends already encoded words.
    pub(crate) fn extend_from_slice(&mut self, words: &[Word]) {
        self.buf.extend_from_slice(words);
    }

    /// Everything written so far — for the router, which owns the writer.
    pub(crate) fn as_slice(&self) -> &[Word] {
        &self.buf
    }
}

/// Sequential reader used by [`AsWords::read_words`].
///
/// # Examples
///
/// ```rust
/// use cc_clique::WordReader;
/// let mut r = WordReader::new(&[1, 2, 3]);
/// assert_eq!(r.next(), 1);
/// assert_eq!(r.remaining(), 2);
/// ```
#[derive(Debug)]
pub struct WordReader<'a> {
    words: &'a [Word],
    pos: usize,
}

impl<'a> WordReader<'a> {
    /// Creates a reader over a word slice.
    #[must_use]
    pub fn new(words: &'a [Word]) -> Self {
        Self { words, pos: 0 }
    }

    /// Reads the next word.
    ///
    /// # Panics
    ///
    /// Panics if the reader is exhausted; message framing in this crate is
    /// static, so under-reads are programming errors.
    // Not an Iterator: reads are infallible by contract and panic on
    // underflow, which `Iterator::next`'s Option shape would obscure.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn next(&mut self) -> Word {
        let w = self
            .words
            .get(self.pos)
            .copied()
            .expect("word stream exhausted");
        self.pos += 1;
        w
    }

    /// Number of unread words.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.words.len() - self.pos
    }

    /// Returns `true` when all words have been consumed.
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }
}

/// Word-level wire encoding for values sent through the clique.
///
/// Implementations must be *self-framing*: `read_words` must consume exactly
/// the words produced by `write_words`, without external length information.
/// Fixed-width values (integers) need no framing; variable-width values
/// (polynomials) embed their own length and are charged for it.
pub trait AsWords: Sized {
    /// Appends the encoding of `self` to `out`.
    fn write_words(&self, out: &mut WordWriter);

    /// Decodes one value from the reader.
    fn read_words(r: &mut WordReader<'_>) -> Self;

    /// Convenience: encodes `self` into a fresh vector.
    fn to_words(&self) -> Vec<Word> {
        let mut w = WordWriter::new();
        self.write_words(&mut w);
        w.into_words()
    }
}

impl AsWords for u64 {
    fn write_words(&self, out: &mut WordWriter) {
        out.push(*self);
    }
    fn read_words(r: &mut WordReader<'_>) -> Self {
        r.next()
    }
}

impl AsWords for i64 {
    fn write_words(&self, out: &mut WordWriter) {
        out.push(*self as u64);
    }
    fn read_words(r: &mut WordReader<'_>) -> Self {
        r.next() as i64
    }
}

impl AsWords for bool {
    fn write_words(&self, out: &mut WordWriter) {
        out.push(u64::from(*self));
    }
    fn read_words(r: &mut WordReader<'_>) -> Self {
        r.next() != 0
    }
}

impl AsWords for usize {
    fn write_words(&self, out: &mut WordWriter) {
        out.push(*self as u64);
    }
    fn read_words(r: &mut WordReader<'_>) -> Self {
        r.next() as usize
    }
}

impl<A: AsWords, B: AsWords> AsWords for (A, B) {
    fn write_words(&self, out: &mut WordWriter) {
        self.0.write_words(out);
        self.1.write_words(out);
    }
    fn read_words(r: &mut WordReader<'_>) -> Self {
        let a = A::read_words(r);
        let b = B::read_words(r);
        (a, b)
    }
}

/// Encodes a slice of values back-to-back (no length prefix).
pub fn write_all<T: AsWords>(values: &[T]) -> Vec<Word> {
    let mut w = WordWriter::new();
    for v in values {
        v.write_words(&mut w);
    }
    w.into_words()
}

/// Decodes `count` values from a word slice.
///
/// # Panics
///
/// Panics if the slice does not contain exactly `count` encoded values.
pub fn read_exact<T: AsWords>(words: &[Word], count: usize) -> Vec<T> {
    let mut r = WordReader::new(words);
    let out: Vec<T> = (0..count).map(|_| T::read_words(&mut r)).collect();
    assert!(
        r.is_exhausted(),
        "trailing words after decoding {count} values"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        for (a, b) in [(0, 0), (1, 2), (u32::MAX as usize, 5)] {
            assert_eq!(unpack_pair(pack_pair(a, b)), (a, b));
        }
    }

    #[test]
    #[should_panic(expected = "exceeds 32 bits")]
    fn pack_rejects_wide() {
        let _ = pack_pair(1 << 33, 0);
    }

    #[test]
    fn scalar_roundtrips() {
        let vals: Vec<i64> = vec![-5, 0, 7, i64::MAX, i64::MIN];
        let words = write_all(&vals);
        assert_eq!(words.len(), vals.len());
        let back: Vec<i64> = read_exact(&words, vals.len());
        assert_eq!(back, vals);
    }

    #[test]
    fn tuple_roundtrip() {
        let v: (i64, u64) = (-9, 12);
        let words = v.to_words();
        assert_eq!(words.len(), 2);
        let mut r = WordReader::new(&words);
        let back = <(i64, u64)>::read_words(&mut r);
        assert_eq!(back, v);
        assert!(r.is_exhausted());
    }

    #[test]
    #[should_panic(expected = "word stream exhausted")]
    fn reader_panics_on_underflow() {
        let mut r = WordReader::new(&[]);
        let _ = r.next();
    }
}
