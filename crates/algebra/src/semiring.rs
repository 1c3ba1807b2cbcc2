//! Semiring and ring structure traits, with the Boolean and integer
//! instances.

use cc_clique::{WordReader, WordWriter};
use std::fmt::Debug;

use crate::matrix::Matrix;

/// A semiring structure over an element type.
///
/// A semiring `(S, ⊕, ⊗, 0, 1)` has a commutative, associative addition `⊕`
/// with identity `0`, an associative multiplication `⊗` with identity `1`
/// that distributes over `⊕`, and `0` annihilates under `⊗`. Instances are
/// *structure objects* (possibly carrying runtime parameters, such as the
/// degree cap of [`crate::PolyRing`]), not marker types.
///
/// The trait also fixes the wire encoding of elements ([`Semiring::write_elem`]
/// / [`Semiring::read_elem`]): the congested clique charges one word per
/// `O(log n)` bits, so wide elements (polynomials) must encode — and thereby
/// cost — proportionally many words, reproducing the paper's `b / log n`
/// factor for `b`-bit entries.
pub trait Semiring {
    /// The element type of the structure.
    type Elem: Clone + PartialEq + Debug;

    /// Additive identity.
    fn zero(&self) -> Self::Elem;

    /// Multiplicative identity.
    fn one(&self) -> Self::Elem;

    /// Semiring addition `a ⊕ b`.
    fn add(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem;

    /// Semiring multiplication `a ⊗ b`.
    fn mul(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem;

    /// Returns `true` if `e` equals the additive identity.
    fn is_zero(&self, e: &Self::Elem) -> bool {
        *e == self.zero()
    }

    /// Appends the wire encoding of `e`.
    fn write_elem(&self, e: &Self::Elem, out: &mut WordWriter);

    /// Decodes one element.
    fn read_elem(&self, r: &mut WordReader<'_>) -> Self::Elem;

    /// Number of words an element occupies on the wire. Must be constant per
    /// structure instance (fixed-width encodings keep decoding oblivious).
    fn elem_width(&self) -> usize;

    /// Folds a sequence with `⊕`.
    fn sum<'a, I>(&self, iter: I) -> Self::Elem
    where
        I: IntoIterator<Item = &'a Self::Elem>,
        Self::Elem: 'a,
    {
        iter.into_iter()
            .fold(self.zero(), |acc, x| self.add(&acc, x))
    }

    /// Dense node-local matrix product `a · b` over this structure.
    ///
    /// This is the seam the pluggable local-kernel layer
    /// ([`crate::kernel`]) plugs into: the default is the schoolbook
    /// [`Matrix::mul`], and structures with specialised kernels
    /// ([`IntRing`], [`BoolSemiring`]) dispatch on the `CC_KERNEL`
    /// selection. Every implementation must return exactly what
    /// [`Matrix::mul`] returns — kernels may only change how the product is
    /// computed, never its value — so swapping kernels is invisible to
    /// results, rounds, words, and fingerprints.
    ///
    /// # Panics
    ///
    /// Panics if `a.cols() != b.rows()`.
    #[must_use]
    fn mul_dense(&self, a: &Matrix<Self::Elem>, b: &Matrix<Self::Elem>) -> Matrix<Self::Elem>
    where
        Self: Sized,
    {
        Matrix::mul(self, a, b)
    }
}

/// A ring structure: a [`Semiring`] with additive inverses.
pub trait Ring: Semiring {
    /// Additive inverse `-a`.
    fn neg(&self, a: &Self::Elem) -> Self::Elem;

    /// Subtraction `a - b`.
    fn sub(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem {
        self.add(a, &self.neg(b))
    }

    /// Multiplies `e` by a small integer scalar (used for the coefficients
    /// of bilinear algorithms, which are `±1` for Strassen and stay small
    /// for its tensor powers).
    fn scale(&self, coeff: i64, e: &Self::Elem) -> Self::Elem {
        let mut acc = self.zero();
        for _ in 0..coeff.unsigned_abs() {
            acc = self.add(&acc, e);
        }
        if coeff < 0 {
            self.neg(&acc)
        } else {
            acc
        }
    }

    /// `dst[k] += coeff · src[k]` for every `k`: one fixed linear
    /// combination step over a whole block, the shape in which the fast
    /// product's cell owners form `Ŝ⁽ʷ⁾`, `T̂⁽ʷ⁾` and evaluate `λ`.
    ///
    /// The provided body is [`Semiring::add`] of [`Ring::scale`], element
    /// by element; an override must return exactly what it returns (for
    /// the integers, bit-identical also where `i64` arithmetic wraps).
    ///
    /// # Panics
    ///
    /// Panics if `src` and `dst` differ in length.
    fn axpy_slice(&self, coeff: i64, src: &[Self::Elem], dst: &mut [Self::Elem]) {
        assert_eq!(src.len(), dst.len(), "axpy_slice operands differ in length");
        for (d, s) in dst.iter_mut().zip(src) {
            *d = self.add(d, &self.scale(coeff, s));
        }
    }
}

/// The Boolean semiring `({false, true}, ∨, ∧)`.
///
/// # Examples
///
/// ```rust
/// use cc_algebra::{BoolSemiring, Semiring};
/// let s = BoolSemiring;
/// assert_eq!(s.add(&true, &false), true);
/// assert_eq!(s.mul(&true, &false), false);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BoolSemiring;

impl Semiring for BoolSemiring {
    type Elem = bool;

    fn zero(&self) -> bool {
        false
    }
    fn one(&self) -> bool {
        true
    }
    fn add(&self, a: &bool, b: &bool) -> bool {
        *a || *b
    }
    fn mul(&self, a: &bool, b: &bool) -> bool {
        *a && *b
    }
    #[inline]
    fn write_elem(&self, e: &bool, out: &mut WordWriter) {
        out.push(u64::from(*e));
    }
    #[inline]
    fn read_elem(&self, r: &mut WordReader<'_>) -> bool {
        r.next() != 0
    }
    fn elem_width(&self) -> usize {
        1
    }
    fn mul_dense(&self, a: &Matrix<bool>, b: &Matrix<bool>) -> Matrix<bool> {
        crate::kernel::mul_bool(a, b)
    }
}

/// The ring of integers, on `i64` elements.
///
/// Arithmetic uses the standard library's `i64` operations, so overflow
/// panics in debug builds and wraps in release builds; the algorithms in
/// this workspace keep intermediate values below `n⁴ · max|entry|²`, well
/// within range for the supported clique sizes.
///
/// # Examples
///
/// ```rust
/// use cc_algebra::{IntRing, Ring, Semiring};
/// assert_eq!(IntRing.mul(&3, &-4), -12);
/// assert_eq!(IntRing.sub(&3, &5), -2);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntRing;

impl Semiring for IntRing {
    type Elem = i64;

    fn zero(&self) -> i64 {
        0
    }
    fn one(&self) -> i64 {
        1
    }
    fn add(&self, a: &i64, b: &i64) -> i64 {
        a + b
    }
    fn mul(&self, a: &i64, b: &i64) -> i64 {
        a * b
    }
    #[inline]
    fn write_elem(&self, e: &i64, out: &mut WordWriter) {
        out.push(*e as u64);
    }
    #[inline]
    fn read_elem(&self, r: &mut WordReader<'_>) -> i64 {
        r.next() as i64
    }
    fn elem_width(&self) -> usize {
        1
    }
    fn mul_dense(&self, a: &Matrix<i64>, b: &Matrix<i64>) -> Matrix<i64> {
        crate::kernel::mul_i64(a, b)
    }
}

impl Ring for IntRing {
    fn neg(&self, a: &i64) -> i64 {
        -a
    }
    fn sub(&self, a: &i64, b: &i64) -> i64 {
        a - b
    }
    fn scale(&self, coeff: i64, e: &i64) -> i64 {
        coeff * e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bool_semiring_identities() {
        let s = BoolSemiring;
        for v in [false, true] {
            assert_eq!(s.add(&v, &s.zero()), v);
            assert_eq!(s.mul(&v, &s.one()), v);
            assert!(s.is_zero(&s.mul(&v, &s.zero())));
        }
    }

    #[test]
    fn int_ring_scale_matches_repeated_add() {
        let r = IntRing;
        // Generic default implementation vs specialized.
        for coeff in -5i64..=5 {
            let mut acc = 0;
            for _ in 0..coeff.abs() {
                acc += 7;
            }
            if coeff < 0 {
                acc = -acc;
            }
            assert_eq!(r.scale(coeff, &7), acc);
        }
    }

    #[test]
    #[should_panic(expected = "differ in length")]
    fn axpy_slice_refuses_ragged_operands() {
        IntRing.axpy_slice(1, &[1, 2], &mut [0]);
    }

    #[test]
    fn sum_folds() {
        let r = IntRing;
        let vals = [1i64, 2, 3, 4];
        assert_eq!(r.sum(vals.iter()), 10);
        assert_eq!(r.sum(std::iter::empty::<&i64>()), 0);
    }

    proptest! {
        #[test]
        fn int_ring_axioms(a in -1000i64..1000, b in -1000i64..1000, c in -1000i64..1000) {
            let r = IntRing;
            // Associativity and commutativity of addition.
            prop_assert_eq!(r.add(&r.add(&a, &b), &c), r.add(&a, &r.add(&b, &c)));
            prop_assert_eq!(r.add(&a, &b), r.add(&b, &a));
            // Distributivity.
            prop_assert_eq!(r.mul(&a, &r.add(&b, &c)), r.add(&r.mul(&a, &b), &r.mul(&a, &c)));
            // Inverses.
            prop_assert_eq!(r.add(&a, &r.neg(&a)), 0);
        }

        #[test]
        fn bool_semiring_axioms(a: bool, b: bool, c: bool) {
            let s = BoolSemiring;
            prop_assert_eq!(s.add(&s.add(&a, &b), &c), s.add(&a, &s.add(&b, &c)));
            prop_assert_eq!(s.add(&a, &b), s.add(&b, &a));
            prop_assert_eq!(s.mul(&a, &s.add(&b, &c)), s.add(&s.mul(&a, &b), &s.mul(&a, &c)));
            prop_assert_eq!(s.mul(&a, &s.zero()), s.zero());
        }

        #[test]
        fn int_roundtrip(x in any::<i64>()) {
            let r = IntRing;
            let mut w = cc_clique::WordWriter::new();
            r.write_elem(&x, &mut w);
            let words = w.into_words();
            prop_assert_eq!(words.len(), r.elem_width());
            let mut rd = cc_clique::WordReader::new(&words);
            prop_assert_eq!(r.read_elem(&mut rd), x);
        }
    }
}
