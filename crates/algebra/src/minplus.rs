//! The min-plus (tropical) semiring used for distance products.

use crate::semiring::Semiring;
use cc_clique::{WordReader, WordWriter};
use std::fmt;
use std::ops::Add;

/// The unreachable distance, `∞`.
pub const INFINITY: Dist = Dist(i64::MAX);

/// A path length in the min-plus semiring: a finite `i64` or [`INFINITY`].
///
/// `Dist` orders naturally (`∞` is larger than every finite value) and adds
/// with saturation at `∞`, so `min`/`+` give exactly the tropical semiring
/// operations.
///
/// # Examples
///
/// ```rust
/// use cc_algebra::{Dist, INFINITY};
/// let d = Dist::finite(3) + Dist::finite(4);
/// assert_eq!(d, Dist::finite(7));
/// assert_eq!(Dist::finite(3) + INFINITY, INFINITY);
/// assert!(Dist::finite(100) < INFINITY);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Dist(i64);

impl Dist {
    /// A finite distance.
    ///
    /// # Panics
    ///
    /// Panics if `v` equals the `∞` sentinel (`i64::MAX`).
    #[must_use]
    pub fn finite(v: i64) -> Self {
        assert!(v != i64::MAX, "i64::MAX is reserved for INFINITY");
        Dist(v)
    }

    /// Zero distance (the multiplicative identity of the semiring).
    #[must_use]
    pub const fn zero() -> Self {
        Dist(0)
    }

    /// Returns `true` for finite distances.
    #[must_use]
    pub fn is_finite(&self) -> bool {
        self.0 != i64::MAX
    }

    /// The finite value, or `None` for `∞`.
    #[must_use]
    pub fn value(&self) -> Option<i64> {
        self.is_finite().then_some(self.0)
    }

    /// The finite value.
    ///
    /// # Panics
    ///
    /// Panics on `∞`.
    #[must_use]
    pub fn unwrap(&self) -> i64 {
        self.value().expect("unwrap on INFINITY")
    }

    /// Raw `i64` representation (`i64::MAX` encodes `∞`).
    #[must_use]
    pub fn raw(&self) -> i64 {
        self.0
    }

    /// Builds a distance from the raw representation.
    #[must_use]
    pub fn from_raw(v: i64) -> Self {
        Dist(v)
    }
}

impl Add for Dist {
    type Output = Dist;
    /// Min-plus "multiplication": length concatenation, saturating at `∞`.
    fn add(self, rhs: Dist) -> Dist {
        if self.is_finite() && rhs.is_finite() {
            Dist(self.0 + rhs.0)
        } else {
            INFINITY
        }
    }
}

impl fmt::Debug for Dist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_finite() {
            write!(f, "{}", self.0)
        } else {
            write!(f, "∞")
        }
    }
}

impl fmt::Display for Dist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// The min-plus (tropical) semiring `(ℤ ∪ {∞}, min, +)`.
///
/// Matrix multiplication over this structure is the *distance product*
/// `(S ⋆ T)ᵤᵥ = minᵥᵥ (Sᵤᵥᵥ + Tᵥᵥᵥ)` of the paper's Section 3.3.
///
/// # Examples
///
/// ```rust
/// use cc_algebra::{Dist, Matrix, MinPlus, INFINITY, Semiring};
/// let s = MinPlus;
/// assert_eq!(s.add(&Dist::finite(2), &Dist::finite(5)), Dist::finite(2)); // min
/// assert_eq!(s.mul(&Dist::finite(2), &Dist::finite(5)), Dist::finite(7)); // plus
/// assert_eq!(s.zero(), INFINITY);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MinPlus;

impl Semiring for MinPlus {
    type Elem = Dist;

    fn zero(&self) -> Dist {
        INFINITY
    }
    fn one(&self) -> Dist {
        Dist::zero()
    }
    fn add(&self, a: &Dist, b: &Dist) -> Dist {
        *a.min(b)
    }
    fn mul(&self, a: &Dist, b: &Dist) -> Dist {
        *a + *b
    }
    #[inline]
    fn write_elem(&self, e: &Dist, out: &mut WordWriter) {
        out.push(e.0 as u64);
    }
    #[inline]
    fn read_elem(&self, r: &mut WordReader<'_>) -> Dist {
        Dist(r.next() as i64)
    }
    fn elem_width(&self) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use proptest::prelude::*;

    #[test]
    fn distance_product_is_shortest_two_hop() {
        // Weighted digraph on 3 nodes: 0 -> 1 (w=1), 1 -> 2 (w=2), 0 -> 2 (w=9).
        let inf = INFINITY;
        let f = Dist::finite;
        let w = Matrix::from_rows(&[
            [Dist::zero(), f(1), f(9)],
            [inf, Dist::zero(), f(2)],
            [inf, inf, Dist::zero()],
        ]);
        let w2 = Matrix::mul(&MinPlus, &w, &w);
        assert_eq!(w2[(0, 2)], f(3)); // 0 -> 1 -> 2 beats the direct edge
        assert_eq!(w2[(2, 0)], inf);
    }

    #[test]
    fn display_infinity() {
        assert_eq!(format!("{INFINITY}"), "∞");
        assert_eq!(format!("{}", Dist::finite(-4)), "-4");
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn finite_rejects_sentinel() {
        let _ = Dist::finite(i64::MAX);
    }

    #[test]
    #[should_panic(expected = "unwrap on INFINITY")]
    fn unwrap_infinity_panics() {
        let _ = INFINITY.unwrap();
    }

    fn arb_dist() -> impl Strategy<Value = Dist> {
        prop_oneof![
            4 => (-1000i64..1000).prop_map(Dist::finite),
            1 => Just(INFINITY),
        ]
    }

    proptest! {
        #[test]
        fn semiring_axioms(a in arb_dist(), b in arb_dist(), c in arb_dist()) {
            let s = MinPlus;
            prop_assert_eq!(s.add(&a, &b), s.add(&b, &a));
            prop_assert_eq!(s.add(&s.add(&a, &b), &c), s.add(&a, &s.add(&b, &c)));
            prop_assert_eq!(s.mul(&s.mul(&a, &b), &c), s.mul(&a, &s.mul(&b, &c)));
            prop_assert_eq!(s.add(&a, &s.zero()), a);
            prop_assert_eq!(s.mul(&a, &s.one()), a);
            // Distributivity: a + min(b,c) == min(a+b, a+c).
            prop_assert_eq!(s.mul(&a, &s.add(&b, &c)), s.add(&s.mul(&a, &b), &s.mul(&a, &c)));
            // Annihilation: a + ∞ = ∞.
            prop_assert_eq!(s.mul(&a, &s.zero()), s.zero());
        }

        #[test]
        fn roundtrip(a in arb_dist()) {
            let s = MinPlus;
            let mut w = cc_clique::WordWriter::new();
            s.write_elem(&a, &mut w);
            let words = w.into_words();
            let mut r = cc_clique::WordReader::new(&words);
            prop_assert_eq!(s.read_elem(&mut r), a);
        }
    }
}
