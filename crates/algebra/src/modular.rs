//! The prime field `ℤ/pℤ`.
//!
//! The paper's lower-bound discussion (Corollary 24) ranges over "Booleans,
//! integers, and rationals"; having a genuinely modular ring in the test
//! matrix also guards the fast multiplication against bugs that integer
//! inputs cannot expose (negative coefficient scaling, non-trivial
//! cancellation). Elements are canonical representatives `0..p`.

use crate::semiring::{Ring, Semiring};
use cc_clique::{WordReader, WordWriter};

/// The ring (field, for prime `p`) of integers modulo `p`, on canonical
/// `u64` representatives.
///
/// # Examples
///
/// ```rust
/// use cc_algebra::{ModRing, Ring, Semiring};
/// let f7 = ModRing::new(7);
/// assert_eq!(f7.add(&5, &4), 2);
/// assert_eq!(f7.neg(&3), 4);
/// assert_eq!(f7.scale(-2, &3), 1); // -6 ≡ 1 (mod 7)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModRing {
    p: u64,
}

impl ModRing {
    /// Creates the ring `ℤ/pℤ`.
    ///
    /// # Panics
    ///
    /// Panics if `p < 2` or `p` does not fit the overflow-free range
    /// (`p ≤ 2³²`, so products of representatives fit in `u64`).
    #[must_use]
    pub fn new(p: u64) -> Self {
        assert!(p >= 2, "modulus must be at least 2");
        assert!(p <= 1 << 32, "modulus must fit 32 bits to avoid overflow");
        Self { p }
    }

    /// The modulus.
    #[must_use]
    pub fn modulus(&self) -> u64 {
        self.p
    }

    /// Canonicalises an integer into `0..p`.
    #[must_use]
    pub fn reduce(&self, x: i64) -> u64 {
        x.rem_euclid(self.p as i64) as u64
    }
}

impl Semiring for ModRing {
    type Elem = u64;

    fn zero(&self) -> u64 {
        0
    }
    fn one(&self) -> u64 {
        1 % self.p
    }
    fn add(&self, a: &u64, b: &u64) -> u64 {
        debug_assert!(*a < self.p && *b < self.p, "non-canonical element");
        (a + b) % self.p
    }
    fn mul(&self, a: &u64, b: &u64) -> u64 {
        debug_assert!(*a < self.p && *b < self.p, "non-canonical element");
        (a * b) % self.p
    }
    #[inline]
    fn write_elem(&self, e: &u64, out: &mut WordWriter) {
        out.push(*e);
    }
    #[inline]
    fn read_elem(&self, r: &mut WordReader<'_>) -> u64 {
        r.next()
    }
    fn elem_width(&self) -> usize {
        1
    }
}

impl Ring for ModRing {
    fn neg(&self, a: &u64) -> u64 {
        debug_assert!(*a < self.p, "non-canonical element");
        (self.p - a) % self.p
    }
    fn scale(&self, coeff: i64, e: &u64) -> u64 {
        let c = self.reduce(coeff);
        (c * e) % self.p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_arithmetic() {
        let f5 = ModRing::new(5);
        assert_eq!(f5.add(&4, &3), 2);
        assert_eq!(f5.mul(&4, &4), 1);
        assert_eq!(f5.sub(&1, &3), 3);
        assert_eq!(f5.one(), 1);
        assert_eq!(ModRing::new(2).one(), 1);
    }

    #[test]
    fn reduce_handles_negatives() {
        let f7 = ModRing::new(7);
        assert_eq!(f7.reduce(-1), 6);
        assert_eq!(f7.reduce(-14), 0);
        assert_eq!(f7.reduce(15), 1);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn tiny_modulus_rejected() {
        let _ = ModRing::new(1);
    }

    proptest! {
        #[test]
        fn ring_axioms(p in 2u64..100, a in 0u64..100, b in 0u64..100, c in 0u64..100) {
            let r = ModRing::new(p);
            let (a, b, c) = (a % p, b % p, c % p);
            prop_assert_eq!(r.add(&a, &b), r.add(&b, &a));
            prop_assert_eq!(r.mul(&r.mul(&a, &b), &c), r.mul(&a, &r.mul(&b, &c)));
            prop_assert_eq!(
                r.mul(&a, &r.add(&b, &c)),
                r.add(&r.mul(&a, &b), &r.mul(&a, &c))
            );
            prop_assert_eq!(r.add(&a, &r.neg(&a)), 0);
            prop_assert_eq!(r.mul(&a, &r.one()), a);
        }

        #[test]
        fn scale_matches_repeated_add(p in 2u64..50, coeff in -20i64..20, e in 0u64..50) {
            let r = ModRing::new(p);
            let e = e % p;
            let mut acc = 0u64;
            for _ in 0..coeff.unsigned_abs() {
                acc = r.add(&acc, &e);
            }
            if coeff < 0 {
                acc = r.neg(&acc);
            }
            prop_assert_eq!(r.scale(coeff, &e), acc);
        }
    }
}
