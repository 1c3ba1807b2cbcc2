//! Property tests for the distributed multiplication engines: for random
//! matrices and *arbitrary* clique sizes (including primes and other
//! padding-hostile values), every engine must agree with the local
//! schoolbook product over its structure.

use cc_algebra::{Dist, IntRing, Matrix, MinPlus, ModRing, INFINITY};
use cc_clique::Clique;
use cc_core::{fast_mm, semiring_mm, Plan3d, RowMatrix};
use proptest::prelude::*;

fn int_matrix(n: usize, seed: u64) -> Matrix<i64> {
    let mut st = seed.wrapping_add(0x9e3779b97f4a7c15);
    Matrix::from_fn(n, n, |_, _| {
        st = st
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((st >> 33) % 13) as i64 - 6
    })
}

fn dist_matrix(n: usize, seed: u64) -> Matrix<Dist> {
    let mut st = seed.wrapping_add(7);
    Matrix::from_fn(n, n, |_, _| {
        st = st
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let x = st >> 33;
        if x.is_multiple_of(5) {
            INFINITY
        } else {
            Dist::finite((x % 30) as i64)
        }
    })
}

/// Entries in [0, 8) (many ties), finite with probability `density`
/// percent, with row `n / 3` all `∞` when `blank` is set.
fn dist_matrix_with(n: usize, seed: u64, density: u64, blank: bool) -> Matrix<Dist> {
    let mut st = seed.wrapping_add(11);
    Matrix::from_fn(n, n, |i, _| {
        st = st
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        if (blank && i == n / 3) || (st >> 40) % 100 >= density {
            INFINITY
        } else {
            Dist::finite(((st >> 33) % 8) as i64)
        }
    })
}

/// The 3D engine's witness rule applied locally: each inner block of
/// [`Plan3d`] runs the `(Dist, usize)` loop the engine's step 2 ran before
/// its distance planes, and the row owner's reduce keeps the smaller
/// distance, ties to the smaller witness.
fn blockwise_witness_product(a: &Matrix<Dist>, b: &Matrix<Dist>) -> (Matrix<Dist>, Matrix<usize>) {
    let n = a.rows();
    let plan = Plan3d::new(n);
    let mut p = Matrix::filled(n, n, INFINITY);
    let mut q = Matrix::filled(n, n, usize::MAX);
    for u2 in 0..plan.p() {
        let mut blk = Matrix::filled(n, n, (INFINITY, usize::MAX));
        for i in 0..n {
            for k in plan.block_range(u2) {
                if !a[(i, k)].is_finite() {
                    continue;
                }
                for j in 0..n {
                    let cand = a[(i, k)] + b[(k, j)];
                    let cur = blk[(i, j)];
                    if cand < cur.0 || (cand == cur.0 && k < cur.1) {
                        blk[(i, j)] = (cand, k);
                    }
                }
            }
        }
        for (i, j, &(d, w)) in blk.iter_indexed() {
            if d < p[(i, j)] || (d == p[(i, j)] && w < q[(i, j)]) {
                p[(i, j)] = d;
                q[(i, j)] = w;
            }
        }
    }
    (p, q)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn semiring_3d_matches_local(n in 2usize..30, seed in 0u64..10_000) {
        let a = int_matrix(n, seed);
        let b = int_matrix(n, seed ^ 0xabcd);
        let mut clique = Clique::new(n);
        let p = semiring_mm::multiply(
            &mut clique,
            &IntRing,
            &RowMatrix::from_matrix(&a),
            &RowMatrix::from_matrix(&b),
        );
        prop_assert_eq!(p.to_matrix(), Matrix::mul(&IntRing, &a, &b));
    }

    #[test]
    fn fast_mm_matches_local(n in 2usize..30, seed in 0u64..10_000) {
        let a = int_matrix(n, seed);
        let b = int_matrix(n, seed ^ 0x1234);
        let mut clique = Clique::new(n);
        let p = fast_mm::multiply_auto(
            &mut clique,
            &IntRing,
            &RowMatrix::from_matrix(&a),
            &RowMatrix::from_matrix(&b),
        );
        prop_assert_eq!(p.to_matrix(), Matrix::mul(&IntRing, &a, &b));
    }

    #[test]
    fn min_plus_3d_matches_local(n in 2usize..24, seed in 0u64..10_000) {
        let a = dist_matrix(n, seed);
        let b = dist_matrix(n, seed ^ 0x77);
        let mut clique = Clique::new(n);
        let p = semiring_mm::multiply(
            &mut clique,
            &MinPlus,
            &RowMatrix::from_matrix(&a),
            &RowMatrix::from_matrix(&b),
        );
        prop_assert_eq!(p.to_matrix(), Matrix::mul(&MinPlus, &a, &b));
    }

    #[test]
    fn fast_mm_matches_local_over_prime_field(n in 2usize..22, p in 0usize..4, seed in 0u64..10_000) {
        let primes = [2u64, 5, 13, 31];
        let field = ModRing::new(primes[p]);
        let a = int_matrix(n, seed).map(|&x| field.reduce(x));
        let b = int_matrix(n, seed ^ 0x55).map(|&x| field.reduce(x));
        let mut clique = Clique::new(n);
        let prod = fast_mm::multiply_auto(
            &mut clique,
            &field,
            &RowMatrix::from_matrix(&a),
            &RowMatrix::from_matrix(&b),
        );
        prop_assert_eq!(prod.to_matrix(), Matrix::mul(&field, &a, &b));
    }

    #[test]
    fn witnesses_certify_on_random_instances(n in 4usize..20, seed in 0u64..10_000) {
        let a = dist_matrix(n, seed);
        let b = dist_matrix(n, seed ^ 0x99);
        let mut clique = Clique::new(n);
        let (p, q) = semiring_mm::distance_product_with_witness(
            &mut clique,
            &RowMatrix::from_matrix(&a),
            &RowMatrix::from_matrix(&b),
        );
        prop_assert_eq!(p.to_matrix(), Matrix::mul(&MinPlus, &a, &b));
        for u in 0..n {
            for v in 0..n {
                if p.row(u)[v].is_finite() {
                    let w = q.row(u)[v];
                    prop_assert!(w < n);
                    prop_assert_eq!(a[(u, w)] + b[(w, v)], p.row(u)[v]);
                }
            }
        }
    }

    #[test]
    fn witness_plane_matches_the_blockwise_rule(
        n in 2usize..40,
        density in 0u64..101,
        seed in 0u64..10_000,
    ) {
        let a = dist_matrix_with(n, seed, density, seed % 3 == 0);
        // Transposed, the blank row of T becomes an all-∞ column.
        let b = dist_matrix_with(n, seed ^ 0x5a, density, seed % 2 == 0).transpose();
        let mut clique = Clique::new(n);
        let (p, q) = semiring_mm::distance_product_with_witness(
            &mut clique,
            &RowMatrix::from_matrix(&a),
            &RowMatrix::from_matrix(&b),
        );
        let (p_ref, q_ref) = blockwise_witness_product(&a, &b);
        prop_assert_eq!(p.to_matrix(), p_ref);
        prop_assert_eq!(q.to_matrix(), q_ref);
    }
}
