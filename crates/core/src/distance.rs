//! Distance products: exact, weight-capped, and approximate.
//!
//! * [`distance_product`] — exact min-plus product via the 3D semiring
//!   algorithm (`O(n^{1/3})` rounds).
//! * [`capped_distance_product`] — Lemma 18: a distance product with entries
//!   in `{0, …, M} ∪ {∞}` embedded into the ring `ℤ[x]/x^{2M+1}` and
//!   computed with the fast bilinear algorithm in `O(M n^{1-2/σ})` rounds
//!   (polynomial entries honestly cost `2M+1` words each).
//! * [`apsp_up_to`] — Lemma 19: all-pairs shortest paths up to distance `M`
//!   by iterated capped squaring.
//! * [`approx_distance_product`] — Lemma 20: a `(1+δ)`-approximate distance
//!   product via weight scaling, using `O(log_{1+δ} M)` capped products with
//!   entries bounded by `O(1/δ)`.

use crate::fast_mm;
use crate::row_matrix::RowMatrix;
use crate::semiring_mm;
use cc_algebra::{BilinearAlgorithm, CappedPoly, Dist, MinPlus, PolyRing, INFINITY};
use cc_clique::Clique;

/// Exact distance product `S ⋆ T` over the min-plus semiring, computed with
/// the 3D algorithm in `O(n^{1/3})` rounds.
pub fn distance_product(
    clique: &mut Clique,
    a: &RowMatrix<Dist>,
    b: &RowMatrix<Dist>,
) -> RowMatrix<Dist> {
    semiring_mm::multiply(clique, &MinPlus, a, b)
}

/// Density-dispatching distance product: `∞` is the min-plus zero, so a
/// matrix with few finite entries is *sparse* and the Le Gall 2016 path
/// ([`crate::sparse_mm`]) prices the product by its finite structure,
/// falling back to the 3D algorithm when density doesn't pay.
pub fn distance_product_auto(
    clique: &mut Clique,
    a: &RowMatrix<Dist>,
    b: &RowMatrix<Dist>,
) -> RowMatrix<Dist> {
    crate::sparse_mm::multiply_auto(clique, &MinPlus, a, b)
}

fn embed(cap: usize, d: &Dist) -> CappedPoly {
    match d.value() {
        Some(v) => {
            debug_assert!(v >= 0, "capped embedding requires non-negative entries");
            CappedPoly::monomial(cap, v as usize)
        }
        None => CappedPoly::zero(cap),
    }
}

/// Lemma 18: the distance product of matrices with entries in
/// `{0, …, max_entry} ∪ {∞}` through the polynomial-ring embedding.
///
/// Entries exceeding `max_entry` are treated as `∞` (the capping used by
/// Lemma 19). Runs the fast bilinear algorithm over `ℤ[x]/x^{2·max_entry+1}`,
/// so the round cost scales linearly with `max_entry`.
///
/// # Panics
///
/// Panics if any finite entry is negative, or if `max_entry < 0`.
///
/// # Examples
///
/// ```rust
/// use cc_algebra::{Dist, Matrix, MinPlus, INFINITY};
/// use cc_clique::Clique;
/// use cc_core::{distance, FastPlan, RowMatrix};
///
/// let n = 8;
/// let f = |x: usize| Dist::finite((x % 4) as i64);
/// let a = Matrix::from_fn(n, n, |i, j| f(i + j));
/// let b = Matrix::from_fn(n, n, |i, j| f(i * 2 + j));
/// let alg = FastPlan::best_strassen(n);
/// let mut clique = Clique::new(n);
/// let p = distance::capped_distance_product(
///     &mut clique, &alg,
///     &RowMatrix::from_matrix(&a), &RowMatrix::from_matrix(&b), 3,
/// );
/// assert_eq!(p.to_matrix(), Matrix::mul(&MinPlus, &a, &b));
/// ```
pub fn capped_distance_product(
    clique: &mut Clique,
    alg: &BilinearAlgorithm,
    a: &RowMatrix<Dist>,
    b: &RowMatrix<Dist>,
    max_entry: i64,
) -> RowMatrix<Dist> {
    assert!(max_entry >= 0, "max_entry must be non-negative");
    let cap = 2 * max_entry as usize + 1;
    let ring = PolyRing::new(cap);
    let clamp = |d: &Dist| match d.value() {
        Some(v) if v <= max_entry => {
            assert!(
                v >= 0,
                "capped distance product requires non-negative entries (got {v})"
            );
            Dist::finite(v)
        }
        _ => INFINITY,
    };
    // The polynomial embedding allocates a `cap`-length coefficient vector
    // per entry — heavy node-local work, fanned out per row on the backend.
    let exec = clique.executor();
    let pa = a.par_map(&exec, |d| embed(cap, &clamp(d)));
    let pb = b.par_map(&exec, |d| embed(cap, &clamp(d)));
    let pp = clique.phase("capped_dp", |c| fast_mm::multiply(c, &ring, alg, &pa, &pb));
    pp.par_map(&exec, |p| match p.min_degree() {
        Some(deg) => Dist::finite(deg as i64),
        None => INFINITY,
    })
}

/// Lemma 19: all-pairs shortest paths **up to distance `max_dist`** for
/// non-negative integer weights: entries above the cap are replaced by `∞`
/// before each of the `⌈log₂ n⌉` squarings, keeping every product cheap.
///
/// The result equals the true distance wherever that distance is at most
/// `max_dist`, and `∞` elsewhere.
///
/// # Panics
///
/// Panics if `w` has negative finite entries or `max_dist < 0`.
pub fn apsp_up_to(
    clique: &mut Clique,
    alg: &BilinearAlgorithm,
    w: &RowMatrix<Dist>,
    max_dist: i64,
) -> RowMatrix<Dist> {
    let n = clique.n();
    let mut cur = w.clone();
    let mut hops = 1usize;
    clique.phase("apsp_up_to", |c| {
        while hops < n {
            cur = capped_distance_product(c, alg, &cur, &cur, max_dist);
            hops *= 2;
        }
    });
    // The final squaring can produce values in (max_dist, 2·max_dist] that
    // are not guaranteed to be exact distances; the contract is "exact up to
    // max_dist, ∞ beyond", so clamp them away.
    cur.map(|d| match d.value() {
        Some(v) if v <= max_dist => Dist::finite(v),
        _ => INFINITY,
    })
}

/// Lemma 20: a matrix `P̃` with `P ≤ P̃ ≤ (1+δ)·P` entry-wise, where
/// `P = S ⋆ T`, computed with `O(log_{1+δ} M)` capped distance products
/// whose entries are bounded by `⌈2(1+δ)/δ⌉`.
///
/// # Panics
///
/// Panics if `delta ≤ 0` or entries are negative.
pub fn approx_distance_product(
    clique: &mut Clique,
    alg: &BilinearAlgorithm,
    s: &RowMatrix<Dist>,
    t: &RowMatrix<Dist>,
    delta: f64,
) -> RowMatrix<Dist> {
    assert!(delta > 0.0, "delta must be positive");
    let n = clique.n();

    clique.phase("approx_dp", |clique| {
        // All nodes learn the largest finite entry M (one broadcast round).
        let local_max = |rm: &RowMatrix<Dist>, v: usize| {
            rm.row(v).iter().filter_map(Dist::value).max().unwrap_or(0)
        };
        let m_s = clique.max_all(|v| local_max(s, v));
        let m_t = clique.max_all(|v| local_max(t, v));
        let big_m = m_s.max(m_t).max(1) as f64;

        let levels = (big_m.ln() / (1.0 + delta).ln()).ceil() as usize;
        let entry_bound = (2.0 * (1.0 + delta) / delta).ceil() as i64;

        let exec = clique.executor();
        let mut best: RowMatrix<Dist> = RowMatrix::from_fn(n, |_, _| INFINITY);
        for i in 0..=levels {
            let scale = (1.0 + delta).powi(i as i32);
            let cutoff = 2.0 * (1.0 + delta).powi(i as i32 + 1) / delta;
            let shrink = |d: &Dist| match d.value() {
                Some(v) if (v as f64) <= cutoff => Dist::finite(((v as f64) / scale).ceil() as i64),
                _ => INFINITY,
            };
            let si = s.par_map(&exec, shrink);
            let ti = t.par_map(&exec, shrink);
            let pi = capped_distance_product(clique, alg, &si, &ti, entry_bound);
            best = best.par_map_indexed(&exec, |u, v, cur| {
                let cand = match pi.row(u)[v].value() {
                    Some(x) => Dist::finite((scale * x as f64).floor() as i64),
                    None => INFINITY,
                };
                cand.min(*cur)
            });
        }
        best
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fast_plan::FastPlan;
    use cc_algebra::Matrix;

    fn rand_dist_matrix(n: usize, max_w: i64, inf_every: u64, seed: u64) -> Matrix<Dist> {
        let mut st = seed;
        Matrix::from_fn(n, n, |_, _| {
            st = st
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = st >> 33;
            if inf_every > 0 && x.is_multiple_of(inf_every) {
                INFINITY
            } else {
                Dist::finite((x % (max_w as u64 + 1)) as i64)
            }
        })
    }

    #[test]
    fn capped_product_matches_exact_min_plus() {
        for n in [4, 8, 12] {
            let m = 5i64;
            let a = rand_dist_matrix(n, m, 4, 1);
            let b = rand_dist_matrix(n, m, 3, 2);
            let alg = FastPlan::best_strassen(n);
            let mut clique = Clique::new(n);
            let p = capped_distance_product(
                &mut clique,
                &alg,
                &RowMatrix::from_matrix(&a),
                &RowMatrix::from_matrix(&b),
                m,
            );
            assert_eq!(p.to_matrix(), Matrix::mul(&MinPlus, &a, &b), "n={n}");
        }
    }

    #[test]
    fn capped_product_treats_large_entries_as_infinite() {
        let n = 4;
        let f = Dist::finite;
        // One entry (7) exceeds the cap of 3 and must act like ∞.
        let a = Matrix::from_fn(n, n, |i, j| if i == 0 && j == 1 { f(7) } else { f(1) });
        let b = Matrix::from_fn(n, n, |_, _| f(1));
        let alg = FastPlan::best_strassen(n);
        let mut clique = Clique::new(n);
        let p = capped_distance_product(
            &mut clique,
            &alg,
            &RowMatrix::from_matrix(&a),
            &RowMatrix::from_matrix(&b),
            3,
        );
        // Every (0, v) entry still reaches weight 2 through columns != 1.
        assert_eq!(p.to_matrix()[(0, 0)], f(2));
    }

    #[test]
    fn polynomial_width_costs_more_rounds() {
        let n = 8;
        let a = rand_dist_matrix(n, 3, 5, 3);
        let b = rand_dist_matrix(n, 3, 5, 4);
        let alg = FastPlan::best_strassen(n);
        let rounds_for = |cap: i64| {
            let mut clique = Clique::new(n);
            capped_distance_product(
                &mut clique,
                &alg,
                &RowMatrix::from_matrix(&a),
                &RowMatrix::from_matrix(&b),
                cap,
            );
            clique.rounds()
        };
        assert!(
            rounds_for(12) > rounds_for(3),
            "wider polynomial entries must cost more rounds"
        );
    }

    #[test]
    fn apsp_up_to_matches_bfs_distances() {
        // Unweighted directed cycle: distances are well-known.
        let n = 8;
        let w = Matrix::from_fn(n, n, |u, v| {
            if u == v {
                Dist::zero()
            } else if v == (u + 1) % n {
                Dist::finite(1)
            } else {
                INFINITY
            }
        });
        let alg = FastPlan::best_strassen(n);
        let mut clique = Clique::new(n);
        let d = apsp_up_to(&mut clique, &alg, &RowMatrix::from_matrix(&w), n as i64);
        for u in 0..n {
            for v in 0..n {
                let expect = ((v + n - u) % n) as i64;
                assert_eq!(d.row(u)[v], Dist::finite(expect), "({u},{v})");
            }
        }
    }

    #[test]
    fn apsp_up_to_respects_cap() {
        let n = 6;
        let w = Matrix::from_fn(n, n, |u, v| {
            if u == v {
                Dist::zero()
            } else if v == u + 1 {
                Dist::finite(1)
            } else {
                INFINITY
            }
        });
        let alg = FastPlan::best_strassen(n);
        let mut clique = Clique::new(n);
        let d = apsp_up_to(&mut clique, &alg, &RowMatrix::from_matrix(&w), 2);
        assert_eq!(d.row(0)[2], Dist::finite(2));
        assert_eq!(d.row(0)[3], INFINITY, "distances beyond the cap are ∞");
    }

    #[test]
    fn approx_product_is_within_factor() {
        let n = 8;
        let delta = 0.3;
        let a = rand_dist_matrix(n, 200, 6, 9);
        let b = rand_dist_matrix(n, 200, 6, 10);
        let exact = Matrix::mul(&MinPlus, &a, &b);
        let alg = FastPlan::best_strassen(n);
        let mut clique = Clique::new(n);
        let approx = approx_distance_product(
            &mut clique,
            &alg,
            &RowMatrix::from_matrix(&a),
            &RowMatrix::from_matrix(&b),
            delta,
        )
        .to_matrix();
        for u in 0..n {
            for v in 0..n {
                match (exact[(u, v)].value(), approx[(u, v)].value()) {
                    (Some(e), Some(g)) => {
                        assert!(g >= e, "({u},{v}): approx {g} below exact {e}");
                        assert!(
                            g as f64 <= (1.0 + delta) * e as f64 + 1e-9,
                            "({u},{v}): approx {g} above (1+δ)·{e}"
                        );
                    }
                    (None, None) => {}
                    (e, g) => panic!("({u},{v}): finiteness mismatch {e:?} vs {g:?}"),
                }
            }
        }
    }
}
