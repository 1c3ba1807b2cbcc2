//! Witness detection for distance products (paper §3.4, Lemma 21).
//!
//! The fast distance products of [`crate::distance`] return values only; to
//! build routing tables the APSP algorithms need a *witness matrix* `Q` with
//! `(S ⋆ T)ᵤᵥ = Sᵤ,Q[u][v] + T_Q[u][v],ᵥ`. This module adapts the
//! centralized techniques the paper cites:
//!
//! * [`unique_witnesses`] finds correct witnesses for every pair that has a
//!   *unique* witness, using `⌈log₂ n⌉` masked products (one per id bit);
//! * [`find_witnesses`] handles the general case by random sampling
//!   (paper's §3.4 "finding witnesses in the general case"), running the
//!   unique-witness procedure on `O(log² n)` sampled column subsets for a
//!   total of `O(log³ n)` distance products;
//! * [`verify_witnesses`] checks candidates with one round trip of
//!   data-dependent queries (charged as dynamic routing).
//!
//! All routines are generic over the distance-product implementation, so
//! they compose with the 3D product and with the capped fast product alike.

use crate::row_matrix::RowMatrix;
use cc_algebra::{Dist, INFINITY};
use cc_clique::{pack_pair, unpack_pair, Clique, Outbox};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A distance-product implementation, e.g. a closure around
/// [`crate::distance::distance_product`] or
/// [`crate::distance::capped_distance_product`].
pub trait DistanceProduct {
    /// Computes `S ⋆ T`.
    fn product(
        &mut self,
        clique: &mut Clique,
        s: &RowMatrix<Dist>,
        t: &RowMatrix<Dist>,
    ) -> RowMatrix<Dist>;
}

impl<F> DistanceProduct for F
where
    F: FnMut(&mut Clique, &RowMatrix<Dist>, &RowMatrix<Dist>) -> RowMatrix<Dist>,
{
    fn product(
        &mut self,
        clique: &mut Clique,
        s: &RowMatrix<Dist>,
        t: &RowMatrix<Dist>,
    ) -> RowMatrix<Dist> {
        self(clique, s, t)
    }
}

fn mask_columns(s: &RowMatrix<Dist>, keep: &[bool]) -> RowMatrix<Dist> {
    s.map_indexed(|_, v, d| if keep[v] { *d } else { INFINITY })
}

fn mask_rows(t: &RowMatrix<Dist>, keep: &[bool]) -> RowMatrix<Dist> {
    t.map_indexed(|u, _, d| if keep[u] { *d } else { INFINITY })
}

/// Finds witness candidates that are guaranteed correct for every pair
/// `(u,v)` whose witness is unique (paper §3.4 "finding unique witnesses").
///
/// `p` must be the distance product `S ⋆ T`. Uses `⌈log₂ n⌉` masked
/// products. The returned candidates for non-unique pairs may be wrong;
/// validate with [`verify_witnesses`].
pub fn unique_witnesses(
    clique: &mut Clique,
    prod: &mut impl DistanceProduct,
    s: &RowMatrix<Dist>,
    t: &RowMatrix<Dist>,
    p: &RowMatrix<Dist>,
) -> RowMatrix<usize> {
    let n = clique.n();
    let bits = usize::BITS - (n - 1).leading_zeros();
    let mut q = RowMatrix::from_fn(n, |_, _| 0usize);
    clique.phase("witness.unique", |clique| {
        for bit in 0..bits {
            let keep: Vec<bool> = (0..n).map(|v| v >> bit & 1 == 1).collect();
            let pi = prod.product(clique, &mask_columns(s, &keep), &mask_rows(t, &keep));
            q = q.map_indexed(|u, v, &cur| {
                if pi.row(u)[v] == p.row(u)[v] {
                    cur | (1 << bit)
                } else {
                    cur
                }
            });
        }
    });
    q
}

/// Verifies witness candidates: returns `ok[u][v] = true` iff
/// `S[u][Q[u][v]] + T[Q[u][v]][v] = P[u][v]` (entries with `P = ∞` are
/// vacuously correct). One data-dependent query/response exchange, charged
/// via dynamic routing.
pub fn verify_witnesses(
    clique: &mut Clique,
    s: &RowMatrix<Dist>,
    t: &RowMatrix<Dist>,
    p: &RowMatrix<Dist>,
    q: &RowMatrix<usize>,
) -> RowMatrix<bool> {
    let n = clique.n();
    clique.phase("witness.verify", |clique| {
        // Query: node u asks node w = Q[u][v] for T[w][v].
        let queries = clique.route_dynamic_par(|u| {
            let mut out = Outbox::new();
            for v in (0..n).filter(|&v| p.row(u)[v].is_finite() && q.row(u)[v] < n) {
                out.message(q.row(u)[v]).push(pack_pair(u, v));
            }
            out
        });
        // Response: w answers with (v, T[w][v]) — two words — so u can
        // match replies to its outstanding queries.
        let replies = clique.route_dynamic_par(|w| {
            let mut out = Outbox::new();
            for src in 0..n {
                for &word in queries.received(w, src) {
                    let (u, v) = unpack_pair(word);
                    let wr = out.message(u);
                    wr.push(v as u64);
                    wr.push(t.row(w)[v].raw() as u64);
                }
            }
            out
        });
        RowMatrix::from_fn(n, |u, v| {
            if !p.row(u)[v].is_finite() {
                return true;
            }
            let w = q.row(u)[v];
            if w >= n {
                return false;
            }
            // The reply for (u, v) came from node w, as (v, raw) word pairs.
            let words = replies.received(u, w);
            let t_wv = words
                .chunks_exact(2)
                .find(|pair| pair[0] as usize == v)
                .map(|pair| Dist::from_raw(pair[1] as i64));
            match t_wv {
                Some(tv) => s.row(u)[w] + tv == p.row(u)[v],
                None => false,
            }
        })
    })
}

/// Witness matrix for a distance product in the general case (paper §3.4):
/// combines [`unique_witnesses`] with `O(log² n)` random column-subset
/// samples, verifying candidates after every attempt.
///
/// Returns `(Q, found)`; with `trials_per_level ≥ c·log n` every finite
/// entry is witnessed with high probability. Randomness is taken from the
/// explicit `seed` (shared by all nodes, as the paper assumes public
/// randomness for this step).
pub fn find_witnesses(
    clique: &mut Clique,
    prod: &mut impl DistanceProduct,
    s: &RowMatrix<Dist>,
    t: &RowMatrix<Dist>,
    p: &RowMatrix<Dist>,
    seed: u64,
    trials_per_level: usize,
) -> (RowMatrix<usize>, RowMatrix<bool>) {
    let n = clique.n();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut q = unique_witnesses(clique, prod, s, t, p);
    let mut ok = verify_witnesses(clique, s, t, p, &q);
    let levels = (usize::BITS - (n - 1).leading_zeros()) as usize;

    clique.phase("witness.sampled", |clique| {
        for level in 0..levels {
            if all_found(&ok, n) {
                break;
            }
            let subset_size = 1usize << level;
            for _ in 0..trials_per_level {
                // Sample with replacement, as in the paper.
                let mut keep = vec![false; n];
                for _ in 0..subset_size {
                    keep[rng.gen_range(0..n)] = true;
                }
                let sm = mask_columns(s, &keep);
                let tm = mask_rows(t, &keep);
                let pm = prod.product(clique, &sm, &tm);
                let cand = unique_witnesses(clique, prod, &sm, &tm, &pm);
                // A candidate helps only where the masked product achieves
                // the true distance.
                let merged = q.map_indexed(|u, v, &cur| {
                    if !ok.row(u)[v] && pm.row(u)[v] == p.row(u)[v] {
                        cand.row(u)[v]
                    } else {
                        cur
                    }
                });
                let merged_ok = verify_witnesses(clique, s, t, p, &merged);
                q = merged
                    .map_indexed(|u, v, &w| if merged_ok.row(u)[v] { w } else { q.row(u)[v] });
                ok = ok.map_indexed(|u, v, &o| o || merged_ok.row(u)[v]);
            }
        }
    });
    (q, ok)
}

fn all_found(ok: &RowMatrix<bool>, n: usize) -> bool {
    (0..n).all(|u| ok.row(u).iter().all(|&b| b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance;
    use cc_algebra::{Matrix, MinPlus, Semiring};

    fn product() -> impl DistanceProduct {
        |clique: &mut Clique, s: &RowMatrix<Dist>, t: &RowMatrix<Dist>| {
            distance::distance_product(clique, s, t)
        }
    }

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
    fn unique_witnesses_are_correct_when_unique() {
        // Construct S, T with a unique witness per pair: distinct powers of
        // two make every inner sum distinct.
        let n = 8;
        let s = Matrix::from_fn(n, n, |u, w| Dist::finite(((u * n + w) as i64) * 100));
        let t = Matrix::from_fn(n, n, |w, v| Dist::finite((w * n + v) as i64));
        let (s, t) = (RowMatrix::from_matrix(&s), RowMatrix::from_matrix(&t));
        let mut clique = Clique::new(n);
        let p = distance::distance_product(&mut clique, &s, &t);
        let q = unique_witnesses(&mut clique, &mut product(), &s, &t, &p);
        for u in 0..n {
            for v in 0..n {
                let w = q.row(u)[v];
                assert!(w < n);
                assert_eq!(s.row(u)[w] + t.row(w)[v], p.row(u)[v], "({u},{v})");
            }
        }
    }

    #[test]
    fn verification_accepts_true_and_rejects_false_witnesses() {
        let n = 8;
        let a = rand_dist_matrix(n, 9, 4, 5);
        let b = rand_dist_matrix(n, 9, 4, 6);
        let (s, t) = (RowMatrix::from_matrix(&a), RowMatrix::from_matrix(&b));
        let mut clique = Clique::new(n);
        let (p, q_true) = crate::semiring_mm::distance_product_with_witness(&mut clique, &s, &t);
        let ok = verify_witnesses(&mut clique, &s, &t, &p, &q_true);
        for u in 0..n {
            for v in 0..n {
                assert!(ok.row(u)[v], "true witness rejected at ({u},{v})");
            }
        }
        // Corrupt witnesses where possible and expect rejections.
        let q_bad = q_true.map_indexed(|_, _, &w| (w + 1) % n);
        let ok_bad = verify_witnesses(&mut clique, &s, &t, &p, &q_bad);
        let rejected = (0..n)
            .flat_map(|u| (0..n).map(move |v| (u, v)))
            .filter(|&(u, v)| p.row(u)[v].is_finite() && !ok_bad.row(u)[v])
            .count();
        assert!(
            rejected > 0,
            "corrupted witnesses should be rejected somewhere"
        );
    }

    #[test]
    fn sampled_search_finds_witnesses_for_general_matrices() {
        let n = 8;
        // Constant matrices: every w is a witness for every pair — the
        // hardest case for unique-witness detection (nothing is unique).
        let a = Matrix::from_fn(n, n, |_, _| Dist::finite(1));
        let (s, t) = (RowMatrix::from_matrix(&a), RowMatrix::from_matrix(&a));
        let mut clique = Clique::new(n);
        let p = distance::distance_product(&mut clique, &s, &t);
        let (q, ok) = find_witnesses(&mut clique, &mut product(), &s, &t, &p, 42, 6);
        for u in 0..n {
            for v in 0..n {
                assert!(ok.row(u)[v], "witness not found at ({u},{v})");
                let w = q.row(u)[v];
                assert_eq!(s.row(u)[w] + t.row(w)[v], p.row(u)[v]);
            }
        }
    }

    #[test]
    fn sampled_search_on_random_matrices() {
        let n = 12;
        let a = rand_dist_matrix(n, 4, 3, 11);
        let b = rand_dist_matrix(n, 4, 3, 12);
        let (s, t) = (RowMatrix::from_matrix(&a), RowMatrix::from_matrix(&b));
        let mut clique = Clique::new(n);
        let p = distance::distance_product(&mut clique, &s, &t);
        let (q, ok) = find_witnesses(&mut clique, &mut product(), &s, &t, &p, 7, 8);
        let minplus = MinPlus;
        for u in 0..n {
            for v in 0..n {
                if p.row(u)[v].is_finite() {
                    assert!(ok.row(u)[v], "missing witness at ({u},{v})");
                    let w = q.row(u)[v];
                    assert_eq!(
                        minplus.mul(&s.row(u)[w], &t.row(w)[v]),
                        p.row(u)[v],
                        "bad witness at ({u},{v})"
                    );
                }
            }
        }
    }
}
