//! The semiring 3D matrix multiplication algorithm (paper §2.1).
//!
//! Implements Theorem 1's first part: the product of two `n × n` matrices
//! over any semiring in `O(n^{1/3})` rounds, by parallelising the schoolbook
//! product over the `n × n × n` multiplication cube. The communication
//! pattern is oblivious — it depends only on `n`, never on matrix contents —
//! which the test suite checks via pattern fingerprints.

use crate::plan3d::Plan3d;
use crate::row_matrix::RowMatrix;
use cc_algebra::{kernel, Dist, Matrix, MinPlus, Semiring};
use cc_clique::{Clique, Outbox, WordReader};

/// Step 1 of both 3D products, at row owner `v`: its slice `S[v, u₂∗∗]` to
/// every active node `(rb, u₂, u₃)` and its slice `T[v, u₃∗∗]` to every
/// active node `(u₁, rb, u₃)`, where `rb` is the block of row `v`.
fn scatter_row<S: Semiring>(
    plan: &Plan3d,
    s: &S,
    a_row: &[S::Elem],
    b_row: &[S::Elem],
    v: usize,
) -> Outbox {
    let (p, rb) = (plan.p(), plan.block_of_row(v));
    // p² messages per operand, each operand's row cut into its p blocks.
    let blocks: usize = (0..p).map(|u| plan.block_range(u).len()).sum();
    let mut out = Outbox::with_capacity(2 * p * p, 2 * p * blocks * s.elem_width());
    let mut send = |dst: usize, slice: &[S::Elem]| {
        let w = out.message(dst);
        for e in slice {
            s.write_elem(e, w);
        }
    };
    for u2 in 0..p {
        for u3 in 0..p {
            send(plan.node_of(rb, u2, u3), &a_row[plan.block_range(u2)]);
        }
    }
    for u3 in 0..p {
        for u1 in 0..p {
            send(plan.node_of(u1, rb, u3), &b_row[plan.block_range(u3)]);
        }
    }
    out
}

/// Decodes one inbox message of `expect` min-plus words straight into a
/// distance-plane row: the `dst.len()` words after the first `skip`.
fn decode_dists(dst: &mut [i64], words: &[u64], expect: usize, skip: usize) {
    assert_eq!(words.len(), expect, "payload length mismatch");
    for (d, &w) in dst.iter_mut().zip(&words[skip..]) {
        *d = w as i64;
    }
}

fn decode_slice<S: Semiring>(s: &S, words: &[u64], count: usize) -> Vec<S::Elem> {
    let mut r = WordReader::new(words);
    let out: Vec<S::Elem> = (0..count).map(|_| s.read_elem(&mut r)).collect();
    assert!(r.is_exhausted(), "payload length mismatch");
    out
}

/// Computes `P = S·T` over a semiring with the 3D algorithm.
///
/// Inputs and output follow the paper's convention: node `v` holds row `v`.
/// Runs in `O(n^{1/3} · width)` rounds, where `width` is the wire width of a
/// semiring element in words.
///
/// # Panics
///
/// Panics if the operand dimensions differ from the clique size.
///
/// # Examples
///
/// ```rust
/// use cc_algebra::{BoolSemiring, Matrix};
/// use cc_clique::Clique;
/// use cc_core::{semiring_mm, RowMatrix};
///
/// // Boolean square of a directed path: 2-step reachability.
/// let n = 8;
/// let a = Matrix::from_fn(n, n, |i, j| j == i + 1);
/// let mut clique = Clique::new(n);
/// let a2 = semiring_mm::multiply(
///     &mut clique,
///     &BoolSemiring,
///     &RowMatrix::from_matrix(&a),
///     &RowMatrix::from_matrix(&a),
/// );
/// assert!(a2.to_matrix()[(0, 2)]);
/// assert!(!a2.to_matrix()[(0, 1)]);
/// ```
pub fn multiply<S: Semiring + Sync>(
    clique: &mut Clique,
    s: &S,
    a: &RowMatrix<S::Elem>,
    b: &RowMatrix<S::Elem>,
) -> RowMatrix<S::Elem>
where
    S::Elem: Send + Sync,
{
    let n = clique.n();
    assert_eq!(a.n(), n, "operand A dimension must equal clique size");
    assert_eq!(b.n(), n, "operand B dimension must equal clique size");
    let plan = Plan3d::new(n);
    let p = plan.p();

    clique.phase("mm3d", |clique| {
        // Per-node local steps fan out on the configured executor; the
        // `_par` routing primitives have costs identical to the sequential
        // ones.
        let exec = clique.executor();

        // Step 1: row owners scatter row slices to the active subcube nodes.
        let inbox = clique.phase("mm3d.scatter", |c| {
            c.route_par(|v| scatter_row(&plan, s, a.row(v), b.row(v), v))
        });

        // Step 2: each active node multiplies its blocks locally — the
        // dominant local work, fanned out over the executor.
        let partials: Vec<Matrix<S::Elem>> = exec.map(plan.active(), |u| {
            let (u1, u2, u3) = plan.digits(u);
            let (r1, r2, r3) = (
                plan.block_range(u1),
                plan.block_range(u2),
                plan.block_range(u3),
            );
            let (h1, h2, h3) = (r1.len(), r2.len(), r3.len());
            let mut s_blk = Matrix::filled(h1, h2, s.zero());
            let mut t_blk = Matrix::filled(h2, h3, s.zero());
            for (idx, r) in r1.clone().enumerate() {
                let words = inbox.received(u, r);
                // Senders emit the S slice first, then (if rb(r) = u₂) the T
                // slice; decode in the same order.
                let has_t = plan.block_of_row(r) == u2;
                let expect = h2 + if has_t { h3 } else { 0 };
                let vals = decode_slice(s, words, expect);
                for (j, e) in vals[..h2].iter().enumerate() {
                    s_blk[(idx, j)] = e.clone();
                }
            }
            for (idx, r) in r2.clone().enumerate() {
                let words = inbox.received(u, r);
                let has_s = plan.block_of_row(r) == u1;
                let expect = h3 + if has_s { h2 } else { 0 };
                let vals = decode_slice(s, words, expect);
                let t_part = if has_s { &vals[h2..] } else { &vals[..] };
                for (j, e) in t_part.iter().enumerate() {
                    t_blk[(idx, j)] = e.clone();
                }
            }
            s.mul_dense(&s_blk, &t_blk)
        });

        // Step 3: active nodes return product row slices to the row owners.
        let inbox2 = clique.phase("mm3d.gather", |c| {
            c.route_par(|u| {
                if u >= plan.active() {
                    return Outbox::new();
                }
                let (u1, _, _) = plan.digits(u);
                let (rows, cols) = (partials[u].rows(), partials[u].cols());
                let mut out = Outbox::with_capacity(rows, rows * cols * s.elem_width());
                for (idx, r) in plan.block_range(u1).enumerate() {
                    let w = out.message(r);
                    for e in partials[u].row(idx) {
                        s.write_elem(e, w);
                    }
                }
                out
            })
        });

        // Step 4: row owners sum the p partial products per column block.
        RowMatrix::from_rows(exec.map(n, |r| {
            let rb = plan.block_of_row(r);
            let mut row = vec![s.zero(); n];
            for u2 in 0..p {
                for u3 in 0..p {
                    let u = plan.node_of(rb, u2, u3);
                    let cols = plan.block_range(u3);
                    let vals = decode_slice(s, inbox2.received(r, u), cols.len());
                    for (j, e) in cols.zip(vals) {
                        row[j] = s.add(&row[j], &e);
                    }
                }
            }
            row
        }))
    })
}

/// Computes the distance product `P = S ⋆ T` **with witnesses** using the 3D
/// algorithm over the min-plus semiring (paper §3.3–3.4).
///
/// Returns `(P, Q)` where `Q[u][v] = w` satisfies
/// `P[u][v] = S[u][w] + T[w][v]` whenever `P[u][v]` is finite. Ties break
/// toward the smallest witness index, making the result deterministic.
/// Where `P[u][v]` is infinite, `Q[u][v]` is the index of the first finite
/// entry of row `u` of `S`, or `usize::MAX` if that row has none (the
/// sparse engine returns `usize::MAX` there instead).
///
/// Costs twice the words of [`multiply`] (each entry travels with its
/// witness).
///
/// # Panics
///
/// Panics if the operand dimensions differ from the clique size.
pub fn distance_product_with_witness(
    clique: &mut Clique,
    a: &RowMatrix<Dist>,
    b: &RowMatrix<Dist>,
) -> (RowMatrix<Dist>, RowMatrix<usize>) {
    let n = clique.n();
    assert_eq!(a.n(), n, "operand A dimension must equal clique size");
    assert_eq!(b.n(), n, "operand B dimension must equal clique size");
    let plan = Plan3d::new(n);
    let p = plan.p();
    let s = MinPlus;

    clique.phase("mm3d.witness", |clique| {
        let exec = clique.executor();

        // Step 1 is identical to `multiply` over MinPlus.
        let inbox = clique.phase("mm3d.scatter", |c| {
            c.route_par(|v| scatter_row(&plan, &s, a.row(v), b.row(v), v))
        });

        // Step 2: local min-plus block products tracking the arg-min inner
        // index (a *global* column index, offset by the block start), on
        // raw distance/witness planes decoded straight from the inbox.
        let partials: Vec<(Vec<i64>, Vec<u64>)> = exec.map(plan.active(), |u| {
            let (u1, u2, u3) = plan.digits(u);
            let (r1, r2, r3) = (
                plan.block_range(u1),
                plan.block_range(u2),
                plan.block_range(u3),
            );
            let (h1, h2, h3) = (r1.len(), r2.len(), r3.len());
            let mut s_blk = vec![0; h1 * h2];
            let mut t_blk = vec![0; h2 * h3];
            for (idx, r) in r1.clone().enumerate() {
                let has_t = plan.block_of_row(r) == u2;
                let expect = h2 + if has_t { h3 } else { 0 };
                let dst = &mut s_blk[idx * h2..(idx + 1) * h2];
                decode_dists(dst, inbox.received(u, r), expect, 0);
            }
            for (idx, r) in r2.clone().enumerate() {
                let has_s = plan.block_of_row(r) == u1;
                let skip = if has_s { h2 } else { 0 };
                let dst = &mut t_blk[idx * h3..(idx + 1) * h3];
                decode_dists(dst, inbox.received(u, r), h3 + skip, skip);
            }
            kernel::minplus_witness(&s_blk, &t_blk, (h1, h2, h3), r2.start as u64)
        });

        // Step 3: return (distance, witness) pairs — two words per entry.
        let inbox2 = clique.phase("mm3d.gather", |c| {
            c.route_par(|u| {
                if u >= plan.active() {
                    return Outbox::new();
                }
                let (u1, _, u3) = plan.digits(u);
                let (h1, h3) = (plan.block_range(u1).len(), plan.block_range(u3).len());
                let mut out = Outbox::with_capacity(h1, 2 * h1 * h3);
                let (d, q) = &partials[u];
                for (idx, r) in plan.block_range(u1).enumerate() {
                    let w = out.message(r);
                    let row = idx * h3..(idx + 1) * h3;
                    for (&dist, &wit) in d[row.clone()].iter().zip(&q[row]) {
                        w.push(dist as u64);
                        w.push(wit);
                    }
                }
                out
            })
        });

        // Step 4: min-reduce partials, carrying witnesses.
        let rows: Vec<(Vec<Dist>, Vec<usize>)> = exec.map(n, |r| {
            let rb = plan.block_of_row(r);
            let mut drow = vec![s.zero(); n];
            let mut qrow = vec![usize::MAX; n];
            for u2 in 0..p {
                for u3 in 0..p {
                    let u = plan.node_of(rb, u2, u3);
                    let cols = plan.block_range(u3);
                    let words = inbox2.received(r, u);
                    assert_eq!(words.len(), 2 * cols.len(), "payload length mismatch");
                    for (j, pair) in cols.zip(words.chunks_exact(2)) {
                        let d = Dist::from_raw(pair[0] as i64);
                        let q = pair[1] as usize;
                        if d < drow[j] || (d == drow[j] && q < qrow[j]) {
                            drow[j] = d;
                            qrow[j] = q;
                        }
                    }
                }
            }
            (drow, qrow)
        });
        let (dist_rows, wit_rows) = rows.into_iter().unzip();
        (
            RowMatrix::from_rows(dist_rows),
            RowMatrix::from_rows(wit_rows),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_algebra::{BoolSemiring, IntRing, INFINITY};
    use cc_clique::CliqueConfig;

    fn rand_matrix(n: usize, seed: u64) -> Matrix<i64> {
        let mut st = seed;
        Matrix::from_fn(n, n, |_, _| {
            st = st
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((st >> 33) % 9) as i64 - 4
        })
    }

    #[test]
    fn int_product_matches_local_across_sizes() {
        for n in [2, 5, 8, 12, 27, 30] {
            let a = rand_matrix(n, 1);
            let b = rand_matrix(n, 2);
            let mut clique = Clique::new(n);
            let p = multiply(
                &mut clique,
                &IntRing,
                &RowMatrix::from_matrix(&a),
                &RowMatrix::from_matrix(&b),
            );
            assert_eq!(p.to_matrix(), Matrix::mul(&IntRing, &a, &b), "n={n}");
            assert!(clique.rounds() > 0);
        }
    }

    #[test]
    fn boolean_product_matches_local() {
        let n = 16;
        let a = Matrix::from_fn(n, n, |i, j| (i * 7 + j) % 3 == 0);
        let b = Matrix::from_fn(n, n, |i, j| (i + 5 * j) % 4 == 1);
        let mut clique = Clique::new(n);
        let p = multiply(
            &mut clique,
            &BoolSemiring,
            &RowMatrix::from_matrix(&a),
            &RowMatrix::from_matrix(&b),
        );
        assert_eq!(p.to_matrix(), Matrix::mul(&BoolSemiring, &a, &b));
    }

    #[test]
    fn min_plus_product_matches_local() {
        let n = 27;
        let f = |x: i64| {
            if x % 4 == 0 {
                INFINITY
            } else {
                Dist::finite(x % 17)
            }
        };
        let a = Matrix::from_fn(n, n, |i, j| f((i * 31 + j * 7) as i64));
        let b = Matrix::from_fn(n, n, |i, j| f((i * 13 + j * 3 + 1) as i64));
        let mut clique = Clique::new(n);
        let p = multiply(
            &mut clique,
            &MinPlus,
            &RowMatrix::from_matrix(&a),
            &RowMatrix::from_matrix(&b),
        );
        assert_eq!(p.to_matrix(), Matrix::mul(&MinPlus, &a, &b));
    }

    #[test]
    fn witnesses_certify_the_product() {
        let n = 20;
        let f = |x: i64| {
            if x % 5 == 0 {
                INFINITY
            } else {
                Dist::finite(x % 11)
            }
        };
        let a = Matrix::from_fn(n, n, |i, j| f((i * 3 + j * 17) as i64));
        let b = Matrix::from_fn(n, n, |i, j| f((i * 19 + j * 5 + 2) as i64));
        let mut clique = Clique::new(n);
        let (p, q) = distance_product_with_witness(
            &mut clique,
            &RowMatrix::from_matrix(&a),
            &RowMatrix::from_matrix(&b),
        );
        let expected = Matrix::mul(&MinPlus, &a, &b);
        assert_eq!(p.to_matrix(), expected);
        for u in 0..n {
            for v in 0..n {
                let d = p.row(u)[v];
                if d.is_finite() {
                    let w = q.row(u)[v];
                    assert!(w < n, "witness out of range for finite entry ({u},{v})");
                    assert_eq!(
                        a.row(u)[w] + b.row(w)[v],
                        d,
                        "witness must certify ({u},{v})"
                    );
                }
            }
        }
    }

    #[test]
    fn rounds_scale_like_cube_root() {
        // Rounds at n=216 should be roughly 2x rounds at n=27 (cube root),
        // far below the 8x a linear-round algorithm would show.
        let rounds = |n: usize| {
            let a = rand_matrix(n, 3);
            let b = rand_matrix(n, 4);
            let mut clique = Clique::new(n);
            multiply(
                &mut clique,
                &IntRing,
                &RowMatrix::from_matrix(&a),
                &RowMatrix::from_matrix(&b),
            );
            clique.rounds() as f64
        };
        let (r27, r216) = (rounds(27), rounds(216));
        let ratio = r216 / r27;
        assert!(
            ratio < 4.0,
            "rounds grew {ratio:.2}x from n=27 ({r27}) to n=216 ({r216}); expected ~2x"
        );
    }

    #[test]
    fn communication_pattern_is_oblivious() {
        let fingerprint = |seed: u64| {
            let cfg = CliqueConfig {
                record_patterns: true,
                ..CliqueConfig::default()
            };
            let mut clique = Clique::with_config(27, cfg);
            let a = rand_matrix(27, seed);
            let b = rand_matrix(27, seed + 1);
            multiply(
                &mut clique,
                &IntRing,
                &RowMatrix::from_matrix(&a),
                &RowMatrix::from_matrix(&b),
            );
            clique.stats().pattern_fingerprints().to_vec()
        };
        assert_eq!(
            fingerprint(10),
            fingerprint(77),
            "pattern must not depend on inputs"
        );
    }
}
