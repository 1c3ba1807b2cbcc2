//! Fast bilinear matrix multiplication in the congested clique (paper §2.2).
//!
//! Implements Theorem 1's second part / Lemma 10: given a bilinear algorithm
//! multiplying `d × d` matrices with `m = O(d^σ)` element multiplications,
//! the product of two `n × n` ring matrices is computed in
//! `O(n^{1-2/σ} · width)` rounds. Each node plays up to three roles:
//!
//! 1. **row owner** — holds row `v` of the operands (steps 1, 7);
//! 2. **cell owner** — holds the sub-blocks `S[i x₁ ∗, j x₂ ∗]` of one (or
//!    more) label cells `(x₁, x₂)` and evaluates the linear combinations
//!    `Ŝ⁽ʷ⁾`, `T̂⁽ʷ⁾`, `P[i x₁ ∗, j x₂ ∗]` (steps 2, 6);
//! 3. **term owner** — holds the full `Ŝ⁽ʷ⁾`, `T̂⁽ʷ⁾` for one term `w` and
//!    computes the product `P̂⁽ʷ⁾ = Ŝ⁽ʷ⁾ T̂⁽ʷ⁾` locally (step 4).
//!
//! The communication pattern depends only on `(n, d, m)`, never on matrix
//! contents — the algorithm is oblivious, as claimed in the paper and
//! verified by the pattern-fingerprint tests.

use crate::fast_plan::FastPlan;
use crate::row_matrix::RowMatrix;
use cc_algebra::{BilinearAlgorithm, Matrix, Ring, Semiring};
use cc_clique::{Clique, WordReader, WordWriter};

fn encode_iter<'a, S: Semiring>(s: &S, iter: impl Iterator<Item = &'a S::Elem>) -> Vec<u64>
where
    S::Elem: 'a,
{
    let mut w = WordWriter::new();
    for e in iter {
        s.write_elem(e, &mut w);
    }
    w.into_words()
}

/// Computes `P = S·T` over a ring with the fast bilinear algorithm.
///
/// `alg` is typically a Strassen tensor power sized to the clique
/// ([`FastPlan::best_strassen`]); [`multiply_auto`] does this selection.
/// Inputs and output follow the row-ownership convention.
///
/// # Panics
///
/// Panics if the operand dimensions differ from the clique size.
///
/// # Examples
///
/// ```rust
/// use cc_algebra::{IntRing, Matrix};
/// use cc_clique::Clique;
/// use cc_core::{fast_mm, RowMatrix};
///
/// let n = 10;
/// let a = Matrix::from_fn(n, n, |i, j| (i as i64) - (j as i64));
/// let b = Matrix::from_fn(n, n, |i, j| ((i * j) % 5) as i64);
/// let mut clique = Clique::new(n);
/// let p = fast_mm::multiply_auto(
///     &mut clique,
///     &IntRing,
///     &RowMatrix::from_matrix(&a),
///     &RowMatrix::from_matrix(&b),
/// );
/// assert_eq!(p.to_matrix(), Matrix::mul(&IntRing, &a, &b));
/// ```
pub fn multiply<R: Ring + Sync>(
    clique: &mut Clique,
    ring: &R,
    alg: &BilinearAlgorithm,
    a: &RowMatrix<R::Elem>,
    b: &RowMatrix<R::Elem>,
) -> RowMatrix<R::Elem>
where
    R::Elem: Send + Sync,
{
    let plan = FastPlan::new(clique.n(), alg);
    multiply_with_plan(clique, ring, alg, &plan, a, b)
}

/// [`multiply`] with an explicit [`FastPlan`] (e.g. one built with
/// [`FastPlan::with_q`]), used by tests and the plan ablation experiment.
///
/// # Panics
///
/// Panics if the plan's dimensions do not match the algorithm or clique.
pub fn multiply_with_plan<R: Ring + Sync>(
    clique: &mut Clique,
    ring: &R,
    alg: &BilinearAlgorithm,
    plan: &FastPlan,
    a: &RowMatrix<R::Elem>,
    b: &RowMatrix<R::Elem>,
) -> RowMatrix<R::Elem>
where
    R::Elem: Send + Sync,
{
    let n = clique.n();
    assert_eq!(a.n(), n, "operand A dimension must equal clique size");
    assert_eq!(b.n(), n, "operand B dimension must equal clique size");
    assert_eq!(plan.n(), n, "plan was built for a different clique size");
    assert_eq!(
        plan.d(),
        alg.d(),
        "plan was built for a different algorithm"
    );
    assert_eq!(
        plan.m(),
        alg.m(),
        "plan was built for a different algorithm"
    );
    let (d, m, q, sub) = (plan.d(), plan.m(), plan.q(), plan.sub());
    let side = d * sub; // cell-local matrix side

    clique.phase("fastmm", |clique| {
        // Node-local steps (2, 4, 6, and the row assemblies) are
        // independent per node and fan out on the configured executor; the
        // communication steps use the `_par` primitives, whose costs and
        // delivered inboxes are identical to the sequential ones.
        let exec = clique.executor();

        // ---- Step 1: row owners scatter row slices to cell owners. ----
        let inbox1 = clique.phase("fastmm.scatter", |c| {
            c.route_par(|v| {
                let x1 = plan.label_of(v);
                (0..q)
                    .map(|x2| {
                        let cols = plan.real_indices_with_label(x2);
                        let payload = encode_iter(
                            ring,
                            cols.iter()
                                .map(|&c| &a.row(v)[c])
                                .chain(cols.iter().map(|&c| &b.row(v)[c])),
                        );
                        (plan.cell_owner(x1, x2), payload)
                    })
                    .collect()
            })
        });

        // ---- Step 2: cell owners assemble cells and form Ŝ⁽ʷ⁾, T̂⁽ʷ⁾. ----
        // hats[v] = per owned cell, per term w: (Ŝ⁽ʷ⁾, T̂⁽ʷ⁾) sub-blocks.
        type HatPairs<E> = Vec<Vec<(Matrix<E>, Matrix<E>)>>;
        let hats: Vec<HatPairs<R::Elem>> = exec.map(n, |u| {
            let mut per_cell = Vec::new();
            for &(x1, x2) in plan.cells_of(u) {
                let mut s_cell = Matrix::filled(side, side, ring.zero());
                let mut t_cell = Matrix::filled(side, side, ring.zero());
                let cols = plan.real_indices_with_label(x2);
                for &rho in plan.real_indices_with_label(x1) {
                    // Decode this row's (S, T) slice, skipping slices this
                    // node received for *other* cells from the same sender.
                    let words = inbox1.received(u, rho);
                    let mut rd = WordReader::new(words);
                    for x2p in 0..q {
                        if plan.cell_owner(x1, x2p) != u {
                            continue;
                        }
                        let len = plan.real_indices_with_label(x2p).len();
                        if x2p == x2 {
                            let (i, _, r) = plan.decompose(rho);
                            let local_row = i * sub + r;
                            for &col in cols {
                                let (j, _, cc) = plan.decompose(col);
                                s_cell[(local_row, j * sub + cc)] = ring.read_elem(&mut rd);
                            }
                            for &col in cols {
                                let (j, _, cc) = plan.decompose(col);
                                t_cell[(local_row, j * sub + cc)] = ring.read_elem(&mut rd);
                            }
                            break;
                        }
                        for _ in 0..2 * len {
                            let _ = ring.read_elem(&mut rd);
                        }
                    }
                }
                // Linear combinations per term.
                let mut per_w = Vec::with_capacity(m);
                for w in 0..m {
                    let mut s_hat = Matrix::filled(sub, sub, ring.zero());
                    for &(i, j, coeff) in alg.alpha(w) {
                        for r in 0..sub {
                            for cc in 0..sub {
                                let term = ring.scale(coeff, &s_cell[(i * sub + r, j * sub + cc)]);
                                s_hat[(r, cc)] = ring.add(&s_hat[(r, cc)], &term);
                            }
                        }
                    }
                    let mut t_hat = Matrix::filled(sub, sub, ring.zero());
                    for &(i, j, coeff) in alg.beta(w) {
                        for r in 0..sub {
                            for cc in 0..sub {
                                let term = ring.scale(coeff, &t_cell[(i * sub + r, j * sub + cc)]);
                                t_hat[(r, cc)] = ring.add(&t_hat[(r, cc)], &term);
                            }
                        }
                    }
                    per_w.push((s_hat, t_hat));
                }
                per_cell.push(per_w);
            }
            per_cell
        });

        // ---- Step 3: cells send Ŝ⁽ʷ⁾, T̂⁽ʷ⁾ sub-blocks to term owners. ----
        let inbox3 = clique.phase("fastmm.to_terms", |c| {
            c.route_par(|u| {
                let mut out = Vec::new();
                for per_w in &hats[u] {
                    for (w, (s_hat, t_hat)) in per_w.iter().enumerate() {
                        let payload = encode_iter(
                            ring,
                            (0..sub)
                                .flat_map(|r| s_hat.row(r))
                                .chain((0..sub).flat_map(|r| t_hat.row(r))),
                        );
                        out.push((plan.term_owner(w), payload));
                    }
                }
                out
            })
        });
        drop(hats);

        // ---- Step 4: term owners assemble Ŝ⁽ʷ⁾, T̂⁽ʷ⁾ and multiply. ----
        // The dominant local work of the whole algorithm (one dense product
        // per owned term); work stealing keeps skewed term ownership
        // balanced across workers.
        let full = q * sub;
        let phat: Vec<Vec<Matrix<R::Elem>>> = exec.map(n, |t| {
            let my_terms = plan.terms_of(t);
            if my_terms.is_empty() {
                return Vec::new(); // no owned term: nothing was sent here
            }
            let mut s_full: Vec<Matrix<R::Elem>> = my_terms
                .iter()
                .map(|_| Matrix::filled(full, full, ring.zero()))
                .collect();
            let mut t_full = s_full.clone();
            for src in 0..n {
                let words = inbox3.received(t, src);
                let mut rd = WordReader::new(words);
                for &(x1, x2) in plan.cells_of(src) {
                    // One (Ŝ⁽ʷ⁾, T̂⁽ʷ⁾) sub-block pair per owned term, ascending.
                    for (sf, tf) in s_full.iter_mut().zip(&mut t_full) {
                        for r in 0..sub {
                            for cc in 0..sub {
                                sf[(x1 * sub + r, x2 * sub + cc)] = ring.read_elem(&mut rd);
                            }
                        }
                        for r in 0..sub {
                            for cc in 0..sub {
                                tf[(x1 * sub + r, x2 * sub + cc)] = ring.read_elem(&mut rd);
                            }
                        }
                    }
                }
                assert!(rd.is_exhausted(), "step-4 payload length mismatch");
            }
            s_full
                .iter()
                .zip(&t_full)
                .map(|(sf, tf)| ring.mul_dense(sf, tf))
                .collect()
        });

        // ---- Step 5: term owners return P̂⁽ʷ⁾ sub-blocks to cell owners. ----
        let inbox5 = clique.phase("fastmm.from_terms", |c| {
            c.route_par(|t| {
                let mut out = Vec::new();
                for (slot, &_w) in plan.terms_of(t).iter().enumerate() {
                    for x1 in 0..q {
                        for x2 in 0..q {
                            let payload = encode_iter(
                                ring,
                                (0..sub)
                                    .flat_map(|r| (0..sub).map(move |cc| (r, cc)))
                                    .map(|(r, cc)| &phat[t][slot][(x1 * sub + r, x2 * sub + cc)]),
                            );
                            out.push((plan.cell_owner(x1, x2), payload));
                        }
                    }
                }
                out
            })
        });
        drop(phat);

        // ---- Step 6: cell owners decode P̂⁽ʷ⁾ and evaluate λ. ----
        // p_cell[v] = per owned cell: the (d·sub)² block P[∗x₁∗, ∗x₂∗].
        let p_cells: Vec<Vec<Matrix<R::Elem>>> = exec.map(n, |u| {
            let cells = plan.cells_of(u);
            // Gather P̂⁽ʷ⁾ sub-blocks for every term, per owned cell.
            let mut phat_blocks: Vec<Vec<Matrix<R::Elem>>> =
                vec![Vec::with_capacity(m); cells.len()];
            for w in 0..m {
                let t = plan.term_owner(w);
                let words = inbox5.received(u, t);
                let mut rd = WordReader::new(words);
                // Re-walk the sender's emission order, extracting our cells.
                let mut extracted: Vec<Option<Matrix<R::Elem>>> = vec![None; cells.len()];
                for &wp in plan.terms_of(t) {
                    for x1 in 0..q {
                        for x2 in 0..q {
                            if plan.cell_owner(x1, x2) != u {
                                continue;
                            }
                            let mut blockm = Matrix::filled(sub, sub, ring.zero());
                            for r in 0..sub {
                                for cc in 0..sub {
                                    blockm[(r, cc)] = ring.read_elem(&mut rd);
                                }
                            }
                            if wp == w {
                                let idx = cells
                                    .iter()
                                    .position(|&cl| cl == (x1, x2))
                                    .expect("own cell");
                                extracted[idx] = Some(blockm);
                            }
                        }
                    }
                }
                for (idx, blk) in extracted.into_iter().enumerate() {
                    phat_blocks[idx].push(blk.expect("every owned cell receives every term"));
                }
            }
            let mut per_cell = Vec::with_capacity(cells.len());
            for (idx, _) in cells.iter().enumerate() {
                let mut p_cell = Matrix::filled(side, side, ring.zero());
                for i in 0..d {
                    for j in 0..d {
                        for &(w, coeff) in alg.lambda(i, j) {
                            for r in 0..sub {
                                for cc in 0..sub {
                                    let term = ring.scale(coeff, &phat_blocks[idx][w][(r, cc)]);
                                    let cur = &p_cell[(i * sub + r, j * sub + cc)];
                                    p_cell[(i * sub + r, j * sub + cc)] = ring.add(cur, &term);
                                }
                            }
                        }
                    }
                }
                per_cell.push(p_cell);
            }
            per_cell
        });

        // ---- Step 7: cells return product rows to row owners. ----
        let inbox7 = clique.phase("fastmm.assemble", |c| {
            c.route_par(|u| {
                let mut out = Vec::new();
                for (idx, &(x1, x2)) in plan.cells_of(u).iter().enumerate() {
                    let cols = plan.real_indices_with_label(x2);
                    for &rho in plan.real_indices_with_label(x1) {
                        let (i, _, r) = plan.decompose(rho);
                        let local_row = i * sub + r;
                        let payload = encode_iter(
                            ring,
                            cols.iter().map(|&col| {
                                let (j, _, cc) = plan.decompose(col);
                                &p_cells[u][idx][(local_row, j * sub + cc)]
                            }),
                        );
                        out.push((rho, payload));
                    }
                }
                out
            })
        });

        // Row owners assemble their final rows.
        RowMatrix::from_rows(exec.map(n, |rho| {
            let x1 = plan.label_of(rho);
            let mut row = vec![ring.zero(); n];
            for src in 0..n {
                let words = inbox7.received(rho, src);
                if words.is_empty() {
                    continue;
                }
                let mut rd = WordReader::new(words);
                for &(cx1, cx2) in plan.cells_of(src) {
                    if cx1 != x1 {
                        continue;
                    }
                    for &col in plan.real_indices_with_label(cx2) {
                        row[col] = ring.read_elem(&mut rd);
                    }
                }
                assert!(rd.is_exhausted(), "step-7 payload length mismatch");
            }
            row
        }))
    })
}

/// [`multiply`] with the Strassen tensor power best suited to the clique
/// size (`m = 7^k ≤ n`).
pub fn multiply_auto<R: Ring + Sync>(
    clique: &mut Clique,
    ring: &R,
    a: &RowMatrix<R::Elem>,
    b: &RowMatrix<R::Elem>,
) -> RowMatrix<R::Elem>
where
    R::Elem: Send + Sync,
{
    let alg = FastPlan::best_strassen(clique.n());
    multiply(clique, ring, &alg, a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_algebra::IntRing;
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
    fn matches_local_product_across_sizes() {
        for n in [2, 5, 7, 8, 12, 20, 49, 50] {
            let a = rand_matrix(n, 100 + n as u64);
            let b = rand_matrix(n, 200 + n as u64);
            let mut clique = Clique::new(n);
            let p = multiply_auto(
                &mut clique,
                &IntRing,
                &RowMatrix::from_matrix(&a),
                &RowMatrix::from_matrix(&b),
            );
            assert_eq!(p.to_matrix(), Matrix::mul(&IntRing, &a, &b), "n={n}");
        }
    }

    #[test]
    fn works_with_explicit_schoolbook_tensor() {
        let n = 9;
        let alg = cc_algebra::BilinearAlgorithm::schoolbook(2);
        let a = rand_matrix(n, 1);
        let b = rand_matrix(n, 2);
        let mut clique = Clique::new(n);
        let p = multiply(
            &mut clique,
            &IntRing,
            &alg,
            &RowMatrix::from_matrix(&a),
            &RowMatrix::from_matrix(&b),
        );
        assert_eq!(p.to_matrix(), Matrix::mul(&IntRing, &a, &b));
    }

    #[test]
    fn works_over_a_prime_field() {
        // ℤ/pℤ exposes coefficient-scaling and cancellation bugs that
        // integer inputs cannot (negatives wrap, scalars reduce).
        use cc_algebra::ModRing;
        let f13 = ModRing::new(13);
        for n in [6usize, 10, 15] {
            let a = rand_matrix(n, 31).map(|&x| f13.reduce(x));
            let b = rand_matrix(n, 32).map(|&x| f13.reduce(x));
            let mut clique = Clique::new(n);
            let p = multiply_auto(
                &mut clique,
                &f13,
                &RowMatrix::from_matrix(&a),
                &RowMatrix::from_matrix(&b),
            );
            assert_eq!(p.to_matrix(), Matrix::mul(&f13, &a, &b), "n={n}");
        }
    }

    #[test]
    fn identity_is_preserved() {
        let n = 49;
        let a = rand_matrix(n, 5);
        let id = Matrix::identity(&IntRing, n);
        let mut clique = Clique::new(n);
        let p = multiply_auto(
            &mut clique,
            &IntRing,
            &RowMatrix::from_matrix(&a),
            &RowMatrix::from_matrix(&id),
        );
        assert_eq!(p.to_matrix(), a);
    }

    #[test]
    fn communication_pattern_is_oblivious() {
        let fingerprint = |seed: u64| {
            let cfg = CliqueConfig {
                record_patterns: true,
                ..CliqueConfig::default()
            };
            let mut clique = Clique::with_config(20, cfg);
            let a = rand_matrix(20, seed);
            let b = rand_matrix(20, seed + 1);
            multiply_auto(
                &mut clique,
                &IntRing,
                &RowMatrix::from_matrix(&a),
                &RowMatrix::from_matrix(&b),
            );
            clique.stats().pattern_fingerprints().to_vec()
        };
        assert_eq!(fingerprint(3), fingerprint(999));
    }

    #[test]
    fn communication_volume_beats_semiring_3d_at_scale() {
        // At n = 343 (= 7³) the Strassen-powered path moves fewer words than
        // the 3D semiring algorithm — the communication-volume separation
        // that drives the asymptotic round separation. (Absolute *rounds*
        // cross over at larger n; see EXPERIMENTS.md for the sweep.)
        let n = 343;
        let a = rand_matrix(n, 11);
        let b = rand_matrix(n, 12);
        let mut c1 = Clique::new(n);
        multiply_auto(
            &mut c1,
            &IntRing,
            &RowMatrix::from_matrix(&a),
            &RowMatrix::from_matrix(&b),
        );
        let mut c2 = Clique::new(n);
        crate::semiring_mm::multiply(
            &mut c2,
            &IntRing,
            &RowMatrix::from_matrix(&a),
            &RowMatrix::from_matrix(&b),
        );
        assert!(
            c1.stats().words() < c2.stats().words(),
            "fast path moved {} words, 3D moved {} at n={n}",
            c1.stats().words(),
            c2.stats().words()
        );
    }
}
