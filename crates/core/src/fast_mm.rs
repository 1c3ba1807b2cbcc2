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
//! The communication pattern depends only on `(n, d, m)` and the element
//! width, never on matrix contents — the algorithm is oblivious, as claimed
//! in the paper and verified by the pattern-fingerprint tests. The code
//! leans on that twice. The four routed steps (1, 3, 5, 7) write their
//! elements straight into one flat [`Outbox`] per node and repeat the same
//! message shapes on every call, so [`Clique::route_par`] draws their relay
//! schedules once per process. And the three decoding steps never walk a
//! sender's emission order to find their own data: the [`FastPlan`] fixes
//! where every block sits on every link, so
//!
//! * **step 2** reads row `ρ`'s `(S, T)` slice pair for cell `(x₁, x₂)` at
//!   the offset of the cells this node owns earlier in label row `x₁`,
//!   straight into a *block-major* cell: block `(i, j)` of the `d × d`
//!   grid is `sub²` contiguous elements. Each `Ŝ⁽ʷ⁾`/`T̂⁽ʷ⁾` is then one
//!   [`Ring::axpy_slice`] per `α`/`β` coefficient over a whole block, into
//!   one flat buffer per node laid out `[cell][w][Ŝ, T̂][r][c]` — the order
//!   step 3 transmits it in;
//! * **step 4** decodes each link front to back into `sub`-long row slices
//!   of the full `Ŝ⁽ʷ⁾`, `T̂⁽ʷ⁾`;
//! * **step 6** finds block `idx` of term `w` (slot `w / n` of node
//!   `w mod n`) at element `(slot · cells + idx) · sub²` of that node's
//!   link and evaluates each block of `P` with one [`Ring::axpy_slice`] per
//!   `λ` coefficient, into a block-major cell whose rows' real prefixes
//!   step 7 sends.
//!
//! Before decoding, every step checks **every** incoming link's length
//! against what the plan says it carries, and names the step and both nodes
//! when they disagree.

use crate::fast_plan::FastPlan;
use crate::row_matrix::RowMatrix;
use cc_algebra::{BilinearAlgorithm, Matrix, Ring};
use cc_clique::{Clique, Inboxes, Outbox, WordReader};
use std::ops::Range;

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
    let (q, sub) = (plan.q(), plan.sub());
    let real = |x: usize| plan.real_indices_with_label(x);
    // Every routed generator below knows its message count and length from
    // the plan alone, and reserves its outbox exactly.
    let width = ring.elem_width();
    let real_cols: usize = (0..q).map(|x| real(x).len()).sum();

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
                let mut out = Outbox::with_capacity(q, 2 * real_cols * width);
                for x2 in 0..q {
                    let wr = out.message(plan.cell_owner(x1, x2));
                    for row in [a.row(v), b.row(v)] {
                        for &col in real(x2) {
                            ring.write_elem(&row[col], wr);
                        }
                    }
                }
                out
            })
        });

        // ---- Step 2: cell owners assemble cells and form Ŝ⁽ʷ⁾, T̂⁽ʷ⁾. ----
        let hats: Vec<Vec<R::Elem>> = exec.map(n, |u| form_hats(plan, ring, alg, &inbox1, u));

        // ---- Step 3: cells send Ŝ⁽ʷ⁾, T̂⁽ʷ⁾ sub-blocks to term owners. ----
        let inbox3 = clique.phase("fastmm.to_terms", |c| {
            c.route_par(|u| {
                let pair_len = 2 * sub * sub;
                let mut out =
                    Outbox::with_capacity(hats[u].len() / pair_len, hats[u].len() * width);
                // One (Ŝ⁽ʷ⁾, T̂⁽ʷ⁾) pair per owned cell per term, as laid out.
                for (k, pair) in hats[u].chunks_exact(pair_len).enumerate() {
                    let wr = out.message(plan.term_owner(k % plan.m()));
                    for e in pair {
                        ring.write_elem(e, wr);
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
        let phat: Vec<Vec<Matrix<R::Elem>>> =
            exec.map(n, |t| multiply_terms(plan, ring, &inbox3, t));

        // ---- Step 5: term owners return P̂⁽ʷ⁾ sub-blocks to cell owners. ----
        let inbox5 = clique.phase("fastmm.from_terms", |c| {
            c.route_par(|t| {
                let messages = phat[t].len() * q * q;
                let mut out = Outbox::with_capacity(messages, messages * sub * sub * width);
                for product in &phat[t] {
                    for x1 in 0..q {
                        for x2 in 0..q {
                            let wr = out.message(plan.cell_owner(x1, x2));
                            for r in 0..sub {
                                for e in &product.row(x1 * sub + r)[x2 * sub..][..sub] {
                                    ring.write_elem(e, wr);
                                }
                            }
                        }
                    }
                }
                out
            })
        });
        drop(phat);

        // ---- Step 6: cell owners decode P̂⁽ʷ⁾ and evaluate λ. ----
        // p_cells[u] = per owned cell: the (d·sub)² block P[∗x₁∗, ∗x₂∗],
        // block-major.
        let p_cells: Vec<Vec<Vec<R::Elem>>> =
            exec.map(n, |u| evaluate_lambda(plan, ring, alg, &inbox5, u));

        // ---- Step 7: cells return product rows to row owners. ----
        let inbox7 = clique.phase("fastmm.assemble", |c| {
            c.route_par(|u| {
                let cells = plan
                    .cells_of(u)
                    .iter()
                    .map(|&(x1, x2)| (real(x1).len(), real(x2).len()));
                let messages = cells.clone().map(|(rows, _)| rows).sum();
                let words: usize = cells.map(|(rows, cols)| rows * cols).sum();
                let mut out = Outbox::with_capacity(messages, words * width);
                for (p_cell, &(x1, x2)) in p_cells[u].iter().zip(plan.cells_of(u)) {
                    // Cell row k is the k-th real row with label x₁, and
                    // its real columns are a prefix (see `form_hats`).
                    for (k, &rho) in real(x1).iter().enumerate() {
                        let wr = out.message(rho);
                        for run in row_runs(plan, k, real(x2).len()) {
                            for e in &p_cell[run] {
                                ring.write_elem(e, wr);
                            }
                        }
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
                let blocks = plan.cells_of(src).iter().filter(|cell| cell.0 == x1);
                let expect: usize = blocks.clone().map(|&(_, x2)| real(x2).len()).sum();
                let words = link(&inbox7, 7, src, rho, expect * ring.elem_width());
                let mut rd = WordReader::new(words);
                for &col in blocks.flat_map(|&(_, x2)| real(x2)) {
                    row[col] = ring.read_elem(&mut rd);
                }
            }
            row
        }))
    })
}

/// What `dst` received from `src` in the routed step feeding local step
/// `step`, once its length is known to be what the plan says.
///
/// # Panics
///
/// Panics, naming the step and both nodes, if the link does not carry
/// exactly `expect` words.
fn link(inbox: &Inboxes, step: u8, src: usize, dst: usize, expect: usize) -> &[u64] {
    let words = inbox.received(dst, src);
    assert!(
        words.len() == expect,
        "step-{step} payload from node {src} to node {dst}: {} words, plan expects {expect}",
        words.len()
    );
    words
}

/// Where the first `len` columns of row `k` of a block-major cell sit: a
/// cell is `d × d` blocks of `sub × sub` elements, block `(i, j)` the
/// `sub²` contiguous elements from `(i·d + j)·sub²` on, each row-major. The
/// row crosses blocks `(k / sub, j)` left to right, `sub` elements each but
/// the last, which holds what remains of `len`.
fn row_runs(plan: &FastPlan, k: usize, len: usize) -> impl Iterator<Item = Range<usize>> {
    let (d, sub) = (plan.d(), plan.sub());
    let (i, r) = (k / sub, k % sub);
    (0..len.div_ceil(sub)).map(move |j| {
        let at = ((i * d + j) * sub + r) * sub;
        at..at + sub.min(len - j * sub)
    })
}

/// Step 2 at cell owner `u`: decodes the cells it owns from `inbox1` and
/// returns `Ŝ⁽ʷ⁾`, `T̂⁽ʷ⁾` for every owned cell and every term, flat, in the
/// order step 3 sends them: `[cell][w][Ŝ, T̂][r][c]`.
fn form_hats<R: Ring>(
    plan: &FastPlan,
    ring: &R,
    alg: &BilinearAlgorithm,
    inbox1: &Inboxes,
    u: usize,
) -> Vec<R::Elem> {
    let (d, m, sub, width) = (plan.d(), plan.m(), plan.sub(), ring.elem_width());
    let cells = plan.cells_of(u);
    let real = |x: usize| plan.real_indices_with_label(x);
    // A row owner with label x₁ sends one (S, T) slice pair per cell this
    // node owns in row x₁ of the label grid, in cell order.
    let mut sent = vec![0usize; plan.q()];
    for &(x1, x2) in cells {
        sent[x1] += 2 * real(x2).len();
    }
    for src in 0..plan.n() {
        link(inbox1, 2, src, u, sent[plan.label_of(src)] * width);
    }

    let block = sub * sub;
    let mut hats = vec![ring.zero(); cells.len() * m * 2 * block];
    // Elements of a label-x₁ link that belong to cells already decoded.
    let mut skip = vec![0usize; plan.q()];
    for (&(x1, x2), hats) in cells.iter().zip(hats.chunks_exact_mut(m * 2 * block)) {
        // Real indices with one label are ascending and padding cuts only a
        // suffix, so the k-th of them has cell-local index k: row ρ's
        // slices are a prefix of cell row k, and the rest stays zero.
        let mut s_cell = vec![ring.zero(); d * d * block];
        let mut t_cell = s_cell.clone();
        for (k, &rho) in real(x1).iter().enumerate() {
            let mut rd = WordReader::new(&inbox1.received(u, rho)[skip[x1] * width..]);
            for cell in [&mut s_cell, &mut t_cell] {
                for run in row_runs(plan, k, real(x2).len()) {
                    for e in &mut cell[run] {
                        *e = ring.read_elem(&mut rd);
                    }
                }
            }
        }
        skip[x1] += 2 * real(x2).len();
        // Each hat is one block: a fixed ±-combination of whole cell blocks.
        for (w, pair) in hats.chunks_exact_mut(2 * block).enumerate() {
            let (s_hat, t_hat) = pair.split_at_mut(block);
            for (cell, hat, terms) in [
                (&s_cell, s_hat, alg.alpha(w)),
                (&t_cell, t_hat, alg.beta(w)),
            ] {
                for &(i, j, coeff) in terms {
                    ring.axpy_slice(coeff, &cell[(i * d + j) * block..][..block], hat);
                }
            }
        }
    }
    hats
}

/// Step 4 at term owner `t`: assembles the full `Ŝ⁽ʷ⁾`, `T̂⁽ʷ⁾` of every
/// owned term from `inbox3` and returns the products `P̂⁽ʷ⁾`, in term order.
fn multiply_terms<R: Ring>(
    plan: &FastPlan,
    ring: &R,
    inbox3: &Inboxes,
    t: usize,
) -> Vec<Matrix<R::Elem>> {
    let (sub, full) = (plan.sub(), plan.q() * plan.sub());
    let terms = plan.terms_of(t).len();
    let mut s_full = vec![Matrix::filled(full, full, ring.zero()); terms];
    let mut t_full = s_full.clone();
    for src in 0..plan.n() {
        // One (Ŝ⁽ʷ⁾, T̂⁽ʷ⁾) sub-block pair per cell of `src` per owned term.
        let pairs = plan.cells_of(src).len() * terms;
        let words = link(inbox3, 4, src, t, pairs * 2 * sub * sub * ring.elem_width());
        let mut rd = WordReader::new(words);
        for &(x1, x2) in plan.cells_of(src) {
            for slot in 0..terms {
                for hat in [&mut s_full[slot], &mut t_full[slot]] {
                    for r in 0..sub {
                        for e in &mut hat.row_mut(x1 * sub + r)[x2 * sub..][..sub] {
                            *e = ring.read_elem(&mut rd);
                        }
                    }
                }
            }
        }
    }
    s_full
        .iter()
        .zip(&t_full)
        .map(|(sf, tf)| ring.mul_dense(sf, tf))
        .collect()
}

/// Step 6 at cell owner `u`: decodes `P̂⁽ʷ⁾[x₁∗, x₂∗]` of every term from
/// `inbox5` and returns, per owned cell, the block `P[∗x₁∗, ∗x₂∗]`,
/// block-major (see [`row_runs`]).
fn evaluate_lambda<R: Ring>(
    plan: &FastPlan,
    ring: &R,
    alg: &BilinearAlgorithm,
    inbox5: &Inboxes,
    u: usize,
) -> Vec<Vec<R::Elem>> {
    let (n, d, m, sub, width) = (plan.n(), plan.d(), plan.m(), plan.sub(), ring.elem_width());
    let cells = plan.cells_of(u).len();
    let block = sub * sub;
    for t in 0..n {
        // Per owned term, one sub-block per cell of `u`, in cell order.
        link(
            inbox5,
            6,
            t,
            u,
            plan.terms_of(t).len() * cells * block * width,
        );
    }
    (0..cells)
        .map(|idx| {
            // This cell's sub-block of every term, `[w][r][c]`.
            let mut phat = Vec::with_capacity(m * block);
            for w in 0..m {
                let (t, slot) = (plan.term_owner(w), w / n);
                debug_assert_eq!(plan.terms_of(t)[slot], w);
                let at = (slot * cells + idx) * block * width;
                let mut rd = WordReader::new(&inbox5.received(u, t)[at..]);
                phat.extend((0..block).map(|_| ring.read_elem(&mut rd)));
            }
            // Block (i, j) of P is a fixed combination of whole P̂ blocks.
            let mut p_cell = vec![ring.zero(); d * d * block];
            for (ij, p_block) in p_cell.chunks_exact_mut(block).enumerate() {
                for &(w, coeff) in alg.lambda(ij / d, ij % d) {
                    ring.axpy_slice(coeff, &phat[w * block..][..block], p_block);
                }
            }
            p_cell
        })
        .collect()
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
    use cc_algebra::{IntRing, Semiring};
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
    fn matches_the_schoolbook_at_the_benchmarked_plan() {
        // The triangle and Seidel benchmarks run n = 128, where the plan is
        // Strassen squared on an 8 × 8 label grid with 4 × 4 sub-blocks.
        let n = 128;
        let plan = FastPlan::new(n, &FastPlan::best_strassen(n));
        assert_eq!((plan.d(), plan.q(), plan.sub()), (4, 8, 4));
        let signed = |seed| rand_matrix(n, seed);
        let zero_one = |seed| signed(seed).map(|&x| i64::from(x > 0));
        for (what, a, b) in [
            ("0/1", zero_one(41), zero_one(42)),
            ("[-4, 4]", signed(43), signed(44)),
        ] {
            let mut clique = Clique::new(n);
            let p = multiply_auto(
                &mut clique,
                &IntRing,
                &RowMatrix::from_matrix(&a),
                &RowMatrix::from_matrix(&b),
            );
            assert_eq!(p.to_matrix(), Matrix::mul(&IntRing, &a, &b), "{what}");
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

    /// Every plan shape the offsets must survive, each checked against the
    /// local product over `ring` with elements drawn through `elem`.
    fn check_awkward_plans<R: Ring + Sync>(ring: &R, elem: impl Fn(i64) -> R::Elem)
    where
        R::Elem: Send + Sync,
    {
        let strassen = BilinearAlgorithm::strassen();
        let squared = strassen.power(2);
        let plans = [
            // Several terms per node (m = 7 > n), odd n: padded rows.
            ("m > n", FastPlan::new(5, &strassen), &strassen),
            ("m > n", FastPlan::new(6, &strassen), &strassen),
            // q² = 9 > n = 6: some nodes own two cells.
            ("two cells", FastPlan::with_q(6, &strassen, 3), &strassen),
            // q = 4 > n = 3: cells of one label row share an owner, so a
            // link carries several slice pairs; label 3 has no real index.
            ("shared row", FastPlan::with_q(3, &strassen, 4), &strassen),
            // m = 49 > n = 20: up to three terms per node.
            ("three terms", FastPlan::new(20, &squared), &squared),
            // m = 7 < n = 12 and q² < n: nodes with no term, nodes with no cell.
            ("idle nodes", FastPlan::new(12, &strassen), &strassen),
            // n = 7 is not a multiple of d·q: the last rows are padding.
            ("padding", FastPlan::with_q(7, &strassen, 2), &strassen),
        ];
        for (what, plan, alg) in plans {
            let n = plan.n();
            let a = rand_matrix(n, 7 + n as u64).map(|&x| elem(x));
            let b = rand_matrix(n, 70 + n as u64).map(|&x| elem(x));
            let mut clique = Clique::new(n);
            let p = multiply_with_plan(
                &mut clique,
                ring,
                alg,
                &plan,
                &RowMatrix::from_matrix(&a),
                &RowMatrix::from_matrix(&b),
            );
            assert_eq!(
                p.to_matrix(),
                Matrix::mul(ring, &a, &b),
                "{what}: n={n} q={} m={}",
                plan.q(),
                plan.m()
            );
        }
    }

    #[test]
    fn awkward_plans_over_the_integers() {
        check_awkward_plans(&IntRing, |x| x);
    }

    #[test]
    fn awkward_plans_over_a_prime_field() {
        let f13 = cc_algebra::ModRing::new(13);
        check_awkward_plans(&f13, |x| f13.reduce(x));
    }

    #[test]
    fn awkward_plans_over_wide_elements() {
        // Three words per element: every offset is exercised with a width.
        use cc_algebra::{CappedPoly, PolyRing};
        let ring = PolyRing::new(3);
        assert_eq!(ring.elem_width(), 3);
        check_awkward_plans(&ring, |x| {
            let lead = CappedPoly::monomial(3, x.rem_euclid(3) as usize);
            ring.add(&lead, &ring.scale(x, &CappedPoly::monomial(3, 2)))
        });
    }

    /// Inboxes in which every `src → dst` link carries `len(src, dst)` zero
    /// words.
    fn inboxes_of_lengths(n: usize, len: impl Fn(usize, usize) -> usize) -> Inboxes {
        Clique::new(n).exchange(|src| (0..n).map(|dst| (dst, vec![0; len(src, dst)])).collect())
    }

    /// Words the plan puts on the step-1 link `src → dst`.
    fn step1_words(plan: &FastPlan, src: usize, dst: usize) -> usize {
        plan.cells_of(dst)
            .iter()
            .filter(|cell| cell.0 == plan.label_of(src))
            .map(|cell| 2 * plan.real_indices_with_label(cell.1).len())
            .sum()
    }

    /// Words the plan puts on the step-5 link `src → dst`.
    fn step5_words(plan: &FastPlan, src: usize, dst: usize) -> usize {
        plan.terms_of(src).len() * plan.cells_of(dst).len() * plan.sub() * plan.sub()
    }

    #[test]
    fn decoding_steps_accept_what_the_plan_prescribes() {
        let alg = BilinearAlgorithm::strassen();
        let plan = FastPlan::with_q(6, &alg, 3);
        let inbox1 = inboxes_of_lengths(6, |s, u| step1_words(&plan, s, u));
        let inbox5 = inboxes_of_lengths(6, |t, u| step5_words(&plan, t, u));
        for u in 0..6 {
            assert!(form_hats(&plan, &IntRing, &alg, &inbox1, u)
                .iter()
                .all(|&e| e == 0));
            assert_eq!(
                evaluate_lambda(&plan, &IntRing, &alg, &inbox5, u).len(),
                plan.cells_of(u).len()
            );
        }
    }

    #[test]
    #[should_panic(expected = "step-2 payload from node 5 to node 1: 3 words, plan expects 4")]
    fn step_2_names_a_short_link() {
        let alg = BilinearAlgorithm::strassen();
        let plan = FastPlan::with_q(6, &alg, 3);
        assert_eq!(step1_words(&plan, 5, 1), 4);
        let inbox1 = inboxes_of_lengths(6, |s, u| {
            step1_words(&plan, s, u) - usize::from((s, u) == (5, 1))
        });
        form_hats(&plan, &IntRing, &alg, &inbox1, 1);
    }

    #[test]
    #[should_panic(expected = "step-2 payload from node 4 to node 1: 1 words, plan expects 0")]
    fn step_2_names_a_link_that_should_be_silent() {
        let alg = BilinearAlgorithm::strassen();
        let plan = FastPlan::with_q(6, &alg, 3);
        assert_eq!(step1_words(&plan, 4, 1), 0);
        let inbox1 = inboxes_of_lengths(6, |s, u| {
            step1_words(&plan, s, u) + usize::from((s, u) == (4, 1))
        });
        form_hats(&plan, &IntRing, &alg, &inbox1, 1);
    }

    #[test]
    #[should_panic(expected = "step-6 payload from node 0 to node 2: 5 words, plan expects 4")]
    fn step_6_names_a_long_link() {
        let alg = BilinearAlgorithm::strassen();
        let plan = FastPlan::with_q(6, &alg, 3);
        assert_eq!(step5_words(&plan, 0, 2), 4);
        let inbox5 = inboxes_of_lengths(6, |t, u| {
            step5_words(&plan, t, u) + usize::from((t, u) == (0, 2))
        });
        evaluate_lambda(&plan, &IntRing, &alg, &inbox5, 2);
    }

    #[test]
    #[should_panic(expected = "step-6 payload from node 3 to node 2: 1 words, plan expects 2")]
    fn step_6_names_a_short_link() {
        let alg = BilinearAlgorithm::strassen();
        let plan = FastPlan::with_q(6, &alg, 3);
        assert_eq!(step5_words(&plan, 3, 2), 2);
        let inbox5 = inboxes_of_lengths(6, |t, u| {
            step5_words(&plan, t, u) - usize::from((t, u) == (3, 2))
        });
        evaluate_lambda(&plan, &IntRing, &alg, &inbox5, 2);
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
        // do not cross over at any n this repo reaches: at n = 2401 the
        // fast product takes 158 rounds against the 3D algorithm's 104.)
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
