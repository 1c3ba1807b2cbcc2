//! Sparse matrix multiplication in the congested clique (Le Gall,
//! PODC 2016, "Further Algebraic Algorithms in the Congested Clique
//! Model").
//!
//! Where the paper's Theorem 1 algorithms move `Θ(n²)`-and-up words no
//! matter what the matrices contain, Le Gall's follow-up shows the model
//! rewards *sparseness*: the product `P = S·T` is the sum of outer products
//! `Σ_k col_k(S) · row_k(T)`, only `W = Σ_k nnz(col_k(S)) · nnz(row_k(T))`
//! elementary products exist, and a clique can spread exactly those over
//! its `n` nodes. This module implements that scheme on the simulator:
//!
//! 1. **Census** — one exchange (a single word per nonzero of `S`) and one
//!    broadcast make the per-index nonzero counts global knowledge; every
//!    node then builds the *same* [`SparsePlan`] (the nnz-aware helper
//!    tiling).
//! 2. **Ship** — each `S` entry travels to the helper row-chunks of its
//!    column, each `T` entry to the helper column-chunks of its row
//!    (balanced routing with honest per-message headers — the pattern is
//!    data-dependent, unlike the oblivious dense algorithms).
//! 3. **Combine** — helpers multiply their tile, pre-aggregate per product
//!    cell, and route the surviving contributions to the row owners, which
//!    fold them with `⊕`.
//!
//! Costs scale with `W/n` instead of `n^{4/3}`-ish: constant rounds for
//! bounded-degree instances, with the dense engines ([`fast_mm`] /
//! [`semiring_mm`]) strictly better once density stops paying. The
//! [`multiply_auto`] / [`multiply_auto_ring`] /
//! [`distance_product_with_witness_auto`] front doors make that call from
//! the census counts, so callers like
//! triangle counting and APSP pick the right engine per instance — and, for
//! APSP, per squaring, as iterated products densify.
//!
//! All node-local work fans out on the clique's configured executor and all
//! communication uses the `_par` primitives, so results, rounds, words, and
//! fingerprints are bit-identical across the Sequential and Parallel backends.

use crate::fast_mm;
use crate::row_matrix::RowMatrix;
use crate::semiring_mm;
use crate::sparse_plan::SparsePlan;
use cc_algebra::{Dist, MinPlus, Ring, Semiring, INFINITY};
use cc_clique::{pack_pair, unpack_pair, Clique, Outbox, WordReader, WordWriter};
use std::collections::BTreeMap;

/// Which multiplication engine a dispatching front door selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MmKind {
    /// The nnz-aware outer-product path of this module.
    Sparse,
    /// A dense Theorem 1 engine ([`fast_mm`] for rings, [`semiring_mm`]
    /// otherwise).
    Dense,
}

/// What a dense 3D run of this size costs in routed words: scatter ships
/// each operand row to `p` destinations per block and the gather returns
/// `n³/p²` partial-row words, each delivered over balanced routing's two
/// hops. (The fast bilinear engine lands in the same ballpark at the sizes
/// this simulator runs, so one dense yardstick serves both front doors.)
#[must_use]
pub fn dense_words_estimate(n: usize, width: usize) -> u128 {
    let p = crate::Plan3d::new(n).p() as u128;
    let n = n as u128;
    2 * width as u128 * (2 * n * n * p + n * n * n / (p * p))
}

/// The density decision: sparse iff the plan's estimated route traffic
/// undercuts the dense engine's ([`dense_words_estimate`]). The inputs
/// are global knowledge after the census, so every node (and every
/// executor backend) makes the same call.
#[must_use]
pub fn choose(plan: &SparsePlan, width: usize) -> MmKind {
    if plan.estimated_words(width) <= dense_words_estimate(plan.n(), width) {
        MmKind::Sparse
    } else {
        MmKind::Dense
    }
}

/// The census: one ping exchange (node `x` sends a word to `k` per nonzero
/// `S[x][k]`; per-link loads are ≤ 1, so this is one round) plus one
/// broadcast of `(nnz(col_k(S)), nnz(row_k(T)))` pairs. Returns the plan
/// every node now agrees on.
fn census<S: Semiring + Sync>(
    clique: &mut Clique,
    s: &S,
    a: &RowMatrix<S::Elem>,
    b: &RowMatrix<S::Elem>,
) -> SparsePlan
where
    S::Elem: Send + Sync,
{
    let n = clique.n();
    let exec = clique.executor();
    let supports: Vec<Vec<usize>> = exec.map(n, |x| {
        a.row(x)
            .iter()
            .enumerate()
            .filter(|(_, e)| !s.is_zero(e))
            .map(|(k, _)| k)
            .collect()
    });
    let b_nnz: Vec<usize> = exec.map(n, |k| b.row(k).iter().filter(|e| !s.is_zero(e)).count());
    let pings = clique.phase("sparsemm.census", |c| {
        c.exchange_par(|x| {
            let mut out = Outbox::with_capacity(supports[x].len(), supports[x].len());
            for &k in &supports[x] {
                out.message(k).push(1);
            }
            out
        })
    });
    let counts = clique.broadcast(|k| pack_pair(pings.total_received(k), b_nnz[k]));
    let (a_col, b_row): (Vec<usize>, Vec<usize>) = counts.into_iter().map(unpack_pair).unzip();
    SparsePlan::new(&a_col, &b_row)
}

/// Ships the nonzeros of `a` to their helper row-chunks and the nonzeros of
/// `b` to their helper column-chunks, then has every helper return its
/// tile's aggregated contributions to the row owners. `combine` folds one
/// tile's worth of `(x, z, S[x][k]·T[k][z])` products into the helper's
/// accumulator; `emit`/`fold` fix the wire format of one accumulated cell.
///
/// Shared by the plain and the witnessed products — the only difference
/// between them is the accumulator type and the per-cell wire format.
#[allow(clippy::too_many_arguments)] // the three callbacks ARE the interface
fn run_helpers<S, Acc, Out, Emit, Fold>(
    clique: &mut Clique,
    s: &S,
    plan: &SparsePlan,
    a: &RowMatrix<S::Elem>,
    b: &RowMatrix<S::Elem>,
    combine: impl Fn(&mut BTreeMap<(usize, usize), Acc>, usize, usize, usize, &S::Elem, &S::Elem) + Sync,
    emit: Emit,
    fold: Fold,
) -> Vec<Vec<Out>>
where
    S: Semiring + Sync,
    S::Elem: Send + Sync,
    Acc: Send + Sync,
    Out: Send,
    Emit: Fn(&Acc, &mut WordWriter) + Sync,
    Fold: Fn(&mut Vec<Out>, usize, &mut WordReader<'_>) + Sync,
{
    let n = clique.n();
    let exec = clique.executor();

    // ---- Ship: S entries to helper row-chunks, T entries to column-chunks.
    // Two hops per entry (Lemma-13 style): the owner sends each entry
    // *once*, to the chunk's anchor slot (`j = 0` for S, `i = 0` for T);
    // anchors then forward along their grid row/column. A dense row would
    // otherwise have to replicate itself `gᵃ`-fold from one node — the
    // forwarding load instead lands on distinct helper nodes and balances.
    // Both sides travel in the *same* routed step (records carry a side
    // tag in the spare top bit of the index word), so the ship costs two
    // round trips total, not four. The patterns depend on the nonzero
    // structure (only the *counts* are global), so both hops pay
    // route_dynamic's per-message header. Records are
    // `[side-tagged pack_pair(inner index, row/col index), element]`,
    // concatenated into **one message per destination**: the balanced
    // router draws relays per word *position within a message*, so many
    // tiny same-destination messages would stack their first words onto
    // one relay link, while a single long message spreads evenly.
    const SIDE_T: u64 = 1 << 63;
    let record = |w: &mut WordWriter, tagged: u64, e: &S::Elem| {
        w.push(tagged);
        s.write_elem(e, w);
    };
    let flush = |msgs: BTreeMap<usize, WordWriter>| -> Vec<(usize, Vec<u64>)> {
        msgs.into_iter().map(|(d, w)| (d, w.into_words())).collect()
    };
    // Decode one ship inbox into per-(inner index) S-side and T-side
    // entry lists.
    let decode = |inbox: &cc_clique::Inboxes, h: usize| {
        let mut sa: BTreeMap<usize, Vec<(usize, S::Elem)>> = BTreeMap::new();
        let mut sb: BTreeMap<usize, Vec<(usize, S::Elem)>> = BTreeMap::new();
        for src in 0..n {
            let mut rd = WordReader::new(inbox.received(h, src));
            while !rd.is_exhausted() {
                let tagged = rd.next();
                let (k, idx) = unpack_pair(tagged & !SIDE_T);
                let e = s.read_elem(&mut rd);
                let side = if tagged & SIDE_T == 0 {
                    &mut sa
                } else {
                    &mut sb
                };
                side.entry(k).or_default().push((idx, e));
            }
        }
        (sa, sb)
    };
    let seeds = clique.phase("sparsemm.ship", |c| {
        c.route_dynamic_par(|v| {
            let mut msgs: BTreeMap<usize, WordWriter> = BTreeMap::new();
            for (k, e) in a.row(v).iter().enumerate() {
                if s.is_zero(e) || plan.grid(k).is_none() {
                    continue;
                }
                let i = plan.row_group(k, v);
                record(
                    msgs.entry(plan.helper(k, i, 0)).or_default(),
                    pack_pair(k, v),
                    e,
                );
            }
            // Node v owns row v of T; its inner index is v itself.
            if plan.grid(v).is_some() {
                for (z, e) in b.row(v).iter().enumerate() {
                    if s.is_zero(e) {
                        continue;
                    }
                    let j = plan.col_group(v, z);
                    record(
                        msgs.entry(plan.helper(v, 0, j)).or_default(),
                        pack_pair(v, z) | SIDE_T,
                        e,
                    );
                }
            }
            flush(msgs).into()
        })
    });
    // Each node parses its seed inbox exactly once (on the executor); the
    // forward and combine phases both read from this.
    let seed_ent = exec.map(n, |h| decode(&seeds, h));
    // Anchors forward their chunk to the rest of the grid row/column.
    let fwds = clique.phase("sparsemm.ship", |c| {
        c.route_dynamic_par(|h| {
            let (sa, sb) = &seed_ent[h];
            let mut msgs: BTreeMap<usize, WordWriter> = BTreeMap::new();
            for &(k, i, j) in plan.slots_of(h) {
                let g = plan.grid(k).expect("slot implies grid");
                if j == 0 {
                    if let Some(av) = sa.get(&k) {
                        for (x, e) in av {
                            if plan.row_group(k, *x) != i {
                                continue;
                            }
                            for jj in 1..g.gb {
                                record(
                                    msgs.entry(plan.helper(k, i, jj)).or_default(),
                                    pack_pair(k, *x),
                                    e,
                                );
                            }
                        }
                    }
                }
                if i == 0 {
                    if let Some(bv) = sb.get(&k) {
                        for (z, e) in bv {
                            if plan.col_group(k, *z) != j {
                                continue;
                            }
                            for ii in 1..g.ga {
                                record(
                                    msgs.entry(plan.helper(k, ii, j)).or_default(),
                                    pack_pair(k, *z) | SIDE_T,
                                    e,
                                );
                            }
                        }
                    }
                }
            }
            flush(msgs).into()
        })
    });
    let fwd_ent = exec.map(n, |h| decode(&fwds, h));
    // Merge each node's anchored seeds with the forwards it received and
    // sort by index, so the accumulation order is a function of the data
    // alone (cheap pointer moves; the parses above were the real work).
    let mut entries = Vec::with_capacity(n);
    for ((mut sa, mut sb), (fa, fb)) in seed_ent.into_iter().zip(fwd_ent) {
        for (k, v) in fa {
            sa.entry(k).or_default().extend(v);
        }
        for (k, v) in fb {
            sb.entry(k).or_default().extend(v);
        }
        for v in sa.values_mut().chain(sb.values_mut()) {
            v.sort_by_key(|e| e.0);
        }
        entries.push((sa, sb));
    }

    // ---- Combine: helpers multiply their tiles, pre-aggregating per
    // product cell, and route the surviving contributions to row owners.
    let contrib = clique.phase("sparsemm.combine", |c| {
        c.route_dynamic_par(|h| {
            let (a_ent, b_ent) = &entries[h];
            // Served slots come in ascending (k, i, j) order, and entries
            // in ascending index order — the accumulation is deterministic
            // regardless of which worker runs it.
            let mut acc: BTreeMap<(usize, usize), Acc> = BTreeMap::new();
            for &(k, i, j) in plan.slots_of(h) {
                let (Some(av), Some(bv)) = (a_ent.get(&k), b_ent.get(&k)) else {
                    continue;
                };
                for (x, ax) in av {
                    if plan.row_group(k, *x) != i {
                        continue;
                    }
                    for (z, bz) in bv {
                        if plan.col_group(k, *z) != j {
                            continue;
                        }
                        combine(&mut acc, k, *x, *z, ax, bz);
                    }
                }
            }
            // One message per destination row owner.
            let mut out: Vec<(usize, Vec<u64>)> = Vec::new();
            let mut cur: Option<(usize, WordWriter)> = None;
            for ((x, z), v) in &acc {
                match &mut cur {
                    Some((cx, w)) if cx == x => {
                        w.push(*z as u64);
                        emit(v, w);
                    }
                    _ => {
                        if let Some((cx, w)) = cur.take() {
                            out.push((cx, w.into_words()));
                        }
                        let mut w = WordWriter::new();
                        w.push(*z as u64);
                        emit(v, &mut w);
                        cur = Some((*x, w));
                    }
                }
            }
            if let Some((cx, w)) = cur.take() {
                out.push((cx, w.into_words()));
            }
            out.into()
        })
    });

    // ---- Fold: row owners merge contributions in (source, record) order.
    exec.map(n, |x| {
        let mut row: Vec<Out> = Vec::new();
        for src in 0..n {
            let mut rd = WordReader::new(contrib.received(x, src));
            while !rd.is_exhausted() {
                let z = rd.next() as usize;
                fold(&mut row, z, &mut rd);
            }
        }
        row
    })
}

/// Computes `P = S·T` over any semiring with the sparse outer-product
/// scheme, in rounds that scale with the inputs' nonzero structure rather
/// than `n`. Inputs and output follow the row-ownership convention.
///
/// Always runs the sparse path; use [`multiply_auto`] /
/// [`multiply_auto_ring`] to fall back to a dense engine when sparsity
/// doesn't pay.
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
/// use cc_core::{sparse_mm, RowMatrix};
///
/// let n = 12;
/// // A sparse band matrix squared.
/// let a = Matrix::from_fn(n, n, |i, j| i64::from(j == (i + 1) % n || j == (i + 5) % n));
/// let mut clique = Clique::new(n);
/// let p = sparse_mm::multiply(
///     &mut clique,
///     &IntRing,
///     &RowMatrix::from_matrix(&a),
///     &RowMatrix::from_matrix(&a),
/// );
/// assert_eq!(p.to_matrix(), Matrix::mul(&IntRing, &a, &a));
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
    clique.phase("sparsemm", |clique| {
        let plan = census(clique, s, a, b);
        multiply_with_plan(clique, s, &plan, a, b)
    })
}

/// [`multiply`] with the census already done — the plan must have been
/// built from exactly these operands' nonzero counts.
fn multiply_with_plan<S: Semiring + Sync>(
    clique: &mut Clique,
    s: &S,
    plan: &SparsePlan,
    a: &RowMatrix<S::Elem>,
    b: &RowMatrix<S::Elem>,
) -> RowMatrix<S::Elem>
where
    S::Elem: Send + Sync,
{
    let n = clique.n();
    let rows = run_helpers(
        clique,
        s,
        plan,
        a,
        b,
        |acc, _k, x, z, ax, bz| {
            let p = s.mul(ax, bz);
            acc.entry((x, z))
                .and_modify(|cur| *cur = s.add(cur, &p))
                .or_insert(p);
        },
        |v, w| s.write_elem(v, w),
        |row: &mut Vec<(usize, S::Elem)>, z, rd| {
            let e = s.read_elem(rd);
            row.push((z, e));
        },
    );
    RowMatrix::from_rows(
        rows.into_iter()
            .map(|contribs| {
                let mut row = vec![s.zero(); n];
                for (z, e) in contribs {
                    row[z] = s.add(&row[z], &e);
                }
                row
            })
            .collect(),
    )
}

/// Density-dispatching product over any semiring: runs the census, then
/// picks the sparse path or the dense 3D [`semiring_mm`] engine per
/// [`choose`] (the census' constant-round cost is the price of deciding).
///
/// # Panics
///
/// Panics if the operand dimensions differ from the clique size.
pub fn multiply_auto<S: Semiring + Sync>(
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
    clique.phase("sparsemm.auto", |clique| {
        let plan = census(clique, s, a, b);
        match choose(&plan, s.elem_width()) {
            MmKind::Sparse => multiply_with_plan(clique, s, &plan, a, b),
            MmKind::Dense => semiring_mm::multiply(clique, s, a, b),
        }
    })
}

/// Density-dispatching product over a ring: like [`multiply_auto`], but the
/// dense fallback is the fast bilinear engine
/// ([`fast_mm::multiply_auto`]) — the repo's dense champion for rings.
///
/// # Panics
///
/// Panics if the operand dimensions differ from the clique size.
pub fn multiply_auto_ring<R: Ring + Sync>(
    clique: &mut Clique,
    ring: &R,
    a: &RowMatrix<R::Elem>,
    b: &RowMatrix<R::Elem>,
) -> RowMatrix<R::Elem>
where
    R::Elem: Send + Sync,
{
    let n = clique.n();
    assert_eq!(a.n(), n, "operand A dimension must equal clique size");
    assert_eq!(b.n(), n, "operand B dimension must equal clique size");
    clique.phase("sparsemm.auto", |clique| {
        let plan = census(clique, ring, a, b);
        match choose(&plan, ring.elem_width()) {
            MmKind::Sparse => multiply_with_plan(clique, ring, &plan, a, b),
            MmKind::Dense => fast_mm::multiply_auto(clique, ring, a, b),
        }
    })
}

/// The sparse min-plus distance product **with witnesses**: like
/// [`semiring_mm::distance_product_with_witness`], returns `(P, Q)` with
/// `P[u][v] = S[u][w] + T[w][v]` for `w = Q[u][v]` whenever finite, ties
/// broken toward the smallest witness index — the same global rule as the
/// dense engine, so the two paths return the same `P` and the same finite
/// entries of `Q`, and APSP can switch between them per squaring. Where
/// `P[u][v]` is `∞`, `Q[u][v]` is `usize::MAX` here (no candidate was
/// ever formed); the dense engine names a finite entry of `S` instead.
///
/// "Nonzero" here means *finite* (`∞` is the semiring zero), so the cost
/// scales with the number of finite entries — for the first squarings of a
/// sparse graph's weight matrix, that is the edge count.
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
    clique.phase("sparsemm.witness", |clique| {
        let plan = census(clique, &MinPlus, a, b);
        witness_with_plan(clique, &plan, a, b)
    })
}

/// [`distance_product_with_witness`] with the census already done.
fn witness_with_plan(
    clique: &mut Clique,
    plan: &SparsePlan,
    a: &RowMatrix<Dist>,
    b: &RowMatrix<Dist>,
) -> (RowMatrix<Dist>, RowMatrix<usize>) {
    let n = clique.n();
    let s = MinPlus;
    let rows = run_helpers(
        clique,
        &s,
        plan,
        a,
        b,
        |acc: &mut BTreeMap<(usize, usize), (Dist, usize)>, k, x, z, ax, bz| {
            let cand = *ax + *bz;
            acc.entry((x, z))
                .and_modify(|cur| {
                    if cand < cur.0 || (cand == cur.0 && k < cur.1) {
                        *cur = (cand, k);
                    }
                })
                .or_insert((cand, k));
        },
        |(d, w), wtr| {
            wtr.push(d.raw() as u64);
            wtr.push(*w as u64);
        },
        |row: &mut Vec<(usize, Dist, usize)>, z, rd| {
            let d = Dist::from_raw(rd.next() as i64);
            let w = rd.next() as usize;
            row.push((z, d, w));
        },
    );
    let (dist_rows, wit_rows) = rows
        .into_iter()
        .map(|contribs| {
            let mut drow = vec![INFINITY; n];
            let mut qrow = vec![usize::MAX; n];
            for (z, d, w) in contribs {
                if d < drow[z] || (d == drow[z] && w < qrow[z]) {
                    drow[z] = d;
                    qrow[z] = w;
                }
            }
            (drow, qrow)
        })
        .unzip();
    (
        RowMatrix::from_rows(dist_rows),
        RowMatrix::from_rows(wit_rows),
    )
}

/// Density-dispatching witnessed distance product: census, then the sparse
/// path or the dense 3D engine per [`choose`]. Both branches return the
/// same `P` and, wherever `P` is finite, the same `Q` (same witness
/// tie-break), so this is a drop-in engine for APSP's iterated squaring —
/// early sparse squarings go through the cheap path, later densified ones
/// through the 3D algorithm. They differ where `P[u][v]` is `∞`: the dense
/// engine returns the index of the first finite entry of row `u` of `S`
/// (`usize::MAX` if there is none), the sparse path always `usize::MAX`.
///
/// # Panics
///
/// Panics if the operand dimensions differ from the clique size.
pub fn distance_product_with_witness_auto(
    clique: &mut Clique,
    a: &RowMatrix<Dist>,
    b: &RowMatrix<Dist>,
) -> (RowMatrix<Dist>, RowMatrix<usize>) {
    let n = clique.n();
    assert_eq!(a.n(), n, "operand A dimension must equal clique size");
    assert_eq!(b.n(), n, "operand B dimension must equal clique size");
    clique.phase("sparsemm.auto", |clique| {
        let plan = census(clique, &MinPlus, a, b);
        // Witness entries travel as (distance, witness) pairs: width 2.
        match choose(&plan, 2) {
            MmKind::Sparse => witness_with_plan(clique, &plan, a, b),
            MmKind::Dense => semiring_mm::distance_product_with_witness(clique, a, b),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_algebra::{BoolSemiring, IntRing, Matrix};

    fn rand_sparse(n: usize, avg_nnz_per_row: usize, seed: u64) -> Matrix<i64> {
        let mut st = seed;
        let mut step = move || {
            st = st
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            st >> 33
        };
        let mut m = Matrix::filled(n, n, 0i64);
        for i in 0..n {
            for _ in 0..avg_nnz_per_row {
                let j = (step() as usize) % n;
                m[(i, j)] = (step() % 9) as i64 - 4;
            }
        }
        m
    }

    fn rand_dense(n: usize, seed: u64) -> Matrix<i64> {
        let mut st = seed;
        Matrix::from_fn(n, n, |_, _| {
            st = st
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((st >> 33) % 9) as i64 - 4
        })
    }

    #[test]
    fn matches_local_product_across_densities() {
        for n in [2, 5, 9, 16, 30] {
            for nnz in [0, 1, 3, n] {
                let a = rand_sparse(n, nnz, 10 + n as u64 + nnz as u64);
                let b = rand_sparse(n, nnz, 99 + n as u64);
                let mut clique = Clique::new(n);
                let p = multiply(
                    &mut clique,
                    &IntRing,
                    &RowMatrix::from_matrix(&a),
                    &RowMatrix::from_matrix(&b),
                );
                assert_eq!(
                    p.to_matrix(),
                    Matrix::mul(&IntRing, &a, &b),
                    "n={n} nnz={nnz}"
                );
            }
        }
    }

    #[test]
    fn matches_local_product_on_fully_dense_matrices() {
        // The sparse path must stay *correct* when nothing is sparse; the
        // dispatcher exists to make it *fast* too.
        for n in [4, 11, 20] {
            let a = rand_dense(n, 7);
            let b = rand_dense(n, 8);
            let mut clique = Clique::new(n);
            let p = multiply(
                &mut clique,
                &IntRing,
                &RowMatrix::from_matrix(&a),
                &RowMatrix::from_matrix(&b),
            );
            assert_eq!(p.to_matrix(), Matrix::mul(&IntRing, &a, &b), "n={n}");
        }
    }

    #[test]
    fn boolean_and_minplus_semirings_work() {
        let n = 14;
        let ab = Matrix::from_fn(n, n, |i, j| (i * 3 + j) % 5 == 0);
        let bb = Matrix::from_fn(n, n, |i, j| (i + 2 * j) % 7 == 1);
        let mut clique = Clique::new(n);
        let p = multiply(
            &mut clique,
            &BoolSemiring,
            &RowMatrix::from_matrix(&ab),
            &RowMatrix::from_matrix(&bb),
        );
        assert_eq!(p.to_matrix(), Matrix::mul(&BoolSemiring, &ab, &bb));

        let f = |x: usize| {
            if x.is_multiple_of(3) {
                INFINITY
            } else {
                Dist::finite((x % 13) as i64)
            }
        };
        let am = Matrix::from_fn(n, n, |i, j| f(i * 7 + j));
        let bm = Matrix::from_fn(n, n, |i, j| f(i + 5 * j + 2));
        let mut clique = Clique::new(n);
        let p = multiply(
            &mut clique,
            &MinPlus,
            &RowMatrix::from_matrix(&am),
            &RowMatrix::from_matrix(&bm),
        );
        assert_eq!(p.to_matrix(), Matrix::mul(&MinPlus, &am, &bm));
    }

    #[test]
    fn witnessed_product_matches_dense_engine_exactly() {
        // Same distances AND, on finite entries, same witnesses: the
        // tie-break rule (smallest witness among minimal candidates) is
        // global, so sparse and dense must agree bit-for-bit there — the
        // property APSP's per-squaring dispatch relies on.
        let n = 18;
        let (blank_row, blank_col) = (4, 7);
        let f = |x: usize| {
            if x.is_multiple_of(4) {
                INFINITY
            } else {
                Dist::finite((x % 11) as i64)
            }
        };
        let a = Matrix::from_fn(n, n, |i, j| {
            if i == blank_row {
                INFINITY
            } else {
                f(i * 3 + j * 17)
            }
        });
        let b = Matrix::from_fn(n, n, |i, j| {
            if j == blank_col {
                INFINITY
            } else {
                f(i * 19 + j * 5 + 2)
            }
        });
        let (ra, rb) = (RowMatrix::from_matrix(&a), RowMatrix::from_matrix(&b));
        let mut c1 = Clique::new(n);
        let (pd, qd) = semiring_mm::distance_product_with_witness(&mut c1, &ra, &rb);
        let mut c2 = Clique::new(n);
        let (ps, qs) = distance_product_with_witness(&mut c2, &ra, &rb);
        assert_eq!(ps.to_matrix(), pd.to_matrix(), "distances");
        let mut infinite = 0;
        for u in 0..n {
            let first_finite = a.row(u).iter().position(Dist::is_finite);
            for v in 0..n {
                if ps.row(u)[v].is_finite() {
                    assert_eq!(qs.row(u)[v], qd.row(u)[v], "witness mismatch at ({u},{v})");
                    continue;
                }
                // The engines differ on ∞ entries, as documented: the dense
                // one names the first finite entry of row u of S, the
                // sparse one has no candidate at all.
                infinite += 1;
                assert_eq!(qs.row(u)[v], usize::MAX, "sparse ∞ witness at ({u},{v})");
                assert_eq!(
                    Some(qd.row(u)[v]).filter(|&w| w != usize::MAX),
                    first_finite,
                    "dense ∞ witness at ({u},{v})"
                );
            }
        }
        assert!(infinite >= 2 * n - 1, "the blank row and column are ∞");
    }

    #[test]
    fn unit_weight_witness_ties_break_like_the_dense_engine() {
        // Unit weights make many candidates tie at every entry; sparse
        // graphs make the census give helpers several inner indices, so
        // ties meet inside one helper's accumulator, where only the
        // smallest-index rule picks the dense engine's witness.
        let graph = |n: usize, percent: u64, seed: u64| {
            let mut st = seed ^ ((n as u64) << 16) ^ (percent << 32);
            let mut w = Matrix::filled(n, n, INFINITY);
            for u in 0..n {
                w[(u, u)] = Dist::finite(0);
                for v in u + 1..n {
                    st = st
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    if (st >> 33) % 100 < percent {
                        w[(u, v)] = Dist::finite(1);
                        w[(v, u)] = Dist::finite(1);
                    }
                }
            }
            w
        };
        for n in [8, 16, 27] {
            for percent in [10, 20, 35, 50, 70] {
                for seed in 0..6 {
                    let w = graph(n, percent, seed);
                    let rw = RowMatrix::from_matrix(&w);
                    let (pd, qd) =
                        semiring_mm::distance_product_with_witness(&mut Clique::new(n), &rw, &rw);
                    let (ps, qs) = distance_product_with_witness(&mut Clique::new(n), &rw, &rw);
                    let at = format!("n={n} p={percent}% seed={seed}");
                    assert_eq!(ps.to_matrix(), pd.to_matrix(), "distances, {at}");
                    for u in 0..n {
                        for v in (0..n).filter(|&v| ps.row(u)[v].is_finite()) {
                            assert_eq!(qs.row(u)[v], qd.row(u)[v], "witness ({u},{v}), {at}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sparse_beats_fast_mm_on_rounds_and_words_for_sparse_inputs() {
        // The acceptance criterion: on a genuinely sparse instance the
        // sparse path must win *both* cost metrics against the dense
        // bilinear engine — asserted, not just benched.
        let n = 64;
        let a = rand_sparse(n, 2, 5);
        let b = rand_sparse(n, 2, 6);
        let (ra, rb) = (RowMatrix::from_matrix(&a), RowMatrix::from_matrix(&b));
        let mut cs = Clique::new(n);
        let ps = multiply(&mut cs, &IntRing, &ra, &rb);
        let mut cd = Clique::new(n);
        let pd = fast_mm::multiply_auto(&mut cd, &IntRing, &ra, &rb);
        assert_eq!(ps.to_matrix(), pd.to_matrix(), "same product");
        assert!(
            cs.rounds() < cd.rounds(),
            "sparse rounds {} must beat dense rounds {}",
            cs.rounds(),
            cd.rounds()
        );
        assert!(
            cs.stats().words() < cd.stats().words(),
            "sparse words {} must beat dense words {}",
            cs.stats().words(),
            cd.stats().words()
        );
    }

    #[test]
    fn rounds_scale_with_density_not_size() {
        // Bounded-degree instances: rounds stay flat as n quadruples.
        let rounds = |n: usize| {
            let a = rand_sparse(n, 2, 3);
            let mut clique = Clique::new(n);
            let _ = multiply(
                &mut clique,
                &IntRing,
                &RowMatrix::from_matrix(&a),
                &RowMatrix::from_matrix(&a),
            );
            clique.rounds()
        };
        let (small, large) = (rounds(32), rounds(128));
        assert!(
            large <= small + 16,
            "density-bound rounds expected: {small} at n=32 vs {large} at n=128"
        );
    }

    #[test]
    fn dispatcher_picks_sparse_for_sparse_and_dense_for_dense() {
        let n = 64;
        let sparse_plan = SparsePlan::new(&vec![2; n], &vec![2; n]);
        assert_eq!(choose(&sparse_plan, 1), MmKind::Sparse);
        let dense_plan = SparsePlan::new(&vec![n; n], &vec![n; n]);
        assert_eq!(choose(&dense_plan, 1), MmKind::Dense);
        // Moderate density is worth the sparse path only while the product
        // volume undercuts the dense engine's traffic: avg 8 nnz/row still
        // pays at n = 64, avg 16 no longer does.
        assert_eq!(
            choose(&SparsePlan::new(&vec![8; n], &vec![8; n]), 1),
            MmKind::Sparse
        );
        assert_eq!(
            choose(&SparsePlan::new(&vec![16; n], &vec![16; n]), 1),
            MmKind::Dense
        );
    }

    #[test]
    fn auto_front_doors_agree_with_reference() {
        for (n, nnz) in [(10, 2), (24, 3), (24, 24)] {
            let a = rand_sparse(n, nnz, 41);
            let b = rand_sparse(n, nnz, 42);
            let (ra, rb) = (RowMatrix::from_matrix(&a), RowMatrix::from_matrix(&b));
            let expected = Matrix::mul(&IntRing, &a, &b);
            let mut c1 = Clique::new(n);
            assert_eq!(
                multiply_auto(&mut c1, &IntRing, &ra, &rb).to_matrix(),
                expected,
                "semiring auto n={n} nnz={nnz}"
            );
            let mut c2 = Clique::new(n);
            assert_eq!(
                multiply_auto_ring(&mut c2, &IntRing, &ra, &rb).to_matrix(),
                expected,
                "ring auto n={n} nnz={nnz}"
            );
        }
    }

    #[test]
    fn witnessed_auto_certifies_its_product() {
        let n = 16;
        let f = |x: usize| {
            if x % 5 < 3 {
                INFINITY
            } else {
                Dist::finite((x % 7) as i64)
            }
        };
        let a = Matrix::from_fn(n, n, |i, j| f(i * 13 + j));
        let b = Matrix::from_fn(n, n, |i, j| f(i + j * 11 + 4));
        let (ra, rb) = (RowMatrix::from_matrix(&a), RowMatrix::from_matrix(&b));
        let mut clique = Clique::new(n);
        let (p, q) = distance_product_with_witness_auto(&mut clique, &ra, &rb);
        assert_eq!(p.to_matrix(), Matrix::mul(&MinPlus, &a, &b));
        for u in 0..n {
            for v in 0..n {
                if p.row(u)[v].is_finite() {
                    let w = q.row(u)[v];
                    assert!(w < n);
                    assert_eq!(a.row(u)[w] + b.row(w)[v], p.row(u)[v]);
                }
            }
        }
    }
}
