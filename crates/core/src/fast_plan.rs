//! Partitioning plan for the fast bilinear algorithm (paper §2.2, Figure 2).

/// The two-level index partitioning of the fast distributed matrix
/// multiplication.
///
/// For a bilinear algorithm on `d × d` blocks with `m` multiplication
/// terms, the (padded) matrix dimension `np = d·q·sub` decomposes a
/// row index `ρ` into digits `(i, x₁, r)`:
///
/// * `i ∈ [d]` — the coarse block (the bilinear algorithm's block index);
/// * `x₁ ∈ [q]` — the label digit (`q ≈ √n` in the paper; chosen here by a
///   per-node-load search, see [`FastPlan::new`]);
/// * `r ∈ [sub]` — the position inside the `sub × sub` sub-block.
///
/// Every *label cell* `(x₁, x₂) ∈ [q]²` is owned by node `(x₁·q + x₂) mod n`
/// and is responsible for the sub-blocks `S[i x₁ ∗, j x₂ ∗]`; every
/// multiplication term `w ∈ [m]` is owned by node `w mod n`. The paper
/// assumes `n = m` and integer `√n`; this plan generalises to every `n ≥ 2`
/// by cell/term wrapping and zero padding (padded rows and columns are never
/// transmitted).
///
/// # Examples
///
/// ```rust
/// use cc_algebra::BilinearAlgorithm;
/// use cc_core::FastPlan;
///
/// let plan = FastPlan::new(49, &BilinearAlgorithm::strassen().power(2));
/// assert_eq!((plan.d(), plan.m()), (4, 49));
/// assert!(plan.np() >= 49 && plan.np() % (plan.d() * plan.q()) == 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FastPlan {
    n: usize,
    d: usize,
    m: usize,
    q: usize,
    sub: usize,
    /// `cells[v]` — the label cells node `v` owns ([`FastPlan::cells_of`]).
    cells: Vec<Vec<(usize, usize)>>,
    /// `terms[v]` — the terms node `v` owns ([`FastPlan::terms_of`]).
    terms: Vec<Vec<usize>>,
    /// `label_indices[x]` — the real indices with label digit `x`
    /// ([`FastPlan::real_indices_with_label`]).
    label_indices: Vec<Vec<usize>>,
}

impl FastPlan {
    /// Builds the plan for an `n`-node clique and a bilinear algorithm.
    ///
    /// The paper fixes `q = √n`; this constructor instead searches the label
    /// grid dimension `q` that minimises the estimated per-node load (the
    /// maximum of the cell-owner and term-owner traffic), which avoids the
    /// padding waste of forcing `q² ≈ n` when `n` is not a perfect square.
    /// The asymptotics are unchanged; the constants improve noticeably.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn new(n: usize, alg: &cc_algebra::BilinearAlgorithm) -> Self {
        assert!(n >= 2, "a congested clique needs at least 2 nodes");
        let d = alg.d();
        let m = alg.m();
        let q_max = 2 * n.div_ceil(d) + 1;
        let mut best: Option<(u64, usize)> = None;
        for q in 1..=q_max {
            let sub = n.div_ceil(d * q);
            let cells_per_node = (q * q).div_ceil(n) as u64;
            let terms_per_node = m.div_ceil(n) as u64;
            let sub2 = (sub * sub) as u64;
            let full2 = ((q * sub) * (q * sub)) as u64;
            // Dominant per-node loads: cells send/receive m·sub² values for
            // S and T (steps 3, 5); term owners hold the full Ŝ⁽ʷ⁾, T̂⁽ʷ⁾.
            let cell_load = cells_per_node * 2 * m as u64 * sub2;
            let term_load = terms_per_node * 2 * full2;
            let cost = cell_load.max(term_load);
            if best.is_none_or(|(c, _)| cost < c) {
                best = Some((cost, q));
            }
        }
        let q = best.expect("q search is non-empty").1;
        Self::with_dims(n, d, m, q)
    }

    /// Builds a plan with an explicit label-grid dimension `q` (the paper's
    /// parameterisation uses `q = ⌈√n⌉`). Exposed for the ablation
    /// experiment comparing the fixed-q plan against the searched one.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `q == 0`.
    #[must_use]
    pub fn with_q(n: usize, alg: &cc_algebra::BilinearAlgorithm, q: usize) -> Self {
        assert!(n >= 2, "a congested clique needs at least 2 nodes");
        assert!(q >= 1, "q must be positive");
        Self::with_dims(n, alg.d(), alg.m(), q)
    }

    /// Fixes the digit sizes and precomputes the ownership tables the
    /// algorithm's n²-sized loops look up (once per plan, not once per
    /// call).
    fn with_dims(n: usize, d: usize, m: usize, q: usize) -> Self {
        let sub = n.div_ceil(d * q);
        let mut cells = vec![Vec::new(); n];
        for c in 0..q * q {
            cells[c % n].push((c / q, c % q));
        }
        let terms = (0..n).map(|v| (v..m).step_by(n).collect()).collect();
        // `(i, r)`-major, i.e. ascending: compose(i, x, r) grows with both.
        let label_indices = (0..q)
            .map(|x| {
                (0..d)
                    .flat_map(|i| (0..sub).map(move |r| i * q * sub + x * sub + r))
                    .filter(|&rho| rho < n)
                    .collect()
            })
            .collect();
        Self {
            n,
            d,
            m,
            q,
            sub,
            cells,
            terms,
            label_indices,
        }
    }

    /// Chooses the largest Strassen tensor power with `m = 7^k ≤ n` (falling
    /// back to plain Strassen for tiny cliques), which is the efficient
    /// parameterisation of Theorem 1's second part.
    #[must_use]
    pub fn best_strassen(n: usize) -> cc_algebra::BilinearAlgorithm {
        let base = cc_algebra::BilinearAlgorithm::strassen();
        let mut k = 1u32;
        while 7u64.pow(k + 1) <= n as u64 {
            k += 1;
        }
        base.power(k)
    }

    /// Clique size `n`.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Coarse block grid dimension `d`.
    #[must_use]
    pub fn d(&self) -> usize {
        self.d
    }

    /// Number of bilinear multiplication terms `m`.
    #[must_use]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Label grid dimension `q`.
    #[must_use]
    pub fn q(&self) -> usize {
        self.q
    }

    /// Sub-block side length.
    #[must_use]
    pub fn sub(&self) -> usize {
        self.sub
    }

    /// Padded matrix dimension `np = d·q·sub ≥ n`.
    #[must_use]
    pub fn np(&self) -> usize {
        self.d * self.q * self.sub
    }

    /// Digit decomposition `(i, x₁, r)` of a padded row/column index.
    ///
    /// # Panics
    ///
    /// Panics if `rho ≥ np`.
    #[must_use]
    pub fn decompose(&self, rho: usize) -> (usize, usize, usize) {
        assert!(
            rho < self.np(),
            "index {rho} out of padded range {}",
            self.np()
        );
        let per_block = self.q * self.sub;
        (
            rho / per_block,
            (rho % per_block) / self.sub,
            rho % self.sub,
        )
    }

    /// Inverse of [`FastPlan::decompose`].
    #[must_use]
    pub fn compose(&self, i: usize, x: usize, r: usize) -> usize {
        debug_assert!(i < self.d && x < self.q && r < self.sub);
        i * self.q * self.sub + x * self.sub + r
    }

    /// The label digit `x₁` of a row index.
    #[must_use]
    pub fn label_of(&self, rho: usize) -> usize {
        self.decompose(rho).1
    }

    /// Node owning label cell `(x₁, x₂)`.
    ///
    /// # Panics
    ///
    /// Panics if a label digit is out of range.
    #[must_use]
    pub fn cell_owner(&self, x1: usize, x2: usize) -> usize {
        assert!(x1 < self.q && x2 < self.q, "label digit out of range");
        (x1 * self.q + x2) % self.n
    }

    /// The label cells owned by node `v`, as `(x₁, x₂)` pairs.
    #[must_use]
    pub fn cells_of(&self, v: usize) -> &[(usize, usize)] {
        &self.cells[v]
    }

    /// Node owning multiplication term `w`.
    ///
    /// # Panics
    ///
    /// Panics if `w ≥ m`.
    #[must_use]
    pub fn term_owner(&self, w: usize) -> usize {
        assert!(w < self.m, "term {w} out of range");
        w % self.n
    }

    /// The multiplication terms owned by node `v`.
    #[must_use]
    pub fn terms_of(&self, v: usize) -> &[usize] {
        &self.terms[v]
    }

    /// The *real* (unpadded) row/column indices with label digit `x`, in
    /// `(i, r)`-major order — the transmission order of all scatter steps.
    /// The order is ascending, so padding removes a suffix of it: the `k`-th
    /// real index has cell-local index `i·sub + r = k`.
    #[must_use]
    pub fn real_indices_with_label(&self, x: usize) -> &[usize] {
        &self.label_indices[x]
    }

    /// ASCII rendering of the Figure 2 partitioning: the coarse `d × d` grid
    /// and the refinement of one block into `q × q` sub-blocks.
    #[must_use]
    pub fn render_figure(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "fast plan: n = {}, d = {}, m = {}, q = {}, sub = {}, padded dim = {} (Figure 2)\n",
            self.n,
            self.d,
            self.m,
            self.q,
            self.sub,
            self.np()
        ));
        out.push_str(&format!(
            "coarse grid (d × d = {0} × {0} blocks S[i∗∗, j∗∗]):\n",
            self.d
        ));
        for _ in 0..self.d {
            for _ in 0..self.d {
                out.push_str("[··]");
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "each block refines into q × q = {0} × {0} sub-blocks S[ix∗, jy∗] of side {1}; \
             cell (x₁,x₂) of the label grid is owned by node (x₁·q + x₂) mod n\n",
            self.q, self.sub
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_algebra::BilinearAlgorithm;

    #[test]
    fn plan_invariants_for_49_nodes() {
        let plan = FastPlan::new(49, &BilinearAlgorithm::strassen().power(2));
        assert!(plan.np() >= 49, "padded dimension covers the matrix");
        assert_eq!(plan.np(), plan.d() * plan.q() * plan.sub());
        for x1 in 0..plan.q() {
            for x2 in 0..plan.q() {
                let owner = plan.cell_owner(x1, x2);
                assert!(plan.cells_of(owner).contains(&(x1, x2)));
            }
        }
        // Cell ownership is near-balanced: max differs from min by ≤ 1.
        let counts: Vec<usize> = (0..49).map(|v| plan.cells_of(v).len()).collect();
        let (mn, mx) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(mx - mn <= 1, "cells per node {mn}..{mx}");
    }

    #[test]
    fn decompose_compose_roundtrip() {
        let plan = FastPlan::new(20, &BilinearAlgorithm::strassen());
        for rho in 0..plan.np() {
            let (i, x, r) = plan.decompose(rho);
            assert_eq!(plan.compose(i, x, r), rho);
        }
    }

    #[test]
    fn real_indices_cover_exactly_once() {
        let plan = FastPlan::new(30, &BilinearAlgorithm::strassen());
        let mut all: Vec<usize> = (0..plan.q())
            .flat_map(|x| plan.real_indices_with_label(x).iter().copied())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..30).collect::<Vec<_>>());
    }

    #[test]
    fn the_kth_real_index_of_a_label_has_cell_local_index_k() {
        // `fast_mm` decodes row slices as prefixes of cell rows on the
        // strength of this: padding cuts only a suffix of a label's indices.
        let alg = BilinearAlgorithm::strassen();
        for plan in [
            FastPlan::new(30, &alg),
            FastPlan::with_q(7, &alg, 2),
            FastPlan::with_q(3, &alg, 4),
            FastPlan::new(50, &alg.power(2)),
        ] {
            for x in 0..plan.q() {
                for (k, &rho) in plan.real_indices_with_label(x).iter().enumerate() {
                    let (i, label, r) = plan.decompose(rho);
                    assert_eq!((label, i * plan.sub() + r), (x, k), "{plan:?}");
                }
            }
        }
    }

    #[test]
    fn best_strassen_grows_with_n() {
        assert_eq!(FastPlan::best_strassen(8).m(), 7);
        assert_eq!(FastPlan::best_strassen(48).m(), 7);
        assert_eq!(FastPlan::best_strassen(49).m(), 49);
        assert_eq!(FastPlan::best_strassen(342).m(), 49);
        assert_eq!(FastPlan::best_strassen(343).m(), 343);
    }

    #[test]
    fn terms_wrap_when_m_exceeds_n() {
        let plan = FastPlan::new(5, &BilinearAlgorithm::strassen());
        assert_eq!(plan.terms_of(0), &[0, 5]);
        assert_eq!(plan.terms_of(2), &[2]);
        let total: usize = (0..5).map(|v| plan.terms_of(v).len()).sum();
        assert_eq!(total, 7);
    }

    #[test]
    fn figure_mentions_parameters() {
        let plan = FastPlan::new(49, &BilinearAlgorithm::strassen().power(2));
        let fig = plan.render_figure();
        assert!(fig.contains("d = 4"));
        assert!(fig.contains("q = 7"));
    }
}
