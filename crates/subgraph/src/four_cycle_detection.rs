//! Constant-round 4-cycle detection (Theorem 4, Lemmas 12–13).
//!
//! The paper's only purely combinatorial contribution: detect a 4-cycle in
//! `O(1)` rounds without matrix multiplication.
//!
//! 1. **Degree phase.** Everyone broadcasts its degree. Node `x` computes
//!    `|P(x,∗,∗)| = Σ_{y ∈ N(x)} deg(y)`, the number of 2-walks starting at
//!    `x`. If this reaches `2n−1`, pigeonhole forces two distinct 2-walks to
//!    a common endpoint `z ≠ x`, i.e. a 4-cycle — stop.
//! 2. **Tile phase (Lemma 12).** Otherwise `Σ_y deg(y)² < 2n²`, so disjoint
//!    tiles `A(y) × B(y)` with `|A(y)| = |B(y)| ≥ deg(y)/8` fit in a
//!    `k × k` square (`k` = largest power of two ≤ n), allocated by a buddy
//!    (quadtree) scheme all nodes compute identically from the broadcast
//!    degrees.
//! 3. **Distribution phase (Lemma 13).** `y` splits `N(y)` into pieces
//!    `N_A(y,a)` of size ≤ 8, ships them along the tile rows and columns,
//!    and the column nodes `b` reassemble the 2-walk sets `W(b)` — a
//!    partition of all 2-walks with `|W(b)| = O(n)`.
//! 4. **Gather phase.** Each walk `(x, y, z)` is routed to `x` (per-node
//!    loads are `O(n)`, so this is `O(1)` rounds); `x` reports a 4-cycle
//!    iff two walks share an endpoint `z ≠ x`.

use cc_clique::{pack_pair, unpack_pair, Clique, Outbox};
use cc_graph::Graph;
use std::collections::BTreeMap;

/// One tile `A(y) × B(y)` of the Lemma 12 allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tile {
    /// First row (node id) of `A(y)`.
    pub row0: usize,
    /// First column (node id) of `B(y)`.
    pub col0: usize,
    /// Side length `f(y)` (a power of two).
    pub size: usize,
}

/// The deterministic tile allocation of Lemma 12: disjoint squares
/// `A(y) × B(y) ⊆ [k] × [k]` with side `f(y) = max(1, 2^⌊log₂(deg(y)/4)⌋)`
/// for every node of positive degree.
///
/// All nodes compute the same plan from the broadcast degree sequence.
#[derive(Debug, Clone)]
pub struct TilePlan {
    k: usize,
    tiles: Vec<Option<Tile>>,
}

impl TilePlan {
    /// Allocates tiles for the given degree sequence.
    ///
    /// # Panics
    ///
    /// Panics if the tiles cannot fit, i.e. `Σ f(y)² > k²`. The caller must
    /// guarantee `Σ deg(y)² < 2n²` and `n ≥ 8` (the phase-1 test of the
    /// detection algorithm establishes exactly this).
    #[must_use]
    pub fn allocate(degrees: &[usize]) -> Self {
        let n = degrees.len();
        let k = usize::BITS - n.leading_zeros() - 1;
        let k = 1usize << k; // largest power of two ≤ n
        let f = |deg: usize| -> usize {
            if deg == 0 {
                0
            } else if deg < 8 {
                1
            } else {
                let t = deg / 4;
                1 << (usize::BITS - t.leading_zeros() - 1)
            }
        };
        let mut order: Vec<(usize, usize)> = degrees
            .iter()
            .enumerate()
            .map(|(y, &d)| (y, f(d)))
            .filter(|&(_, s)| s > 0)
            .collect();
        // Largest tiles first; ties by node id for determinism.
        order.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

        // Buddy allocator over the k × k square.
        let mut free: BTreeMap<usize, Vec<(usize, usize)>> = BTreeMap::new();
        free.insert(k, vec![(0, 0)]);
        let mut tiles = vec![None; n];
        for (y, size) in order {
            // Find the smallest free block that fits.
            let found = free
                .range(size..)
                .find(|(_, blocks)| !blocks.is_empty())
                .map(|(&s, _)| s);
            let mut s = found.unwrap_or_else(|| {
                panic!("tile allocation overflow (Lemma 12 precondition violated)")
            });
            let (mut r, mut c) = free
                .get_mut(&s)
                .expect("found size")
                .pop()
                .expect("non-empty");
            // Split down to the requested size, quadrant by quadrant.
            while s > size {
                s /= 2;
                let e = free.entry(s).or_default();
                e.push((r + s, c + s));
                e.push((r + s, c));
                e.push((r, c + s));
                // Keep the top-left quadrant; keep free lists deterministic.
            }
            let _ = (&mut r, &mut c);
            tiles[y] = Some(Tile {
                row0: r,
                col0: c,
                size,
            });
        }
        Self { k, tiles }
    }

    /// Side of the allocation square (largest power of two ≤ n).
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The tile of node `y`, if `deg(y) > 0`.
    #[must_use]
    pub fn tile(&self, y: usize) -> Option<Tile> {
        self.tiles[y]
    }

    /// Nodes whose tile's row range `A(y)` contains node `a`.
    #[must_use]
    pub fn tiles_with_row(&self, a: usize) -> Vec<usize> {
        self.tiles
            .iter()
            .enumerate()
            .filter_map(|(y, t)| {
                t.filter(|t| (t.row0..t.row0 + t.size).contains(&a))
                    .map(|_| y)
            })
            .collect()
    }

    /// Nodes whose tile's column range `B(y)` contains node `b`.
    #[must_use]
    pub fn tiles_with_col(&self, b: usize) -> Vec<usize> {
        self.tiles
            .iter()
            .enumerate()
            .filter_map(|(y, t)| {
                t.filter(|t| (t.col0..t.col0 + t.size).contains(&b))
                    .map(|_| y)
            })
            .collect()
    }

    /// ASCII rendering of the allocation (Figure 3): the `k × k` square with
    /// each tile drawn as a letter block (scaled down for large `k`).
    #[must_use]
    pub fn render_figure(&self) -> String {
        let scale = (self.k / 32).max(1);
        let side = self.k / scale;
        let mut grid = vec![vec!['·'; side]; side];
        for (y, t) in self.tiles.iter().enumerate() {
            if let Some(t) = t {
                let ch = char::from(b'A' + (y % 26) as u8);
                #[allow(clippy::needless_range_loop)] // r, c are geometry coordinates
                for r in (t.row0 / scale)..((t.row0 + t.size).div_ceil(scale)).min(side) {
                    for c in (t.col0 / scale)..((t.col0 + t.size).div_ceil(scale)).min(side) {
                        grid[r][c] = ch;
                    }
                }
            }
        }
        let mut out = format!(
            "tile allocation over the {0}×{0} square (Figure 3), 1 char = {1}×{1} cells:\n",
            self.k, scale
        );
        for row in grid {
            out.push_str(&row.into_iter().collect::<String>());
            out.push('\n');
        }
        out
    }

    fn check_disjoint(&self) -> bool {
        let mut seen = vec![false; self.k * self.k];
        for t in self.tiles.iter().flatten() {
            for r in t.row0..t.row0 + t.size {
                for c in t.col0..t.col0 + t.size {
                    if seen[r * self.k + c] {
                        return false;
                    }
                    seen[r * self.k + c] = true;
                }
            }
        }
        true
    }
}

/// Splits a sorted neighbour list into `parts` pieces of size ≤ 8 by
/// round-robin; piece `j` is `N_A(y, row0+j)` / `N_B(y, col0+j)`.
fn piece(neighbors: &[usize], parts: usize, j: usize) -> impl Iterator<Item = usize> + '_ {
    neighbors.iter().copied().skip(j).step_by(parts)
}

/// Detects whether the graph contains a 4-cycle, in `O(1)` rounds
/// (Theorem 4).
///
/// For `n < 8` the tile square cannot be guaranteed to fit and the
/// algorithm falls back to gathering the (constant-size) graph.
///
/// # Panics
///
/// Panics if `clique.n() != g.n()` or the graph is directed.
///
/// # Examples
///
/// ```rust
/// use cc_clique::Clique;
/// use cc_graph::generators;
/// use cc_subgraph::detect_4cycle;
///
/// let g = generators::grid(3, 3); // grids are full of 4-cycles
/// let mut clique = Clique::new(9);
/// assert!(detect_4cycle(&mut clique, &g));
///
/// let t = generators::petersen(); // girth 5: no 4-cycle
/// let mut clique = Clique::new(10);
/// assert!(!detect_4cycle(&mut clique, &t));
/// ```
pub fn detect_4cycle(clique: &mut Clique, g: &Graph) -> bool {
    let n = clique.n();
    assert_eq!(g.n(), n, "graph and clique sizes must match");
    assert!(!g.is_directed(), "Theorem 4 applies to undirected graphs");

    clique.phase("detect_c4", |clique| {
        // Per-node work (piece generation, walk reassembly, the final
        // endpoint scan) runs on the configured executor via the `_par`
        // primitives; costs and results are identical to the sequential
        // path.
        let exec = clique.executor();
        if n < 8 {
            let words = clique.gossip_par(|v| {
                g.neighbors(v)
                    .filter(|&u| u > v)
                    .map(|u| pack_pair(v, u))
                    .collect()
            });
            let mut local = Graph::undirected(n);
            for w in words {
                let (u, v) = unpack_pair(w);
                local.add_edge(u, v);
            }
            return cc_graph::oracle::has_k_cycle(&local, 4);
        }

        // Phase 1: broadcast degrees; pigeonhole test.
        let degrees: Vec<usize> = clique
            .broadcast(|v| g.degree(v) as u64)
            .into_iter()
            .map(|w| w as usize)
            .collect();
        let two_walks: Vec<usize> =
            exec.map(n, |x| g.neighbors(x).map(|y| degrees[y]).sum::<usize>());
        if clique.or_all(|x| two_walks[x] >= 2 * n - 1) {
            return true;
        }

        // Phase 2: Lemma 12 tile plan (identical local computation).
        let plan = TilePlan::allocate(&degrees);
        debug_assert!(plan.check_disjoint(), "Lemma 12: tiles must be disjoint");

        let sorted_neighbors: Vec<Vec<usize>> = exec.map(n, |y| g.neighbors(y).collect());

        // Step 1: y sends N_A(y, a) to each a ∈ A(y); ≤ 8 words per link.
        let inbox_a = clique.exchange_par(|y| {
            let Some(t) = plan.tile(y) else {
                return Outbox::new();
            };
            let mut out = Outbox::with_capacity(t.size, sorted_neighbors[y].len());
            for j in 0..t.size {
                let wr = out.message(t.row0 + j);
                for x in piece(&sorted_neighbors[y], t.size, j) {
                    wr.push(x as u64);
                }
            }
            out
        });

        // Step 2: a forwards N_A(y, a) to each b ∈ B(y); the tiles are
        // disjoint, so each (a, b) link carries at most one piece (≤ 8 words).
        let inbox_b = clique.exchange_par(|a| {
            let mut out = Outbox::new();
            for y in plan.tiles_with_row(a) {
                let t = plan.tile(y).expect("tile exists");
                let payload = inbox_a.received(a, y);
                for j in 0..t.size {
                    out.message(t.col0 + j).extend_from_slice(payload);
                }
            }
            out
        });

        // Step 3 (local): b reassembles N(y) and builds W(y, b).
        // Step 4: route each walk (x, y, z) to x.
        let walks = clique.route_dynamic_par(|b| {
            let mut out = Outbox::new();
            for y in plan.tiles_with_col(b) {
                let t = plan.tile(y).expect("tile exists");
                // N(y) = interleaved union of the pieces from all a ∈ A(y).
                let mut ny = Vec::with_capacity(degrees[y]);
                let pieces: Vec<&[u64]> = (0..t.size)
                    .map(|j| inbox_b.received(b, t.row0 + j))
                    .collect();
                let mut idx = 0;
                loop {
                    let mut any = false;
                    for p in &pieces {
                        if let Some(&w) = p.get(idx) {
                            ny.push(w as usize);
                            any = true;
                        }
                    }
                    if !any {
                        break;
                    }
                    idx += 1;
                }
                debug_assert_eq!(ny.len(), degrees[y], "N({y}) reassembly");
                ny.sort_unstable();
                let nb: Vec<usize> = piece(&ny, t.size, b - t.col0).collect();
                debug_assert!(
                    ny.len() * nb.len() <= 8 * degrees[y],
                    "Lemma 13 bound per tile"
                );
                for &x in &ny {
                    for &z in &nb {
                        out.message(x).push(pack_pair(y, z));
                    }
                }
            }
            out
        });

        // Each x checks for two walks meeting at the same z ≠ x (scanned on
        // the executor; the verdict is one OR-reduce round).
        let found = exec.map(n, |x| {
            let mut seen: Vec<(usize, usize)> = Vec::new(); // (z, y)
            for src in 0..n {
                for &w in walks.received(x, src) {
                    let (y, z) = unpack_pair(w);
                    if z == x {
                        continue;
                    }
                    if seen.iter().any(|&(zz, yy)| zz == z && yy != y) {
                        return true;
                    }
                    seen.push((z, y));
                }
            }
            false
        });
        clique.or_all(|x| found[x])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::generators;
    use cc_graph::oracle;

    fn check(g: &Graph) {
        let mut clique = Clique::new(g.n());
        assert_eq!(
            detect_4cycle(&mut clique, g),
            oracle::has_k_cycle(g, 4),
            "graph with n={} m={}",
            g.n(),
            g.m()
        );
    }

    #[test]
    fn tile_plan_is_disjoint_and_sized() {
        for seed in 0..5 {
            let g = generators::gnp(40, 0.2, seed);
            let degrees: Vec<usize> = (0..40).map(|v| g.degree(v)).collect();
            if degrees.iter().map(|&d| d * d).sum::<usize>() >= 2 * 40 * 40 {
                continue;
            }
            let plan = TilePlan::allocate(&degrees);
            assert!(plan.check_disjoint(), "seed {seed}");
            for (y, &d) in degrees.iter().enumerate() {
                if d > 0 {
                    let t = plan.tile(y).expect("tile for positive degree");
                    assert!(t.size * 8 >= d, "f(y) ≥ deg/8 violated: {t:?} deg {d}");
                    assert!(t.size.is_power_of_two());
                }
            }
        }
    }

    #[test]
    fn detects_on_positive_graphs() {
        check(&generators::cycle(4));
        check(&generators::grid(3, 3));
        check(&generators::complete(8));
        check(&generators::complete_bipartite(2, 2));
        check(&generators::complete_bipartite(5, 5));
    }

    #[test]
    fn rejects_on_negative_graphs() {
        check(&generators::petersen());
        check(&generators::cycle(9));
        check(&generators::path(12));
        check(&generators::complete(3).padded(7));
    }

    #[test]
    fn random_graphs_match_oracle() {
        for seed in 0..8 {
            check(&generators::gnp(24, 0.08, seed));
            check(&generators::gnp(24, 0.15, seed + 100));
        }
    }

    #[test]
    fn dense_graphs_hit_the_pigeonhole_path() {
        let g = generators::complete(32);
        let mut clique = Clique::new(32);
        assert!(detect_4cycle(&mut clique, &g));
        // Degree broadcast + OR: just a few rounds.
        assert!(
            clique.rounds() <= 4,
            "pigeonhole path should be ~2 rounds, got {}",
            clique.rounds()
        );
    }

    #[test]
    fn rounds_are_constant_across_sizes() {
        // Sparse-ish graphs that exercise the full tile machinery. Averaged
        // over seeds: a single G(n, 1.5/n) instance has noticeable variance
        // in max degree and hence tile loads.
        let rounds = |n: usize| {
            let total: u64 = (0..5)
                .map(|seed| {
                    let g = generators::gnp(n, 1.5 / n as f64, 7 + seed);
                    let mut clique = Clique::new(n);
                    detect_4cycle(&mut clique, &g);
                    clique.rounds()
                })
                .sum();
            total / 5
        };
        let r32 = rounds(32);
        let r256 = rounds(256);
        assert!(
            r256 <= r32 + 16,
            "rounds should not grow with n: {r32} at n=32 vs {r256} at n=256"
        );
    }

    #[test]
    fn tiny_graphs_use_fallback() {
        check(&generators::cycle(4));
        check(&generators::path(5));
        check(&generators::complete(5));
    }

    #[test]
    fn figure_render_shows_tiles() {
        let g = generators::gnp(32, 0.3, 3);
        let degrees: Vec<usize> = (0..32).map(|v| g.degree(v)).collect();
        let plan = TilePlan::allocate(&degrees);
        let fig = plan.render_figure();
        assert!(fig.contains("32×32") || fig.contains("square"));
    }
}
