//! Exact APSP by iterated min-plus squaring, with routing tables
//! (Corollary 6 and §3.3 "constructing routing tables").

use cc_algebra::Dist;
use cc_clique::Clique;
use cc_core::{sparse_mm, RowMatrix};
use cc_graph::Graph;

/// Distances and routing tables produced by [`apsp_exact`].
///
/// `routing[u][v]` is the first hop of a shortest `u → v` path (an
/// out-neighbour of `u`), the paper's `R[u, v]`. Equality compares both
/// tables entry-wise (the cached-result tests pin bit-identical replay).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApspTables {
    /// Exact shortest-path distances.
    pub dist: RowMatrix<Dist>,
    routing: RowMatrix<usize>,
}

impl ApspTables {
    /// Assembles tables from distances and a next-hop matrix (used by the
    /// unweighted path-reconstruction of [`crate::seidel_with_paths`]).
    pub(crate) fn from_parts(dist: RowMatrix<Dist>, routing: RowMatrix<usize>) -> Self {
        Self { dist, routing }
    }

    /// First hop of a shortest `u → v` path, if `v` is reachable
    /// (`u == v` returns `None`).
    #[must_use]
    pub fn next_hop(&self, u: usize, v: usize) -> Option<usize> {
        if u == v || !self.dist.row(u)[v].is_finite() {
            return None;
        }
        Some(self.routing.row(u)[v])
    }

    /// Reconstructs the full shortest path `u → … → v` by following hops.
    /// Returns `None` if `v` is unreachable.
    ///
    /// # Panics
    ///
    /// Panics if the routing table is inconsistent (a hop fails to make
    /// progress), which would indicate a bug, not bad input.
    #[must_use]
    pub fn path(&self, u: usize, v: usize) -> Option<Vec<usize>> {
        if !self.dist.row(u)[v].is_finite() {
            return None;
        }
        let n = self.dist.n();
        let mut path = vec![u];
        let mut cur = u;
        while cur != v {
            cur = self
                .next_hop(cur, v)
                .expect("finite distance has a next hop");
            path.push(cur);
            assert!(path.len() <= n, "routing table cycles on ({u},{v})");
        }
        Some(path)
    }
}

/// Corollary 6: exact APSP (and routing tables) for directed graphs with
/// integer weights, via `⌈log₂ n⌉` min-plus squarings of the weight matrix
/// on the 3D semiring algorithm — `O(n^{1/3} log n)` rounds.
///
/// Witnesses from each squaring drive the routing-table update
/// `R[u,v] ← R[u, Q[u,v]]` exactly as in the paper. Negative weights are
/// allowed as long as no negative cycle exists (distances then still
/// converge; a negative cycle panics in debug builds via trace checks in
/// the caller's oracle, not here).
///
/// Each squaring goes through the density-dispatching front door
/// ([`sparse_mm::distance_product_with_witness_auto`]): the first products
/// of a sparse graph's weight matrix have few finite entries and ride the
/// Le Gall 2016 sparse path; as iterated squaring densifies the matrix,
/// the dispatch flips to the dense 3D engine. Both engines use the same
/// witness tie-break on finite entries, and the update below only follows
/// `Q` on a strict improvement, which is finite; the engines' witnesses
/// for `∞` entries differ but are never read, so the tables are identical
/// either way (`sparse_and_rect_mm_are_executor_independent` in
/// `tests/runtime_determinism.rs` runs the sparse witness product on dense
/// inputs).
///
/// # Panics
///
/// Panics if `clique.n() != g.n()`.
pub fn apsp_exact(clique: &mut Clique, g: &Graph) -> ApspTables {
    let n = clique.n();
    assert_eq!(g.n(), n, "graph and clique sizes must match");
    // Node-local tabulation (row v is node v's local view of the graph) and
    // the per-row routing updates below run on the clique's configured
    // executor; the distance products use the `_par` routing primitives
    // internally, so the whole algorithm rides the parallel runtime.
    let exec = clique.executor();
    let mut dist = crate::weight_rows(&exec, g);
    // R[u][v] = v for direct edges; self/unreachable entries are sentinels
    // fixed up on improvement.
    let mut routing = RowMatrix::from_rows(exec.map(n, |u| g.out_row(u, usize::MAX, |v, _| v)));

    clique.phase("apsp_exact", |clique| {
        let mut hops = 1usize;
        while hops < n {
            let (d2, q) = sparse_mm::distance_product_with_witness_auto(clique, &dist, &dist);
            routing = routing.par_map_indexed(&exec, |u, v, &r| {
                if d2.row(u)[v] < dist.row(u)[v] {
                    let w = q.row(u)[v];
                    debug_assert!(
                        w != u && w != v,
                        "strict improvement passes through a midpoint"
                    );
                    routing.row(u)[w]
                } else {
                    r
                }
            });
            dist = d2;
            hops *= 2;
        }
    });
    ApspTables { dist, routing }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::{generators, oracle};

    fn check(g: &Graph) {
        let mut clique = Clique::new(g.n());
        let tables = apsp_exact(&mut clique, g);
        assert_eq!(
            tables.dist.to_matrix(),
            oracle::apsp(g),
            "n={} m={}",
            g.n(),
            g.m()
        );
        validate_routes(g, &tables);
    }

    /// Every finite pair's reconstructed path must exist in the graph and
    /// have total weight equal to the reported distance.
    fn validate_routes(g: &Graph, tables: &ApspTables) {
        let n = g.n();
        for u in 0..n {
            for v in 0..n {
                if u == v || !tables.dist.row(u)[v].is_finite() {
                    continue;
                }
                let path = tables.path(u, v).expect("reachable pair has a path");
                assert_eq!(path.first(), Some(&u));
                assert_eq!(path.last(), Some(&v));
                let mut total = 0i64;
                for hop in path.windows(2) {
                    total += g
                        .weight(hop[0], hop[1])
                        .unwrap_or_else(|| panic!("({},{}) not an edge", hop[0], hop[1]));
                }
                assert_eq!(
                    Dist::finite(total),
                    tables.dist.row(u)[v],
                    "path weight ({u},{v})"
                );
            }
        }
    }

    #[test]
    fn weighted_path_and_shortcut() {
        let mut g = Graph::undirected(4);
        g.add_weighted_edge(0, 1, 1);
        g.add_weighted_edge(1, 2, 1);
        g.add_weighted_edge(2, 3, 1);
        g.add_weighted_edge(0, 3, 10);
        check(&g);
    }

    #[test]
    fn random_weighted_digraphs() {
        for seed in 0..4 {
            check(&generators::weighted_gnp(16, 0.25, 9, true, seed));
        }
    }

    #[test]
    fn random_weighted_undirected() {
        for seed in 0..3 {
            check(&generators::weighted_gnp(20, 0.2, 5, false, seed));
        }
    }

    #[test]
    fn disconnected_graphs_report_infinity() {
        let g = generators::disjoint_union(&generators::cycle(5), &generators::cycle(4));
        let mut clique = Clique::new(9);
        let t = apsp_exact(&mut clique, &g);
        assert!(!t.dist.row(0)[6].is_finite());
        assert!(t.next_hop(0, 6).is_none());
        check(&g);
    }

    #[test]
    fn negative_edges_without_negative_cycles() {
        let mut g = Graph::directed(5);
        g.add_weighted_edge(0, 1, 4);
        g.add_weighted_edge(1, 2, -2);
        g.add_weighted_edge(2, 3, 3);
        g.add_weighted_edge(0, 3, 10);
        g.add_weighted_edge(3, 4, -1);
        let mut clique = Clique::new(5);
        let t = apsp_exact(&mut clique, &g);
        assert_eq!(t.dist.to_matrix(), oracle::apsp(&g));
        assert_eq!(t.dist.row(0)[4], Dist::finite(4));
    }

    #[test]
    fn sparse_dispatch_preserves_tables_and_saves_traffic() {
        // A bounded-degree weighted graph: the early squarings have few
        // finite entries, so the dispatching front door must beat a loop
        // pinned to the dense 3D engine on words — without changing any
        // distance (the oracle check) or route (validate_routes).
        let n = 32;
        let g = generators::weighted_gnp(n, 1.5 / n as f64, 9, false, 5);
        let mut ca = Clique::new(n);
        let tables = apsp_exact(&mut ca, &g);
        assert_eq!(tables.dist.to_matrix(), oracle::apsp(&g));
        validate_routes(&g, &tables);

        let mut cd = Clique::new(n);
        let mut dist = crate::weight_rows(&cd.executor(), &g);
        let mut hops = 1usize;
        while hops < n {
            let (d2, _) =
                cc_core::semiring_mm::distance_product_with_witness(&mut cd, &dist, &dist);
            dist = d2;
            hops *= 2;
        }
        assert_eq!(dist.to_matrix(), oracle::apsp(&g), "dense reference loop");
        assert!(
            ca.stats().words() < cd.stats().words(),
            "dispatched APSP words {} vs dense-only words {}",
            ca.stats().words(),
            cd.stats().words()
        );
    }

    #[test]
    fn larger_instance_round_cost() {
        let g = generators::weighted_gnp(27, 0.3, 7, true, 9);
        let mut clique = Clique::new(27);
        let _ = apsp_exact(&mut clique, &g);
        // log₂(27) ≈ 5 squarings; each is O(n^{1/3}) rounds with constants.
        assert!(clique.rounds() < 1000, "rounds {}", clique.rounds());
    }
}
