//! 4-cycle and 5-cycle counting via trace formulas (Corollary 2 and the
//! Alon–Yuster–Zwick extensions the paper points to).

use crate::traces;
use cc_algebra::IntRing;
use cc_clique::Clique;
use cc_core::{fast_mm, RowMatrix};
use cc_graph::Graph;

/// Counts 4-cycles in `O(n^ρ)` rounds (Corollary 2).
///
/// For undirected graphs,
/// `#C₄ = (tr(A⁴) − Σ_v (2·deg(v)² − deg(v))) / 8`;
/// for directed graphs,
/// `#C₄ = (tr(A⁴) − Σ_v (2·δ(v)² − δ(v))) / 4`,
/// where `δ(v)` counts neighbours joined to `v` in both directions.
/// The trace needs one fast multiplication (`A²`), a transpose round, and a
/// broadcast sum; the degree corrections are local knowledge plus one
/// broadcast.
///
/// # Panics
///
/// Panics if `clique.n() != g.n()`.
pub fn count_4cycles(clique: &mut Clique, g: &Graph) -> u64 {
    let n = clique.n();
    assert_eq!(g.n(), n, "graph and clique sizes must match");
    let a = RowMatrix::from_rows((0..n).map(|u| g.out_row(u, 0, |_, _| 1)).collect());
    clique.phase("four_cycles", |clique| {
        let a2 = fast_mm::multiply_auto(clique, &IntRing, &a, &a);
        let tr4 = traces::trace_of_product(clique, &a2, &a2);
        let correction = clique.sum_all(|v| {
            let d = if g.is_directed() {
                g.mutual_degree(v)
            } else {
                g.degree(v)
            } as i64;
            2 * d * d - d
        });
        let denom = if g.is_directed() { 4 } else { 8 };
        let num = tr4 - correction;
        debug_assert!(
            num >= 0 && num % denom == 0,
            "trace formula mismatch: {num}/{denom}"
        );
        (num / denom) as u64
    })
}

/// Counts 5-cycles in an undirected graph in `O(n^ρ)` rounds using the
/// Harary–Manvel trace formula
/// `#C₅ = (tr(A⁵) − 5·tr(A³) − 5·Σ_v (deg(v)−2)·A³[v][v]) / 10`,
/// which needs only `A²`, `A³ = A²·A`, local degrees, and two reduces —
/// exactly the "small powers of A and local information" the paper appeals
/// to for `k ∈ {5, 6, 7}`.
///
/// # Panics
///
/// Panics if the graph is directed or `clique.n() != g.n()`.
pub fn count_5cycles(clique: &mut Clique, g: &Graph) -> u64 {
    let n = clique.n();
    assert_eq!(g.n(), n, "graph and clique sizes must match");
    assert!(
        !g.is_directed(),
        "count_5cycles expects an undirected graph"
    );
    let a = RowMatrix::from_rows((0..n).map(|u| g.out_row(u, 0, |_, _| 1)).collect());
    clique.phase("five_cycles", |clique| {
        let a2 = fast_mm::multiply_auto(clique, &IntRing, &a, &a);
        let a3 = fast_mm::multiply_auto(clique, &IntRing, &a2, &a);
        let tr5 = traces::trace_of_product(clique, &a3, &a2);
        let tr3 = clique.sum_all(|v| a3.row(v)[v]);
        let weighted = clique.sum_all(|v| (g.degree(v) as i64 - 2) * a3.row(v)[v]);
        let num = tr5 - 5 * tr3 - 5 * weighted;
        debug_assert!(num >= 0 && num % 10 == 0, "trace formula mismatch: {num}");
        (num / 10) as u64
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::{generators, oracle};

    fn check4(g: &Graph) {
        let mut clique = Clique::new(g.n());
        assert_eq!(count_4cycles(&mut clique, g), oracle::count_4cycles(g));
    }

    fn check5(g: &Graph) {
        let mut clique = Clique::new(g.n());
        assert_eq!(count_5cycles(&mut clique, g), oracle::count_5cycles(g));
    }

    #[test]
    fn four_cycles_on_known_graphs() {
        check4(&generators::cycle(4));
        check4(&generators::complete(5));
        check4(&generators::complete_bipartite(3, 3));
        check4(&generators::petersen());
        check4(&generators::grid(3, 4));
        check4(&generators::path(7));
    }

    #[test]
    fn four_cycles_on_random_graphs() {
        for seed in 0..4 {
            check4(&generators::gnp(18, 0.3, seed));
            check4(&generators::gnp(30, 0.2, seed + 50));
        }
    }

    #[test]
    fn four_cycles_directed() {
        check4(&generators::directed_cycle(4));
        for seed in 0..3 {
            check4(&generators::gnp_directed(14, 0.25, seed));
        }
        // A bidirected triangle contains directed 4-cycles? No — but mutual
        // edges create 2-cycles that the δ correction must remove.
        let mut g = Graph::directed(4);
        for (u, v) in [
            (0, 1),
            (1, 0),
            (1, 2),
            (2, 1),
            (2, 3),
            (3, 2),
            (3, 0),
            (0, 3),
        ] {
            g.add_edge(u, v);
        }
        check4(&g);
    }

    #[test]
    fn five_cycles_on_known_graphs() {
        check5(&generators::cycle(5));
        check5(&generators::complete(5));
        check5(&generators::complete(6));
        check5(&generators::petersen());
        check5(&generators::complete_bipartite(3, 3));
        check5(&generators::grid(3, 3));
    }

    #[test]
    fn five_cycles_on_random_graphs() {
        for seed in 0..4 {
            check5(&generators::gnp(16, 0.3, seed));
        }
        check5(&generators::gnp(24, 0.25, 9));
    }
}
