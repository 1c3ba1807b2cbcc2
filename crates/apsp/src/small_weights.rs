//! Exact APSP for small weighted diameter (Lemma 19, Corollary 8).

use cc_algebra::Dist;
use cc_clique::Clique;
use cc_core::{boolean, distance, FastPlan, RowMatrix};
use cc_graph::Graph;

/// All-pairs reachability (the transitive closure's adjacency, including
/// self-reachability) via `⌈log₂ n⌉` Boolean squarings — the first step of
/// Corollary 8's doubling search.
pub fn reachability(clique: &mut Clique, g: &Graph) -> RowMatrix<bool> {
    let n = clique.n();
    assert_eq!(g.n(), n, "graph and clique sizes must match");
    let alg = FastPlan::best_strassen(n);
    // Start from A ∨ I so squaring accumulates all path lengths; rows are
    // tabulated per node on the configured backend.
    let mut reach = RowMatrix::from_rows(clique.executor().map(n, |u| {
        let mut row = g.out_row(u, false, |_, _| true);
        row[u] = true;
        row
    }));
    clique.phase("reachability", |clique| {
        let mut hops = 1usize;
        while hops < n {
            reach = boolean::multiply(clique, &alg, &reach, &reach);
            hops *= 2;
        }
    });
    reach
}

/// Corollary 8: exact APSP for directed graphs with **positive** integer
/// weights and weighted diameter `U`, in `Õ(U·n^ρ)` rounds.
///
/// With `diameter_bound = Some(U)` this is Lemma 19 directly. With `None`,
/// the algorithm first computes reachability, then doubles a guess for `U`
/// until the capped APSP covers every reachable pair, as the paper
/// describes.
///
/// # Panics
///
/// Panics if any edge weight is non-positive or sizes mismatch.
pub fn apsp_small_weights(
    clique: &mut Clique,
    g: &Graph,
    diameter_bound: Option<i64>,
) -> RowMatrix<Dist> {
    let n = clique.n();
    assert_eq!(g.n(), n, "graph and clique sizes must match");
    assert!(
        g.edges().iter().all(|&(_, _, w)| w > 0),
        "Corollary 8 requires positive integer weights"
    );
    let alg = FastPlan::best_strassen(n);
    let exec = clique.executor();
    let w = crate::weight_rows(&exec, g);

    clique.phase("apsp_small_weights", |clique| {
        if let Some(u) = diameter_bound {
            assert!(u >= 1, "diameter bound must be positive");
            return distance::apsp_up_to(clique, &alg, &w, u);
        }
        // Unknown U: reachability, then doubling (steps 1–3 of Corollary 8).
        let reach = reachability(clique, g);
        let mut guess = 1i64;
        loop {
            let d = distance::apsp_up_to(clique, &alg, &w, guess);
            // Complete iff every reachable pair has a finite distance
            // (each node scans its own row on the executor, then one
            // OR-reduce round).
            let row_incomplete = exec.map(n, |u| {
                (0..n).any(|v| reach.row(u)[v] && !d.row(u)[v].is_finite())
            });
            let incomplete = clique.or_all(|u| row_incomplete[u]);
            if !incomplete {
                return d;
            }
            guess *= 2;
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::{generators, oracle};

    fn check(g: &Graph, bound: Option<i64>) {
        let mut clique = Clique::new(g.n());
        let d = apsp_small_weights(&mut clique, g, bound);
        assert_eq!(
            d.to_matrix(),
            oracle::apsp(g),
            "n={} bound={bound:?}",
            g.n()
        );
    }

    #[test]
    fn reachability_matches_bfs() {
        for seed in 0..4 {
            let g = generators::gnp_directed(14, 0.12, seed);
            let mut clique = Clique::new(14);
            let r = reachability(&mut clique, &g);
            for u in 0..14 {
                let bfs = oracle::bfs_dist(&g, u);
                for (v, d) in bfs.iter().enumerate() {
                    assert_eq!(r.row(u)[v], d.is_some(), "({u},{v}) seed={seed}");
                }
            }
        }
    }

    #[test]
    fn with_known_diameter() {
        let g = generators::weighted_gnp(12, 0.4, 3, true, 5);
        // Diameter is at most n · max weight.
        check(&g, Some(36));
    }

    #[test]
    fn unknown_diameter_doubles_until_complete() {
        for seed in 0..3 {
            check(&generators::weighted_gnp(12, 0.3, 4, true, seed), None);
        }
    }

    #[test]
    fn unweighted_graphs() {
        check(&generators::directed_cycle(9), None);
        let g = generators::cycle(10);
        check(&g, None);
    }

    #[test]
    fn disconnected_pairs_stay_infinite() {
        let g = generators::disjoint_union(
            &generators::directed_cycle(4),
            &generators::directed_cycle(5),
        );
        let mut clique = Clique::new(9);
        let d = apsp_small_weights(&mut clique, &g, None);
        assert!(!d.row(0)[5].is_finite());
        assert_eq!(d.to_matrix(), oracle::apsp(&g));
    }

    #[test]
    fn rounds_grow_with_diameter_bound() {
        let g = generators::weighted_gnp(12, 0.5, 2, true, 8);
        let rounds_at = |u: i64| {
            let mut clique = Clique::new(12);
            let _ = apsp_small_weights(&mut clique, &g, Some(u));
            clique.rounds()
        };
        assert!(
            rounds_at(16) > rounds_at(4),
            "larger caps mean wider polynomials and more rounds"
        );
    }
}
