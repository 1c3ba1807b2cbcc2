//! Shortest-path reconstruction for Seidel's algorithm via Boolean product
//! witnesses (the §3.4 machinery applied as Seidel's successor trick).
//!
//! Seidel's recursion returns distances only. To route, each pair `(u,v)`
//! needs a *successor*: a neighbour `w` of `u` with `d(w,v) = d(u,v) − 1`.
//! Because consecutive distances differ by at most one, any neighbour with
//! `d(w,v) ≡ d(u,v) − 1 (mod 3)` qualifies, so three witnessed Boolean
//! products `A · B_r` (where `B_r[w][v] = [d(w,v) ≡ r mod 3]`) recover
//! successors for every pair. The paper notes explicitly (§3.4) that its
//! witness techniques "also work for the Boolean semiring matrix product";
//! this module is that remark made concrete: a Boolean product is embedded
//! as a `{0, ∞}` min-plus product and fed to the witness search.

use crate::exact::ApspTables;
use crate::seidel::apsp_seidel;
use cc_algebra::{Dist, INFINITY};
use cc_clique::Clique;
use cc_core::{distance, witness, RowMatrix};
use cc_graph::Graph;

/// Embeds a Boolean matrix as `{0, ∞}` min-plus entries: products then have
/// a zero entry exactly where the Boolean product is `true`, and min-plus
/// witnesses are Boolean-product witnesses.
fn embed(b: &RowMatrix<bool>) -> RowMatrix<Dist> {
    b.map(|&x| if x { Dist::zero() } else { INFINITY })
}

/// Computes successor tables for an unweighted undirected graph given its
/// distance matrix, using three witnessed Boolean products.
///
/// `trials_per_level` is forwarded to the §3.4 sampling search
/// ([`witness::find_witnesses`]); a handful of trials suffices w.h.p.
///
/// # Panics
///
/// Panics if sizes mismatch, or if the witness search fails to certify a
/// successor for a reachable pair (probability `n^{-Ω(trials)}`).
pub fn successors_from_distances(
    clique: &mut Clique,
    g: &Graph,
    dist: &RowMatrix<Dist>,
    seed: u64,
    trials_per_level: usize,
) -> RowMatrix<usize> {
    let n = clique.n();
    assert_eq!(g.n(), n, "graph and clique sizes must match");
    assert_eq!(dist.n(), n, "distance matrix size mismatch");

    let adjacency = embed(&RowMatrix::from_rows(
        (0..n).map(|u| g.out_row(u, false, |_, _| true)).collect(),
    ));
    let mut product = |clique: &mut Clique, s: &RowMatrix<Dist>, t: &RowMatrix<Dist>| {
        distance::distance_product(clique, s, t)
    };

    clique.phase("seidel.paths", |clique| {
        // One witnessed product per residue class of d(w, v) mod 3.
        let mut per_residue: Vec<(RowMatrix<usize>, RowMatrix<bool>)> = Vec::with_capacity(3);
        for r in 0..3u8 {
            let b_r = RowMatrix::from_fn(n, |w, v| {
                dist.row(w)[v]
                    .value()
                    .is_some_and(|d| d.rem_euclid(3) == i64::from(r))
            });
            let t = embed(&b_r);
            let p = product(clique, &adjacency, &t);
            let (q, ok) = witness::find_witnesses(
                clique,
                &mut product,
                &adjacency,
                &t,
                &p,
                seed ^ u64::from(r),
                trials_per_level,
            );
            per_residue.push((q, ok));
        }

        RowMatrix::from_fn(n, |u, v| {
            match dist.row(u)[v].value() {
                None | Some(0) => usize::MAX, // unreachable or trivial
                Some(ell) => {
                    let r = (ell - 1).rem_euclid(3) as usize;
                    let (q, ok) = &per_residue[r];
                    assert!(
                        ok.row(u)[v],
                        "witness search failed for pair ({u},{v}) at distance {ell}"
                    );
                    let w = q.row(u)[v];
                    debug_assert!(g.has_edge(u, w), "successor must be a neighbour");
                    w
                }
            }
        })
    })
}

/// Corollary 7 with routing: Seidel's exact unweighted APSP plus successor
/// tables reconstructed through witnessed Boolean products.
///
/// # Panics
///
/// Panics if the graph is directed/weighted or sizes mismatch.
pub fn seidel_with_paths(clique: &mut Clique, g: &Graph, seed: u64) -> ApspTables {
    let dist = apsp_seidel(clique, g);
    let trials = 4 + (clique.n().ilog2() as usize);
    let succ = successors_from_distances(clique, g, &dist, seed, trials);
    ApspTables::from_parts(dist, succ)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::{generators, oracle};

    fn check_paths(g: &Graph) {
        let n = g.n();
        let mut clique = Clique::new(n);
        let tables = seidel_with_paths(&mut clique, g, 77);
        assert_eq!(tables.dist.to_matrix(), oracle::apsp(g));
        for u in 0..n {
            for v in 0..n {
                if u == v || !tables.dist.row(u)[v].is_finite() {
                    continue;
                }
                let path = tables.path(u, v).expect("reachable pair");
                assert_eq!(
                    path.len() as i64 - 1,
                    tables.dist.row(u)[v].unwrap(),
                    "({u},{v})"
                );
                for hop in path.windows(2) {
                    assert!(g.has_edge(hop[0], hop[1]), "({u},{v}): hop {hop:?} missing");
                }
            }
        }
    }

    #[test]
    fn paths_on_structured_graphs() {
        check_paths(&generators::cycle(9));
        check_paths(&generators::grid(3, 3));
        check_paths(&generators::petersen());
    }

    #[test]
    fn paths_on_random_graphs() {
        for seed in 0..3 {
            check_paths(&generators::gnp(12, 0.25, seed));
        }
    }

    #[test]
    fn paths_on_disconnected_graphs() {
        let g = generators::disjoint_union(&generators::path(5), &generators::cycle(4));
        check_paths(&g);
    }

    #[test]
    fn successors_are_neighbours_at_distance_minus_one() {
        let g = generators::gnp(14, 0.3, 9);
        let mut clique = Clique::new(14);
        let dist = apsp_seidel(&mut clique, &g);
        let succ = successors_from_distances(&mut clique, &g, &dist, 5, 8);
        for u in 0..14 {
            for v in 0..14 {
                if let Some(ell) = dist.row(u)[v].value() {
                    if ell >= 1 {
                        let w = succ.row(u)[v];
                        assert!(g.has_edge(u, w));
                        assert_eq!(dist.row(w)[v].unwrap(), ell - 1, "({u},{v})");
                    }
                }
            }
        }
    }
}
