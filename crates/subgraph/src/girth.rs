//! Girth computation (Theorem 15 and Corollary 16).

use crate::colour_coding;
use crate::four_cycle_detection;
use crate::triangles;
use cc_clique::{pack_pair, unpack_pair, Clique};
use cc_core::{boolean, FastPlan, RowMatrix};
use cc_graph::Graph;

/// Parameters for the undirected girth algorithm.
#[derive(Debug, Clone, Copy)]
pub struct GirthConfig {
    /// The cut-off cycle length `ℓ = ⌈2 + 2/ρ⌉` of Theorem 15: denser
    /// graphs than the Lemma 14 bound for girth `ℓ` must contain a cycle of
    /// length at most `ℓ`. Defaults to `9`, matching
    /// `ρ = 1 − 2/log₂ 7 ≈ 0.2876` (Strassen; the paper's
    /// `ρ < 0.1572` would give `ℓ = 15`).
    pub ell: usize,
    /// Random colourings attempted per cycle length `k ≥ 5` (lengths 3 and
    /// 4 use the deterministic counting/detection algorithms).
    pub trials: usize,
    /// RNG seed for the colour-coding trials.
    pub seed: u64,
}

impl Default for GirthConfig {
    fn default() -> Self {
        Self {
            ell: 9,
            trials: 100,
            seed: 0xc1c1e,
        }
    }
}

/// Computes the girth of an undirected, unweighted graph in `Õ(n^ρ)`
/// rounds (Theorem 15); returns `None` for forests.
///
/// Dense graphs (more than `n^{1+1/⌊ℓ/2⌋} + n` edges) must have girth at
/// most `ℓ` by the Lemma 14 trade-off, so short cycles are searched with
/// matrix-multiplication detectors (triangle counting for `k = 3`, the
/// Theorem 4 detector for `k = 4`, colour coding beyond). Sparse graphs are
/// simply gathered everywhere in `O(m/n)` rounds and solved locally.
///
/// The colour-coding stage is one-sided Monte Carlo; if it misses every
/// `k ≤ ℓ` (probability vanishing in `cfg.trials`) the algorithm falls back
/// to gathering the graph, preserving correctness at extra round cost.
///
/// # Panics
///
/// Panics if the graph is directed or sizes mismatch.
pub fn girth(clique: &mut Clique, g: &Graph, cfg: GirthConfig) -> Option<usize> {
    let n = clique.n();
    assert_eq!(g.n(), n, "graph and clique sizes must match");
    assert!(!g.is_directed(), "use directed_girth for directed graphs");

    clique.phase("girth", |clique| {
        // Everyone learns the edge count from the degree broadcast.
        let total_deg = clique.sum_all(|v| g.degree(v) as i64);
        let m = (total_deg / 2) as f64;
        let threshold = (n as f64).powf(1.0 + 1.0 / (cfg.ell / 2) as f64) + n as f64;

        if m <= threshold {
            return gather_and_solve(clique, g);
        }

        // Dense: girth ≤ ℓ. Try increasing cycle lengths.
        if triangles::count_triangles(clique, g) > 0 {
            return Some(3);
        }
        if four_cycle_detection::detect_4cycle(clique, g) {
            return Some(4);
        }
        for k in 5..=cfg.ell {
            if colour_coding::detect_k_cycle(clique, g, k, cfg.seed ^ k as u64, cfg.trials) {
                return Some(k);
            }
        }
        // Monte Carlo missed (or the graph is a pathological borderline
        // case); fall back to the exact gather path.
        gather_and_solve(clique, g)
    })
}

fn gather_and_solve(clique: &mut Clique, g: &Graph) -> Option<usize> {
    // Per-node edge packing runs on the configured executor; relay
    // assignment and round costs are identical to the sequential gossip.
    let words = clique.gossip_par(|v| {
        g.neighbors(v)
            .filter(|&u| u > v)
            .map(|u| pack_pair(v, u))
            .collect()
    });
    let mut local = Graph::undirected(g.n());
    for w in words {
        let (u, v) = unpack_pair(w);
        local.add_edge(u, v);
    }
    cc_graph::oracle::girth(&local)
}

/// Computes the girth of a directed graph in `Õ(n^ρ)` rounds
/// (Corollary 16); returns `None` for acyclic graphs. Deterministic.
///
/// Uses the Itai–Rodeh doubling scheme: Boolean matrices
/// `B⁽ⁱ⁾[u][v] = 1` iff a path of length `1..=i` runs from `u` to `v`,
/// computed by `B⁽²ⁱ⁾ = B⁽ⁱ⁾B⁽ⁱ⁾ ∨ A` (equation 4). The first power of two
/// with a non-trivial diagonal brackets the girth; binary search with the
/// stored powers pins it down with `O(log n)` further products.
///
/// # Panics
///
/// Panics if the graph is undirected or sizes mismatch.
pub fn directed_girth(clique: &mut Clique, g: &Graph) -> Option<usize> {
    let n = clique.n();
    assert_eq!(g.n(), n, "graph and clique sizes must match");
    assert!(g.is_directed(), "use girth for undirected graphs");

    let alg = FastPlan::best_strassen(n);
    let exec = clique.executor();
    let a = RowMatrix::from_rows(exec.map(n, |u| g.out_row(u, false, |_, _| true)));

    clique.phase("directed_girth", |clique| {
        let has_cycle_diag =
            |clique: &mut Clique, b: &RowMatrix<bool>| clique.or_all(|v| b.row(v)[v]);

        // Doubling phase: B(1), B(2), B(4), ...
        let mut powers: Vec<RowMatrix<bool>> = vec![a.clone()]; // powers[j] = B(2^j)
        let mut reach = 1usize;
        loop {
            let last = powers.last().expect("non-empty");
            if has_cycle_diag(clique, last) {
                break;
            }
            if reach >= n {
                return None; // no closed walk of length ≤ n ⟹ acyclic
            }
            let next = boolean::multiply_or(clique, &alg, last, last, &a);
            powers.push(next);
            reach *= 2;
        }

        let hit = powers.len() - 1; // B(2^hit) has a diagonal one
        if hit == 0 {
            return Some(1); // cannot happen without self-loops, but sound
        }
        // Girth lies in (2^(hit-1), 2^hit]. Walk the remaining powers.
        let mut lo = 1usize << (hit - 1);
        let mut lo_mat = powers[hit - 1].clone();
        for j in (0..hit - 1).rev() {
            // Candidate B(lo + 2^j) = B(lo)·B(2^j) ∨ A.
            let cand = boolean::multiply_or(clique, &alg, &lo_mat, &powers[j], &a);
            if !has_cycle_diag(clique, &cand) {
                lo += 1 << j;
                lo_mat = cand;
            }
        }
        Some(lo + 1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::{generators, oracle};

    fn check_undirected(g: &Graph) {
        let mut clique = Clique::new(g.n());
        assert_eq!(
            girth(&mut clique, g, GirthConfig::default()),
            oracle::girth(g),
            "n={} m={}",
            g.n(),
            g.m()
        );
    }

    fn check_directed(g: &Graph) {
        let mut clique = Clique::new(g.n());
        assert_eq!(directed_girth(&mut clique, g), oracle::directed_girth(g));
    }

    #[test]
    fn sparse_graphs_take_the_gather_path() {
        check_undirected(&generators::cycle(11));
        check_undirected(&generators::petersen());
        check_undirected(&generators::path(9));
        check_undirected(&generators::grid(4, 4));
    }

    #[test]
    fn dense_graphs_take_the_detection_path() {
        // K_16: m = 120 > 16^{1.25} + 16 ≈ 48: dense, girth 3.
        let g = generators::complete(16);
        let mut clique = Clique::new(16);
        assert_eq!(girth(&mut clique, &g, GirthConfig::default()), Some(3));

        // Dense bipartite: triangle-free, girth 4, m = 256 > 32^{1.25}+32 ≈ 108.
        let b = generators::complete_bipartite(16, 16);
        let mut clique = Clique::new(32);
        assert_eq!(girth(&mut clique, &b, GirthConfig::default()), Some(4));
    }

    #[test]
    fn random_graphs_match_oracle() {
        for seed in 0..4 {
            check_undirected(&generators::gnp(20, 0.1, seed));
            check_undirected(&generators::gnp(24, 0.3, seed + 7));
        }
    }

    #[test]
    fn directed_cycles_of_every_length() {
        for len in [2usize, 3, 5, 8, 11] {
            check_directed(&generators::directed_cycle(len));
        }
    }

    #[test]
    fn directed_girth_on_random_and_acyclic_graphs() {
        for seed in 0..5 {
            check_directed(&generators::gnp_directed(18, 0.15, seed));
        }
        // DAG: edges only forward.
        let mut dag = Graph::directed(12);
        for u in 0..12 {
            for v in (u + 1)..12 {
                if (u + v) % 3 == 0 {
                    dag.add_edge(u, v);
                }
            }
        }
        check_directed(&dag);
    }

    #[test]
    fn directed_girth_mixed_lengths() {
        // Two disjoint directed cycles: girth is the shorter one.
        let g = generators::disjoint_union(
            &generators::directed_cycle(7),
            &generators::directed_cycle(4),
        );
        check_directed(&g);
    }
}
