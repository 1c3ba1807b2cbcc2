//! `k`-cycle detection via colour coding (Lemma 11, Theorem 3).
//!
//! Following Alon–Yuster–Zwick, a *colourful* `k`-cycle (one node of each
//! colour) is found with Boolean matrix products over the recursion
//!
//! ```text
//!   C(X) = ⋁_{Y ⊆ X, |Y| = ⌈|X|/2⌉}  C(Y) · A · C(X∖Y)      (paper eq. 3)
//! ```
//!
//! where `C(X)[u][v] = 1` iff some path from `u` to `v` uses exactly one
//! node of each colour in `X`. Products are evaluated over ℤ with the fast
//! bilinear algorithm and thresholded, as the paper prescribes, giving
//! `O(3^k n^ρ)` rounds. Theorem 3 then repeats the test with fresh random
//! colourings: each trial succeeds with probability `≥ k!/k^k > e^{-k}`,
//! and the error is one-sided (a report of "found" is always correct).

use cc_algebra::BilinearAlgorithm;
use cc_clique::Clique;
use cc_core::{boolean, FastPlan, RowMatrix};
use cc_graph::Graph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// The paper's trial count for Theorem 3: `⌈e^k · ln n⌉` random colourings
/// give success with high probability.
#[must_use]
pub fn default_trials(n: usize, k: usize) -> usize {
    ((k as f64).exp() * (n.max(2) as f64).ln()).ceil() as usize
}

/// Detects a *colourful* `k`-cycle under the given colouring
/// `colours: V → [k]` (Lemma 11). Deterministic; one-sided correct for any
/// colouring, and complete whenever some `k`-cycle is colourful.
///
/// # Panics
///
/// Panics if `k < 2`, any colour is `≥ k`, or sizes mismatch.
pub fn detect_colourful_cycle(clique: &mut Clique, g: &Graph, colours: &[usize], k: usize) -> bool {
    let n = clique.n();
    assert_eq!(g.n(), n, "graph and clique sizes must match");
    assert_eq!(colours.len(), n, "one colour per node");
    assert!(k >= 2, "cycles have length at least 2");
    assert!(colours.iter().all(|&c| c < k), "colours must lie in [k]");

    let alg = FastPlan::best_strassen(n);
    let a = RowMatrix::from_rows((0..n).map(|u| g.out_row(u, false, |_, _| true)).collect());

    clique.phase("colour_coding", |clique| {
        let mut memo: HashMap<u32, RowMatrix<bool>> = HashMap::new();
        let full: u32 = if k == 32 { u32::MAX } else { (1u32 << k) - 1 };
        let c_full = c_of(clique, &alg, &a, colours, full, &mut memo);
        // A colourful k-cycle exists iff C([k])[u][v] = 1 and (v, u) ∈ E;
        // node u checks its in-edges locally.
        clique.or_all(|u| (0..n).any(|v| c_full.row(u)[v] && g.in_neighbors(u).any(|w| w == v)))
    })
}

/// Recursive evaluation of `C(X)` with memoisation on the colour set mask.
fn c_of(
    clique: &mut Clique,
    alg: &BilinearAlgorithm,
    a: &RowMatrix<bool>,
    colours: &[usize],
    mask: u32,
    memo: &mut HashMap<u32, RowMatrix<bool>>,
) -> RowMatrix<bool> {
    if let Some(c) = memo.get(&mask) {
        return c.clone();
    }
    let n = a.n();
    let size = mask.count_ones() as usize;
    let result = if size == 1 {
        let colour = mask.trailing_zeros() as usize;
        RowMatrix::from_fn(n, |u, v| u == v && colours[u] == colour)
    } else {
        let half = size.div_ceil(2);
        let mut acc = RowMatrix::from_fn(n, |_, _| false);
        for y in subsets_of_size(mask, half) {
            let left = c_of(clique, alg, a, colours, y, memo);
            let right = c_of(clique, alg, a, colours, mask & !y, memo);
            let la = boolean::multiply(clique, alg, &left, a);
            let prod = boolean::multiply(clique, alg, &la, &right);
            acc = acc.map_indexed(|u, v, &x| x || prod.row(u)[v]);
        }
        acc
    };
    memo.insert(mask, result.clone());
    result
}

/// Enumerates the sub-masks of `mask` with exactly `size` bits set.
fn subsets_of_size(mask: u32, size: usize) -> Vec<u32> {
    let bits: Vec<u32> = (0..32).filter(|&b| mask >> b & 1 == 1).collect();
    let mut out = Vec::new();
    let mut choose = vec![0usize; size];
    fn rec(
        bits: &[u32],
        size: usize,
        start: usize,
        depth: usize,
        cur: u32,
        out: &mut Vec<u32>,
        choose: &mut [usize],
    ) {
        let _ = choose;
        if depth == size {
            out.push(cur);
            return;
        }
        for i in start..bits.len() {
            rec(
                bits,
                size,
                i + 1,
                depth + 1,
                cur | 1 << bits[i],
                out,
                choose,
            );
        }
    }
    rec(&bits, size, 0, 0, 0, &mut out, &mut choose);
    out
}

/// Theorem 3: detects a `k`-cycle (directed or undirected) with `trials`
/// random colourings. One-sided Monte Carlo: `true` is always correct;
/// `false` is correct with probability `≥ 1 − (1 − e^{-k})^{trials}`
/// whenever a `k`-cycle exists ([`default_trials`] gives the paper's
/// high-probability count).
///
/// # Panics
///
/// Panics if `k < 2` or sizes mismatch.
pub fn detect_k_cycle(clique: &mut Clique, g: &Graph, k: usize, seed: u64, trials: usize) -> bool {
    let n = clique.n();
    assert_eq!(g.n(), n, "graph and clique sizes must match");
    let mut rng = StdRng::seed_from_u64(seed);
    clique.phase("kcycle", |clique| {
        for _ in 0..trials {
            // Conceptually each node draws its own colour; shared seeded
            // randomness keeps the simulation deterministic.
            let colours: Vec<usize> = (0..n).map(|_| rng.gen_range(0..k)).collect();
            if detect_colourful_cycle(clique, g, &colours, k) {
                return true;
            }
        }
        false
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::generators;

    /// Colour a planted cycle 0..k-1 in order; everyone else gets colour 0.
    fn planted_colouring(n: usize, cycle: &[usize]) -> Vec<usize> {
        let mut colours = vec![0usize; n];
        for (i, &v) in cycle.iter().enumerate() {
            colours[v] = i;
        }
        colours
    }

    #[test]
    fn subsets_enumeration() {
        let subs = subsets_of_size(0b10110, 2);
        assert_eq!(subs.len(), 3);
        assert!(subs.contains(&0b00110));
        assert!(subs.contains(&0b10010));
        assert!(subs.contains(&0b10100));
    }

    #[test]
    fn colourful_detection_on_planted_cycles() {
        for k in [3usize, 4, 5, 6] {
            let n = 12;
            let mut g = Graph::undirected(n);
            let cycle: Vec<usize> = (0..k).collect();
            for i in 0..k {
                g.add_edge(cycle[i], cycle[(i + 1) % k]);
            }
            let colours = planted_colouring(n, &cycle);
            let mut clique = Clique::new(n);
            assert!(
                detect_colourful_cycle(&mut clique, &g, &colours, k),
                "k={k}"
            );
        }
    }

    #[test]
    fn colourful_detection_never_false_positive() {
        // A path has no cycles: no colouring can make it report one.
        let g = generators::path(10);
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed);
            let colours: Vec<usize> = (0..10).map(|_| rng.gen_range(0..4)).collect();
            let mut clique = Clique::new(10);
            assert!(!detect_colourful_cycle(&mut clique, &g, &colours, 4));
        }
    }

    #[test]
    fn colourful_detection_requires_exact_length() {
        // C6 contains no 5-cycle; colourful 5-detection must fail for any
        // colouring into 5 colours.
        let g = generators::cycle(6);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..5 {
            let colours: Vec<usize> = (0..6).map(|_| rng.gen_range(0..5)).collect();
            let mut clique = Clique::new(6);
            assert!(!detect_colourful_cycle(&mut clique, &g, &colours, 5));
        }
    }

    #[test]
    fn directed_colourful_cycles_respect_orientation() {
        let g = generators::directed_cycle(4);
        let colours = vec![0, 1, 2, 3];
        let mut clique = Clique::new(4);
        assert!(detect_colourful_cycle(&mut clique, &g, &colours, 4));
        // Reverse one edge: no directed 4-cycle remains.
        let mut h = Graph::directed(4);
        h.add_edge(0, 1);
        h.add_edge(1, 2);
        h.add_edge(2, 3);
        h.add_edge(0, 3);
        let mut clique = Clique::new(4);
        assert!(!detect_colourful_cycle(&mut clique, &h, &colours, 4));
    }

    #[test]
    fn randomised_detection_finds_planted_cycles() {
        let g = generators::planted_cycle(14, 5, 0.05, 3);
        let mut clique = Clique::new(14);
        assert!(detect_k_cycle(&mut clique, &g, 5, 1234, 60));
    }

    #[test]
    fn randomised_detection_is_sound_on_acyclic_graphs() {
        let g = generators::path(12);
        let mut clique = Clique::new(12);
        assert!(!detect_k_cycle(&mut clique, &g, 4, 5, 10));
    }

    #[test]
    fn default_trials_matches_paper_form() {
        let t = default_trials(100, 3);
        let expect = (3f64.exp() * 100f64.ln()).ceil() as usize;
        assert_eq!(t, expect);
    }
}
