//! Ablation experiments for three design choices:
//!
//! 1. **Label-grid search vs. the paper's `q = ⌈√n⌉`** in the fast MM plan:
//!    when `n` is not a perfect square, forcing `q² ≈ n` pads the label
//!    grid, and searching `q` for the lowest per-node load cuts that waste.
//! 2. **Two-choice vs. single-hash relays** in the balanced router: one
//!    hashed relay per word leaves the busiest link `O(log n / log log n)`
//!    balls-into-bins slack, and taking the less loaded of two candidates
//!    tightens per-link maxima.
//! 3. **Balanced routing vs. direct links** for the 3D scatter pattern:
//!    why the Lenzen-style primitive is essential for Theorem 1.
//!
//! Usage: `cargo run --release -p cc-bench --bin ablation`

use cc_algebra::{IntRing, Matrix};
use cc_clique::{Clique, CliqueConfig, RelayPolicy};
use cc_core::{fast_mm, FastPlan, RowMatrix};

fn rand_matrix(n: usize, seed: u64) -> Matrix<i64> {
    let mut st = seed;
    Matrix::from_fn(n, n, |_, _| {
        st = st
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((st >> 33) % 9) as i64 - 4
    })
}

fn main() {
    println!("## Ablation 1: fast-MM label grid — searched q vs paper's q = ⌈√n⌉\n");
    println!("| n | q (searched) | rounds | q = ⌈√n⌉ | rounds | saving |");
    println!("|---|---|---|---|---|---|");
    for n in [64usize, 125, 216, 343] {
        let alg = FastPlan::best_strassen(n);
        let a = RowMatrix::from_matrix(&rand_matrix(n, 1));
        let b = RowMatrix::from_matrix(&rand_matrix(n, 2));
        let searched = FastPlan::new(n, &alg);
        let sqrt_q = (1..).find(|q| q * q >= n).expect("q");
        let fixed = FastPlan::with_q(n, &alg, sqrt_q);
        let run = |plan: &FastPlan| {
            let mut clique = Clique::new(n);
            fast_mm::multiply_with_plan(&mut clique, &IntRing, &alg, plan, &a, &b);
            clique.rounds()
        };
        let (rs, rf) = (run(&searched), run(&fixed));
        println!(
            "| {n} | {} | {rs} | {} | {rf} | {:.0}% |",
            searched.q(),
            fixed.q(),
            100.0 * (1.0 - rs as f64 / rf as f64)
        );
    }

    println!("\n## Ablation 2: router relay policy — two-choice vs single hash\n");
    println!("| n | load/node | two-choice rounds | single-hash rounds |");
    println!("|---|---|---|---|");
    for n in [32usize, 64, 128] {
        let per_node = 4 * n; // a routing instance with per-node load 4n
        let run = |policy: RelayPolicy| {
            let cfg = CliqueConfig {
                relay_policy: policy,
                ..CliqueConfig::default()
            };
            let mut clique = Clique::with_config(n, cfg);
            clique.route(|v| {
                (0..n)
                    .filter(|&u| u != v)
                    .map(|u| (u, vec![v as u64; per_node / (n - 1)]))
                    .collect()
            });
            clique.rounds()
        };
        println!(
            "| {n} | {per_node} | {} | {} |",
            run(RelayPolicy::TwoChoice),
            run(RelayPolicy::SingleHash)
        );
    }

    println!("\n## Ablation 3: balanced routing vs direct links (3D scatter shape)\n");
    println!("Pattern: every node sends n^(2/3) words to each of n^(1/3) specific peers.");
    println!("| n | routed rounds | direct rounds | speedup |");
    println!("|---|---|---|---|");
    for n in [64usize, 216, 512] {
        let p = (1..).find(|p: &usize| (p + 1).pow(3) > n).expect("p");
        let chunk = n / p; // ~n^{2/3} words per recipient
        let recipients = p; // ~n^{1/3} recipients
        let pattern = |v: usize| -> Vec<(usize, Vec<u64>)> {
            (1..=recipients)
                .map(|k| ((v + k * 7) % n, vec![0u64; chunk]))
                .collect()
        };
        let mut routed = Clique::new(n);
        routed.route(pattern);
        let mut direct = Clique::new(n);
        direct.exchange(pattern);
        println!(
            "| {n} | {} | {} | {:.1}x |",
            routed.rounds(),
            direct.rounds(),
            direct.rounds() as f64 / routed.rounds() as f64
        );
    }
    println!("\nDirect links pay the full per-pair queue (n^(2/3)); balanced routing");
    println!("spreads it to ~max(out,in)/n, which is what makes Theorem 1 possible.");
}
