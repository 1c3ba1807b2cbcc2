//! Regenerates the paper's **Table 1**: measured round counts and fitted
//! exponents for every problem row, ours vs. prior work, on the simulator.
//!
//! Usage: `cargo run --release -p cc-bench --bin table1`
//! (set `CC_BENCH_QUICK=1` for a reduced sweep).
//!
//! Absolute round counts are implementation constants; the reproduction
//! claims are the *fitted exponents* and the ours-vs-baseline orderings.
//! With Strassen (σ = log₂ 7) the ring-multiplication exponent target is
//! `1 − 2/σ ≈ 0.288` instead of the paper's `0.158`, which needs Le Gall's
//! ω < 2.3729: that bound proves an algorithm exists without giving a
//! tensor small enough to execute, so Strassen is what the simulator runs.

use cc_algebra::Matrix;
use cc_bench::{sweep, table_header, TableRow};
use cc_clique::Clique;
use cc_core::{fast_mm, semiring_mm, RowMatrix};
use cc_graph::generators;
use cc_subgraph::GirthConfig;

fn quick() -> bool {
    std::env::var("CC_BENCH_QUICK").is_ok_and(|v| v == "1")
}

fn rand_matrix(n: usize, seed: u64) -> Matrix<i64> {
    let mut st = seed;
    Matrix::from_fn(n, n, |_, _| {
        st = st
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((st >> 33) % 9) as i64 - 4
    })
}

fn mm_rows(out: &mut Vec<TableRow>) {
    let sizes: &[usize] = if quick() {
        &[27, 64, 125]
    } else {
        &[27, 64, 125, 216, 343, 512]
    };

    let semiring = sweep(sizes, |n| {
        let (a, b) = (rand_matrix(n, 1), rand_matrix(n, 2));
        let mut clique = Clique::new(n);
        semiring_mm::multiply(
            &mut clique,
            &cc_algebra::IntRing,
            &RowMatrix::from_matrix(&a),
            &RowMatrix::from_matrix(&b),
        );
        clique.rounds()
    });
    let naive = sweep(
        if quick() {
            &[27, 64]
        } else {
            &[27, 64, 125, 216]
        },
        |n| {
            let (a, b) = (rand_matrix(n, 1), rand_matrix(n, 2));
            let mut clique = Clique::new(n);
            cc_baselines::naive::row_gather_mm(
                &mut clique,
                &RowMatrix::from_matrix(&a),
                &RowMatrix::from_matrix(&b),
            );
            clique.rounds()
        },
    );
    out.push(TableRow {
        problem: "matrix multiplication (semiring)".into(),
        paper_bound: "O(n^{1/3})".into(),
        ours: semiring,
        prior_bound: "row-gather naive Θ(n)".into(),
        baseline: naive,
    });

    let ring = sweep(sizes, |n| {
        let (a, b) = (rand_matrix(n, 3), rand_matrix(n, 4));
        let mut clique = Clique::new(n);
        fast_mm::multiply_auto(
            &mut clique,
            &cc_algebra::IntRing,
            &RowMatrix::from_matrix(&a),
            &RowMatrix::from_matrix(&b),
        );
        clique.rounds()
    });
    out.push(TableRow {
        problem: "matrix multiplication (ring)".into(),
        paper_bound: "O(n^{0.158}) [ω]; O(n^{0.288}) w/ Strassen".into(),
        ours: ring,
        prior_bound: "O(n^{0.373}) Drucker et al. (analytic)".into(),
        baseline: vec![],
    });
}

fn triangle_rows(out: &mut Vec<TableRow>) {
    let sizes: &[usize] = if quick() {
        &[27, 64]
    } else {
        &[27, 64, 125, 216, 343]
    };
    let ours = sweep(sizes, |n| {
        let g = generators::gnp(n, 0.3, 11);
        let mut clique = Clique::new(n);
        cc_subgraph::count_triangles(&mut clique, &g);
        clique.rounds()
    });
    let dolev = sweep(sizes, |n| {
        let g = generators::gnp(n, 0.3, 11);
        let mut clique = Clique::new(n);
        cc_baselines::dolev::triangle_count(&mut clique, &g);
        clique.rounds()
    });
    out.push(TableRow {
        problem: "triangle counting".into(),
        paper_bound: "O(n^ρ)".into(),
        ours,
        prior_bound: "O(n^{1/3}) Dolev et al.".into(),
        baseline: dolev,
    });
}

fn four_cycle_rows(out: &mut Vec<TableRow>) {
    let det_sizes: &[usize] = if quick() {
        &[16, 81]
    } else {
        &[16, 81, 256, 512]
    };
    let ours = sweep(det_sizes, |n| {
        let g = generators::gnp(n, 1.5 / n as f64, 5);
        let mut clique = Clique::new(n);
        cc_subgraph::detect_4cycle(&mut clique, &g);
        clique.rounds()
    });
    let dolev_sizes: &[usize] = if quick() { &[16, 81] } else { &[16, 81, 256] };
    let dolev = sweep(dolev_sizes, |n| {
        let g = generators::gnp(n, 1.5 / n as f64, 5);
        let mut clique = Clique::new(n);
        cc_baselines::dolev::kcycle_detect(&mut clique, &g, 4);
        clique.rounds()
    });
    out.push(TableRow {
        problem: "4-cycle detection".into(),
        paper_bound: "O(1) (Theorem 4)".into(),
        ours,
        prior_bound: "O(n^{1/2}) Dolev et al.".into(),
        baseline: dolev,
    });

    let cnt_sizes: &[usize] = if quick() {
        &[27, 64]
    } else {
        &[27, 64, 125, 216, 343]
    };
    let counting = sweep(cnt_sizes, |n| {
        let g = generators::gnp(n, 0.2, 7);
        let mut clique = Clique::new(n);
        cc_subgraph::count_4cycles(&mut clique, &g);
        clique.rounds()
    });
    out.push(TableRow {
        problem: "4-cycle counting".into(),
        paper_bound: "O(n^ρ)".into(),
        ours: counting,
        prior_bound: "O(n^{1/2}) Dolev et al.".into(),
        baseline: vec![],
    });
}

fn kcycle_rows(out: &mut Vec<TableRow>) {
    // One colour-coding trial (the communication pattern is oblivious, so
    // per-trial rounds are colouring independent); w.h.p. detection costs
    // e^k·ln n trials on top, as the paper states.
    let sizes: &[usize] = if quick() { &[16, 27] } else { &[16, 27, 64] };
    let ours = sweep(sizes, |n| {
        let g = generators::planted_cycle(n, 5, 0.05, 3);
        let colours: Vec<usize> = (0..n).map(|v| v % 5).collect();
        let mut clique = Clique::new(n);
        cc_subgraph::detect_colourful_cycle(&mut clique, &g, &colours, 5);
        clique.rounds()
    });
    let dolev_sizes: &[usize] = if quick() { &[32, 64] } else { &[32, 64, 243] };
    let dolev = sweep(dolev_sizes, |n| {
        let g = generators::planted_cycle(n, 5, 0.02, 3);
        let mut clique = Clique::new(n);
        cc_baselines::dolev::kcycle_detect(&mut clique, &g, 5);
        clique.rounds()
    });
    out.push(TableRow {
        problem: "k-cycle detection (k=5, per colouring)".into(),
        paper_bound: "2^{O(k)} n^ρ log n".into(),
        ours,
        prior_bound: "O(n^{1-2/k}) Dolev et al.".into(),
        baseline: dolev,
    });
}

fn girth_rows(out: &mut Vec<TableRow>) {
    let sizes: &[usize] = if quick() {
        &[27, 64]
    } else {
        &[27, 64, 125, 216]
    };
    let ours = sweep(sizes, |n| {
        // Dense graphs take the matrix-multiplication path.
        let g = generators::gnp(n, 0.5, 13);
        let mut clique = Clique::new(n);
        cc_subgraph::girth(&mut clique, &g, GirthConfig::default());
        clique.rounds()
    });
    out.push(TableRow {
        problem: "girth (dense instances)".into(),
        paper_bound: "Õ(n^ρ)".into(),
        ours,
        prior_bound: "— (first non-trivial algorithm)".into(),
        baseline: vec![],
    });
}

fn apsp_rows(out: &mut Vec<TableRow>) {
    let sizes: &[usize] = if quick() {
        &[16, 27]
    } else {
        &[16, 27, 64, 125]
    };
    let exact = sweep(sizes, |n| {
        let g = generators::weighted_gnp(n, 0.25, 9, true, 17);
        let mut clique = Clique::new(n);
        cc_apsp::apsp_exact(&mut clique, &g);
        clique.rounds()
    });
    let bf_sizes: &[usize] = if quick() { &[16, 27] } else { &[16, 27, 64] };
    let bf = sweep(bf_sizes, |n| {
        let g = generators::weighted_gnp(n, 0.25, 9, true, 17);
        let mut clique = Clique::new(n);
        cc_baselines::naive::bellman_ford_apsp(&mut clique, &g);
        clique.rounds()
    });
    out.push(TableRow {
        problem: "weighted directed APSP (exact)".into(),
        paper_bound: "O(n^{1/3} log n)".into(),
        ours: exact,
        prior_bound: "distributed Bellman-Ford Θ(n·D)".into(),
        baseline: bf,
    });

    // Weighted-diameter row: rounds vs the cap U at fixed n.
    let u_sweep: &[usize] = if quick() { &[2, 8] } else { &[2, 4, 8, 16] };
    let diameter = sweep(u_sweep, |u| {
        let n = 27;
        let g = generators::weighted_gnp(n, 0.5, 2, true, 23);
        let mut clique = Clique::new(n);
        cc_apsp::apsp_small_weights(&mut clique, &g, Some(u as i64));
        clique.rounds()
    });
    out.push(TableRow {
        problem: "APSP, weighted diameter U (n=27; sweep over U)".into(),
        paper_bound: "O(U·n^ρ): linear in U".into(),
        ours: diameter,
        prior_bound: "—".into(),
        baseline: vec![],
    });

    let approx_sizes: &[usize] = if quick() { &[16] } else { &[16, 27, 64] };
    let approx = sweep(approx_sizes, |n| {
        let g = generators::weighted_gnp(n, 0.3, 10, true, 29);
        let mut clique = Clique::new(n);
        cc_apsp::apsp_approx(&mut clique, &g, 0.5);
        clique.rounds()
    });
    out.push(TableRow {
        problem: "(1+o(1))-approx APSP (δ=0.5)".into(),
        paper_bound: "O(n^{ρ+o(1)})".into(),
        ours: approx,
        prior_bound: "Õ(n^{1/2}) (2+o(1))-approx, Nanongkai (analytic)".into(),
        baseline: vec![],
    });

    let seidel_sizes: &[usize] = if quick() {
        &[16, 27]
    } else {
        &[16, 27, 64, 125, 216, 343]
    };
    let seidel = sweep(seidel_sizes, |n| {
        let g = generators::gnp(n, 0.15, 31);
        let mut clique = Clique::new(n);
        cc_apsp::apsp_seidel(&mut clique, &g);
        clique.rounds()
    });
    out.push(TableRow {
        problem: "unweighted undirected APSP (Seidel)".into(),
        paper_bound: "Õ(n^ρ)".into(),
        ours: seidel,
        prior_bound: "Õ(n^{1/2}) (2+o(1))-approx, Nanongkai (analytic)".into(),
        baseline: vec![],
    });
}

fn main() {
    let mut rows = Vec::new();
    eprintln!("# regenerating Table 1 (quick={}) ...", quick());
    eprintln!("# matrix multiplication rows");
    mm_rows(&mut rows);
    eprintln!("# triangle row");
    triangle_rows(&mut rows);
    eprintln!("# 4-cycle rows");
    four_cycle_rows(&mut rows);
    eprintln!("# k-cycle row");
    kcycle_rows(&mut rows);
    eprintln!("# girth row");
    girth_rows(&mut rows);
    eprintln!("# APSP rows");
    apsp_rows(&mut rows);

    println!("## Table 1 (regenerated)\n");
    println!("{}", table_header());
    for row in &rows {
        println!("{}", row.to_markdown());
    }
    println!();
    println!("Notes: ρ ≈ 0.288 here (Strassen, σ = log₂7); the paper's 0.158 requires ω < 2.373.");
    println!(
        "Round counts are executed simulator rounds; exponents are log-log least-squares fits."
    );
}
