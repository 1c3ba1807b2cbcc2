//! Kernel-comparison bench for the node-local multiply layer
//! (`CC_KERNEL`): naive schoolbook vs. cache-blocked i-k-j tiles vs.
//! Strassen-routed integer products, and the Boolean `i64`-lift path vs.
//! naive/blocked/bit-packed Boolean kernels, at `n ∈ {64, 256, 512}`.
//!
//! Two invariants are asserted before anything is exported:
//!
//! * every kernel's answer is identical per size (the bit-identity
//!   contract of `Semiring::mul_dense`);
//! * a real clique workload (Seidel APSP + a Boolean product chain) run
//!   under each `CC_KERNEL` value produces identical results, rounds,
//!   words, and pattern fingerprints — only `*_ns` may move.
//!
//! Results are printed per benchmark and exported to `BENCH_kernel.json`
//! at the workspace root, which `cc-report` splices into
//! `BENCH_telemetry.json`. The acceptance signal: `bool/bitset` beats
//! `bool/i64_lift` on median at `n ≥ 256` (64 inner-product lanes per word
//! against a full integer multiply plus threshold pass).

use cc_algebra::kernel::{self, Kernel};
use cc_algebra::{BoolSemiring, Dist, IntRing, Matrix};
use cc_apsp::apsp_seidel;
use cc_clique::{Clique, CliqueConfig, ExecutorKind};
use cc_core::{boolean, FastPlan, RowMatrix};
use cc_graph::generators;
use criterion::{criterion_group, BenchmarkId, Criterion};

const SIZES: [usize; 3] = [64, 256, 512];
const INT_KERNELS: [&str; 3] = ["naive", "blocked", "strassen"];
const BOOL_KERNELS: [&str; 4] = ["i64_lift", "naive", "blocked", "bitset"];

fn rand_int(n: usize, seed: u64) -> Matrix<i64> {
    let mut st = seed;
    Matrix::from_fn(n, n, |_, _| {
        st = st
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((st >> 33) % 19) as i64 - 9
    })
}

fn rand_bool(n: usize, seed: u64) -> Matrix<bool> {
    rand_int(n, seed).map(|&x| x > 0)
}

fn mul_int(label: &str, a: &Matrix<i64>, b: &Matrix<i64>, tile: usize) -> Matrix<i64> {
    match label {
        "naive" => Matrix::mul(&IntRing, a, b),
        "blocked" => kernel::mul_i64_blocked(a, b, tile),
        "strassen" => kernel::mul_i64_strassen(a, b, tile),
        _ => unreachable!("unknown int kernel {label}"),
    }
}

/// The Boolean local paths under comparison. `i64_lift` is the seed-era
/// shape — lift to integers, full schoolbook product, threshold pass —
/// that the bit-packed kernel replaces for Boolean-only consumers.
fn mul_bool(label: &str, a: &Matrix<bool>, b: &Matrix<bool>, tile: usize) -> Matrix<bool> {
    match label {
        "i64_lift" => {
            let ia = a.map(|&x| i64::from(x));
            let ib = b.map(|&x| i64::from(x));
            Matrix::mul(&IntRing, &ia, &ib).map(|&x| x != 0)
        }
        "naive" => Matrix::mul(&BoolSemiring, a, b),
        "blocked" => kernel::mul_bool_blocked(a, b, tile),
        "bitset" => kernel::mul_bool_bitset(a, b),
        _ => unreachable!("unknown bool kernel {label}"),
    }
}

fn bench_kernels(c: &mut Criterion) {
    let tile = kernel::tile();
    let mut group = c.benchmark_group("int");
    group.sample_size(10);
    for n in SIZES {
        let a = rand_int(n, 1);
        let b = rand_int(n, 2);
        let reference = mul_int("naive", &a, &b, tile);
        for label in INT_KERNELS {
            assert_eq!(
                mul_int(label, &a, &b, tile),
                reference,
                "int kernel {label} diverged at n={n}"
            );
            group.bench_with_input(BenchmarkId::new(label, n), &n, |bench, _| {
                bench.iter(|| mul_int(label, &a, &b, tile));
            });
        }
    }
    group.finish();

    let mut group = c.benchmark_group("bool");
    group.sample_size(10);
    for n in SIZES {
        let a = rand_bool(n, 3);
        let b = rand_bool(n, 4);
        let reference = mul_bool("naive", &a, &b, tile);
        for label in BOOL_KERNELS {
            assert_eq!(
                mul_bool(label, &a, &b, tile),
                reference,
                "bool kernel {label} diverged at n={n}"
            );
            group.bench_with_input(BenchmarkId::new(label, n), &n, |bench, _| {
                bench.iter(|| mul_bool(label, &a, &b, tile));
            });
        }
    }
    group.finish();
}

/// Runs a real clique workload — Seidel APSP plus a Boolean product chain —
/// under one forced kernel, returning everything an observer can see.
fn clique_observation(k: Kernel, n: usize) -> (Matrix<Dist>, Matrix<bool>, u64, u64, Vec<u64>) {
    let _guard = kernel::scoped(k);
    let g = generators::gnp(n, 0.3, 17);
    let adj = RowMatrix::from_matrix(&g.adjacency_matrix().map(|&x| x != 0));
    let alg = FastPlan::best_strassen(n);
    let mut clique = Clique::with_config(
        n,
        CliqueConfig {
            record_patterns: true,
            executor: ExecutorKind::Sequential,
            ..CliqueConfig::default()
        },
    );
    let dist = apsp_seidel(&mut clique, &g).to_matrix();
    let product = boolean::multiply_or(&mut clique, &alg, &adj, &adj, &adj).to_matrix();
    (
        dist,
        product,
        clique.rounds(),
        clique.stats().words(),
        clique.stats().pattern_fingerprints().to_vec(),
    )
}

/// Asserts the bit-identity contract end to end: identical results, rounds,
/// words, and fingerprints across every `CC_KERNEL` value on a real clique
/// workload. Returns the (shared) rounds/words for the export.
fn assert_cross_kernel_identity() -> (u64, u64) {
    let n = 24;
    let reference = clique_observation(Kernel::Naive, n);
    for k in [Kernel::Blocked, Kernel::Bitset] {
        let got = clique_observation(k, n);
        assert_eq!(reference, got, "kernel {k:?} is not observer-equivalent");
    }
    (reference.2, reference.3)
}

criterion_group!(benches_unused, bench_kernels);

fn main() {
    // Hand-rolled entry instead of `criterion_main!` so the shim's recorded
    // measurements can be exported (same scheme as runtime_scaling).
    let _ = benches_unused;
    let (rounds, words) = assert_cross_kernel_identity();
    let mut criterion = Criterion::default();
    bench_kernels(&mut criterion);
    export_json(criterion.take_measurements(), rounds, words);
}

/// Writes `BENCH_kernel.json` at the workspace root from the measurements
/// the criterion shim recorded (ids look like `bool/bitset/256`).
fn export_json(measurements: Vec<criterion::Measurement>, rounds: u64, words: u64) {
    use std::fmt::Write as _;

    let host_threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut records = String::new();
    for (bench, labels) in [("int", &INT_KERNELS[..]), ("bool", &BOOL_KERNELS[..])] {
        for n in SIZES {
            for label in labels {
                let id = format!("{label}/{n}");
                let m = measurements
                    .iter()
                    .find(|m| m.group == bench && m.id == id)
                    .unwrap_or_else(|| panic!("no measurement recorded for {bench}/{id}"));
                if !records.is_empty() {
                    records.push_str(",\n");
                }
                let _ = write!(
                    records,
                    "    {{\"bench\": \"{bench}\", \"n\": {n}, \"kernel\": \"{label}\", \
                     \"min_ns\": {:.0}, \"median_ns\": {:.0}, \"mean_ns\": {:.0}}}",
                    m.min_ns(),
                    m.median_ns(),
                    m.mean_ns(),
                );
            }
        }
    }
    let json = format!(
        "{{\n  \"host_available_parallelism\": {host_threads},\n  \"tile\": {tile},\n  \
         \"cross_kernel\": {{\"identical\": true, \"rounds\": {rounds}, \"words\": {words}}},\n  \
         \"note\": \"node-local multiply kernels (CC_KERNEL); answers asserted identical across \
         kernels and a clique workload asserted observer-equivalent (results/rounds/words/\
         fingerprints) before export. bool/i64_lift is the seed-era lift+threshold path the \
         bit-packed kernel replaces.\",\n  \"results\": [\n{records}\n  ]\n}}\n",
        tile = kernel::tile(),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernel.json");
    std::fs::write(path, &json).expect("write BENCH_kernel.json");
    println!("wrote {path}");
}
