//! One pass of one workload in its own process: untraced (the end-to-end
//! metrics) or traced (the per-layer metrics). Prints every metric as
//! `name value unit`, then a `detail` line for the suite, then the result
//! line the driver reads.

use crate::harness::{self, Window};
use crate::json::Value;
use crate::spec::{self, WorkloadSpec};
use crate::stats::{mad, median, quantile, P90_MIN_SAMPLES};
use crate::trace::{self, CountingSink};
use crate::workloads;
use congested_clique::algebra::{kernel, Kernel};
use congested_clique::telemetry::{self, Telemetry, TraceLevel};
use std::collections::BTreeMap;
use std::process::Command;
use std::sync::Arc;
use std::time::Duration;

pub struct PassArgs {
    pub workload: &'static WorkloadSpec,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

/// The traced window is half the untraced one; the probe process's short
/// untraced window is a quarter. Per-layer numbers are diagnostics, and the
/// traced run also has to fit the probes.
const TRACED_WINDOW_SHARE: f64 = 0.5;
/// Set-ups timed per untraced run: at least this many, and more (up to one
/// per block) until this many seconds have gone into them.
const MIN_SETUPS: usize = 3;
const SETUP_BUDGET_S: f64 = 3.0;
const PROBE_WINDOW_SHARE: f64 = 0.25;

/// The effective configuration, read back from the configs the workloads
/// are built with and from the stack's own accessors: what a reader needs
/// to know the caller's shell did not leak in.
pub fn knob_snapshot(workload: &str) -> Value {
    let debug = |v: &dyn std::fmt::Debug| Value::str(format!("{v:?}"));
    let fabric = workloads::fabric(workload);
    let clique = workloads::clique_config(fabric.unwrap_or_default());
    let service = workloads::service_config();
    Value::obj([
        ("executor", debug(&clique.executor)),
        ("exec_cutover", debug(&clique.exec_cutover)),
        (
            "transport",
            fabric.map_or(Value::str("none"), |kind| debug(&kind)),
        ),
        ("netsim", Value::str(clique.netsim.profile.name())),
        ("relay_policy", debug(&clique.relay_policy)),
        (
            "route_seed",
            Value::str(format!("{:#x}", clique.route_seed)),
        ),
        ("service", debug(&service.mode)),
        ("kernel", Value::str(Kernel::current().name())),
        ("tile", Value::Num(kernel::tile() as f64)),
        ("trace", Value::str(telemetry::global().level().name())),
    ])
}

pub fn metric(value: f64, unit: &str) -> Value {
    Value::obj([("value", Value::Num(value)), ("unit", Value::str(unit))])
}

fn nums(values: &[f64]) -> Value {
    Value::Arr(values.iter().map(|&v| Value::Num(v)).collect())
}

/// Runs the pass and prints its report; failed operations are counted in
/// the result line.
pub fn run(args: &PassArgs, scrubbed_env: &[String]) {
    let name = args.workload.name;
    let sink = args.traced.then(|| Arc::new(CountingSink::default()));
    // First install wins, so this must precede every call into the stack:
    // transports decide at build time whether to wrap themselves in the
    // tracing decorator.
    let handle = match &sink {
        Some(sink) => Telemetry::with_sink(TraceLevel::Full, sink.clone()),
        None => Telemetry::off(),
    };
    telemetry::install(handle).expect("telemetry is installed before the stack is touched");

    let loadavg_start = harness::loadavg();
    let mut instance = workloads::build(name, args.seed, false);
    harness::warm_up(instance.as_mut());
    if let Some(sink) = &sink {
        sink.reset();
    }
    // The untraced pass builds (and drops) one more instance ahead of a
    // block and times it: `setup_s` is the median of those set-ups. Every
    // block gets one while set-ups are cheap; expensive ones stop at three.
    let mut setups: Vec<f64> = Vec::new();
    let mut time_a_set_up = || {
        if setups.len() < MIN_SETUPS || setups.iter().sum::<f64>() < SETUP_BUDGET_S {
            setups.push(harness::timed_set_up(name, args.seed));
        }
    };
    let window = if args.traced {
        let window = Duration::from_secs_f64(args.seconds * TRACED_WINDOW_SHARE);
        harness::measure(instance.as_mut(), window, &mut || {})
    } else {
        let window = Duration::from_secs_f64(args.seconds);
        harness::measure(instance.as_mut(), window, &mut time_a_set_up)
    };

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    let harness_diag = harness_metrics(&window, loadavg_start);
    if let Some(sink) = &sink {
        let mut values = trace::layer_metrics(sink, &window);
        // The instance (and its worker processes) must be gone before the
        // probe process measures the same workload on the same two cores.
        drop(instance);
        let kernels: Vec<(String, usize)> = sink
            .kernel_calls()
            .keys()
            .map(|(op, n)| ((*op).to_string(), *n))
            .collect();
        let report = spawn_probe(args, &kernels);
        derive_from_probe(name, sink, &window, &report, &mut values);
        values.extend(harness_diag.clone());
        for m in spec::PER_LAYER {
            let value = *values
                .get(m.name)
                .unwrap_or_else(|| panic!("per-layer metric {} was not measured", m.name));
            metrics.push((m.name, value, m.unit));
        }
    } else {
        for m in spec::END_TO_END {
            let value = match m.name {
                "op_ms_p50" => window.op_ms_p50(),
                "ops_per_s" => window.ops_per_s(),
                "peak_rss_mb" => harness::peak_rss_mb(),
                "setup_s" => median(&setups),
                other => unreachable!("end-to-end metric {other} has no measurement"),
            };
            metrics.push((m.name, value, m.unit));
        }
    }

    println!(
        "# {name} seed={} trace={} window={:.1}s ops={} failed={}",
        args.seed,
        u8::from(args.traced),
        window.wall.as_secs_f64(),
        window.attempted,
        window.failed
    );
    for (metric_name, value, unit) in &metrics {
        println!("{metric_name} {value} {unit}");
    }
    if !args.traced {
        // The untraced run's own diagnostics: printed for the reader, kept
        // out of the result line (which carries the end-to-end metrics only).
        println!("# peak_rss_mb is the orchestrator process only; worker processes are excluded");
        for (diag_name, value) in &harness_diag {
            println!("# {diag_name} {value}");
        }
    }

    let detail = Value::obj([
        ("workload", Value::str(name)),
        ("params", Value::str(args.workload.params)),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        ("trace", Value::Num(f64::from(u8::from(args.traced)))),
        ("window_s", Value::Num(window.wall.as_secs_f64())),
        ("knobs", knob_snapshot(name)),
        (
            "scrubbed_env",
            Value::Arr(scrubbed_env.iter().map(Value::str).collect()),
        ),
        (
            "inputs",
            Value::Arr(
                workloads::input_fingerprints(name, args.seed)
                    .iter()
                    .map(|fp| Value::str(format!("{fp:016x}")))
                    .collect(),
            ),
        ),
        ("samples", Value::Num(window.spans_ms.len() as f64)),
        ("model_rounds", Value::Num(window.model.0 as f64)),
        ("model_words", Value::Num(window.model.1 as f64)),
        ("block_rates", nums(&window.block_rates)),
        ("block_p50_ms", nums(&window.block_p50_ms)),
        ("setups_s", nums(&setups)),
        (
            "harness",
            Value::obj(
                harness_diag
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::Num(*v))),
            ),
        ),
    ]);
    println!("detail {}", detail.to_line());

    let result = Value::obj([
        (
            "correct",
            Value::Bool(window.failed == 0 && window.attempted > 0),
        ),
        ("attempted", Value::Num(window.attempted as f64)),
        ("failed", Value::Num(window.failed as f64)),
        (
            "metrics",
            Value::obj(metrics.iter().map(|(n, v, u)| (*n, metric(*v, u)))),
        ),
    ]);
    println!("{}", result.to_line());
}

/// How steady the window was; never gated.
fn harness_metrics(w: &Window, loadavg_start: f64) -> BTreeMap<String, f64> {
    let ops = w.spans_ms.len();
    BTreeMap::from([
        ("harness.ops".to_string(), ops as f64),
        (
            "harness.op_ms_p90".to_string(),
            // 0 = too few samples for a p90 with ten samples beyond it.
            if ops >= P90_MIN_SAMPLES {
                quantile(&w.spans_ms, 0.9)
            } else {
                0.0
            },
        ),
        ("harness.op_ms_p50_all".to_string(), w.op_ms_p50_all()),
        ("harness.op_ms_mad".to_string(), mad(&w.spans_ms)),
        (
            "harness.block_rate_spread".to_string(),
            w.block_rate_spread(),
        ),
        (
            "harness.cpu_ms_per_op".to_string(),
            w.cpu_ms / ops.max(1) as f64,
        ),
        ("harness.loadavg_start".to_string(), loadavg_start),
        ("harness.loadavg_end".to_string(), harness::loadavg()),
    ])
}

/// Keys of the probe process's report that are not per-layer metrics: the
/// workload's untraced `op_ms_p50`, the same on the in-memory fabric, and
/// the price of one kernel call (`kernel_us.<op>:<n>`).
const BASE_UNTRACED: &str = "base.untraced_op_ms_p50";
const BASE_IN_MEMORY: &str = "base.inmemory_op_ms_p50";

fn kernel_key(op: &str, n: usize) -> String {
    format!("kernel_us.{op}:{n}")
}

/// Starts the probe process (this executable, telemetry off), waits for it
/// and parses the report it prints as its last line.
fn spawn_probe(args: &PassArgs, kernels: &[(String, usize)]) -> BTreeMap<String, f64> {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.arg("probe")
        .args(["--workload", args.workload.name])
        .args(["--seed", &args.seed.to_string()])
        .args([
            "--seconds",
            &(args.seconds * PROBE_WINDOW_SHARE).to_string(),
        ]);
    for (op, n) in kernels {
        cmd.args(["--kernel", &format!("{op}:{n}")]);
    }
    let output = cmd.output().expect("probe process starts");
    assert!(
        output.status.success(),
        "probe process failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .expect("probe process prints a report");
    crate::json::parse(line)
        .expect("probe report parses")
        .as_obj()
        .expect("probe report is an object")
        .iter()
        .map(|(k, v)| (k.clone(), v.as_f64().unwrap_or(f64::NAN)))
        .collect()
}

/// The probe process's side: a short untraced window of the workload (and
/// of its in-memory twin), the kernel price list, every probe — printed as
/// one flat JSON object.
pub fn run_probe(name: &str, seed: u64, seconds: f64, kernels: &[(String, usize)]) {
    telemetry::install(Telemetry::off())
        .expect("telemetry is installed before the stack is touched");
    let (untraced, in_memory) =
        crate::probes::untraced_base(name, seed, Duration::from_secs_f64(seconds));
    let mut report = crate::probes::probes(seed);
    report.insert(BASE_UNTRACED.into(), untraced);
    report.insert(BASE_IN_MEMORY.into(), in_memory);
    for (op, n) in kernels {
        report.insert(kernel_key(op, *n), crate::probes::kernel_us(op, *n));
    }
    let doc = Value::obj(report.into_iter().map(|(k, v)| (k, Value::Num(v))));
    println!("{}", doc.to_line());
}

/// The metrics that need both the traced window and the untraced base.
fn derive_from_probe(
    name: &str,
    sink: &CountingSink,
    w: &Window,
    report: &BTreeMap<String, f64>,
    values: &mut BTreeMap<String, f64>,
) {
    let ops = w.spans_ms.len().max(1) as f64;
    let base_ms = report[BASE_UNTRACED];

    // Kernel time per operation = calls x the untraced price of one call at
    // that size; its share of the untraced operation is the most any kernel
    // change can save on this workload.
    let kernel_us_per_op = sink
        .kernel_calls()
        .iter()
        .fold(0.0, |total, ((op, n), calls)| {
            total + *calls as f64 * report[&kernel_key(op, *n)]
        })
        / ops;
    values.insert(
        "algebra.kernel_share".into(),
        kernel_us_per_op / 1e3 / base_ms,
    );
    values.insert(
        "transport.wire_ms_per_op".into(),
        base_ms - report[BASE_IN_MEMORY],
    );
    values.insert("telemetry.overhead_ratio".into(), w.op_ms_p50() / base_ms);
    values.insert(
        "service.hit_us".into(),
        if name == "service-hot" {
            base_ms * 1e3 / workloads::HOT_QUERIES as f64
        } else {
            0.0
        },
    );
    // Everything else in the report is a probe, named as its metric.
    values.extend(report.iter().map(|(k, v)| (k.clone(), *v)));
}

/// How far each end-to-end metric is from being pinned down by its own run,
/// as a share of its value: the gap between the quietest block and the
/// runner-up (or the quartile range of the set-ups). `compare` calls a
/// difference it cannot tell from this `unresolved`.
pub fn own_spread(metric: &str, detail: &Value) -> f64 {
    let series = |key: &str| -> Vec<f64> {
        let mut values: Vec<f64> = detail
            .get(key)
            .and_then(Value::as_arr)
            .map(|a| a.iter().filter_map(Value::as_f64).collect())
            .unwrap_or_default();
        values.sort_by(f64::total_cmp);
        values
    };
    match metric {
        "op_ms_p50" => match series("block_p50_ms").as_slice() {
            [best, next, ..] => (next - best) / best,
            _ => 0.0,
        },
        "ops_per_s" => match series("block_rates").as_slice() {
            [.., next, best] => (best - next) / best,
            _ => 0.0,
        },
        "setup_s" => {
            let setups = series("setups_s");
            (quantile(&setups, 0.75) - quantile(&setups, 0.25)) / median(&setups)
        }
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_spread_is_the_gap_to_the_runner_up_block() {
        let detail = Value::obj([
            ("block_p50_ms", nums(&[49.7, 37.8, 58.3, 39.69, 53.2])),
            ("block_rates", nums(&[20.0, 25.0, 17.0, 24.0, 19.5])),
            ("setups_s", nums(&[1.0, 1.1, 1.2, 1.3, 5.0])),
        ]);
        assert!((own_spread("op_ms_p50", &detail) - 0.05).abs() < 1e-9);
        assert!((own_spread("ops_per_s", &detail) - 0.04).abs() < 1e-9);
        assert!((own_spread("setup_s", &detail) - 0.2 / 1.2).abs() < 1e-9);
        assert_eq!(own_spread("peak_rss_mb", &detail), 0.0);
    }
}
