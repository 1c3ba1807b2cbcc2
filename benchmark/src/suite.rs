//! The whole benchmark in one go: every workload's untraced pass, then its
//! traced pass, each in a process of its own (so peak RSS and the
//! process-global telemetry install are clean), merged into one result
//! document.

use crate::harness::loadavg;
use crate::json::{self, Value};
use crate::pass::{metric, own_spread};
use crate::spec::{EndToEndSpec, END_TO_END, PER_LAYER, WORKLOADS};
use std::process::{Command, Stdio};

pub const SCHEMA: &str = "cc-benchmark/1";

/// First line of `program args…`'s output, or `unknown` — a checkout
/// without git metadata still runs.
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// One pass in a child process: its `detail` document and its result line.
fn run_pass(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<(Value, Value), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable path: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{workload}: pass did not start: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix("detail "))
        .ok_or_else(|| {
            format!(
                "{workload}: pass printed no detail line ({})",
                output.status
            )
        })?;
    let result = stdout.lines().last().unwrap_or_default();
    Ok((json::parse(detail)?, json::parse(result)?))
}

fn metric_value(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Runs every workload (both passes), prints every metric by name with its
/// unit, optionally writes the result document to `out`. Returns whether
/// every operation of every workload was correct.
pub fn run(
    seed: u64,
    seconds: f64,
    out: Option<&str>,
    scrubbed_env: &[String],
) -> Result<bool, String> {
    let loadavg_start = loadavg();
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for w in WORKLOADS {
        eprintln!(
            "cc-benchmark: {} (untraced {seconds}s, then traced)",
            w.name
        );
        let (detail, result) = run_pass(w.name, seed, seconds, false)?;
        let (traced_detail, traced_result) = run_pass(w.name, seed, seconds, true)?;

        let count = |r: &Value, key: &str| r.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN);
        let (attempted, failed) = (count(&result, "attempted"), count(&result, "failed"));
        let traced_failed = count(&traced_result, "failed");
        all_correct &= failed == 0.0 && traced_failed == 0.0;

        println!(
            "\n== {}  ({} operations, {} failed; traced pass {} failed)",
            w.name, attempted, failed, traced_failed
        );
        let mut end_to_end = Vec::new();
        for m in END_TO_END {
            let value = metric_value(&result, m.name).unwrap_or(f64::NAN);
            println!("{} {} {}", m.name, value, m.unit);
            end_to_end.push((
                m.name,
                Value::obj([
                    ("value", Value::Num(value)),
                    ("unit", Value::str(m.unit)),
                    ("own_spread", Value::Num(own_spread(m.name, &detail))),
                ]),
            ));
        }
        println!("fail_share {} ratio", failed / attempted);
        let mut per_layer = Vec::new();
        for m in PER_LAYER {
            let value = metric_value(&traced_result, m.name).unwrap_or(f64::NAN);
            println!("{} {} {}", m.name, value, m.unit);
            per_layer.push((m.name, metric(value, m.unit)));
        }
        workloads.push(Value::obj([
            ("name", Value::str(w.name)),
            ("params", Value::str(w.params)),
            ("why", Value::str(w.why)),
            ("attempted", Value::Num(attempted)),
            ("failed", Value::Num(failed)),
            ("traced_failed", Value::Num(traced_failed)),
            ("end_to_end", Value::obj(end_to_end)),
            ("per_layer", Value::obj(per_layer)),
            ("untraced_pass", detail),
            ("traced_pass", traced_detail),
        ]));
    }

    let doc = Value::obj([
        ("schema", Value::str(SCHEMA)),
        (
            "provenance",
            Value::obj([
                ("seed", Value::Num(seed as f64)),
                ("seconds", Value::Num(seconds)),
                (
                    "git_rev",
                    Value::str(tool_line("git", &["rev-parse", "HEAD"])),
                ),
                ("rustc", Value::str(tool_line("rustc", &["--version"]))),
                (
                    "available_parallelism",
                    Value::Num(std::thread::available_parallelism().map_or(0, |p| p.get()) as f64),
                ),
                ("loadavg_start", Value::Num(loadavg_start)),
                ("loadavg_end", Value::Num(loadavg())),
                (
                    "scrubbed_env",
                    Value::Arr(scrubbed_env.iter().map(Value::str).collect()),
                ),
            ]),
        ),
        (
            "end_to_end",
            Value::Arr(END_TO_END.iter().map(EndToEndSpec::to_json).collect()),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            (
                                "layer",
                                Value::str(m.name.split('.').next().unwrap_or(m.name)),
                            ),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.as_str())),
                            ("moves", Value::str(m.moves)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("workloads", Value::Arr(workloads)),
    ]);
    if let Some(path) = out {
        std::fs::write(path, doc.to_pretty()).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("cc-benchmark: wrote {path}");
    }
    Ok(all_correct)
}
