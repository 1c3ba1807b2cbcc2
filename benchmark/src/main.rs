//! `cc-benchmark`: the repo's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! cc-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]   one pass
//! cc-benchmark [--seed N] [--seconds S] [--out FILE]                    the whole suite
//! cc-benchmark compare A.json B.json                                    apply the bounds
//! cc-benchmark manifest                                                 print BENCHMARK.json
//! ```

mod compare;
mod harness;
mod json;
mod pass;
mod probes;
mod spec;
mod stats;
mod suite;
mod trace;
mod workloads;

use json::Value;
use std::process::ExitCode;

/// Seconds one run measures when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;

/// Removes every `CC_*` variable from this process's environment (worker
/// processes inherit it) and returns the names removed. The stack reads a
/// dozen such knobs lazily; the benchmark's configuration is explicit, and
/// a stray `CC_KERNEL=naive` in the caller's shell must not change what is
/// measured.
fn scrub_environment() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("CC_"))
        .collect();
    for name in &names {
        // Single-threaded here: this runs first thing in `main`.
        std::env::remove_var(name);
    }
    names
}

struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<String>,
    kernels: Vec<(String, usize)>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        out: None,
        kernels: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: bad value {value:?}");
        match flag.as_str() {
            "--workload" => flags.workload = Some(value.clone()),
            "--seed" => flags.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                flags.seconds = value.parse().map_err(|_| bad())?;
                if !(flags.seconds > 0.0 && flags.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                flags.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => flags.out = Some(value.clone()),
            "--kernel" => {
                let (op, n) = value.split_once(':').ok_or_else(bad)?;
                flags
                    .kernels
                    .push((op.to_string(), n.parse().map_err(|_| bad())?));
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(flags)
}

/// `BENCHMARK.json`, from the tables in `spec.rs`.
fn manifest() -> Value {
    let s = Value::str;
    Value::obj([
        (
            "command",
            Value::Arr(vec![s("bash"), s("benchmark/run.sh")]),
        ),
        ("paths", Value::Arr(vec![s("benchmark")])),
        ("run_seconds", Value::Num(DEFAULT_SECONDS)),
        (
            "workloads",
            Value::Arr(
                spec::WORKLOADS
                    .iter()
                    .map(|w| Value::obj([("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                spec::END_TO_END
                    .iter()
                    .map(spec::EndToEndSpec::to_json)
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                spec::PER_LAYER
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn run(args: &[String], scrubbed: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("compare") => match args {
            [_, a, b] => compare::run(a, b),
            _ => Err("usage: cc-benchmark compare A.json B.json".into()),
        },
        Some("manifest") => {
            print!("{}", manifest().to_pretty());
            Ok(true)
        }
        Some("probe") => {
            let flags = parse_flags(&args[1..])?;
            let name = flags.workload.ok_or("probe needs --workload")?;
            let spec = spec::workload(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
            pass::run_probe(spec.name, flags.seed, flags.seconds, &flags.kernels);
            Ok(true)
        }
        _ => {
            let flags = parse_flags(args)?;
            match &flags.workload {
                Some(name) => {
                    let workload =
                        spec::workload(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
                    let pass = pass::PassArgs {
                        workload,
                        seed: flags.seed,
                        seconds: flags.seconds,
                        traced: flags.traced,
                    };
                    // A pass that ran reports its failures in the result
                    // line; the exit code stays 0 so the line is read.
                    pass::run(&pass, scrubbed);
                    Ok(true)
                }
                None => suite::run(flags.seed, flags.seconds, flags.out.as_deref(), scrubbed),
            }
        }
    }
}

fn main() -> ExitCode {
    let scrubbed = scrub_environment();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args, &scrubbed) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("cc-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let f = parse_flags(&args(
            "--workload tri-inmem --seed 7 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!(f.workload.as_deref(), Some("tri-inmem"));
        assert_eq!((f.seed, f.seconds, f.traced), (7, 2.5, true));
        let f = parse_flags(&args("--kernel mul_i64:32 --kernel mul_bool:16")).unwrap();
        assert_eq!(
            f.kernels,
            [("mul_i64".to_string(), 32), ("mul_bool".to_string(), 16)]
        );
        for bad in [
            "--seed x",
            "--trace 2",
            "--seconds 0",
            "--seconds -1",
            "--bogus 1",
            "--seed",
        ] {
            assert!(parse_flags(&args(bad)).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn manifest_is_the_committed_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(json::parse(&committed).unwrap(), manifest());
        assert!(committed.len() <= 64 * 1024);
    }
}
