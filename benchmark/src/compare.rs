//! `cc-benchmark compare A.json B.json`: is B, measured against baseline A,
//! within every end-to-end bound on every workload?

use crate::json::{self, Value};
use crate::spec::{Better, EndToEndSpec, END_TO_END};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// A's own blocks disagree by more than the bound, so a difference of
    /// that size cannot be told from noise: neither "unchanged" nor "worse".
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a`, in the metric's bad
/// direction (negative = better).
fn worsening(spec: &EndToEndSpec, a: f64, b: f64) -> f64 {
    match spec.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

pub fn verdict(spec: &EndToEndSpec, a: f64, b: f64, a_own_spread: f64) -> Verdict {
    if a_own_spread > spec.bound {
        return Verdict::Unresolved;
    }
    let worse = worsening(spec, a, b);
    if worse > spec.bound && (b - a).abs() > spec.abs_slack {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn workloads(doc: &Value) -> &[Value] {
    doc.get("workloads").and_then(Value::as_arr).unwrap_or(&[])
}

fn num(v: &Value, path: &[&str]) -> Option<f64> {
    path.iter().try_fold(v, |v, key| v.get(key))?.as_f64()
}

/// Prints one row per (metric, workload); `Ok(true)` when nothing regressed
/// and the exact quantities (model costs, failures) agree.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut clean = true;
    println!(
        "{:<18} {:<12} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "bound"
    );
    for wa in workloads(&a) {
        let name = wa.get("name").and_then(Value::as_str).unwrap_or("?");
        let Some(wb) = workloads(&b)
            .iter()
            .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
        else {
            println!("{name:<18} missing from {path_b}");
            clean = false;
            continue;
        };
        for spec in END_TO_END {
            let (Some(va), Some(vb)) = (
                num(wa, &["end_to_end", spec.name, "value"]),
                num(wb, &["end_to_end", spec.name, "value"]),
            ) else {
                println!("{name:<18} {:<12} missing", spec.name);
                clean = false;
                continue;
            };
            let spread = num(wa, &["end_to_end", spec.name, "own_spread"]).unwrap_or(0.0);
            let v = verdict(spec, va, vb, spread);
            clean &= v != Verdict::Regressed;
            println!(
                "{name:<18} {:<12} {va:>14.4} {vb:>14.4} {:>+7.1}% {:>6.0}%  {}",
                spec.name,
                worsening(spec, va, vb) * 100.0,
                spec.bound * 100.0,
                v.as_str()
            );
        }
        // Bound 0: a change to the simulator may not move the model's costs,
        // and no operation may fail.
        let mut exact_row = |key: &str, va: Option<f64>, vb: Option<f64>, ok: bool| {
            clean &= ok;
            println!(
                "{name:<18} {key:<12} {:>14} {:>14} {:>8} {:>7}  {}",
                va.unwrap_or(f64::NAN),
                vb.unwrap_or(f64::NAN),
                "",
                "exact",
                if ok { "ok" } else { "regressed" }
            );
        };
        for key in ["model_rounds", "model_words"] {
            let (va, vb) = (
                num(wa, &["untraced_pass", key]),
                num(wb, &["untraced_pass", key]),
            );
            exact_row(key, va, vb, va.is_some() && va == vb);
        }
        let (fa, fb) = (num(wa, &["failed"]), num(wb, &["failed"]));
        exact_row("failed", fa, fb, fa == Some(0.0) && fb == Some(0.0));
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str) -> &'static EndToEndSpec {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn bounds_apply_in_the_metrics_bad_direction() {
        let p50 = spec("op_ms_p50"); // lower is better, 25 %
        assert_eq!(verdict(p50, 100.0, 124.0, 0.02), Verdict::Ok);
        assert_eq!(verdict(p50, 100.0, 126.0, 0.02), Verdict::Regressed);
        assert_eq!(
            verdict(p50, 100.0, 50.0, 0.02),
            Verdict::Ok,
            "faster is fine"
        );
        let rate = spec("ops_per_s"); // higher is better
        assert_eq!(verdict(rate, 100.0, 76.0, 0.02), Verdict::Ok);
        assert_eq!(verdict(rate, 100.0, 74.0, 0.02), Verdict::Regressed);
        assert_eq!(verdict(rate, 100.0, 150.0, 0.02), Verdict::Ok);
    }

    #[test]
    fn a_noisy_baseline_is_unresolved_not_unchanged() {
        let p50 = spec("op_ms_p50");
        assert_eq!(verdict(p50, 100.0, 100.0, 0.30), Verdict::Unresolved);
        assert_eq!(verdict(p50, 100.0, 140.0, 0.30), Verdict::Unresolved);
    }

    #[test]
    fn setup_needs_both_the_share_and_the_absolute_slack() {
        let setup = spec("setup_s");
        // +50 % but only 30 ms: scheduler noise on a short set-up.
        assert_eq!(verdict(setup, 0.060, 0.090, 0.05), Verdict::Ok);
        // +50 % and 0.5 s: work moved into set-up.
        assert_eq!(verdict(setup, 1.0, 1.5, 0.05), Verdict::Regressed);
        assert_eq!(verdict(setup, 1.0, 1.2, 0.05), Verdict::Ok);
    }
}
