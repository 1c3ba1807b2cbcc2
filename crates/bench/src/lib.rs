//! # cc-bench: experiment harness
//!
//! Utilities shared by the experiment binaries that regenerate the paper's
//! evaluation artifacts (Table 1 and Figures 1–3):
//!
//! * round-count measurement sweeps over clique sizes;
//! * log–log least-squares exponent fits (`rounds ≈ c·n^e`);
//! * markdown table rows with exponent fits, which `table1` prints.
//!
//! Binaries: `table1`, `figures`, `apsp_accuracy`, `lower_bounds`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// One measured point: clique size and executed rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Clique size `n`.
    pub n: usize,
    /// Rounds the algorithm executed.
    pub rounds: u64,
}

/// Result of a log–log least-squares fit `rounds ≈ c · n^e`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fit {
    /// The fitted exponent `e`.
    pub exponent: f64,
    /// The fitted constant `c`.
    pub constant: f64,
    /// Coefficient of determination of the fit in log space.
    pub r2: f64,
}

/// Fits `rounds ≈ c·n^e` through the samples by least squares in log space.
///
/// # Panics
///
/// Panics with fewer than two samples or any zero round count.
#[must_use]
pub fn fit_exponent(samples: &[Sample]) -> Fit {
    assert!(samples.len() >= 2, "need at least two samples to fit");
    let pts: Vec<(f64, f64)> = samples
        .iter()
        .map(|s| {
            assert!(s.rounds > 0, "zero rounds cannot be fitted in log space");
            ((s.n as f64).ln(), (s.rounds as f64).ln())
        })
        .collect();
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    let intercept = (sy - slope * sx) / n;
    let mean_y = sy / n;
    let ss_tot: f64 = pts.iter().map(|p| (p.1 - mean_y).powi(2)).sum();
    let ss_res: f64 = pts
        .iter()
        .map(|p| (p.1 - (slope * p.0 + intercept)).powi(2))
        .sum();
    let r2 = if ss_tot == 0.0 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    Fit {
        exponent: slope,
        constant: intercept.exp(),
        r2,
    }
}

/// Runs `algorithm` once per clique size and records executed rounds.
pub fn sweep(sizes: &[usize], mut algorithm: impl FnMut(usize) -> u64) -> Vec<Sample> {
    sizes
        .iter()
        .map(|&n| Sample {
            n,
            rounds: algorithm(n),
        })
        .collect()
}

/// Formats samples as `n=..:r..` pairs for compact table cells.
#[must_use]
pub fn samples_cell(samples: &[Sample]) -> String {
    samples
        .iter()
        .map(|s| format!("{}@{}", s.rounds, s.n))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Fewest samples a table row fits: a line through two points always has
/// `R² = 1`, so it says nothing about the exponent.
const MIN_FIT_POINTS: usize = 3;

/// The fit cell of a table row: the exponent and `R²` from three samples
/// on, `not fitted (k points)` below that, and `—` for a series with no
/// samples at all.
#[must_use]
fn fit_cell(samples: &[Sample]) -> String {
    match samples.len() {
        0 => "—".into(),
        k if k < MIN_FIT_POINTS => {
            format!("not fitted ({k} point{})", if k == 1 { "" } else { "s" })
        }
        _ => {
            let f = fit_exponent(samples);
            format!("n^{:.3} (R²={:.3})", f.exponent, f.r2)
        }
    }
}

/// A row of the regenerated Table 1.
#[derive(Debug, Clone)]
pub struct TableRow {
    /// Problem name (matching the paper's Table 1).
    pub problem: String,
    /// The paper's asymptotic claim for "this work".
    pub paper_bound: String,
    /// Measured samples for our implementation.
    pub ours: Vec<Sample>,
    /// Prior-work description.
    pub prior_bound: String,
    /// Measured samples for the implemented baseline (empty if the baseline
    /// is analytic only).
    pub baseline: Vec<Sample>,
}

impl TableRow {
    /// Renders the row as a markdown table line with exponent fits.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let base_cell = if self.baseline.is_empty() {
            "—".into()
        } else {
            samples_cell(&self.baseline)
        };
        format!(
            "| {} | {} | {} | {} | {} | {} | {} |",
            self.problem,
            self.paper_bound,
            samples_cell(&self.ours),
            fit_cell(&self.ours),
            self.prior_bound,
            base_cell,
            fit_cell(&self.baseline),
        )
    }
}

/// Markdown header matching [`TableRow::to_markdown`].
#[must_use]
pub fn table_header() -> String {
    [
        "| Problem | Paper bound (this work) | Ours: rounds@n | Ours: fit | Prior work | Baseline: rounds@n | Baseline: fit |",
        "|---|---|---|---|---|---|---|",
    ]
    .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponent_fit_recovers_power_laws() {
        let samples: Vec<Sample> = [8usize, 27, 64, 125, 216]
            .iter()
            .map(|&n| Sample {
                n,
                rounds: (3.0 * (n as f64).powf(1.0 / 3.0)).round() as u64,
            })
            .collect();
        let fit = fit_exponent(&samples);
        assert!(
            (fit.exponent - 1.0 / 3.0).abs() < 0.05,
            "exponent {}",
            fit.exponent
        );
        assert!(fit.r2 > 0.99);
    }

    #[test]
    fn exponent_fit_flat_series() {
        let samples: Vec<Sample> = [16usize, 64, 256]
            .iter()
            .map(|&n| Sample { n, rounds: 12 })
            .collect();
        let fit = fit_exponent(&samples);
        assert!(fit.exponent.abs() < 1e-9);
    }

    #[test]
    fn sweep_invokes_in_order() {
        let samples = sweep(&[2, 4, 8], |n| n as u64);
        assert_eq!(samples.len(), 3);
        assert_eq!(samples[2], Sample { n: 8, rounds: 8 });
    }

    #[test]
    fn markdown_row_renders() {
        let row = TableRow {
            problem: "demo".into(),
            paper_bound: "O(n^0.158)".into(),
            ours: vec![Sample { n: 8, rounds: 4 }, Sample { n: 64, rounds: 8 }],
            prior_bound: "O(n^1/3)".into(),
            baseline: vec![Sample { n: 8, rounds: 6 }],
        };
        let md = row.to_markdown();
        assert!(md.contains("demo"));
        assert!(md.contains("4@8"));
        assert!(md.starts_with('|') && md.ends_with('|'));
        // Rows below three points are not fitted.
        assert!(md.contains("| not fitted (2 points) |"), "{md}");
        assert!(md.contains("| not fitted (1 point) |"), "{md}");
        assert!(!md.contains("R²"), "two points always fit with R²=1: {md}");
        let three = [8, 27, 64].map(|n| Sample { n, rounds: 5 });
        assert!(fit_cell(&three).starts_with("n^"));
        assert_eq!(fit_cell(&[]), "—");
    }
}
