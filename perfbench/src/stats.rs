//! Quantiles, per-window rate recorders, correctness bookkeeping and the
//! metric list a workload hands back to `main`.

use std::fmt::Write as _;

/// Linear-interpolation quantile (`q` in `0..=1`) of unsorted samples; 0
/// for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The quantile of the window rates every host-rate metric reports.
///
/// A single elapsed time per path swings with the host's speed phases.
/// Many short windows, interleaved across a workload's paths, see the same
/// phases. On a shared 2-vCPU host their rates are bimodal: a fast mode
/// ~30-50 % above a slow one, in a share that drifts within a run and, for
/// minutes at a time, between runs. The median follows that share: over ten
/// seeds it spread 32-45 % between runs once three runs fell in a fast
/// phase. The 95th percentile tracks the fast mode, which shows up in
/// every run, and spread 5-13 % over five seeds.
pub const RATE_QUANTILE: f64 = 0.95;

/// Per-window rates of one path, in the order the windows ran.
#[derive(Debug, Clone, Default)]
pub struct Windows {
    rates: Vec<f64>,
}

impl Windows {
    /// Records one window: `items` done in `seconds` of wall time.
    pub fn push(&mut self, items: usize, seconds: f64) {
        self.rates.push(items as f64 / seconds.max(1e-9));
    }

    /// Number of windows recorded.
    pub fn count(&self) -> usize {
        self.rates.len()
    }

    /// The reported rate: the [`RATE_QUANTILE`] of the window rates.
    pub fn rate(&self) -> f64 {
        quantile(&self.rates, RATE_QUANTILE)
    }

    /// Inter-quartile range of the window rates as a share of their median.
    pub fn iqr_share(&self) -> f64 {
        let mid = median(&self.rates);
        if mid == 0.0 {
            return 0.0;
        }
        (quantile(&self.rates, 0.75) - quantile(&self.rates, 0.25)) / mid
    }
}

/// Counts checked operations and remembers the first failure.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations whose output was wrong or that failed outright.
    pub failed: u64,
    /// Description of the first failure, for the report.
    pub first_failure: Option<String>,
}

impl Checks {
    /// Records one checked operation; `what` describes it when `ok` is
    /// false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_failure.is_none() {
                self.first_failure = Some(what());
            }
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
    /// Whether the value is deterministic for a seed (modeled figures,
    /// accuracy, counts): the self-test requires these to repeat exactly.
    pub exact: bool,
}

/// Everything one workload run hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Correctness bookkeeping over every checked output.
    pub checks: Checks,
    /// Reported metrics, in print order: exactly the manifest's list for
    /// the run's mode.
    pub metrics: Vec<Metric>,
    /// Workload-specific figures beyond the manifest's list, printed in the
    /// record line.
    pub details: Vec<Metric>,
    /// Window statistics of every host-rate metric: (metric, windows).
    pub windows: Vec<(String, Windows)>,
    /// Human-readable report lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Adds a host-measured metric.
    pub fn host(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.push(name.into(), value, unit, false);
    }

    /// Adds a deterministic metric (repeats exactly for a seed).
    pub fn exact(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.push(name.into(), value, unit, true);
    }

    /// Adds a workload-specific figure to the record line.
    pub fn detail(&mut self, name: impl Into<String>, value: f64, unit: &'static str, exact: bool) {
        self.details.push(Metric {
            name: name.into(),
            value,
            unit,
            exact,
        });
    }

    /// Adds a host-rate detail from its windows (the [`RATE_QUANTILE`]
    /// rate) and keeps the windows for the steadiness record.
    pub fn rate_detail(&mut self, name: &str, windows: Windows, unit: &'static str) {
        self.detail(name, windows.rate(), unit, false);
        self.windows.push((name.to_string(), windows));
    }

    /// Adds a host-rate metric from its windows (the [`RATE_QUANTILE`]
    /// rate) and keeps the windows for the steadiness record.
    pub fn rate(&mut self, name: &str, windows: Windows, unit: &'static str) {
        self.host(name, windows.rate(), unit);
        self.windows.push((name.to_string(), windows));
    }

    fn push(&mut self, name: String, value: f64, unit: &'static str, exact: bool) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            exact,
        });
    }
}

/// Formats an `f64` as a JSON number with all its digits (non-finite
/// values, which JSON cannot carry, become `null`).
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        let mut text = format!("{value}");
        if !text.contains(['.', 'e', 'E']) {
            text.push_str(".0");
        }
        text
    } else {
        "null".to_string()
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_like_numpy() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(quantile(&values, 1.0), 4.0);
        assert_eq!(median(&values), 2.5);
        assert!((quantile(&values, 0.9) - 3.7).abs() < 1e-12);
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_number(1.0), "1.0");
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_string("a\"b"), "\"a\\\"b\"");
    }
}
