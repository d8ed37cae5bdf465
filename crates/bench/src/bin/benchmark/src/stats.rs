//! Sample summaries and the one-line JSON result the driver reads.

use std::time::Duration;

/// Latency samples of one phase, in nanoseconds.
#[derive(Default, Clone)]
pub struct Samples {
    nanos: Vec<u64>,
    sorted: bool,
}

impl Samples {
    pub fn with_capacity(capacity: usize) -> Samples {
        Samples {
            nanos: Vec::with_capacity(capacity),
            sorted: true,
        }
    }

    pub fn record(&mut self, sample: Duration) {
        self.nanos
            .push(u64::try_from(sample.as_nanos()).unwrap_or(u64::MAX));
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.nanos.len()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.nanos.extend_from_slice(&other.nanos);
        self.sorted = false;
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.nanos.sort_unstable();
            self.sorted = true;
        }
    }

    /// The mean of the slowest `share` of the samples, in milliseconds.
    pub fn slowest_mean_ms(&mut self, share: f64) -> f64 {
        self.sort();
        let count =
            ((self.nanos.len() as f64 * share).ceil() as usize).clamp(1, self.nanos.len().max(1));
        let slowest = &self.nanos[self.nanos.len().saturating_sub(count)..];
        if slowest.is_empty() {
            return 0.0;
        }
        slowest.iter().map(|&ns| ns as f64).sum::<f64>() / slowest.len() as f64 / 1e6
    }

    /// The nearest-rank quantile `q` in nanoseconds (0 for an empty sample).
    pub fn quantile_ns(&mut self, q: f64) -> f64 {
        self.sort();
        quantile(&self.nanos, q) as f64
    }

    pub fn quantile_us(&mut self, q: f64) -> f64 {
        self.quantile_ns(q) / 1e3
    }

    pub fn quantile_ms(&mut self, q: f64) -> f64 {
        self.quantile_ns(q) / 1e6
    }

    /// The shape every timing is printed in: the median, the mean of the slowest
    /// tenth, p90/p95/p99, the highest percentile with at least ten samples beyond
    /// it, and the sample count.
    pub fn describe_ms(&mut self) -> String {
        let n = self.len();
        let mut text = format!(
            "p50 {:.4} ms, slowest tenth mean {:.4} ms, p90 {:.4} ms, p95 {:.4} ms, p99 {:.4} ms",
            self.quantile_ms(0.5),
            self.slowest_mean_ms(0.1),
            self.quantile_ms(0.9),
            self.quantile_ms(0.95),
            self.quantile_ms(0.99)
        );
        match supported_tail(n) {
            Some((label, q)) => text.push_str(&format!(
                ", {label} {:.4} ms (highest percentile with >= 10 samples beyond)",
                self.quantile_ms(q)
            )),
            None => text.push_str(", fewer than 20 samples: no percentile has 10 beyond it"),
        }
        text.push_str(&format!(", n={n}"));
        text
    }
}

/// Nearest-rank quantile of an ascending slice (0 when empty).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p50/p90/p99/p99.9/p99.99 that still has at least ten samples beyond
/// it in a sample of `n` — the tail a sample of that size can support.
pub fn supported_tail(n: usize) -> Option<(&'static str, f64)> {
    const LADDER: [(&str, f64); 5] = [
        ("p99.99", 0.9999),
        ("p99.9", 0.999),
        ("p99", 0.99),
        ("p90", 0.9),
        ("p50", 0.5),
    ];
    LADDER.into_iter().find(|(_, q)| {
        let rank = (q * n as f64).ceil() as usize;
        n >= rank + 10
    })
}

/// Median of a small set of floats (set-up repeats, probe repeats). NaN-free input.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in measurements"));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// What one run of one workload reports.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The driver's result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A float with all its digits (Rust's shortest round-trip form); JSON has no NaN or
/// infinity, so those become 0 — a probe that produced one has already been reported
/// as failed.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&sorted, 0.5), 50);
        assert_eq!(quantile(&sorted, 0.99), 99);
        assert_eq!(quantile(&sorted, 1.0), 100);
        assert_eq!(quantile(&sorted, 0.0), 1);
        assert_eq!(quantile(&[], 0.5), 0);
        assert_eq!(quantile(&[7], 0.99), 7);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20).unwrap().0, "p50");
        assert_eq!(supported_tail(100).unwrap().0, "p90");
        assert_eq!(supported_tail(999).unwrap().0, "p90");
        assert_eq!(supported_tail(1000).unwrap().0, "p99");
        assert_eq!(supported_tail(10_000).unwrap().0, "p99.9");
        assert_eq!(supported_tail(100_000).unwrap().0, "p99.99");
    }

    #[test]
    fn medians() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let result = RunResult {
            attempted: 10,
            failed: 0,
            metrics: vec![metric("setup_s", "s", 0.5), metric("x", "ms", 1.25)],
        };
        assert_eq!(
            result.to_json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"x\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
