//! Timing summaries: a median, the highest percentile that still has at
//! least ten samples beyond it, and the sample count.
//!
//! Every percentile comes from the bench crate's nearest-rank
//! [`BenchResult::percentile_ns`]; this module only picks which
//! percentiles a sample count can honestly support.

use bandwall_experiments::perf::BenchResult;

/// Percentiles considered for the reported tail, highest first.
pub const TAIL_CANDIDATES: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Samples that must lie strictly above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The highest percentile in [`TAIL_CANDIDATES`] whose nearest-rank
/// value has at least [`MIN_BEYOND`] samples above it, or `None` when
/// `n` is too small for any of them.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| n >= nearest_rank(p, n) + MIN_BEYOND)
}

/// The 1-based nearest rank of percentile `p` among `n` samples, as
/// [`BenchResult::percentile_ns`] computes it.
pub fn nearest_rank(p: f64, n: usize) -> usize {
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// The nearest-rank median of non-negative `values` (rates, ratios),
/// through the same percentile as every timing; values are carried at a
/// resolution of one millionth of their unit. `None` for no values.
pub fn median_of(values: &[f64]) -> Option<f64> {
    Summary::of(values.iter().map(|v| (v * 1e6).round() as u64).collect())
        .map(|s| s.median_ns as f64 / 1e6)
}

/// One timing's report: median, supported tail, and count.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Nearest-rank median, in nanoseconds.
    pub median_ns: u64,
    /// The highest supported percentile and its value in nanoseconds.
    pub tail: Option<(f64, u64)>,
    /// The largest sample, in nanoseconds.
    pub max_ns: u64,
    result: BenchResult,
}

impl Summary {
    /// Summarizes raw nanosecond samples; `None` when there are none.
    pub fn of(samples_ns: Vec<u64>) -> Option<Summary> {
        if samples_ns.is_empty() {
            return None;
        }
        let n = samples_ns.len();
        let result = BenchResult::from_samples("timing", "", 1, 1, "samples", samples_ns);
        let tail = tail_percentile(n).map(|p| (p, result.percentile_ns(p)));
        Some(Summary {
            n,
            median_ns: result.median_ns(),
            tail,
            max_ns: result.percentile_ns(100.0),
            result,
        })
    }

    /// Any nearest-rank percentile of the samples, in nanoseconds.
    pub fn percentile_ns(&self, p: f64) -> u64 {
        self.result.percentile_ns(p)
    }

    /// A one-line description, with values scaled by `scale` (e.g.
    /// `1e-6` for milliseconds) and labelled `unit`.
    pub fn describe(&self, scale: f64, unit: &str) -> String {
        let v = |ns: u64| ns as f64 * scale;
        match self.tail {
            Some((p, ns)) => format!(
                "median {:.4} {unit}, p{p} {:.4} {unit}, n={}",
                v(self.median_ns),
                v(ns),
                self.n
            ),
            None => format!(
                "median {:.4} {unit}, max {:.4} {unit}, n={} (too few samples for a tail)",
                v(self.median_ns),
                v(self.max_ns),
                self.n
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_bench_crate() {
        for n in [1usize, 2, 5, 10, 11, 99, 100, 1000, 1234] {
            let samples: Vec<u64> = (1..=n as u64).collect();
            let result = BenchResult::from_samples("t", "", 1, 1, "x", samples);
            for p in [1.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
                assert_eq!(
                    result.percentile_ns(p),
                    nearest_rank(p, n) as u64,
                    "p{p} of 1..={n}"
                );
            }
        }
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p50 of 19 samples is rank 10 with 9 above it: not enough.
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        // p90 of 100 is rank 90 with exactly 10 above it.
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        // p99.9 of 10 010 is rank 10 000 with 10 above it.
        assert_eq!(tail_percentile(10_010), Some(99.9));
        for n in 0..5000 {
            if let Some(p) = tail_percentile(n) {
                assert!(n - nearest_rank(p, n) >= MIN_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn summary_reports_median_tail_and_count() {
        let s = Summary::of((1..=200).rev().collect()).expect("samples");
        assert_eq!(s.n, 200);
        assert_eq!(s.median_ns, 100);
        assert_eq!(s.tail, Some((90.0, 180)));
        assert_eq!(s.max_ns, 200);
        assert!(Summary::of(Vec::new()).is_none());
    }

    #[test]
    fn median_of_rates_uses_the_lower_middle() {
        assert_eq!(median_of(&[]), None);
        assert_eq!(median_of(&[9.5, 1.25]), Some(1.25));
        assert_eq!(median_of(&[9.0, 1.0, 5.000001]), Some(5.000001));
    }
}
