//! The open-loop rate ladder and its latency limit.
//!
//! A rung *passes* when its windowed p99 latency (timed from each
//! request's due time, with every missing or failed request counted as
//! infinitely late) is within [`P99_LIMIT_MS`], at least
//! [`MIN_COMPLETION`] of the offered requests completed correctly, and the
//! generator's backlog did not grow over the rung. `serve.max_rps` is the
//! highest rate the ladder sustains, refined past the last passing rung so
//! the metric moves continuously instead of jumping a whole 4k rung: by
//! log-linear interpolation of p99 when the first failing rung failed on
//! latency alone, and by that rung's measured goodput when the server
//! could not keep up with it.

/// The base ladder, in requests per second.
pub const BASE_RATES: [u32; 5] = [4_000, 8_000, 12_000, 16_000, 20_000];

/// Step by which the ladder extends past its top while rungs keep
/// passing (so a faster host cannot saturate the metric).
pub const EXTENSION_STEP: u32 = 4_000;

/// The highest rate the ladder ever offers.
pub const MAX_RATE: u32 = 40_000;

/// The rate of the untraced serve units and of the traced run's
/// `serve.p50_ms` and `serve.p99_ms`: the bottom of the ladder, because
/// contended periods on a 2-vCPU virtual machine cut serve capacity to
/// 7–8k req/s, which turned an 8k p50 of 0.13 ms into 16 ms.
pub const REPORT_RATE: u32 = 4_000;

/// The p99 latency limit, in milliseconds. It sits an order of magnitude
/// above the 0.5–9 ms that thread wake-up delays and hypervisor steal put
/// on a 2-CPU virtual machine's p99 at *every* rate below saturation (a
/// 1 ms limit there measured host noise, not capacity), and below the
/// tails of a server that cannot keep up, whose backlog grows without
/// bound.
pub const P99_LIMIT_MS: f64 = 25.0;

/// The share of offered requests that must complete correctly.
pub const MIN_COMPLETION: f64 = 0.99;

/// One rate's measured outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RungStats {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// p99 latency over the offered requests, in milliseconds
    /// (infinite when more than 1% never completed).
    pub p99_ms: f64,
    /// Correctly completed ÷ offered.
    pub completion: f64,
    /// Whether the generator's backlog grew over the rung.
    pub backlog_grew: bool,
    /// Correctly completed requests per second of rung time.
    pub goodput: f64,
}

impl RungStats {
    /// Whether the server kept up: enough completed, backlog steady.
    pub fn kept_up(&self) -> bool {
        self.completion >= MIN_COMPLETION && !self.backlog_grew
    }

    /// Whether this rung meets the limit.
    pub fn passes(&self) -> bool {
        self.kept_up() && self.p99_ms <= P99_LIMIT_MS
    }
}

/// The highest sustained rate over `rungs` (any order). Empty input
/// yields 0.
pub fn max_rate(rungs: &[RungStats]) -> f64 {
    let mut sorted = rungs.to_vec();
    sorted.sort_by(|a, b| a.rate.total_cmp(&b.rate));
    let Some(first_fail) = sorted.iter().position(|r| !r.passes()) else {
        return sorted.last().map_or(0.0, |r| r.rate);
    };
    let hi = sorted[first_fail];
    let lo = first_fail.checked_sub(1).map(|i| sorted[i]);
    if !hi.kept_up() {
        // Overloaded: what it did complete per second is its capacity.
        return hi.goodput.clamp(lo.map_or(0.0, |l| l.rate), hi.rate);
    }
    match lo {
        // Even the lowest rung is over the limit: scale it down by how
        // far, so the metric still orders hosts.
        None => hi.rate * (P99_LIMIT_MS / hi.p99_ms).min(1.0),
        Some(lo) => {
            let frac =
                ((P99_LIMIT_MS / lo.p99_ms).ln() / (hi.p99_ms / lo.p99_ms).ln()).clamp(0.0, 1.0);
            lo.rate + frac * (hi.rate - lo.rate)
        }
    }
}

/// Whether a per-request backlog series (requests due but not yet sent,
/// sampled at each send) grew: the mean over its last third is more than
/// twice the mean over its first third plus four requests. A healthy
/// open loop keeps a backlog of 0–1 throughout; an overloaded one grows
/// it without bound.
pub fn backlog_grew(series: &[u32]) -> bool {
    let third = series.len() / 3;
    if third == 0 {
        return false;
    }
    let mean = |s: &[u32]| s.iter().map(|&b| f64::from(b)).sum::<f64>() / s.len() as f64;
    let first = mean(&series[..third]);
    let last = mean(&series[series.len() - third..]);
    last > 2.0 * first + 4.0
}

/// The rate to try after a rung at `rate` passed, when the base ladder
/// is exhausted; `None` at the cap.
pub fn extension_after(rate: u32) -> Option<u32> {
    let next = rate + EXTENSION_STEP;
    (next <= MAX_RATE).then_some(next)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rung(rate: f64, p99_ms: f64) -> RungStats {
        RungStats {
            rate,
            p99_ms,
            completion: 1.0,
            backlog_grew: false,
            goodput: rate,
        }
    }

    #[test]
    fn all_passing_reports_the_top_rung() {
        let rungs = [rung(4e3, 0.2), rung(8e3, 0.3), rung(12e3, 0.5)];
        assert_eq!(max_rate(&rungs), 12e3);
        assert_eq!(max_rate(&[]), 0.0);
    }

    #[test]
    fn interpolates_log_linearly_towards_a_latency_failure() {
        // p99 12.5 ms at 16k, 50 ms at 20k: the 25 ms crossing is
        // halfway in log space.
        let rungs = [rung(12e3, 0.3), rung(16e3, 12.5), rung(20e3, 50.0)];
        assert!((max_rate(&rungs) - 18e3).abs() < 1e-6);
        // Order of the input does not matter.
        let shuffled = [rungs[2], rungs[0], rungs[1]];
        assert_eq!(max_rate(&shuffled), max_rate(&rungs));
    }

    #[test]
    fn an_overloaded_rung_reports_its_goodput() {
        let mut overloaded = rung(20e3, 0.9);
        overloaded.completion = 0.95;
        overloaded.goodput = 19e3;
        assert_eq!(max_rate(&[rung(16e3, 0.5), overloaded]), 19e3);
        // Goodput is clamped between the neighbouring rungs.
        overloaded.goodput = 9e3;
        assert_eq!(max_rate(&[rung(16e3, 0.5), overloaded]), 16e3);
        let mut growing = rung(20e3, 90.0);
        growing.backlog_grew = true;
        growing.goodput = 18e3;
        assert_eq!(max_rate(&[rung(16e3, 0.5), growing]), 18e3);
    }

    #[test]
    fn only_the_passing_prefix_counts() {
        // A lucky pass above a failure does not raise the result.
        let rungs = [rung(4e3, 0.2), rung(8e3, 100.0), rung(12e3, 0.4)];
        let got = max_rate(&rungs);
        assert!(got > 4e3 && got < 8e3, "{got}");
    }

    #[test]
    fn a_failing_first_rung_still_orders_hosts() {
        assert_eq!(max_rate(&[rung(4e3, 50.0)]), 2e3);
        let mut dropped = rung(4e3, f64::INFINITY);
        dropped.completion = 0.5;
        dropped.goodput = 2.5e3;
        assert_eq!(max_rate(&[dropped]), 2.5e3);
    }

    #[test]
    fn rung_limit_is_inclusive() {
        assert!(rung(8e3, P99_LIMIT_MS).passes());
        assert!(!rung(8e3, P99_LIMIT_MS * 1.0001).passes());
        let mut short = rung(8e3, 0.1);
        short.completion = MIN_COMPLETION;
        assert!(short.passes());
        short.completion = 0.989;
        assert!(!short.passes());
    }

    #[test]
    fn backlog_growth_needs_a_sustained_rise() {
        assert!(!backlog_grew(&[]));
        assert!(!backlog_grew(&[0, 0]));
        let steady: Vec<u32> = (0..300).map(|i| (i % 3 == 0) as u32).collect();
        assert!(!backlog_grew(&steady));
        let spike: Vec<u32> = (0..300).map(|i| if i == 290 { 50 } else { 0 }).collect();
        assert!(!backlog_grew(&spike));
        let rising: Vec<u32> = (0..300).collect();
        assert!(backlog_grew(&rising));
    }

    #[test]
    fn the_ladder_extends_to_a_cap() {
        assert_eq!(extension_after(20_000), Some(24_000));
        assert_eq!(extension_after(MAX_RATE - EXTENSION_STEP), Some(MAX_RATE));
        assert_eq!(extension_after(MAX_RATE), None);
        assert!(BASE_RATES.contains(&REPORT_RATE));
        assert!(BASE_RATES.windows(2).all(|w| w[0] < w[1]));
    }
}
