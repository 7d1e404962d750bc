//! Summary statistics used by the experiment harness.
//!
//! Small, allocation-light helpers over `&[f64]`: arithmetic and geometric
//! means, sample variance/standard deviation, and the nearest-rank
//! percentile. All functions return `None` on empty input rather than
//! panicking so experiment code can surface missing data explicitly.

/// Arithmetic mean. Returns `None` for an empty slice.
///
/// # Examples
///
/// ```
/// use bandwall_numerics::stats::mean;
/// assert_eq!(mean(&[1.0, 2.0, 3.0]), Some(2.0));
/// assert_eq!(mean(&[]), None);
/// ```
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// Geometric mean of strictly positive values.
///
/// Returns `None` for an empty slice or when any value is not strictly
/// positive. The geometric mean is the conventional aggregate for speedups
/// and compression ratios.
///
/// # Examples
///
/// ```
/// use bandwall_numerics::stats::geometric_mean;
/// let gm = geometric_mean(&[1.0, 4.0]).unwrap();
/// assert!((gm - 2.0).abs() < 1e-12);
/// assert_eq!(geometric_mean(&[1.0, 0.0]), None);
/// ```
pub fn geometric_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// Unbiased sample variance (denominator `n - 1`).
///
/// Returns `None` for slices with fewer than two elements.
///
/// # Examples
///
/// ```
/// use bandwall_numerics::stats::variance;
/// assert_eq!(variance(&[1.0, 3.0]), Some(2.0));
/// assert_eq!(variance(&[1.0]), None);
/// ```
pub fn variance(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let m = mean(values)?;
    let ss: f64 = values.iter().map(|v| (v - m) * (v - m)).sum();
    Some(ss / (values.len() - 1) as f64)
}

/// Sample standard deviation. Returns `None` for slices with fewer than two
/// elements.
///
/// # Examples
///
/// ```
/// use bandwall_numerics::stats::std_dev;
/// assert!((std_dev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap() - 2.138089935).abs() < 1e-6);
/// ```
pub fn std_dev(values: &[f64]) -> Option<f64> {
    variance(values).map(f64::sqrt)
}

/// Nearest-rank percentile: the smallest element of an ascending `sorted`
/// slice with at least a fraction `q` of the elements at or below it —
/// always one of the samples, never an interpolation. `q` is clamped to
/// `[0, 1]`, so `q = 0` gives the minimum and `q = 1` the maximum.
///
/// Returns `None` for an empty slice.
///
/// # Examples
///
/// ```
/// use bandwall_numerics::stats::percentile;
/// let sorted = [10, 20, 30, 40, 50];
/// assert_eq!(percentile(&sorted, 0.0), Some(10));
/// assert_eq!(percentile(&sorted, 0.5), Some(30));
/// assert_eq!(percentile(&sorted, 0.9), Some(50));
/// assert_eq!(percentile::<u64>(&[], 0.5), None);
/// ```
pub fn percentile<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    let n = sorted.len();
    let rank = (q * n as f64).ceil() as usize;
    sorted.get(rank.clamp(1, n.max(1)) - 1).copied()
}

/// Minimum of a slice. Returns `None` when empty.
pub fn min(values: &[f64]) -> Option<f64> {
    values.iter().copied().reduce(f64::min)
}

/// Maximum of a slice. Returns `None` when empty.
pub fn max(values: &[f64]) -> Option<f64> {
    values.iter().copied().reduce(f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&data), Some(5.0));
        assert!((variance(&data).unwrap() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn geometric_mean_matches_ratio_semantics() {
        // Compression ratios 2x and 8x aggregate to 4x.
        let gm = geometric_mean(&[2.0, 8.0]).unwrap();
        assert!((gm - 4.0).abs() < 1e-12);
    }

    #[test]
    fn geometric_mean_rejects_nonpositive_and_nonfinite() {
        assert_eq!(geometric_mean(&[1.0, -2.0]), None);
        assert_eq!(geometric_mean(&[1.0, f64::INFINITY]), None);
        assert_eq!(geometric_mean(&[]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let data = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&data, 0.25), Some(20.0));
        assert_eq!(percentile(&data, 0.1), Some(10.0));
        assert_eq!(percentile(&data, 2.0), Some(50.0));
        assert_eq!(percentile(&data, -1.0), Some(10.0));
        // Even length: the lower middle, not an interpolation.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), Some(2.0));
    }

    #[test]
    fn min_max() {
        let data = [3.0, -1.0, 2.0];
        assert_eq!(min(&data), Some(-1.0));
        assert_eq!(max(&data), Some(3.0));
        assert_eq!(min(&[]), None);
        assert_eq!(max(&[]), None);
    }

    #[test]
    fn single_element_edge_cases() {
        assert_eq!(mean(&[7.0]), Some(7.0));
        assert_eq!(variance(&[7.0]), None);
        assert_eq!(std_dev(&[7.0]), None);
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
    }
}
