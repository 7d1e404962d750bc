//! Property-style tests for the numerics crate, driven by deterministic
//! parameter grids and a seeded [`Rng`] instead of an external
//! property-testing framework (the build environment has no registry
//! access).

use bandwall_numerics::{
    bisect, brent, max_satisfying, min_satisfying, LinearFit, PowerLawFit, Rng, Tolerance,
};

/// Brent finds the root of any monotone linear function bracketing 0.
#[test]
fn brent_solves_linear() {
    let mut rng = Rng::seed_from_u64(101);
    for _ in 0..256 {
        let slope = 0.1 + 99.9 * rng.gen_f64();
        let root = -50.0 + 100.0 * rng.gen_f64();
        let f = |x: f64| slope * (x - root);
        let found = brent(f, root - 60.0, root + 60.0, Tolerance::default()).unwrap();
        assert!((found - root).abs() < 1e-9, "slope {slope}, root {root}");
    }
}

/// Brent and bisection agree wherever both succeed.
#[test]
fn brent_matches_bisect() {
    let mut rng = Rng::seed_from_u64(102);
    for _ in 0..256 {
        let c = -10.0 + 20.0 * rng.gen_f64();
        let scale = 0.5 + 3.5 * rng.gen_f64();
        let f = |x: f64| scale * x.powi(3) - c;
        let (lo, hi) = (-4.0, 4.0);
        let rb = brent(f, lo, hi, Tolerance::default()).unwrap();
        let rs = bisect(f, lo, hi, Tolerance::default()).unwrap();
        assert!((rb - rs).abs() < 1e-7, "brent {rb} vs bisect {rs}");
    }
}

/// The root returned always lies within the bracket.
#[test]
fn root_within_bracket() {
    for i in 0..=100 {
        let shift = -5.0 + 0.1 * i as f64;
        let f = |x: f64| (x - shift).tanh();
        let r = brent(f, -10.0, 10.0, Tolerance::default()).unwrap();
        assert!((-10.0..=10.0).contains(&r));
    }
}

/// max_satisfying returns exactly the threshold for `x <= t`.
#[test]
fn max_satisfying_exact() {
    let mut rng = Rng::seed_from_u64(103);
    for _ in 0..256 {
        let t = rng.gen_range(0..10_000u64);
        let hi = rng.gen_range(10_000..20_000u64);
        assert_eq!(max_satisfying(0, hi, |x| x <= t), Some(t));
    }
}

/// min/max searches are duals around any threshold predicate.
#[test]
fn search_duality() {
    let mut rng = Rng::seed_from_u64(104);
    for _ in 0..256 {
        let t = rng.gen_range(1..1000u64);
        let max = max_satisfying(0, 1000, |x| x < t).unwrap();
        let min = min_satisfying(0, 1000, |x| x >= t).unwrap();
        assert_eq!(max + 1, min);
    }
}

/// A linear fit through exact points recovers slope and intercept.
#[test]
fn linear_fit_exact() {
    let mut rng = Rng::seed_from_u64(105);
    for _ in 0..256 {
        let slope = -100.0 + 200.0 * rng.gen_f64();
        let intercept = -100.0 + 200.0 * rng.gen_f64();
        let n = rng.gen_range(3..30usize);
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| slope * x + intercept).collect();
        let fit = LinearFit::fit(&xs, &ys).unwrap();
        assert!((fit.slope - slope).abs() < 1e-6 * (1.0 + slope.abs()));
        assert!((fit.intercept - intercept).abs() < 1e-6 * (1.0 + intercept.abs()));
        assert!(fit.r_squared > 1.0 - 1e-9);
    }
}

/// A power-law fit through exact points recovers alpha and scale.
#[test]
fn power_law_fit_exact() {
    let mut rng = Rng::seed_from_u64(106);
    for _ in 0..256 {
        let alpha = 0.05 + 1.95 * rng.gen_f64();
        let scale = 0.001 + 9.999 * rng.gen_f64();
        let xs: Vec<f64> = (0..8).map(|i| 2f64.powi(i)).collect();
        let ys: Vec<f64> = xs.iter().map(|x| scale * x.powf(-alpha)).collect();
        let fit = PowerLawFit::fit(&xs, &ys).unwrap();
        assert!((fit.alpha - alpha).abs() < 1e-9);
        assert!((fit.scale - scale).abs() < 1e-9 * scale.max(1.0));
    }
}

/// R² is always within [0, 1] for arbitrary finite data.
#[test]
fn r_squared_bounded() {
    let mut rng = Rng::seed_from_u64(107);
    for _ in 0..256 {
        let n = rng.gen_range(2..50usize);
        let ys: Vec<f64> = (0..n).map(|_| -1e6 + 2e6 * rng.gen_f64()).collect();
        let xs: Vec<f64> = (0..ys.len()).map(|i| i as f64).collect();
        let fit = LinearFit::fit(&xs, &ys).unwrap();
        assert!((0.0..=1.0).contains(&fit.r_squared));
    }
}

/// Predict inverts fit: predicted values match originals for exact fits.
#[test]
fn predict_round_trip() {
    for i in 1..=90 {
        let alpha = 0.1 + 0.01 * i as f64;
        let xs: Vec<f64> = (1..6).map(|i| i as f64 * 3.0).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 0.7 * x.powf(-alpha)).collect();
        let fit = PowerLawFit::fit(&xs, &ys).unwrap();
        for (&x, &y) in xs.iter().zip(&ys) {
            assert!((fit.predict(x) - y).abs() < 1e-9);
        }
    }
}

/// Statistics helpers are consistent with each other.
#[test]
fn stats_consistency() {
    use bandwall_numerics::stats::{max, mean, min, percentile, std_dev, variance};
    let mut rng = Rng::seed_from_u64(108);
    for _ in 0..64 {
        let n = rng.gen_range(2..40usize);
        let values: Vec<f64> = (0..n).map(|_| -1e3 + 2e3 * rng.gen_f64()).collect();
        let m = mean(&values).unwrap();
        let v = variance(&values).unwrap();
        assert!(v >= 0.0);
        assert!((std_dev(&values).unwrap() - v.sqrt()).abs() < 1e-9);
        let lo = min(&values).unwrap();
        let hi = max(&values).unwrap();
        assert!(lo <= m && m <= hi);
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(percentile(&sorted, 0.0), Some(lo));
        assert_eq!(percentile(&sorted, 1.0), Some(hi));
    }
}
