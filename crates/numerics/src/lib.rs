//! Numerical toolkit underpinning the bandwidth-wall analytical model.
//!
//! This crate provides the small set of numerical routines the
//! `bandwall-model` crate needs, implemented from scratch so the workspace
//! carries no external math dependencies:
//!
//! * [`roots`] — bracketing root finders (bisection and Brent's method) used
//!   to locate the real-valued core-count crossover of the traffic model.
//! * [`search`] — monotone searches over integers, used to find the maximum
//!   number of supportable cores under a traffic envelope.
//! * [`regression`] — ordinary least squares and log–log power-law fitting
//!   (the `m = m0 · (C/C0)^-α` fit of Figure 1 of the paper).
//! * [`stats`] — summary statistics (mean, variance, percentiles, geometric
//!   mean) used throughout the experiment harness.
//! * [`rng`] — a deterministic xoshiro256++ generator used by the
//!   synthetic trace generators and randomized tests.
//!
//! # Examples
//!
//! Fitting a power law through noisy miss-rate measurements:
//!
//! ```
//! use bandwall_numerics::regression::PowerLawFit;
//!
//! // Perfect m = 0.1 * (c/1.0)^-0.5 data.
//! let sizes = [1.0, 2.0, 4.0, 8.0, 16.0];
//! let rates: Vec<f64> = sizes.iter().map(|&c: &f64| 0.1 * c.powf(-0.5)).collect();
//! let fit = PowerLawFit::fit(&sizes, &rates).unwrap();
//! assert!((fit.alpha - 0.5).abs() < 1e-9);
//! assert!((fit.scale - 0.1).abs() < 1e-9);
//! assert!(fit.r_squared > 0.999_999);
//! ```
//!
//! Finding where a decreasing function crosses a level:
//!
//! ```
//! use bandwall_numerics::roots::{brent, Tolerance};
//!
//! let f = |x: f64| x * x - 2.0;
//! let root = brent(f, 0.0, 2.0, Tolerance::default()).unwrap();
//! assert!((root - 2f64.sqrt()).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod regression;
pub mod rng;
pub mod roots;
pub mod search;
pub mod stats;

pub use regression::{LinearFit, PowerLawFit, RegressionError};
pub use rng::Rng;
pub use roots::{bisect, brent, RootError, Tolerance};
pub use search::{max_satisfying, min_satisfying};
