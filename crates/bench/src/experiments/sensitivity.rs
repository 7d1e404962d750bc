//! Supporting experiment — sensitivity of the core-scaling conclusions.
//!
//! Two analyses beyond the paper's figures:
//!
//! 1. **Monte Carlo over α** — Figure 1 shows per-workload α scattered
//!    between 0.25 and 0.62. Sampling α from that empirical spread gives
//!    a *distribution* of supportable cores per generation instead of a
//!    point estimate.
//! 2. **Multithreaded cores** — Section 3 notes the single-threaded-core
//!    assumption underestimates the wall; sweeping a per-core demand
//!    multiplier quantifies by how much.

use crate::error::ExperimentError;
use crate::registry::Experiment;
use crate::report::{Report, TableBlock, Value};
use crate::{die_budget, paper_baseline, GENERATION_LABELS};
use bandwall_model::{Alpha, ScalingProblem};
use bandwall_numerics::stats::percentile;
use bandwall_numerics::Rng;

const SAMPLES: usize = 2000;

/// Samples α from a truncated normal around the commercial average.
fn sample_alpha(rng: &mut Rng) -> f64 {
    // Box–Muller; mean 0.48, sd 0.09, truncated to the observed [0.2, 0.8].
    loop {
        let u1: f64 = rng.gen_f64().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.gen_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        let alpha = 0.48 + 0.09 * z;
        if (0.2..=0.8).contains(&alpha) {
            return alpha;
        }
    }
}

/// Sensitivity study: Monte Carlo over α plus per-core demand sweep.
#[derive(Debug, Clone)]
pub struct Sensitivity {
    /// Monte Carlo seed (historical default 20260706).
    pub seed: u64,
}

impl Experiment for Sensitivity {
    fn id(&self) -> &'static str {
        "sensitivity"
    }

    fn figure(&self) -> &'static str {
        "Sensitivity"
    }

    fn title(&self) -> &'static str {
        "Monte Carlo over α, and multithreaded-core demand"
    }

    fn run(&self) -> Result<Report, ExperimentError> {
        let mut report = Report::new(self.id(), self.figure(), self.title());
        let mut rng = Rng::seed_from_u64(self.seed);

        let mut table =
            TableBlock::new(&["generation", "p10", "median", "p90", "point est. (α=0.5)"])
                .with_title(format!(
                    "Monte Carlo over α ({SAMPLES} samples, α ~ N(0.48, 0.09) truncated):"
                ));
        for (g, label) in (1..=4u32).zip(GENERATION_LABELS) {
            let mut cores = Vec::with_capacity(SAMPLES);
            for _ in 0..SAMPLES {
                let alpha = Alpha::new(sample_alpha(&mut rng))?;
                cores.push(
                    ScalingProblem::new(paper_baseline().with_alpha(alpha), die_budget(g))
                        .max_supportable_cores()?,
                );
            }
            cores.sort_unstable();
            let point =
                ScalingProblem::new(paper_baseline(), die_budget(g)).max_supportable_cores()?;
            let quantile = |q| percentile(&cores, q).expect("SAMPLES > 0");
            let median = quantile(0.50);
            report.metric(format!("median_cores[{label}]"), median as f64, None);
            table.push_row(vec![
                Value::text(label),
                Value::int(quantile(0.10)),
                Value::int(median),
                Value::int(quantile(0.90)),
                Value::int(point),
            ]);
        }
        report.table(table);

        report.blank();
        let mut smt = TableBlock::new(&["demand multiplier", "supportable cores"])
            .with_title("multithreaded cores (per-core demand multiplier, 32-CEA die):");
        for demand in [1.0, 1.25, 1.5, 2.0, 3.0, 4.0] {
            let cores = ScalingProblem::new(paper_baseline(), die_budget(1))
                .with_per_core_demand(demand)
                .max_supportable_cores()?;
            smt.push_row(vec![
                Value::fmt(format!("{demand}x"), demand),
                Value::int(cores),
            ]);
        }
        report.table(smt);
        report.blank();
        report.note("workload variability moves the answer by only a few cores per generation;");
        report.note("SMT-style demand, however, tightens the wall quickly — the paper's");
        report.note("single-threaded assumption is indeed optimistic");
        Ok(report)
    }
}
