//! `regen_all`: every registry experiment at its historical seed, on
//! `available_parallelism` worker threads, as `bandwall run --all` runs
//! them — each report checked byte for byte against its committed golden
//! baseline.

use crate::spans::Tracer;
use bandwall_experiments::registry::{registry, Experiment};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The workload label spans carry.
pub const WORKLOAD: &str = "regen_all";

/// The experiments timed one by one in the traced run; every other
/// registry entry is analytic and is summed into `exp.analytic_s`.
pub const TIMED_EXPERIMENTS: [&str; 9] = [
    "fig01_power_law",
    "ablate_replacement",
    "coherence_study",
    "ablate_inclusion",
    "validate_writeback",
    "validate_line_size",
    "fig14_parsec_sharing",
    "combo_sim",
    "predictor_study",
];

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../crates/bench/tests/golden")
}

/// The registry plus every experiment's golden report bytes.
pub struct Regen {
    experiments: Vec<Arc<dyn Experiment>>,
    golden: Vec<String>,
}

impl Regen {
    /// Builds the registry and loads the golden baselines (the path's
    /// set-up).
    ///
    /// # Errors
    ///
    /// Names the baseline that could not be read.
    pub fn load() -> Result<Regen, String> {
        let experiments: Vec<Arc<dyn Experiment>> = registry().into_iter().map(Arc::from).collect();
        let dir = golden_dir();
        let golden = experiments
            .iter()
            .map(|e| {
                let path = dir.join(format!("{}.json", e.id()));
                std::fs::read_to_string(&path)
                    .map_err(|err| format!("reading {}: {err}", path.display()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Regen {
            experiments,
            golden,
        })
    }

    /// Number of experiments (and golden checks per pass).
    pub fn len(&self) -> usize {
        self.experiments.len()
    }
}

/// One experiment's run within a pass.
#[derive(Debug, Clone)]
pub struct ExperimentRun {
    /// Registry id.
    pub id: &'static str,
    /// Wall time, in nanoseconds.
    pub wall_ns: u64,
}

/// One full regeneration.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Wall time of the whole pass, in nanoseconds.
    pub wall_ns: u64,
    /// Ids whose report did not match its golden bytes (or panicked).
    pub mismatches: Vec<&'static str>,
    /// Every experiment's run, in registry order.
    pub runs: Vec<ExperimentRun>,
}

/// Runs every experiment once on `jobs` threads, claiming them in
/// registry order like `bandwall run --all`. With tracing on, each
/// experiment is a span on its worker's lane under one pass span.
pub fn pass(regen: &Regen, jobs: usize, tracer: &Tracer) -> Pass {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<(bool, u64)>>> =
        regen.experiments.iter().map(|_| Mutex::new(None)).collect();
    let outer = tracer.begin("regen.pass", WORKLOAD, None, 0);
    let parent = outer.id();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for lane in 0..jobs.min(regen.len()) {
            let (next, slots) = (&next, &slots);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(experiment) = regen.experiments.get(i) else {
                    break;
                };
                let span = tracer.begin(
                    format!("exp.{}", experiment.id()),
                    WORKLOAD,
                    parent,
                    lane as u64 + 1,
                );
                let began = Instant::now();
                let report = catch_unwind(AssertUnwindSafe(|| experiment.run_to_report()));
                let wall_ns = began.elapsed().as_nanos() as u64;
                tracer.end(span);
                let matches = report.is_ok_and(|r| r.to_json() == regen.golden[i]);
                *slots[i].lock().expect("slot lock poisoned") = Some((matches, wall_ns));
            });
        }
    });
    let wall_ns = start.elapsed().as_nanos() as u64;
    tracer.end(outer);
    let mut mismatches = Vec::new();
    let mut runs = Vec::with_capacity(regen.len());
    for (slot, experiment) in slots.into_iter().zip(&regen.experiments) {
        let (matches, wall_ns) = slot
            .into_inner()
            .expect("slot lock poisoned")
            .unwrap_or((false, 0));
        if !matches {
            mismatches.push(experiment.id());
        }
        runs.push(ExperimentRun {
            id: experiment.id(),
            wall_ns,
        });
    }
    Pass {
        wall_ns,
        mismatches,
        runs,
    }
}
