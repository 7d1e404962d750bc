//! `sim_compressed`: the Figure 14 CMP with a compressed shared L2, run
//! live (trace generated on the calling thread) through
//! [`CmpSimConfig::run`] at `available_parallelism` threads and at one
//! thread, with the two runs' statistics required to be equal.

use bandwall_cache_sim::{
    CacheConfig, CmpSimConfig, CmpSimStats, CompressorKind, FillSpec, L2Organization, ProfileKind,
    ValueSpec,
};
use bandwall_trace::ParsecLikeTrace;
use std::time::Instant;

/// The workload label spans carry.
pub const WORKLOAD: &str = "sim_compressed";

/// Accesses per simulation run.
pub const ACCESSES: usize = 4_000_000;

/// Four cores with 32 KiB 4-way L1s sharing a 2 MiB 8-way L2 that stores
/// lines compressed by the best of FPC, BDI and zero-RLE over
/// commercial-profile values; flushed at the end so final write-backs
/// count.
pub fn config(seed: u64) -> CmpSimConfig {
    CmpSimConfig {
        cores: 4,
        l1: CacheConfig::new(32 << 10, 64, 4).expect("valid L1 geometry"),
        l2: CacheConfig::new(2 << 20, 64, 8).expect("valid L2 geometry"),
        organization: L2Organization::Shared,
        l2_fill: FillSpec::Compressed {
            compressor: CompressorKind::BestOf,
            values: ValueSpec {
                profile: ProfileKind::Commercial,
                seed,
            },
        },
        flush: true,
    }
}

/// Four threads over 40 000 private lines each and 15 000 shared lines
/// (about 11 MB, five times the L2), 40% shared accesses, 30% writes.
pub fn trace(seed: u64) -> ParsecLikeTrace {
    ParsecLikeTrace::builder_with_regions(4, 40_000, 15_000)
        .shared_access_fraction(0.4)
        .write_fraction(0.3)
        .seed(seed)
        .build()
}

/// One timed live run.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    /// Simulation wall time, ns.
    pub wall_ns: u64,
    /// The merged statistics.
    pub stats: CmpSimStats,
}

/// Builds the configuration and a fresh trace, then times simulating
/// [`ACCESSES`] accesses on up to `threads` banks.
///
/// # Errors
///
/// Propagates the simulator's configuration error.
pub fn run(seed: u64, threads: usize) -> Result<Run, String> {
    let sim = config(seed);
    let mut source = trace(seed);
    let start = Instant::now();
    let stats = sim
        .run(&mut source, ACCESSES, threads)
        .map_err(|e| format!("simulation failed: {e}"))?;
    Ok(Run {
        wall_ns: start.elapsed().as_nanos() as u64,
        stats,
    })
}

/// A short untimed run (an eighth of [`ACCESSES`]) that faults in the
/// simulator's and the allocator's memory before timing starts.
///
/// # Errors
///
/// Propagates the simulator's configuration error.
pub fn warm_up(seed: u64, threads: usize) -> Result<CmpSimStats, String> {
    config(seed)
        .run(&mut trace(seed), ACCESSES / 8, threads)
        .map_err(|e| format!("simulation failed: {e}"))
}

/// Millions of accesses per second for a run of `wall_ns`.
pub fn maccess_per_s(accesses: usize, wall_ns: u64) -> f64 {
    accesses as f64 / wall_ns.max(1) as f64 * 1e3
}
