//! The traced run (`--trace 1`): spans around calls into every layer's
//! public functions, recorded from the benchmark's own code, and the
//! per-layer metrics derived from them.
//!
//! The suite runs the layer kernels, then the three paths with the named
//! workload's first:
//!
//! * **layers** — kernels on `numerics`, `core`, `trace`, `compress` and
//!   `cache-sim`, each a run of spans whose median gives the metric;
//! * **regen_all** — a warm-up regeneration, then untraced, traced,
//!   traced and untraced ones, with a span per experiment on its worker
//!   lane;
//! * **serve_open** — the seeded request stream replayed in process
//!   through the serve layers (`http::read_request` → `ApiRequest::parse`
//!   → `CanonicalProblem` → `SolveCache` → `solve_fragment` →
//!   `Response::encode_into`), the admission queue's hand-off, untraced,
//!   traced, traced and untraced open-loop rungs at the reporting rate,
//!   one ladder round for the capacity, and the sharded-stall probe;
//! * **sim_compressed** — producer generation alone, a warm-up, untraced,
//!   traced, traced and untraced live banked runs and a sequential one;
//!   and, among the layer kernels, paired replay runs at one thread and at
//!   `available_parallelism` threads.
//!
//! Tracing overhead is each path's traced end-to-end figure minus its
//! untraced one, measured side by side in that interleaved order so drift
//! cancels. All spans are written once at exit to
//! `.bench_out/trace-<workload>-seed<seed>.json`.

use crate::ladder;
use crate::metrics;
use crate::regen;
use crate::runner::process_cpu_ns;
use crate::serve_open;
use crate::sim;
use crate::spans::{chrome_trace_json, Span, Tracer};
use crate::stats::Summary;
use crate::{parallelism, provenance_json, Args, Outcome};
use bandwall_cache_sim::{
    CacheConfig, CoherentSimConfig, EngineSimConfig, FillSpec, TwoLevelHierarchy,
};
use bandwall_compress::{Bdi, BestOf, Compressor, Fpc, ZeroRle};
use bandwall_experiments::experiments::fig05_dram_cache;
use bandwall_experiments::serve::api::{
    batch_body, route, solve_fragment, sweep_body, wrap_ok, ApiRequest, BatchJob, RouteMatch,
    SweepRequest, SweepRow,
};
use bandwall_experiments::serve::cache::SolveCache;
use bandwall_experiments::serve::http::{read_request, Limits, Response};
use bandwall_experiments::serve::queue::BoundedQueue;
use bandwall_experiments::sweep::sweep_block;
use bandwall_model::catalog::AssumptionLevel;
use bandwall_model::combination::figure16_combinations;
use bandwall_model::techniques::combine;
use bandwall_model::{CanonicalProblem, ScalingProblem};
use bandwall_numerics::PowerLawFit;
use bandwall_trace::suites::commercial_suite;
use bandwall_trace::values::{LineValueGenerator, ValueProfile};
use bandwall_trace::{MissRateProbe, ReplayTrace, TraceSource};
use std::hint::black_box;
use std::io::Cursor;
use std::sync::Arc;
use std::time::{Duration, Instant};

const LAYERS: &str = "layers";

/// Accesses per trace and replay kernel span.
const KERNEL_ACCESSES: usize = 1_000_000;

/// Requests replayed through the serve layers.
const REPLAY_REQUESTS: usize = 4_000;

/// Duration of each open-loop rung in the traced run.
const TRACED_RUNG: Duration = Duration::from_secs(1);

/// Duration of one rung of the traced run's ladder round.
const LADDER_RUNG: Duration = Duration::from_millis(500);

/// Idle gap between ladder rungs.
const LADDER_GAP: Duration = Duration::from_millis(50);

/// Duration of the sharded-stall probe.
const STALL_PROBE: Duration = Duration::from_secs(2);

/// The serve crate's request limits (8 KiB head, 64 KiB body).
const LIMITS: Limits = Limits {
    max_head_bytes: 8 * 1024,
    max_body_bytes: 64 * 1024,
};

/// Runs `f` as `spans` spans of `calls` calls each, named `name`.
fn batched(tracer: &Tracer, name: &str, spans: usize, calls: u64, mut f: impl FnMut()) {
    for _ in 0..spans {
        let open = tracer.begin(name, LAYERS, None, 0);
        for _ in 0..calls {
            f();
        }
        tracer.end_calls(open, calls);
    }
}

/// Spans named `name`.
fn named(tracer: &Tracer, name: &str) -> Vec<Span> {
    tracer
        .spans()
        .into_iter()
        .filter(|s| s.name == name)
        .collect()
}

/// Sets `metric` to the median per-call time of the spans named `name`,
/// scaled from nanoseconds by `scale`.
fn per_call(out: &mut Outcome, tracer: &Tracer, metric: &'static str, name: &str, scale: f64) {
    let spans = named(tracer, name);
    let calls = spans.first().map_or(1, |s| s.calls);
    // Keep sub-nanosecond resolution: summarize durations, divide after.
    let Some(s) = Summary::of(spans.iter().map(Span::duration_ns).collect()) else {
        return;
    };
    let unit = metrics::find(metric).map_or("", |d| d.unit);
    out.set(
        metric,
        s.median_ns as f64 / calls as f64 * scale,
        format!(
            "span {name}, {calls} call(s) per span; {}",
            s.describe(scale / calls as f64, unit)
        ),
    );
}

/// Sets `metric` to the median throughput (millions of calls per second)
/// of the spans named `name`.
fn throughput(out: &mut Outcome, tracer: &Tracer, metric: &'static str, name: &str) {
    let spans = named(tracer, name);
    let calls = spans.first().map_or(1, |s| s.calls);
    let Some(s) = Summary::of(spans.iter().map(Span::duration_ns).collect()) else {
        return;
    };
    out.set(
        metric,
        sim::maccess_per_s(calls as usize, s.median_ns),
        format!(
            "span {name}, {calls} accesses per span; {}",
            s.describe(1e-6, "ms")
        ),
    );
}

fn numerics_and_core(tracer: &Tracer, seed: u64, out: &mut Outcome) {
    // Figure 1's probe capacities with a noisy α ≈ 0.5 power law.
    let xs: Vec<f64> = (7..=16).map(|i| f64::from(1u32 << i)).collect();
    let mut rng = bandwall_numerics::Rng::seed_from_u64(seed);
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| 0.3 * (x / 128.0).powf(-0.5) * (1.0 + 0.02 * (rng.gen_f64() - 0.5)))
        .collect();
    batched(tracer, "numerics.power_law_fit", 30, 1_000, || {
        black_box(PowerLawFit::fit(black_box(&xs), black_box(&ys)).expect("fit"));
    });
    per_call(
        out,
        tracer,
        "numerics.power_law_fit_us",
        "numerics.power_law_fit",
        1e-3,
    );

    // The serve workload's cold problems, parsed outside the spans.
    let offset = seed % 1_000_000;
    let cold: Vec<ScalingProblem> = (0..2_000)
        .map(|k| {
            bandwall_experiments::serve::api::parse_problem(&serve_open::cold_body(offset + k))
                .expect("cold problem parses")
        })
        .collect();
    let mut solved = 0u64;
    for chunk in cold.chunks(20) {
        let open = tracer.begin("core.solve", LAYERS, None, 0);
        for p in chunk {
            match p.solve() {
                Ok(s) => {
                    black_box(s);
                    solved += 1;
                }
                Err(e) => out.error(format!("core solve failed: {e}")),
            }
        }
        tracer.end_calls(open, chunk.len() as u64);
    }
    out.checked(cold.len() as u64, cold.len() as u64 - solved);
    per_call(out, tracer, "core.solve_us", "core.solve", 1e-3);

    let memo = bandwall_experiments::serve::api::parse_problem(serve_open::MEMO_BODY)
        .expect("memo problem parses");
    let mut i = 0usize;
    batched(tracer, "core.canonical_digest", 40, 1_000, || {
        let p = if i.is_multiple_of(2) {
            &memo
        } else {
            &cold[i % cold.len()]
        };
        i += 1;
        black_box(CanonicalProblem::of(black_box(p)).digest());
    });
    per_call(
        out,
        tracer,
        "core.canonical_digest_ns",
        "core.canonical_digest",
        1.0,
    );

    let variants = fig05_dram_cache::variants();
    batched(tracer, "core.sweep", 30, 20, || {
        black_box(sweep_block(black_box(&variants)).expect("fig05 sweep solves"));
    });
    per_call(out, tracer, "core.sweep_us", "core.sweep", 1e-3);

    let combos = figure16_combinations(AssumptionLevel::Realistic).expect("figure 16 sets");
    batched(tracer, "core.combine", 30, 200, || {
        for c in &combos {
            black_box(combine(black_box(c.techniques())));
        }
    });
    per_call(out, tracer, "core.combine_us", "core.combine", 1e-3);
}

fn trace_layer(tracer: &Tracer, seed: u64, out: &mut Outcome) {
    let mut suite = commercial_suite(seed);
    let stack = &mut suite[0];
    let lines: Vec<u64> = stack
        .iter()
        .take(KERNEL_ACCESSES)
        .map(|a| a.address() / 64)
        .collect();
    for _ in 0..5 {
        let open = tracer.begin("trace.stack_distance", LAYERS, None, 0);
        let mut sink = 0u64;
        for a in stack.iter().take(KERNEL_ACCESSES) {
            sink = sink.wrapping_add(a.address());
        }
        black_box(sink);
        tracer.end_calls(open, KERNEL_ACCESSES as u64);
    }
    throughput(
        out,
        tracer,
        "trace.stack_distance_maccess_s",
        "trace.stack_distance",
    );

    // Figure 1's measurement: warm the probe with the footprint, then
    // observe the recorded lines at its capacities.
    let caps: Vec<usize> = (7..=16).map(|i| 1usize << i).collect();
    for _ in 0..5 {
        let mut probe = MissRateProbe::new(&caps);
        stack.warm_probe(&mut probe);
        let open = tracer.begin("trace.miss_probe", LAYERS, None, 0);
        for &line in &lines {
            probe.observe(line);
        }
        tracer.end_calls(open, lines.len() as u64);
        black_box(probe.miss_rates());
    }
    throughput(
        out,
        tracer,
        "trace.miss_probe_maccess_s",
        "trace.miss_probe",
    );

    let mut parsec = sim::trace(seed);
    for _ in 0..5 {
        let open = tracer.begin("trace.parsec", LAYERS, None, 0);
        let mut sink = 0u64;
        for a in parsec.iter().take(KERNEL_ACCESSES) {
            sink = sink.wrapping_add(a.address());
        }
        black_box(sink);
        tracer.end_calls(open, KERNEL_ACCESSES as u64);
    }
    throughput(out, tracer, "trace.parsec_maccess_s", "trace.parsec");
}

fn compress_layer(tracer: &Tracer, seed: u64, out: &mut Outcome) {
    let generator = LineValueGenerator::new(ValueProfile::commercial(), seed);
    let lines: Vec<Vec<u8>> = (0..4096u64).map(|i| generator.line_bytes(i, 64)).collect();
    let engines: [(&str, &'static str, Box<dyn Compressor>); 4] = [
        ("compress.fpc", "compress.fpc.size_ns", Box::new(Fpc::new())),
        ("compress.bdi", "compress.bdi.size_ns", Box::new(Bdi::new())),
        (
            "compress.zero_rle",
            "compress.zero_rle.size_ns",
            Box::new(ZeroRle::new()),
        ),
        (
            "compress.best_of",
            "compress.best_of.size_ns",
            Box::new(BestOf::standard()),
        ),
    ];
    for (span, metric, engine) in &engines {
        let mut compressed = 0usize;
        for _ in 0..20 {
            compressed = 0;
            let open = tracer.begin(*span, LAYERS, None, 0);
            for line in &lines {
                compressed += engine.compressed_size(black_box(line));
            }
            tracer.end_calls(open, lines.len() as u64);
        }
        per_call(out, tracer, metric, span, 1.0);
        if *span == "compress.best_of" {
            let raw = lines.len() * 64;
            out.set(
                "compress.best_of.ratio",
                raw as f64 / compressed.max(1) as f64,
                format!("{raw} bytes of commercial-profile lines → {compressed} bytes"),
            );
        }
    }
}

/// Paired, interleaved replay runs of the `sim_compressed` system at one
/// thread and at `threads`, plus the single-cache kernels.
fn cache_sim_layer(tracer: &Tracer, seed: u64, out: &mut Outcome) {
    let mut replay = ReplayTrace::record(&mut sim::trace(seed), KERNEL_ACCESSES);
    let l1 = CacheConfig::new(32 << 10, 64, 4).expect("valid L1 geometry");
    let l2 = CacheConfig::new(2 << 20, 64, 8).expect("valid L2 geometry");
    let full_line = EngineSimConfig {
        cache: l2,
        fill: FillSpec::FullLine,
        flush: false,
    };
    let coherent = CoherentSimConfig {
        cores: 4,
        cache: l1,
        fill: FillSpec::FullLine,
        flush: true,
    };
    for _ in 0..5 {
        replay.rewind();
        let open = tracer.begin("cache_sim.full_line", LAYERS, None, 0);
        black_box(full_line.run(&mut replay, KERNEL_ACCESSES, 1));
        tracer.end_calls(open, KERNEL_ACCESSES as u64);

        let mut hierarchy = TwoLevelHierarchy::new(l1, l2);
        let open = tracer.begin("cache_sim.hierarchy", LAYERS, None, 0);
        for a in replay.accesses() {
            hierarchy.access(a.address(), a.kind().is_write());
        }
        tracer.end_calls(open, KERNEL_ACCESSES as u64);
        black_box(hierarchy.memory_traffic());

        replay.rewind();
        let open = tracer.begin("cache_sim.coherent", LAYERS, None, 0);
        let result = coherent.run(&mut replay, KERNEL_ACCESSES, 1);
        tracer.end_calls(open, KERNEL_ACCESSES as u64);
        if let Err(e) = result {
            out.error(format!("coherent simulation failed: {e}"));
        }
    }
    throughput(
        out,
        tracer,
        "cache_sim.full_line_maccess_s",
        "cache_sim.full_line",
    );
    throughput(
        out,
        tracer,
        "cache_sim.hierarchy_maccess_s",
        "cache_sim.hierarchy",
    );
    throughput(
        out,
        tracer,
        "cache_sim.coherent_maccess_s",
        "cache_sim.coherent",
    );

    let config = sim::config(seed);
    let threads = parallelism();
    let mut ratios = Vec::new();
    let mut mismatched = 0;
    for pair in 0u32..6 {
        let mut walls = [0u64; 2];
        let mut stats = Vec::new();
        let order = if pair.is_multiple_of(2) {
            [0, 1]
        } else {
            [1, 0]
        };
        for side in order {
            let (name, t) = if side == 0 {
                ("cache_sim.seq_replay", 1)
            } else {
                ("cache_sim.banked_replay", threads)
            };
            replay.rewind();
            let open = tracer.begin(name, LAYERS, None, 0);
            let began = Instant::now();
            let result = config.run(&mut replay, KERNEL_ACCESSES, t);
            walls[side] = began.elapsed().as_nanos() as u64;
            tracer.end_calls(open, KERNEL_ACCESSES as u64);
            match result {
                Ok(s) => stats.push(s),
                Err(e) => out.error(format!("replay simulation failed: {e}")),
            }
        }
        ratios.push(walls[0] as f64 / walls[1].max(1) as f64);
        if stats.len() != 2 || stats[0] != stats[1] {
            mismatched += 1;
        }
    }
    out.checked(6, mismatched);
    if mismatched > 0 {
        out.error("replay: run(1) and run(n) statistics differ");
    }
    throughput(
        out,
        tracer,
        "cache_sim.seq_replay_maccess_s",
        "cache_sim.seq_replay",
    );
    throughput(
        out,
        tracer,
        "cache_sim.banked_replay_maccess_s",
        "cache_sim.banked_replay",
    );
    out.set(
        "cache_sim.banked_speedup",
        crate::stats::median_of(&ratios).expect("paired runs"),
        format!(
            "median of {} paired seq/banked ratios at threads={threads} ({} banks): {ratios:.3?}",
            ratios.len(),
            config.partitioning(threads).banks(),
        ),
    );
}

fn layers(tracer: &Tracer, seed: u64, out: &mut Outcome) {
    numerics_and_core(tracer, seed, out);
    trace_layer(tracer, seed, out);
    compress_layer(tracer, seed, out);
    cache_sim_layer(tracer, seed, out);
}

fn regen_part(tracer: &Tracer, out: &mut Outcome) {
    let loaded = match regen::Regen::load() {
        Ok(r) => r,
        Err(e) => {
            out.checked(1, 1);
            out.error(e);
            return;
        }
    };
    let jobs = parallelism();
    // A warm-up pass, then untraced, traced, traced, untraced: neither
    // side pays the process's first pass, and drift over the four passes
    // cancels out of the overhead.
    let off = Tracer::new(false);
    let passes: Vec<(bool, regen::Pass)> = [false, false, true, true, false]
        .into_iter()
        .map(|traced| {
            (
                traced,
                regen::pass(&loaded, jobs, if traced { tracer } else { &off }),
            )
        })
        .collect();
    for (_, pass) in &passes {
        out.checked(loaded.len() as u64, pass.mismatches.len() as u64);
        for id in &pass.mismatches {
            out.error(format!("{id}: report differs from its golden baseline"));
        }
    }
    let secs = |ns: f64| ns / 1e9;
    let passes = &passes[1..];
    let mean_wall = |traced: bool| {
        passes
            .iter()
            .filter(|(t, _)| *t == traced)
            .map(|(_, p)| p.wall_ns as f64)
            .sum::<f64>()
            / 2.0
    };
    // Each experiment's mean over the two traced passes.
    let traced: Vec<&regen::Pass> = passes.iter().filter(|(t, _)| *t).map(|(_, p)| p).collect();
    let runs: Vec<(&str, f64)> = traced[0]
        .runs
        .iter()
        .zip(&traced[1].runs)
        .map(|(a, b)| (a.id, (a.wall_ns + b.wall_ns) as f64 / 2.0))
        .collect();
    let mut analytic = 0.0;
    for &(id, wall) in &runs {
        match regen::TIMED_EXPERIMENTS
            .iter()
            .find(|&&timed| timed == id)
            .and_then(|timed| metrics::find(&format!("exp.{timed}_s")))
        {
            Some(def) => out.set(def.name, secs(wall), "mean of two traced regenerations"),
            None => analytic += wall,
        }
    }
    out.set(
        "exp.analytic_s",
        secs(analytic),
        format!(
            "{} analytic experiments summed, mean of two traced regenerations",
            loaded.len() - regen::TIMED_EXPERIMENTS.len()
        ),
    );
    let critical = runs.iter().map(|r| r.1).fold(0.0, f64::max);
    let busy: f64 = runs.iter().map(|r| r.1).sum();
    out.set(
        "regen.critical_path_s",
        secs(critical),
        "longest single experiment (experiments are independent)",
    );
    out.set(
        "regen.busy_share",
        busy / (mean_wall(true) * jobs as f64),
        format!(
            "{:.3} s of experiment time over {:.3} s wall × {jobs} jobs",
            secs(busy),
            secs(mean_wall(true))
        ),
    );
    out.set(
        "trace_overhead.regen_wall_s",
        secs(mean_wall(true) - mean_wall(false)),
        format!(
            "mean traced {:.3} s − mean untraced {:.3} s (passes in order U T T U)",
            secs(mean_wall(true)),
            secs(mean_wall(false))
        ),
    );
}

/// One request's trip through the serve layers, in process.
fn replay_request(
    tracer: &Tracer,
    cache: &SolveCache,
    raw: &[u8],
    buf: &mut Vec<u8>,
) -> Result<(), String> {
    let open = tracer.begin("serve.http_read", serve_open::WORKLOAD, None, 0);
    let request = read_request(&mut Cursor::new(raw), &LIMITS, None)
        .map_err(|e| format!("read_request: {e:?}"))?
        .ok_or("read_request: empty")?;
    tracer.end(open);

    let open = tracer.begin("serve.api_parse", serve_open::WORKLOAD, None, 0);
    let RouteMatch::Endpoint(endpoint) = route(&request.method, &request.path) else {
        return Err(format!("no route for {}", request.path));
    };
    let parsed = ApiRequest::parse(endpoint, &request.body).map_err(|e| e.body())?;
    tracer.end(open);

    let memo = |problem: &ScalingProblem| -> Result<Arc<str>, String> {
        let open = tracer.begin("serve.memo_get", serve_open::WORKLOAD, None, 0);
        let key = CanonicalProblem::of(problem);
        let found = cache.get(&key);
        match found {
            Some(body) => {
                tracer.end(renamed(open, "serve.memo_hit"));
                Ok(body)
            }
            None => {
                tracer.end(open);
                let open = tracer.begin("serve.solve_fragment", serve_open::WORKLOAD, None, 0);
                let fragment: Arc<str> = Arc::from(solve_fragment(problem)?.as_str());
                tracer.end(open);
                let open = tracer.begin("serve.memo_put", serve_open::WORKLOAD, None, 0);
                cache.put(key, Arc::clone(&fragment));
                tracer.end(open);
                Ok(fragment)
            }
        }
    };
    let sweep = |s: &SweepRequest| -> Result<String, String> {
        let mut rows = Vec::with_capacity(s.variants.len());
        for v in &s.variants {
            let mut problem = s.base.clone();
            if let Some(t) = v.technique {
                problem = problem.with_technique(t);
            }
            rows.push(SweepRow {
                label: v.label.clone(),
                paper: v.paper,
                fragment: memo(&problem)?.to_string(),
            });
        }
        Ok(sweep_body(s.name.as_deref(), &rows))
    };
    let body = match parsed {
        ApiRequest::Solve(problem) => {
            let fragment = memo(&problem)?;
            let open = tracer.begin("serve.encode", serve_open::WORKLOAD, None, 0);
            let body = wrap_ok(&fragment);
            Response::ok(body).encode_into(buf);
            tracer.end(open);
            return Ok(());
        }
        ApiRequest::Sweep(s) => sweep(&s)?,
        ApiRequest::Batch(batch) => {
            let slots: Vec<String> = batch
                .jobs
                .iter()
                .map(|job| match job {
                    Err(e) => e.body(),
                    Ok(BatchJob::Solve(p)) => memo(p).map_or_else(
                        |m| {
                            bandwall_experiments::serve::api::error_body(
                                bandwall_experiments::serve::api::ErrorKind::InvalidRequest,
                                &m,
                            )
                        },
                        |f| wrap_ok(&f),
                    ),
                    Ok(BatchJob::Sweep(s)) => sweep(s).unwrap_or_else(|m| m),
                })
                .collect();
            batch_body(&slots)
        }
        other => return Err(format!("unexpected request {other:?}")),
    };
    let open = tracer.begin("serve.encode", serve_open::WORKLOAD, None, 0);
    Response::ok(body).encode_into(buf);
    tracer.end(open);
    Ok(())
}

/// Renames an open span before it ends (a lookup becomes a hit).
fn renamed(mut open: crate::spans::Open, name: &str) -> crate::spans::Open {
    open.rename(name);
    open
}

fn serve_replay(tracer: &Tracer, seed: u64, out: &mut Outcome) {
    let cache = SolveCache::new(bandwall_experiments::serve::ServeConfig::default().cache_capacity);
    let mut stream = serve_open::Stream::new(seed, 0);
    let warm = [
        ("/v1/solve", serve_open::MEMO_BODY),
        ("/v1/sweep", serve_open::MEMO_SWEEP_BODY),
        ("/v1/batch", serve_open::BATCH_BODY),
    ];
    let raw = |path: &str, body: &str| {
        format!(
            "POST {path} HTTP/1.1\r\nhost: bandwall\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    };
    let requests: Vec<Vec<u8>> = warm
        .iter()
        .map(|(p, b)| raw(p, b))
        .chain(
            stream
                .take(REPLAY_REQUESTS)
                .iter()
                .map(|r| raw(r.kind.path(), &r.body)),
        )
        .collect();
    let mut buf = Vec::with_capacity(4096);
    let mut bad = 0;
    for request in &requests {
        buf.clear();
        if let Err(e) = replay_request(tracer, &cache, request, &mut buf) {
            bad += 1;
            out.error(format!("serve replay: {e}"));
        }
    }
    out.checked(requests.len() as u64, bad);
    for (metric, span, scale) in [
        ("serve.http_read_ns", "serve.http_read", 1.0),
        ("serve.api_parse_ns", "serve.api_parse", 1.0),
        ("serve.memo_hit_ns", "serve.memo_hit", 1.0),
        ("serve.memo_put_ns", "serve.memo_put", 1.0),
        ("serve.solve_fragment_us", "serve.solve_fragment", 1e-3),
        ("serve.encode_ns", "serve.encode", 1.0),
    ] {
        per_call(out, tracer, metric, span, scale);
    }

    // The admission queue's hand-off: a worker parked in `pop` wakes for
    // each pushed connection.
    let queue: BoundedQueue<Instant> = BoundedQueue::new(64);
    let waits = std::thread::scope(|scope| {
        let consumer = scope.spawn(|| {
            let mut waits = Vec::new();
            while let Some(pushed) = queue.pop() {
                waits.push(pushed.elapsed().as_nanos() as u64);
            }
            waits
        });
        for _ in 0..2_000 {
            std::thread::sleep(Duration::from_micros(200));
            if queue.try_push(Instant::now()).is_err() {
                break;
            }
        }
        queue.close();
        consumer.join().expect("queue consumer panicked")
    });
    if let Some(s) = Summary::of(waits) {
        out.set(
            "serve.queue_ns",
            s.median_ns as f64,
            format!("BoundedQueue push → parked pop; {}", s.describe(1.0, "ns")),
        );
    }
}

fn serve_part(tracer: &Tracer, seed: u64, out: &mut Outcome) {
    serve_replay(tracer, seed, out);
    let mut harness = match serve_open::Harness::start() {
        Ok(h) => h,
        Err(e) => {
            out.checked(1, 1);
            out.error(e);
            return;
        }
    };
    let mut stream = serve_open::Stream::new(seed, 0);
    let off = Tracer::new(false);
    // Untraced, traced, traced, untraced, as for the regeneration.
    // Each rung with the process CPU time it used.
    let rungs: Vec<(bool, serve_open::RungRecord, u64)> = [false, true, true, false]
        .into_iter()
        .map(|traced| {
            let cpu_before = process_cpu_ns().unwrap_or(0);
            let record = harness.rung(
                ladder::REPORT_RATE,
                TRACED_RUNG,
                &mut stream,
                if traced { tracer } else { &off },
            );
            let cpu = process_cpu_ns().unwrap_or(0).saturating_sub(cpu_before);
            std::thread::sleep(Duration::from_millis(50));
            (traced, record, cpu)
        })
        .collect();
    // Then one ladder round, untraced, for the capacity.
    let ladder_round: Vec<ladder::RungStats> = harness
        .round(LADDER_RUNG, LADDER_GAP, &mut stream, &off)
        .iter()
        .map(serve_open::RungRecord::stats)
        .collect();
    out.set(
        "serve.max_rps",
        ladder::max_rate(&ladder_round),
        format!(
            "one round of {} ms rungs, windowed-p99 limit {} ms: {}",
            LADDER_RUNG.as_millis(),
            ladder::P99_LIMIT_MS,
            ladder_round
                .iter()
                .map(|r| format!(
                    "{}k:p99={:.3}ms,done={:.4},goodput={:.0}{}",
                    r.rate / 1e3,
                    r.p99_ms,
                    r.completion,
                    r.goodput,
                    if r.backlog_grew { ",backlog grew" } else { "" }
                ))
                .collect::<Vec<_>>()
                .join(" ")
        ),
    );
    for e in harness.errors.drain(..) {
        out.error(e);
    }
    let (attempted, failed) = (harness.attempted, harness.failed);
    let (stats, problem) = harness.finish();
    out.checked(attempted + 1, failed + u64::from(problem.is_some()));
    if let Some(p) = problem {
        out.error(p);
    }
    let summaries = |traced: bool| -> Vec<serve_open::RungSummary> {
        rungs
            .iter()
            .filter(|(t, _, _)| *t == traced)
            .map(|(_, r, _)| r.summary())
            .collect()
    };
    // CPU per completed request, as the untraced run reports it.
    let cpu_us = |traced: bool| {
        let (cpu, ok) = rungs
            .iter()
            .filter(|(t, _, _)| *t == traced)
            .fold((0, 0), |(c, n), (_, r, cpu)| (c + cpu, n + r.ok));
        cpu as f64 / ok.max(1) as f64 / 1e3
    };
    out.set(
        "trace_overhead.serve_cpu_us_per_req",
        cpu_us(true) - cpu_us(false),
        format!(
            "CPU per request at {} req/s: traced {:.2} us − untraced {:.2} us \
             (rungs in order U T T U)",
            ladder::REPORT_RATE,
            cpu_us(true),
            cpu_us(false)
        ),
    );
    let untraced = summaries(false);
    if let Some(p50) = Summary::of(untraced.iter().map(|r| r.median_ns).collect()) {
        out.set(
            "serve.p50_ms",
            p50.median_ns as f64 / 1e6,
            format!(
                "p50 at {} req/s from due time: median of the untraced rungs' medians",
                ladder::REPORT_RATE
            ),
        );
    }
    out.set(
        "serve.p99_ms",
        serve_open::median_window_p99_ns(&untraced) as f64 / 1e6,
        format!(
            "p99 at {} req/s from due time: median of the untraced rungs' {} windows' p99",
            ladder::REPORT_RATE,
            untraced
                .iter()
                .map(|r| r.window_p99s_ns.len())
                .sum::<usize>()
        ),
    );
    let late: Vec<u64> = rungs
        .iter()
        .flat_map(|(_, r, _)| r.late_ns.iter().copied())
        .collect();
    if let Some(late) = Summary::of(late) {
        out.set(
            "loadgen.late_p99_ms",
            late.percentile_ns(99.0) as f64 / 1e6,
            format!(
                "generator send lateness at {} req/s; {}",
                ladder::REPORT_RATE,
                late.describe(1e-6, "ms")
            ),
        );
    }
    out.set(
        "serve.backlog_max",
        f64::from(
            rungs
                .iter()
                .map(|(_, r, _)| r.backlog_max)
                .max()
                .unwrap_or(0),
        ),
        "largest per-connection backlog of due, unsent requests",
    );
    let refills: u64 = rungs.iter().map(|(_, r, _)| r.memo_refills).sum();
    let lookups = stats.cache_hits + stats.cache_misses;
    out.set(
        "serve.memo_hit_ratio",
        stats.cache_hits as f64 / lookups.max(1) as f64,
        format!(
            "{} hits of {lookups} memo lookups ({refills} memoized-request refills after FIFO eviction)",
            stats.cache_hits,
        ),
    );
    out.set(
        "serve.shed",
        stats.shed as f64,
        "server counter after drain",
    );
    out.set(
        "serve.deadline_exceeded",
        stats.deadline_exceeded as f64,
        "server counter after drain",
    );
    out.set(
        "serve.internal",
        stats.internal as f64,
        "server counter after drain",
    );

    match serve_open::sharded_stall(STALL_PROBE, seed) {
        Ok(stall) => {
            out.set(
                "serve.sharded_conn_wait_ms",
                stall.max_first_reply_ms,
                format!(
                    "shards=workers=2, 2 keep-alive clients at 2k req/s for {} ms: longest wait \
                     for a connection's first reply (known defect, ROADMAP item 5)",
                    STALL_PROBE.as_millis()
                ),
            );
            out.set(
                "serve.sharded_deadline_exceeded",
                stall.deadline_exceeded as f64,
                "504 replies in the sharded-stall probe (not counted as failures)",
            );
        }
        Err(e) => {
            out.checked(1, 1);
            out.error(e);
        }
    }
}

fn sim_part(tracer: &Tracer, seed: u64, out: &mut Outcome) {
    let threads = parallelism();
    let mut source = sim::trace(seed);
    let open = tracer.begin("sim.generate", sim::WORKLOAD, None, 0);
    let began = Instant::now();
    let mut sink = 0u64;
    for a in source.iter().take(sim::ACCESSES) {
        sink = sink.wrapping_add(a.address());
    }
    let generate_ns = began.elapsed().as_nanos() as u64;
    tracer.end_calls(open, sim::ACCESSES as u64);
    black_box(sink);

    // A warm-up, untraced, traced, traced, untraced live banked runs,
    // then one sequential run for the equality check.
    if let Err(e) = sim::warm_up(seed, threads) {
        out.error(e);
    }
    let mut walls = [Vec::new(), Vec::new()];
    let mut all = Vec::new();
    let off = Tracer::new(false);
    for traced in [false, true, true, false] {
        let spans = if traced { tracer } else { &off };
        let open = spans.begin("sim.run_banked", sim::WORKLOAD, None, 0);
        match sim::run(seed, threads) {
            Ok(run) => {
                walls[usize::from(traced)].push(run.wall_ns);
                all.push(run.stats);
            }
            Err(e) => out.error(e),
        }
        spans.end_calls(open, sim::ACCESSES as u64);
    }
    let open = tracer.begin("sim.run_sequential", sim::WORKLOAD, None, 0);
    let sequential = sim::run(seed, 1);
    tracer.end_calls(open, sim::ACCESSES as u64);
    let sequential = match sequential {
        Ok(run) if all.len() == 4 => run,
        Ok(_) => {
            out.checked(1, 1);
            return;
        }
        Err(e) => {
            out.error(e);
            out.checked(1, 1);
            return;
        }
    };
    let same = all.iter().all(|s| *s == sequential.stats);
    out.checked(1, u64::from(!same));
    if !same {
        out.error("sim: run(1) and run(n) statistics differ");
    }
    let rate = |v: &[u64]| sim::maccess_per_s(2 * sim::ACCESSES, v.iter().sum());
    let (untraced, traced) = (rate(&walls[0]), rate(&walls[1]));
    out.set(
        "trace_overhead.sim_maccess_per_s",
        untraced - traced,
        format!(
            "untraced {untraced:.4} − traced {traced:.4} Macc/s over runs in order U T T U \
             (positive = slower traced)"
        ),
    );
    let untraced_wall = walls[0].iter().sum::<u64>() / 2;
    out.set(
        "cache_sim.producer_share",
        generate_ns as f64 / untraced_wall.max(1) as f64,
        format!(
            "generating {} accesses alone took {:.3} s; live banked run {:.3} s",
            sim::ACCESSES,
            generate_ns as f64 / 1e9,
            untraced_wall as f64 / 1e9
        ),
    );
    let s = sequential.stats;
    for (metric, value) in [
        ("cache_sim.accesses", s.l1.accesses()),
        ("cache_sim.misses", s.l2.misses()),
        ("cache_sim.fetch_bytes", s.traffic.fetched_bytes()),
        ("cache_sim.writeback_bytes", s.traffic.written_bytes()),
    ] {
        out.set(
            metric,
            value as f64,
            "exact count of the sim_compressed run",
        );
    }
}

/// Runs the traced suite, writes the Chrome trace, and returns the
/// per-layer metrics.
pub fn run(args: &Args) -> Outcome {
    let tracer = Tracer::new(true);
    let mut out = Outcome::default();
    let mut order: Vec<&'static str> = vec![args.workload];
    order.extend(crate::PATHS.iter().filter(|&&w| w != args.workload));
    layers(&tracer, args.seed, &mut out);
    for path in order {
        match path {
            regen::WORKLOAD => regen_part(&tracer, &mut out),
            serve_open::WORKLOAD => serve_part(&tracer, args.seed, &mut out),
            _ => sim_part(&tracer, args.seed, &mut out),
        }
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.bench_out");
    let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    let json = chrome_trace_json(&tracer.spans(), &[("provenance", provenance_json(args))]);
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
        Ok(()) => println!("trace written to {}", path.display()),
        Err(e) => out.error(format!("writing {}: {e}", path.display())),
    }
    out
}
