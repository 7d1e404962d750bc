//! `bandwall` — the unified experiment runner.
//!
//! The one binary over the whole registry: every experiment runs
//! through `bandwall run <id>`.
//!
//! ```text
//! bandwall list                         # every experiment id + title
//! bandwall run fig02_traffic_vs_cores   # one experiment, ASCII
//! bandwall run --all --format json      # everything, as a JSON array
//! bandwall run --all --out reports/     # one file per experiment
//! bandwall run --all --jobs 8           # run experiments concurrently
//! bandwall run --all --seed 7           # re-seed every simulation
//! bandwall run --all --timeout 120      # per-experiment deadline
//! ```
//!
//! Experiments run concurrently (`--jobs`, default: available
//! parallelism) but reports are always emitted in registry order, so
//! output is deterministic regardless of scheduling.
//!
//! Runs are fault-isolated: a panicking, erroring, or (with `--timeout`)
//! hanging experiment becomes a structured failure report in its
//! registry slot while every other experiment completes normally
//! (`--keep-going`, the default). `--fail-fast` stops claiming new
//! experiments after the first failure. The process exits 1 when any
//! report is a failure.

use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use bandwall_experiments::error::ExperimentError;
use bandwall_experiments::fault::{panic_message, ChaosSpec};
use bandwall_experiments::perf::{run_group, BenchGroup, BenchOptions, GROUPS};
use bandwall_experiments::registry::{registry_with_seed, Experiment};
use bandwall_experiments::report::Report;
use bandwall_experiments::serve::loadgen::{
    run_against, EndpointSelection, LoadgenOptions, MixWeights,
};
use bandwall_experiments::serve::{ServeConfig, Server, StatsSnapshot};

const USAGE: &str = "\
bandwall — unified runner for the bandwidth-wall experiment registry

USAGE:
    bandwall list
    bandwall run <id>... [OPTIONS]
    bandwall run --all [OPTIONS]
    bandwall bench [GROUP]... [BENCH OPTIONS]
    bandwall bench --list
    bandwall serve [SERVE OPTIONS]
    bandwall loadgen [LOADGEN OPTIONS]

OPTIONS:
    --format <ascii|csv|json>   output format (default: ascii)
    --out <DIR>                 write one file per experiment into DIR
                                instead of printing to stdout (each file
                                is written to a .tmp path then renamed,
                                so readers never see partial reports)
    --jobs <N>                  worker threads (default: available
                                parallelism, capped at the experiment
                                count)
    --seed <N>                  derive a fresh seed for every seeded
                                experiment (default: historical seeds,
                                byte-compatible with the golden reports)
    --timeout <SECS>            per-experiment wall-clock deadline; an
                                overrunning experiment becomes a failure
                                report (default: no deadline)
    --keep-going                run every experiment even after failures,
                                reporting each failure in place (default)
    --fail-fast                 stop claiming new experiments after the
                                first failure; unstarted experiments are
                                skipped with a note on stderr
    -h, --help                  show this help

BENCH OPTIONS:
    --list                      list bench groups and exit
    --warmup <N>                untimed runs per kernel (default: 1)
    --iters <N>                 timed samples per kernel (default: 5)
    --accesses <N>              simulated accesses per sample
                                (default: 400000)
    --quick                     CI smoke preset: 1 warmup, 3 iters,
                                60000 accesses
    --format <ascii|csv|json>   output format (default: ascii)
    --out <DIR>                 write one report file per group into DIR
    --snapshot <DIR>            additionally write machine-readable
                                BENCH_<group>.json snapshots into DIR
    --floor <ID=RATE>           fail (exit 1) if kernel ID's median
                                throughput drops below RATE items/s;
                                repeatable, checked after all groups ran

    With no GROUP arguments, every group runs.

SERVE OPTIONS:
    --addr <HOST:PORT>          bind address (default: 127.0.0.1:8787;
                                port 0 picks an ephemeral port)
    --workers <N>               worker threads (default: 2)
    --shards <N>                admission shards, each with its own
                                acceptor thread and queue; clamped to
                                the worker count (default: 1)
    --queue <N>                 bounded request-queue capacity, divided
                                across the shards; the excess is shed
                                with an `overloaded` reply (default: 64)
    --deadline-ms <MS>          per-request deadline; overruns reply
                                504 `deadline_exceeded` (default: 2000)
    --read-timeout-ms <MS>      socket read/write window and keep-alive
                                idle limit (default: 5000)
    --cache-capacity <N>        memoized-solve cache entries, 0 to
                                disable (default: 4096)
    --chaos [SPEC]              inject faults: panic=P,worker=P,
                                delay=P:MS,seed=N (default spec:
                                panic=0.01,worker=0.001,delay=0.02:2)

    SIGTERM/SIGINT stop accepting, drain in-flight requests, print a
    stats summary, and exit 0.

LOADGEN OPTIONS:
    --addr <HOST:PORT>          server to drive (default: 127.0.0.1:8787)
    --connections <N>           concurrent connections in the
                                throughput batch (default: 4)
    --requests <N>              requests per kernel (default: 2000)
    --quick                     CI smoke preset: 2 connections,
                                200 requests
    --endpoint <NAME>           exercise only one POST endpoint's
                                kernels: solve, sweep, or batch
                                (default: all)
    --mix <SPEC>                weighted endpoint mix on one connection,
                                e.g. solve=7,sweep=2,batch=1; reports
                                per-endpoint latency percentiles
    --floor <ID=RATE>           fail (exit 1) if kernel ID's median
                                throughput drops below RATE requests/s;
                                repeatable
    --format <ascii|csv|json>   output format (default: ascii)
    --out <DIR>                 write the report into DIR
    --snapshot <DIR>            write a BENCH_serve.json snapshot

EXIT STATUS:
    0 when every selected experiment succeeds, 1 when any fails.
";

#[derive(Debug, Clone, Copy, PartialEq)]
enum Format {
    Ascii,
    Csv,
    Json,
}

impl Format {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "ascii" => Ok(Format::Ascii),
            "csv" => Ok(Format::Csv),
            "json" => Ok(Format::Json),
            other => Err(format!("unknown format '{other}' (ascii|csv|json)")),
        }
    }

    fn extension(self) -> &'static str {
        match self {
            Format::Ascii => "txt",
            Format::Csv => "csv",
            Format::Json => "json",
        }
    }

    fn render(self, report: &Report) -> String {
        match self {
            Format::Ascii => report.to_ascii(),
            Format::Csv => report.to_csv(),
            Format::Json => report.to_json(),
        }
    }
}

#[derive(Debug)]
struct RunArgs {
    ids: Vec<String>,
    all: bool,
    format: Format,
    out: Option<std::path::PathBuf>,
    jobs: Option<usize>,
    seed: Option<u64>,
    timeout: Option<u64>,
    fail_fast: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        ids: Vec::new(),
        all: false,
        format: Format::Ascii,
        out: None,
        jobs: None,
        seed: None,
        timeout: None,
        fail_fast: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--all" => run.all = true,
            "--format" => {
                let v = it.next().ok_or("--format needs a value")?;
                run.format = Format::parse(v)?;
            }
            "--out" => {
                let v = it.next().ok_or("--out needs a directory")?;
                run.out = Some(v.into());
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a count")?;
                let n: usize = v.parse().map_err(|_| format!("bad --jobs value '{v}'"))?;
                if n == 0 {
                    return Err("--jobs must be at least 1".into());
                }
                run.jobs = Some(n);
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                run.seed = Some(v.parse().map_err(|_| format!("bad --seed value '{v}'"))?);
            }
            "--timeout" => {
                let v = it.next().ok_or("--timeout needs a value in seconds")?;
                let secs: u64 = v
                    .parse()
                    .map_err(|_| format!("bad --timeout value '{v}'"))?;
                if secs == 0 {
                    return Err("--timeout must be at least 1 second".into());
                }
                run.timeout = Some(secs);
            }
            "--fail-fast" => run.fail_fast = true,
            "--keep-going" => run.fail_fast = false,
            flag if flag.starts_with('-') => return Err(format!("unknown option '{flag}'")),
            id => run.ids.push(id.to_string()),
        }
    }
    if run.all && !run.ids.is_empty() {
        return Err("pass either --all or explicit ids, not both".into());
    }
    if !run.all && run.ids.is_empty() {
        return Err("nothing to run: pass experiment ids or --all".into());
    }
    Ok(run)
}

/// Runs one experiment with panics contained: a panic unwinds into a
/// structured failure report instead of taking down the worker.
fn run_caught(experiment: &dyn Experiment) -> Report {
    match catch_unwind(AssertUnwindSafe(|| experiment.run_to_report())) {
        Ok(report) => report,
        Err(payload) => Report::failure(
            experiment.id(),
            experiment.figure(),
            experiment.title(),
            ExperimentError::Panicked(
                panic_message(&*payload)
                    .unwrap_or("non-string panic payload")
                    .to_string(),
            ),
        ),
    }
}

/// Runs one experiment under an optional wall-clock deadline. With a
/// deadline the run happens on a dedicated watchdog thread; on overrun
/// the thread is abandoned (it cannot be killed) and a timeout failure
/// report takes its registry slot.
fn run_guarded(experiment: &Arc<dyn Experiment>, timeout: Option<Duration>) -> Report {
    let Some(limit) = timeout else {
        return run_caught(experiment.as_ref());
    };
    let (tx, rx) = mpsc::channel();
    let worker = Arc::clone(experiment);
    std::thread::spawn(move || {
        // A send error just means the watchdog gave up waiting.
        let _ = tx.send(run_caught(worker.as_ref()));
    });
    match rx.recv_timeout(limit) {
        Ok(report) => report,
        Err(mpsc::RecvTimeoutError::Timeout) => Report::failure(
            experiment.id(),
            experiment.figure(),
            experiment.title(),
            ExperimentError::TimedOut {
                limit_secs: limit.as_secs(),
            },
        ),
        Err(mpsc::RecvTimeoutError::Disconnected) => Report::failure(
            experiment.id(),
            experiment.figure(),
            experiment.title(),
            ExperimentError::WorkerDied,
        ),
    }
}

/// Runs `selected` concurrently on `jobs` scoped threads; reports come
/// back in input order regardless of which thread finished first.
///
/// Fault isolation: each run is wrapped in [`run_guarded`], so panics,
/// typed errors, and deadline overruns all land as failure reports in
/// their own slot. Slot mutexes are read through poison recovery, so
/// even a panic in the harness itself (between run and store) cannot
/// cascade. With `fail_fast`, workers stop claiming new experiments
/// after the first failure; unclaimed experiments are reported on
/// stderr and omitted from the output.
fn run_parallel(
    selected: &[Arc<dyn Experiment>],
    jobs: usize,
    timeout: Option<Duration>,
    fail_fast: bool,
) -> Vec<Report> {
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let slots: Vec<Mutex<Option<Report>>> = selected.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(selected.len()) {
            scope.spawn(|| loop {
                if fail_fast && stop.load(Ordering::Relaxed) {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(experiment) = selected.get(i) else {
                    break;
                };
                let report = run_guarded(experiment, timeout);
                if report.is_failure() {
                    stop.store(true, Ordering::Relaxed);
                }
                *slots[i].lock().unwrap_or_else(|p| p.into_inner()) = Some(report);
            });
        }
    });
    let mut reports = Vec::with_capacity(selected.len());
    for (slot, experiment) in slots.into_iter().zip(selected) {
        match slot.into_inner().unwrap_or_else(|p| p.into_inner()) {
            Some(report) => reports.push(report),
            None if fail_fast => {
                eprintln!("bandwall: skipped {} (--fail-fast)", experiment.id());
            }
            None => {
                // The worker claimed this slot but never stored a report:
                // it died outside the contained run.
                reports.push(Report::failure(
                    experiment.id(),
                    experiment.figure(),
                    experiment.title(),
                    ExperimentError::WorkerDied,
                ));
            }
        }
    }
    reports
}

/// Writes `contents` to `path` atomically: the bytes land in a `.tmp`
/// sibling first and are renamed into place, so a crash mid-write never
/// leaves a truncated report behind.
fn write_atomic(path: &std::path::Path, contents: &str) -> Result<(), String> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, contents).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| format!("cannot rename {} to {}: {e}", tmp.display(), path.display()))
}

fn emit(reports: &[Report], format: Format, out: Option<&std::path::Path>) -> Result<(), String> {
    match out {
        Some(dir) => {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
            for report in reports {
                let path = dir.join(format!("{}.{}", report.id, format.extension()));
                write_atomic(&path, &format.render(report))?;
                println!("wrote {}", path.display());
            }
        }
        None => {
            let stdout = std::io::stdout();
            let mut w = stdout.lock();
            let rendered: Result<(), std::io::Error> = (|| {
                match format {
                    Format::Json => {
                        // One valid JSON document: an array of reports.
                        w.write_all(b"[")?;
                        for (i, report) in reports.iter().enumerate() {
                            if i > 0 {
                                w.write_all(b",")?;
                            }
                            w.write_all(report.to_json().as_bytes())?;
                        }
                        w.write_all(b"]\n")?;
                    }
                    Format::Ascii | Format::Csv => {
                        for (i, report) in reports.iter().enumerate() {
                            if i > 0 {
                                w.write_all(b"\n")?;
                            }
                            w.write_all(format.render(report).as_bytes())?;
                        }
                    }
                }
                Ok(())
            })();
            rendered.map_err(|e| format!("stdout: {e}"))?;
        }
    }
    Ok(())
}

fn cmd_list() {
    let reg = registry_with_seed(None);
    let width = reg.iter().map(|e| e.id().len()).max().unwrap_or(0);
    for e in &reg {
        println!("{:width$}  {} — {}", e.id(), e.figure(), e.title());
    }
}

/// Runs the selected experiments; `Ok(true)` means at least one failed.
fn cmd_run(args: &[String]) -> Result<bool, String> {
    let run = parse_run_args(args)?;
    let reg = registry_with_seed(run.seed);
    let selected: Vec<Arc<dyn Experiment>> = if run.all {
        reg.into_iter().map(Arc::from).collect()
    } else {
        let mut by_id: Vec<Option<Box<dyn Experiment>>> = reg.into_iter().map(Some).collect();
        let mut picked = Vec::new();
        for id in &run.ids {
            let found = by_id
                .iter_mut()
                .find(|slot| slot.as_deref().is_some_and(|e| e.id() == id));
            match found {
                Some(slot) => picked.push(Arc::from(slot.take().unwrap())),
                None => {
                    return Err(format!(
                        "unknown experiment id '{id}' (see `bandwall list`)"
                    ))
                }
            }
        }
        picked
    };
    let jobs = run.jobs.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(1)
    });
    let timeout = run.timeout.map(Duration::from_secs);
    let reports = run_parallel(&selected, jobs, timeout, run.fail_fast);
    emit(&reports, run.format, run.out.as_deref())?;
    let failed = reports.iter().filter(|r| r.is_failure()).count();
    let skipped = selected.len() - reports.len();
    if failed > 0 || skipped > 0 {
        eprintln!(
            "bandwall: {failed} of {} experiments failed{}",
            selected.len(),
            if skipped > 0 {
                format!(", {skipped} skipped")
            } else {
                String::new()
            }
        );
    }
    Ok(failed > 0 || skipped > 0)
}

#[derive(Debug)]
struct BenchArgs {
    groups: Vec<String>,
    list: bool,
    options: BenchOptions,
    format: Format,
    out: Option<std::path::PathBuf>,
    snapshot: Option<std::path::PathBuf>,
    floors: Vec<(String, f64)>,
}

fn parse_bench_args(args: &[String]) -> Result<BenchArgs, String> {
    let mut bench = BenchArgs {
        groups: Vec::new(),
        list: false,
        options: BenchOptions::standard(),
        format: Format::Ascii,
        out: None,
        snapshot: None,
        floors: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--list" => bench.list = true,
            "--quick" => bench.options = BenchOptions::quick(),
            "--warmup" => {
                let v = it.next().ok_or("--warmup needs a count")?;
                bench.options.warmup =
                    v.parse().map_err(|_| format!("bad --warmup value '{v}'"))?;
            }
            "--iters" => {
                let v = it.next().ok_or("--iters needs a count")?;
                let n: usize = v.parse().map_err(|_| format!("bad --iters value '{v}'"))?;
                if n == 0 {
                    return Err("--iters must be at least 1".into());
                }
                bench.options.iters = n;
            }
            "--accesses" => {
                let v = it.next().ok_or("--accesses needs a count")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("bad --accesses value '{v}'"))?;
                if n == 0 {
                    return Err("--accesses must be at least 1".into());
                }
                bench.options.accesses = n;
            }
            "--format" => {
                let v = it.next().ok_or("--format needs a value")?;
                bench.format = Format::parse(v)?;
            }
            "--out" => {
                let v = it.next().ok_or("--out needs a directory")?;
                bench.out = Some(v.into());
            }
            "--snapshot" => {
                let v = it.next().ok_or("--snapshot needs a directory")?;
                bench.snapshot = Some(v.into());
            }
            "--floor" => {
                let v = it.next().ok_or("--floor needs ID=RATE")?;
                let (id, rate) = v
                    .split_once('=')
                    .ok_or_else(|| format!("bad --floor '{v}' (expected ID=RATE)"))?;
                let rate: f64 = rate
                    .parse()
                    .map_err(|_| format!("bad --floor rate '{rate}'"))?;
                if !rate.is_finite() || rate <= 0.0 {
                    return Err("--floor rate must be positive".into());
                }
                bench.floors.push((id.to_string(), rate));
            }
            flag if flag.starts_with('-') => return Err(format!("unknown option '{flag}'")),
            group => bench.groups.push(group.to_string()),
        }
    }
    for group in &bench.groups {
        if !GROUPS.contains(&group.as_str()) {
            return Err(format!(
                "unknown bench group '{group}' (see `bandwall bench --list`)"
            ));
        }
    }
    Ok(bench)
}

fn cmd_bench(args: &[String]) -> Result<(), String> {
    let bench = parse_bench_args(args)?;
    if bench.list {
        for group in GROUPS {
            println!("{group}");
        }
        return Ok(());
    }
    let selected: Vec<&str> = if bench.groups.is_empty() {
        GROUPS.to_vec()
    } else {
        bench.groups.iter().map(String::as_str).collect()
    };
    let mut reports = Vec::with_capacity(selected.len());
    let mut groups = Vec::with_capacity(selected.len());
    for name in selected {
        eprintln!("bandwall: benching {name}...");
        let group = run_group(name, &bench.options)?;
        if let Some(dir) = &bench.snapshot {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
            let path = dir.join(group.snapshot_filename());
            write_atomic(&path, &group.snapshot_json())?;
            eprintln!("bandwall: wrote {}", path.display());
        }
        reports.push(group.to_report());
        groups.push(group);
    }
    emit(&reports, bench.format, bench.out.as_deref())?;
    check_floors(&bench.floors, &groups)
}

/// The `--floor` regression gate: every floor must name a kernel that
/// ran, and that kernel's median throughput must meet the rate.
fn check_floors(floors: &[(String, f64)], groups: &[BenchGroup]) -> Result<(), String> {
    for (id, rate) in floors {
        let result = groups
            .iter()
            .flat_map(|g| &g.results)
            .find(|r| r.id == *id)
            .ok_or_else(|| format!("--floor {id}: no such kernel ran"))?;
        let actual = result.items_per_sec();
        if actual < *rate {
            return Err(format!(
                "--floor {id}: throughput {actual:.0} {}/s is below the floor {rate:.0}",
                result.unit
            ));
        }
        eprintln!(
            "bandwall: floor {id}: {actual:.0} {}/s >= {rate:.0} ok",
            result.unit
        );
    }
    Ok(())
}

/// Minimal signal handling for `bandwall serve`, kept in the binary
/// because the library forbids `unsafe`. On unix, SIGINT/SIGTERM flip
/// one atomic flag that the serve loop polls; elsewhere the install is
/// a no-op and ctrl-c falls back to the platform default.
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    static REQUESTED: AtomicBool = AtomicBool::new(false);

    /// Whether a shutdown signal has arrived.
    pub fn requested() -> bool {
        REQUESTED.load(Ordering::Relaxed)
    }

    #[cfg(unix)]
    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        extern "C" fn on_signal(_signum: i32) {
            REQUESTED.store(true, Ordering::Relaxed);
        }
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        // SAFETY: `signal(2)` with a handler that only stores to an
        // atomic is async-signal-safe; both signums are valid.
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }

    #[cfg(not(unix))]
    pub fn install() {}
}

#[derive(Debug)]
struct ServeArgs {
    config: ServeConfig,
}

fn parse_serve_args(args: &[String]) -> Result<ServeArgs, String> {
    let mut config = ServeConfig::default();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => {
                let v = it.next().ok_or("--addr needs HOST:PORT")?;
                config.addr = v.clone();
            }
            "--workers" => {
                let v = it.next().ok_or("--workers needs a count")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("bad --workers value '{v}'"))?;
                if n == 0 {
                    return Err("--workers must be at least 1".into());
                }
                config.workers = n;
            }
            "--shards" => {
                let v = it.next().ok_or("--shards needs a count")?;
                let n: usize = v.parse().map_err(|_| format!("bad --shards value '{v}'"))?;
                if n == 0 {
                    return Err("--shards must be at least 1".into());
                }
                config.shards = n;
            }
            "--queue" => {
                let v = it.next().ok_or("--queue needs a capacity")?;
                let n: usize = v.parse().map_err(|_| format!("bad --queue value '{v}'"))?;
                if n == 0 {
                    return Err("--queue must be at least 1".into());
                }
                config.queue_capacity = n;
            }
            "--deadline-ms" => {
                let v = it.next().ok_or("--deadline-ms needs a value")?;
                let ms: u64 = v
                    .parse()
                    .map_err(|_| format!("bad --deadline-ms value '{v}'"))?;
                if ms == 0 {
                    return Err("--deadline-ms must be at least 1".into());
                }
                config.deadline = Duration::from_millis(ms);
            }
            "--read-timeout-ms" => {
                let v = it.next().ok_or("--read-timeout-ms needs a value")?;
                let ms: u64 = v
                    .parse()
                    .map_err(|_| format!("bad --read-timeout-ms value '{v}'"))?;
                if ms == 0 {
                    return Err("--read-timeout-ms must be at least 1".into());
                }
                config.read_timeout = Duration::from_millis(ms);
            }
            "--cache-capacity" => {
                let v = it.next().ok_or("--cache-capacity needs a count")?;
                config.cache_capacity = v
                    .parse()
                    .map_err(|_| format!("bad --cache-capacity value '{v}'"))?;
            }
            "--chaos" => {
                // The spec value is optional: a bare `--chaos` means the
                // standard spec; anything not starting with `-` is parsed.
                let spec = match it.peek() {
                    Some(v) if !v.starts_with('-') => {
                        let v = it.next().expect("peeked value");
                        ChaosSpec::parse(v)?
                    }
                    _ => ChaosSpec::standard(),
                };
                config.chaos = Some(spec);
            }
            flag if flag.starts_with('-') => return Err(format!("unknown option '{flag}'")),
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    Ok(ServeArgs { config })
}

/// Renders the final serve counters as one JSON line for scripts.
fn stats_json(stats: &StatsSnapshot) -> String {
    format!(
        "{{\"connections\":{},\"served_ok\":{},\"shed\":{},\
         \"invalid_request\":{},\"not_found\":{},\"not_ready\":{},\
         \"deadline_exceeded\":{},\"internal\":{},\"worker_respawns\":{},\
         \"cache_hits\":{},\"cache_misses\":{}}}",
        stats.connections,
        stats.served_ok,
        stats.shed,
        stats.invalid_request,
        stats.not_found,
        stats.not_ready,
        stats.deadline_exceeded,
        stats.internal,
        stats.worker_respawns,
        stats.cache_hits,
        stats.cache_misses,
    )
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let serve = parse_serve_args(args)?;
    signals::install();
    let chaos = serve.config.chaos.is_some();
    let server = Server::start(serve.config).map_err(|e| format!("starting server: {e}"))?;
    eprintln!(
        "bandwall: serving on {}{} (SIGTERM/SIGINT to drain)",
        server.addr(),
        if chaos { " with chaos injection" } else { "" }
    );
    while !signals::requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("bandwall: draining...");
    server.shutdown_handle().shutdown();
    let stats = server.join();
    println!("{}", stats_json(&stats));
    eprintln!(
        "bandwall: drained; {} ok, {} shed, {} deadline-exceeded, {} respawns",
        stats.served_ok, stats.shed, stats.deadline_exceeded, stats.worker_respawns
    );
    Ok(())
}

#[derive(Debug)]
struct LoadgenArgs {
    addr: String,
    options: LoadgenOptions,
    format: Format,
    out: Option<std::path::PathBuf>,
    snapshot: Option<std::path::PathBuf>,
    floors: Vec<(String, f64)>,
}

fn parse_loadgen_args(args: &[String]) -> Result<LoadgenArgs, String> {
    let mut loadgen = LoadgenArgs {
        addr: "127.0.0.1:8787".to_string(),
        options: LoadgenOptions::standard(),
        format: Format::Ascii,
        out: None,
        snapshot: None,
        floors: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => {
                let v = it.next().ok_or("--addr needs HOST:PORT")?;
                loadgen.addr = v.clone();
            }
            "--quick" => {
                let (endpoint, mix) = (loadgen.options.endpoint, loadgen.options.mix);
                loadgen.options = LoadgenOptions::quick();
                loadgen.options.endpoint = endpoint;
                loadgen.options.mix = mix;
            }
            "--endpoint" => {
                let v = it.next().ok_or("--endpoint needs a value")?;
                loadgen.options.endpoint = EndpointSelection::parse(v)?;
            }
            "--mix" => {
                let v = it.next().ok_or("--mix needs a spec like solve=7,sweep=2")?;
                loadgen.options.mix = Some(MixWeights::parse(v)?);
            }
            "--floor" => {
                let v = it.next().ok_or("--floor needs ID=RATE")?;
                let (id, rate) = v
                    .split_once('=')
                    .ok_or_else(|| format!("bad --floor '{v}' (expected ID=RATE)"))?;
                let rate: f64 = rate
                    .parse()
                    .map_err(|_| format!("bad --floor rate '{rate}'"))?;
                if rate <= 0.0 {
                    return Err("--floor rate must be positive".into());
                }
                loadgen.floors.push((id.to_string(), rate));
            }
            "--connections" => {
                let v = it.next().ok_or("--connections needs a count")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("bad --connections value '{v}'"))?;
                if n == 0 {
                    return Err("--connections must be at least 1".into());
                }
                loadgen.options.connections = n;
            }
            "--requests" => {
                let v = it.next().ok_or("--requests needs a count")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("bad --requests value '{v}'"))?;
                if n == 0 {
                    return Err("--requests must be at least 1".into());
                }
                loadgen.options.requests = n;
            }
            "--format" => {
                let v = it.next().ok_or("--format needs a value")?;
                loadgen.format = Format::parse(v)?;
            }
            "--out" => {
                let v = it.next().ok_or("--out needs a directory")?;
                loadgen.out = Some(v.into());
            }
            "--snapshot" => {
                let v = it.next().ok_or("--snapshot needs a directory")?;
                loadgen.snapshot = Some(v.into());
            }
            flag if flag.starts_with('-') => return Err(format!("unknown option '{flag}'")),
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    Ok(loadgen)
}

fn cmd_loadgen(args: &[String]) -> Result<(), String> {
    use std::net::ToSocketAddrs;
    let loadgen = parse_loadgen_args(args)?;
    let addr = loadgen
        .addr
        .to_socket_addrs()
        .map_err(|e| format!("resolving '{}': {e}", loadgen.addr))?
        .next()
        .ok_or_else(|| format!("'{}' resolves to no address", loadgen.addr))?;
    eprintln!(
        "bandwall: driving {addr} with {} connections, {} requests per kernel...",
        loadgen.options.connections, loadgen.options.requests
    );
    let results = run_against(&addr, &loadgen.options)?;
    // Wrap the results as a `serve` bench group so --format/--out/
    // --snapshot behave exactly like `bandwall bench serve`. The bench
    // options record the loadgen shape in the snapshot provenance:
    // iters = requests per kernel, accesses = total request budget.
    let group = BenchGroup {
        group: "serve".to_string(),
        options: BenchOptions {
            warmup: 0,
            iters: loadgen.options.requests,
            accesses: loadgen.options.requests * loadgen.options.connections,
        },
        host_parallelism: std::thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(1),
        results,
    };
    if let Some(dir) = &loadgen.snapshot {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let path = dir.join(group.snapshot_filename());
        write_atomic(&path, &group.snapshot_json())?;
        eprintln!("bandwall: wrote {}", path.display());
    }
    emit(&[group.to_report()], loadgen.format, loadgen.out.as_deref())?;
    let groups = [group];
    check_floors(&loadgen.floors, &groups)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            cmd_list();
            ExitCode::SUCCESS
        }
        Some("run") => match cmd_run(&args[1..]) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("bandwall: {e}");
                ExitCode::FAILURE
            }
        },
        Some("bench") => match cmd_bench(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("bandwall: {e}");
                ExitCode::FAILURE
            }
        },
        Some("serve") => match cmd_serve(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("bandwall: {e}");
                ExitCode::FAILURE
            }
        },
        Some("loadgen") => match cmd_loadgen(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("bandwall: {e}");
                ExitCode::FAILURE
            }
        },
        Some("-h" | "--help") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("bandwall: unknown command '{other}'\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_ids_and_flags() {
        let run = parse_run_args(&args(&[
            "fig02_traffic_vs_cores",
            "--format",
            "json",
            "--jobs",
            "3",
            "--seed",
            "7",
            "--timeout",
            "120",
            "--fail-fast",
        ]))
        .unwrap();
        assert_eq!(run.ids, vec!["fig02_traffic_vs_cores"]);
        assert!(!run.all);
        assert!(run.format == Format::Json);
        assert_eq!(run.jobs, Some(3));
        assert_eq!(run.seed, Some(7));
        assert_eq!(run.timeout, Some(120));
        assert!(run.fail_fast);
    }

    #[test]
    fn keep_going_is_the_default_and_overrides_fail_fast() {
        let run = parse_run_args(&args(&["--all"])).unwrap();
        assert!(!run.fail_fast);
        let run = parse_run_args(&args(&["--all", "--fail-fast", "--keep-going"])).unwrap();
        assert!(!run.fail_fast);
    }

    #[test]
    fn rejects_jobs_zero() {
        let err = parse_run_args(&args(&["--all", "--jobs", "0"])).unwrap_err();
        assert!(err.contains("--jobs must be at least 1"));
    }

    #[test]
    fn rejects_timeout_zero() {
        let err = parse_run_args(&args(&["--all", "--timeout", "0"])).unwrap_err();
        assert!(err.contains("--timeout must be at least 1 second"));
    }

    #[test]
    fn rejects_unknown_format() {
        let err = parse_run_args(&args(&["--all", "--format", "yaml"])).unwrap_err();
        assert!(err.contains("unknown format 'yaml'"));
    }

    #[test]
    fn rejects_all_mixed_with_ids() {
        let err = parse_run_args(&args(&["--all", "fig01_power_law"])).unwrap_err();
        assert!(err.contains("not both"));
    }

    #[test]
    fn rejects_empty_selection_and_missing_values() {
        assert!(parse_run_args(&[]).unwrap_err().contains("nothing to run"));
        for flag in ["--format", "--out", "--jobs", "--seed", "--timeout"] {
            let err = parse_run_args(&args(&["--all", flag])).unwrap_err();
            assert!(err.contains(flag), "missing-value error for {flag}: {err}");
        }
    }

    #[test]
    fn rejects_unknown_option() {
        let err = parse_run_args(&args(&["--all", "--frmat", "json"])).unwrap_err();
        assert!(err.contains("unknown option '--frmat'"));
    }

    struct Panicker;
    impl Experiment for Panicker {
        fn id(&self) -> &'static str {
            "panicker"
        }
        fn figure(&self) -> &'static str {
            "Test"
        }
        fn title(&self) -> &'static str {
            "panics"
        }
        fn run(&self) -> Result<Report, ExperimentError> {
            panic!("boom: {}", 6 * 7)
        }
    }

    struct Sleeper;
    impl Experiment for Sleeper {
        fn id(&self) -> &'static str {
            "sleeper"
        }
        fn figure(&self) -> &'static str {
            "Test"
        }
        fn title(&self) -> &'static str {
            "hangs"
        }
        fn run(&self) -> Result<Report, ExperimentError> {
            std::thread::sleep(Duration::from_secs(600));
            Err(ExperimentError::Numerical("woke up".into()))
        }
    }

    struct Succeeder;
    impl Experiment for Succeeder {
        fn id(&self) -> &'static str {
            "succeeder"
        }
        fn figure(&self) -> &'static str {
            "Test"
        }
        fn title(&self) -> &'static str {
            "works"
        }
        fn run(&self) -> Result<Report, ExperimentError> {
            Ok(Report::new(self.id(), self.figure(), self.title()))
        }
    }

    #[test]
    fn run_caught_contains_panics() {
        let report = run_caught(&Panicker);
        assert!(report.is_failure());
        assert!(report.error.as_deref().unwrap().contains("boom: 42"));
    }

    #[test]
    fn run_guarded_times_out_hung_experiments() {
        let experiment: Arc<dyn Experiment> = Arc::new(Sleeper);
        let report = run_guarded(&experiment, Some(Duration::from_millis(50)));
        assert!(report.is_failure());
        assert!(report.error.as_deref().unwrap().contains("deadline"));
    }

    #[test]
    fn run_parallel_keeps_going_and_preserves_order() {
        let selected: Vec<Arc<dyn Experiment>> =
            vec![Arc::new(Succeeder), Arc::new(Panicker), Arc::new(Succeeder)];
        let reports = run_parallel(&selected, 2, None, false);
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0].id, "succeeder");
        assert!(!reports[0].is_failure());
        assert_eq!(reports[1].id, "panicker");
        assert!(reports[1].is_failure());
        assert!(!reports[2].is_failure());
    }

    #[test]
    fn run_parallel_fail_fast_skips_unclaimed_work() {
        // One worker: the panicker fails first, so the trailing
        // experiments are never claimed.
        let selected: Vec<Arc<dyn Experiment>> =
            vec![Arc::new(Panicker), Arc::new(Succeeder), Arc::new(Succeeder)];
        let reports = run_parallel(&selected, 1, None, true);
        assert_eq!(reports.len(), 1);
        assert!(reports[0].is_failure());
    }

    #[test]
    fn parses_bench_flags() {
        let bench = parse_bench_args(&args(&[
            "sim_engine",
            "--warmup",
            "2",
            "--iters",
            "7",
            "--accesses",
            "1000",
            "--format",
            "json",
        ]))
        .unwrap();
        assert_eq!(bench.groups, vec!["sim_engine"]);
        assert_eq!(bench.options.warmup, 2);
        assert_eq!(bench.options.iters, 7);
        assert_eq!(bench.options.accesses, 1000);
        assert!(bench.format == Format::Json);
    }

    #[test]
    fn bench_quick_preset_and_overrides_compose() {
        // --quick then --iters: the explicit flag wins.
        let bench = parse_bench_args(&args(&["--quick", "--iters", "9"])).unwrap();
        assert_eq!(bench.options.warmup, 1);
        assert_eq!(bench.options.accesses, 60_000);
        assert_eq!(bench.options.iters, 9);
    }

    #[test]
    fn bench_rejects_bad_input() {
        assert!(parse_bench_args(&args(&["no_such_group"]))
            .unwrap_err()
            .contains("unknown bench group"));
        assert!(parse_bench_args(&args(&["--iters", "0"]))
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse_bench_args(&args(&["--accesses", "0"]))
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse_bench_args(&args(&["--frmat"]))
            .unwrap_err()
            .contains("unknown option"));
    }

    #[test]
    fn parses_floor_flags() {
        let bench = parse_bench_args(&args(&[
            "--floor",
            "compressed_sim_seq=16000000",
            "--floor",
            "fig14_sim_seq=2.5e6",
        ]))
        .unwrap();
        assert_eq!(bench.floors.len(), 2);
        assert_eq!(bench.floors[0].0, "compressed_sim_seq");
        assert!((bench.floors[0].1 - 16e6).abs() < 1.0);
        assert!((bench.floors[1].1 - 2.5e6).abs() < 1.0);

        for bad in [
            &["--floor"][..],
            &["--floor", "no_equals"],
            &["--floor", "id=-5"],
            &["--floor", "id=abc"],
        ] {
            assert!(parse_bench_args(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn floor_gate_passes_and_fails_on_median_throughput() {
        use bandwall_experiments::perf::BenchResult;
        // 1000 items in 1 ms = 1M items/s.
        let group = BenchGroup {
            group: "sim_engine".into(),
            options: BenchOptions::quick(),
            host_parallelism: 1,
            results: vec![BenchResult::from_samples(
                "k",
                "kernel",
                1,
                1_000,
                "accesses",
                vec![1_000_000],
            )],
        };
        let groups = [group];
        assert!(check_floors(&[("k".into(), 0.9e6)], &groups).is_ok());
        let err = check_floors(&[("k".into(), 1.1e6)], &groups).unwrap_err();
        assert!(err.contains("below the floor"), "{err}");
        let err = check_floors(&[("missing".into(), 1.0)], &groups).unwrap_err();
        assert!(err.contains("no such kernel"), "{err}");
    }

    #[test]
    fn parses_serve_flags() {
        let serve = parse_serve_args(&args(&[
            "--addr",
            "0.0.0.0:9000",
            "--workers",
            "8",
            "--queue",
            "16",
            "--deadline-ms",
            "750",
            "--read-timeout-ms",
            "1500",
            "--cache-capacity",
            "0",
        ]))
        .unwrap();
        assert_eq!(serve.config.addr, "0.0.0.0:9000");
        assert_eq!(serve.config.workers, 8);
        assert_eq!(serve.config.queue_capacity, 16);
        assert_eq!(serve.config.deadline, Duration::from_millis(750));
        assert_eq!(serve.config.read_timeout, Duration::from_millis(1500));
        assert_eq!(serve.config.cache_capacity, 0);
        assert!(serve.config.chaos.is_none());
    }

    #[test]
    fn serve_chaos_spec_is_optional() {
        // Bare --chaos: the standard spec.
        let serve = parse_serve_args(&args(&["--chaos"])).unwrap();
        assert_eq!(serve.config.chaos, Some(ChaosSpec::standard()));
        // Bare --chaos followed by another flag still works.
        let serve = parse_serve_args(&args(&["--chaos", "--workers", "3"])).unwrap();
        assert_eq!(serve.config.chaos, Some(ChaosSpec::standard()));
        assert_eq!(serve.config.workers, 3);
        // An explicit spec overrides fields.
        let serve = parse_serve_args(&args(&["--chaos", "panic=0.5,seed=9"])).unwrap();
        let spec = serve.config.chaos.unwrap();
        assert!((spec.handler_panic - 0.5).abs() < 1e-12);
        assert_eq!(spec.seed, 9);
    }

    #[test]
    fn serve_rejects_bad_input() {
        assert!(parse_serve_args(&args(&["--workers", "0"]))
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse_serve_args(&args(&["--queue", "0"]))
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse_serve_args(&args(&["--deadline-ms", "0"]))
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse_serve_args(&args(&["--chaos", "panic=nope"])).is_err());
        assert!(parse_serve_args(&args(&["--bogus"]))
            .unwrap_err()
            .contains("unknown option"));
        assert!(parse_serve_args(&args(&["stray"]))
            .unwrap_err()
            .contains("unexpected argument"));
    }

    #[test]
    fn parses_loadgen_flags() {
        let loadgen = parse_loadgen_args(&args(&[
            "--addr",
            "10.0.0.1:8080",
            "--connections",
            "6",
            "--requests",
            "500",
            "--format",
            "json",
        ]))
        .unwrap();
        assert_eq!(loadgen.addr, "10.0.0.1:8080");
        assert_eq!(loadgen.options.connections, 6);
        assert_eq!(loadgen.options.requests, 500);
        assert!(loadgen.format == Format::Json);
        assert_eq!(loadgen.options.endpoint, EndpointSelection::All);
        assert!(loadgen.options.mix.is_none());
        assert!(loadgen.floors.is_empty());
    }

    #[test]
    fn parses_serve_shards_flag() {
        let serve = parse_serve_args(&args(&["--shards", "4", "--workers", "8"])).unwrap();
        assert_eq!(serve.config.shards, 4);
        assert!(parse_serve_args(&args(&["--shards", "0"]))
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse_serve_args(&args(&["--shards", "many"])).is_err());
    }

    #[test]
    fn parses_loadgen_endpoint_mix_and_floor_flags() {
        let loadgen = parse_loadgen_args(&args(&["--endpoint", "sweep"])).unwrap();
        assert_eq!(loadgen.options.endpoint, EndpointSelection::Sweep);
        // --quick after --endpoint keeps the selection.
        let loadgen = parse_loadgen_args(&args(&["--endpoint", "batch", "--quick"])).unwrap();
        assert_eq!(loadgen.options.endpoint, EndpointSelection::Batch);
        assert_eq!(loadgen.options.requests, 200);

        let loadgen = parse_loadgen_args(&args(&["--mix", "solve=7,sweep=2,batch=1"])).unwrap();
        let mix = loadgen.options.mix.unwrap();
        assert_eq!((mix.solve, mix.sweep, mix.batch), (7, 2, 1));

        let loadgen =
            parse_loadgen_args(&args(&["--floor", "serve_healthz=5000", "--floor", "x=1"]))
                .unwrap();
        assert_eq!(loadgen.floors.len(), 2);
        assert_eq!(loadgen.floors[0].0, "serve_healthz");
        assert!((loadgen.floors[0].1 - 5000.0).abs() < 1e-9);

        for bad in [
            &["--endpoint", "warp"][..],
            &["--mix", "solve=x"],
            &["--mix", "warp=1"],
            &["--mix", "solve=0,sweep=0,batch=0"],
            &["--floor", "no_equals"],
            &["--floor", "id=-5"],
        ] {
            assert!(parse_loadgen_args(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn loadgen_quick_preset_and_overrides_compose() {
        let loadgen = parse_loadgen_args(&args(&["--quick", "--requests", "50"])).unwrap();
        assert_eq!(loadgen.options.connections, 2);
        assert_eq!(loadgen.options.requests, 50);
    }

    #[test]
    fn loadgen_rejects_bad_input() {
        assert!(parse_loadgen_args(&args(&["--connections", "0"]))
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse_loadgen_args(&args(&["--requests", "0"]))
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse_loadgen_args(&args(&["stray"]))
            .unwrap_err()
            .contains("unexpected argument"));
    }

    #[test]
    fn stats_json_is_well_formed() {
        let stats = StatsSnapshot {
            connections: 10,
            served_ok: 8,
            shed: 1,
            invalid_request: 1,
            not_found: 0,
            not_ready: 0,
            deadline_exceeded: 0,
            internal: 0,
            worker_respawns: 0,
            cache_hits: 4,
            cache_misses: 4,
        };
        let line = stats_json(&stats);
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"served_ok\":8"));
        assert!(line.contains("\"cache_hits\":4"));
    }

    #[test]
    fn write_atomic_replaces_contents() {
        let dir = std::env::temp_dir().join("bandwall_write_atomic_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        write_atomic(&path, "{\"a\":1}").unwrap();
        write_atomic(&path, "{\"a\":2}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"a\":2}");
        assert!(!path.with_extension("json.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
