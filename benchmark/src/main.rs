//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload serve_open|sim_compressed --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` one run measures the system's three user-facing
//! paths (`regen_all`, `serve_open`, `sim_compressed`) with tracing off
//! and prints every end-to-end metric: the paths run round-robin, the
//! named workload's first, and the named path sets `setup_s` and
//! `peak_rss_mb`, so every run also guards the paths it does not name
//! (see [`runner`]). With
//! `--trace 1` it runs the traced suite instead (see [`traced`]) and
//! prints every per-layer metric. Either way each output is checked, the
//! last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`, and the lines before
//! it give every metric with its median, tail percentile and sample
//! count plus the host and build provenance. See `benchmark/README.md`.

mod ladder;
mod metrics;
mod regen;
mod runner;
mod serve_open;
mod sim;
mod spans;
mod stats;
mod traced;

use std::collections::BTreeMap;

/// The system's three user-facing paths; every run measures all of them.
pub const PATHS: [&str; 3] = [regen::WORKLOAD, serve_open::WORKLOAD, sim::WORKLOAD];

/// The workloads a run can be named by, in `BENCHMARK.json` order.
/// `regen_all` is a path of every run but not a workload of its own: it
/// has no seeded input, so its runs would differ only in set-up and
/// memory, and the time is better spent on more samples per run.
pub const WORKLOADS: [&str; 2] = [serve_open::WORKLOAD, sim::WORKLOAD];

/// The seed held out while the benchmark was developed: a later change
/// claiming a gain must also show it on this seed.
pub const HELD_OUT_SEED: u64 = 20_260_917;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// `Some(index)` when this process is one unit of an untraced run.
    unit: Option<u64>,
    /// Host steal time when the run started (see [`steal_seconds`]).
    steal_at_start: Option<f64>,
}

fn one_of(name: &str, allowed: &[&'static str]) -> Result<&'static str, String> {
    allowed
        .iter()
        .copied()
        .find(|w| *w == name)
        .ok_or_else(|| format!("unknown workload '{name}' (allowed: {allowed:?})"))
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: "",
        seed: 1,
        seconds: 10,
        trace: false,
        unit: None,
        steal_at_start: steal_seconds(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = one_of(value()?, &WORKLOADS)?,
            "--seed" => parsed.seed = value()?.parse().map_err(|_| "bad --seed".to_string())?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|_| "bad --seconds".to_string())?;
                if parsed.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace '{other}' (0 or 1)")),
                }
            }
            // Internal: run one unit of a path and print its report.
            "--unit" => {
                parsed.workload = one_of(value()?, &PATHS)?;
                parsed.unit.get_or_insert(0);
            }
            "--index" => {
                parsed.unit = Some(value()?.parse().map_err(|_| "bad --index".to_string())?);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if parsed.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(parsed)
}

/// One reported metric value with its human-readable detail.
#[derive(Debug, Clone)]
pub struct Value {
    /// The reported number.
    pub value: f64,
    /// Median/tail/count or provenance of the number.
    pub detail: String,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations checked (reports, requests, equality checks).
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Metrics by name.
    pub metrics: BTreeMap<&'static str, Value>,
}

impl Outcome {
    /// Records `n` checked operations of which `bad` failed.
    pub fn checked(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// Records a failure message (only the first few are kept).
    pub fn error(&mut self, message: impl Into<String>) {
        if self.errors.len() < 8 {
            self.errors.push(message.into());
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64, detail: impl Into<String>) {
        debug_assert!(metrics::find(name).is_some(), "undeclared metric {name}");
        self.metrics.insert(
            name,
            Value {
                value,
                detail: detail.into(),
            },
        );
    }
}

/// The host's hardware threads.
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The commit the benchmark was built from, read from the checkout's
/// `.git` (a source tree without one reports `unknown`).
fn git_commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: std::path::PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(git.join(reference))
        .or_else(|| {
            read(git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// CPU time the hypervisor has stolen from this machine since boot, in
/// seconds (the `steal` column of `/proc/stat`, in 1/100 s ticks); `None`
/// where it is not reported.
pub fn steal_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: u64 = stat
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    Some(ticks as f64 / 100.0)
}

fn provenance_json(args: &Args) -> String {
    let steal = match (args.steal_at_start, steal_seconds()) {
        (Some(a), Some(b)) => format!("{:.2}", b - a),
        _ => "null".to_string(),
    };
    format!(
        "{{\"available_parallelism\":{},\"git_commit\":\"{}\",\"rustc\":\"{}\",\"profile\":\"{}\",\
         \"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"held_out_seed\":{},\
         \"host_steal_s\":{steal}}}",
        parallelism(),
        git_commit(),
        env!("BENCH_RUSTC_VERSION"),
        env!("BENCH_PROFILE"),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        HELD_OUT_SEED,
    )
}

fn emit(args: &Args, out: &Outcome) -> bool {
    println!("# bandwall benchmark");
    println!("provenance {}", provenance_json(args));
    let defs: Vec<&metrics::Def> = if args.trace {
        metrics::traced().collect()
    } else {
        metrics::END_TO_END.iter().collect()
    };
    let mut complete = true;
    let mut json = Vec::new();
    for def in defs {
        match out.metrics.get(def.name) {
            Some(v) if v.value.is_finite() => {
                println!(
                    "{:<36} {:>16.6} {:<8} {}",
                    def.name, v.value, def.unit, v.detail
                );
                json.push(format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    def.name, v.value, def.unit
                ));
            }
            _ => {
                println!("{:<36} {:>16} {:<8} not measured", def.name, "-", def.unit);
                complete = false;
            }
        }
    }
    for e in &out.errors {
        println!("error: {e}");
    }
    if !complete {
        return false;
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0 && out.errors.is_empty(),
        out.attempted.max(1),
        out.failed,
        json.join(",")
    );
    true
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bandwall-benchmark: {e}");
            std::process::exit(2);
        }
    };
    if let Some(index) = args.unit {
        print!(
            "{}",
            runner::run_unit(args.workload, args.seed, index).render()
        );
        return;
    }
    let out = if args.trace {
        traced::run(&args)
    } else {
        runner::untraced(&args)
    };
    if !emit(&args, &out) {
        eprintln!("bandwall-benchmark: some metrics could not be measured");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let args = parse_args(&strings(&[
            "--workload",
            "serve_open",
            "--seed",
            "42",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(
            args,
            Args {
                workload: "serve_open",
                seed: 42,
                seconds: 20,
                trace: true,
                unit: None,
                steal_at_start: args.steal_at_start,
            }
        );
    }

    #[test]
    fn units_run_every_path_but_only_workloads_name_a_run() {
        let unit = parse_args(&strings(&["--unit", "regen_all", "--index", "3"])).expect("valid");
        assert_eq!((unit.workload, unit.unit), ("regen_all", Some(3)));
        assert!(PATHS
            .iter()
            .all(|p| parse_args(&strings(&["--unit", p])).is_ok()));
        assert!(WORKLOADS.iter().all(|w| PATHS.contains(w)));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            &["--seed", "1"][..],
            &["--workload", "nope"],
            &["--workload", "regen_all"],
            &["--workload", "sim_compressed", "--trace", "2"],
            &["--workload", "sim_compressed", "--seconds", "0"],
            &["--workload", "sim_compressed", "--extra"],
            &["--workload"],
            &["--unit", "regen_all", "--index", "x"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }
}
