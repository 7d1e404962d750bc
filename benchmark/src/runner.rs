//! The untraced run (`--trace 0`): a schedule of *units*, each run in a
//! fresh child process of this binary.
//!
//! A unit is one repetition of one path: a full regeneration
//! (`regen_all`), two seconds of open-loop load at the reporting rate
//! against a freshly started server (`serve_open`), or one pair of live
//! simulations at
//! `available_parallelism` threads and at one thread (`sim_compressed`).
//! Every serve and simulation unit first repeats its path's set-up
//! several times, and every unit reports its process's peak resident
//! set, so set-up time and memory are measured per path and never mix
//! paths. The schedule runs the paths round-robin, the named workload's
//! first and the simulation pair twice per cycle, until the `--seconds`
//! budget is spent, so every path's samples are spread over the whole
//! run, a burst of host noise cannot land on one path alone, and every
//! end-to-end metric is as steady in every workload's row as the host
//! allows.
//!
//! The simulation pair runs twice per cycle because its speed depends on
//! the process more than on the host: on one 2-vCPU virtual machine one
//! seed's single-thread run took 2.5 s in one fresh process and 4.0 s in
//! another, while a fixed ALU loop and a 32 MB pointer chase timed
//! alongside stayed within ±5% and repeated runs inside one process
//! stayed within ±4%. Only more processes per run average that out.

use crate::ladder;
use crate::serve_open::{self, RungSummary};
use crate::stats::{self, Summary};
use crate::{parallelism, regen, sim, Args, Outcome};
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// How many times each serve and simulation unit repeats its path's
/// set-up.
const SETUP_REPEATS: usize = 9;

/// Units of `path` per round-robin cycle.
fn units_per_cycle(path: &str) -> usize {
    if path == sim::WORKLOAD {
        2
    } else {
        1
    }
}

/// How long one `serve_open` unit offers load at
/// [`ladder::REPORT_RATE`].
const SERVE_RUNG: Duration = Duration::from_secs(2);

/// The share of the machine's CPU time the hypervisor may steal during a
/// unit before the unit's timings are set aside: in calm periods units
/// see under 1%, in contended ones 5–25%, which slowed the regeneration
/// by half and the serve p50 fortyfold. A 2% limit set aside most units
/// of a contended run and left medians of one or two samples; at 10% the
/// worst units go and the medians keep enough samples.
const MAX_STEAL_SHARE: f64 = 0.10;

/// The longest a unit may run before it is killed and counted as failed
/// (a unit normally takes under ten seconds).
const UNIT_TIMEOUT: Duration = Duration::from_secs(60);

/// What one unit measured: printed by the child, parsed by the parent.
#[derive(Debug, Default, PartialEq)]
pub struct UnitReport {
    /// Set-up samples, ns.
    pub setup_ns: Vec<u64>,
    /// The child's peak resident set, KiB.
    pub rss_kib: u64,
    /// Checked operations.
    pub attempted: u64,
    /// Failed checks.
    pub failed: u64,
    /// Failure messages.
    pub errors: Vec<String>,
    /// Labelled wall times, ns.
    pub walls: Vec<(String, u64)>,
    /// Digest of the simulation statistics.
    pub digest: Option<u64>,
    /// Ladder rungs.
    pub rungs: Vec<RungSummary>,
}

impl UnitReport {
    fn error(&mut self, message: impl Into<String>) {
        self.failed += 1;
        self.attempted += 1;
        self.errors.push(message.into());
    }

    /// The line protocol: one `key values...` line per fact.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let join = |v: &[u64]| v.iter().map(u64::to_string).collect::<Vec<_>>().join(" ");
        out.push_str(&format!("setup {}\n", join(&self.setup_ns)));
        out.push_str(&format!("rss_kib {}\n", self.rss_kib));
        out.push_str(&format!("checks {} {}\n", self.attempted, self.failed));
        for e in &self.errors {
            out.push_str(&format!("error {}\n", e.replace(['\n', '\r'], " ")));
        }
        for (label, ns) in &self.walls {
            out.push_str(&format!("wall {label} {ns}\n"));
        }
        if let Some(d) = self.digest {
            out.push_str(&format!("digest {d}\n"));
        }
        for r in &self.rungs {
            out.push_str(&format!(
                "rung {} {} {} {} {} {} {}\n",
                r.rate,
                r.offered,
                r.ok,
                r.seconds,
                u8::from(r.backlog_grew),
                r.median_ns,
                join(&r.window_p99s_ns)
            ));
        }
        out
    }

    /// Parses [`UnitReport::render`]'s output.
    ///
    /// # Errors
    ///
    /// Names the first line that does not parse.
    pub fn parse(text: &str) -> Result<UnitReport, String> {
        let mut report = UnitReport::default();
        for line in text.lines().filter(|l| !l.is_empty()) {
            let bad = || format!("bad unit report line '{line}'");
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            let nums = || -> Result<Vec<u64>, String> {
                rest.split_whitespace()
                    .map(|w| w.parse().map_err(|_| bad()))
                    .collect()
            };
            match key {
                "setup" => report.setup_ns = nums()?,
                "rss_kib" => report.rss_kib = rest.parse().map_err(|_| bad())?,
                "checks" => {
                    let v = nums()?;
                    let [attempted, failed] = v[..] else {
                        return Err(bad());
                    };
                    report.attempted = attempted;
                    report.failed = failed;
                }
                "error" => report.errors.push(rest.to_string()),
                "wall" => {
                    let (label, ns) = rest.split_once(' ').ok_or_else(bad)?;
                    report
                        .walls
                        .push((label.to_string(), ns.parse().map_err(|_| bad())?));
                }
                "digest" => report.digest = Some(rest.parse().map_err(|_| bad())?),
                "rung" => {
                    let w: Vec<&str> = rest.split_whitespace().collect();
                    if w.len() < 6 {
                        return Err(bad());
                    }
                    let n = |i: usize| w[i].parse::<u64>().map_err(|_| bad());
                    report.rungs.push(RungSummary {
                        rate: u32::try_from(n(0)?).map_err(|_| bad())?,
                        offered: n(1)?,
                        ok: n(2)?,
                        seconds: w[3].parse().map_err(|_| bad())?,
                        backlog_grew: w[4] == "1",
                        median_ns: n(5)?,
                        window_p99s_ns: (6..w.len()).map(n).collect::<Result<_, _>>()?,
                    });
                }
                _ => return Err(bad()),
            }
        }
        Ok(report)
    }
}

/// The process's peak resident set in KiB (Linux `VmHWM`).
fn peak_rss_kib() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// CPU time this process has used (user plus system, all threads,
/// exited ones included), in nanoseconds, from `/proc/self/stat` (1/100 s
/// ticks); `None` where it is not reported.
pub fn process_cpu_ns() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the line.
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * 10_000_000)
}

fn timed(f: impl FnOnce()) -> u64 {
    let began = Instant::now();
    f();
    began.elapsed().as_nanos() as u64
}

fn regen_unit(report: &mut UnitReport) {
    // `regen_all` names no run, so its set-up is not a metric.
    let regen = match regen::Regen::load() {
        Ok(regen) => regen,
        Err(e) => return report.error(e),
    };
    let pass = regen::pass(&regen, parallelism(), &crate::spans::Tracer::new(false));
    report.attempted += regen.len() as u64;
    report.failed += pass.mismatches.len() as u64;
    for id in &pass.mismatches {
        report
            .errors
            .push(format!("{id}: report differs from its golden baseline"));
    }
    report.walls.push(("regen".into(), pass.wall_ns));
}

fn sim_unit(report: &mut UnitReport, seed: u64, index: u64) {
    for _ in 0..SETUP_REPEATS {
        report.setup_ns.push(timed(|| {
            drop(black_box((sim::config(seed), sim::trace(seed))))
        }));
    }
    let threads = parallelism();
    // One short untimed run first, so the first timed run does not pay
    // for faulting in the allocator's arenas alone.
    if let Err(e) = sim::warm_up(seed, threads) {
        return report.error(e);
    }
    // Alternate which side runs first so drift cannot favour one.
    let order = if index.is_multiple_of(2) {
        [(threads, "banked"), (1, "sequential")]
    } else {
        [(1, "sequential"), (threads, "banked")]
    };
    let mut all = Vec::new();
    for (t, label) in order {
        match sim::run(seed, t) {
            Ok(run) => {
                report.walls.push((label.into(), run.wall_ns));
                all.push(run.stats);
            }
            Err(e) => return report.error(e),
        }
    }
    report.attempted += 1;
    if all[0] != all[1] {
        report.failed += 1;
        report.errors.push(format!(
            "run(1) and run({threads}) statistics differ: {:?} vs {:?}",
            all[0], all[1]
        ));
    }
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    format!("{:?}", all[0]).hash(&mut hasher);
    report.digest = Some(hasher.finish());
}

fn serve_unit(report: &mut UnitReport, seed: u64, index: u64) {
    for _ in 0..SETUP_REPEATS {
        match serve_open::start(serve_open::default_config()) {
            Ok((server, client, took)) => {
                report.setup_ns.push(took.as_nanos() as u64);
                drop(client);
                serve_open::stop(server);
            }
            Err(e) => return report.error(e),
        }
    }
    let mut harness = match serve_open::Harness::start() {
        Ok(h) => h,
        Err(e) => return report.error(e),
    };
    let tracer = crate::spans::Tracer::new(false);
    let mut stream = serve_open::Stream::new(seed, index);
    let cpu_before = process_cpu_ns();
    let record = harness.rung(ladder::REPORT_RATE, SERVE_RUNG, &mut stream, &tracer);
    if let (Some(a), Some(b)) = (cpu_before, process_cpu_ns()) {
        report.walls.push(("serve_cpu".into(), b.saturating_sub(a)));
    }
    report.rungs = vec![record.summary()];
    report.errors.append(&mut harness.errors);
    report.attempted += harness.attempted + 1;
    report.failed += harness.failed;
    let (_, problem) = harness.finish();
    if let Some(p) = problem {
        report.failed += 1;
        report.errors.push(p);
    }
}

/// Runs one unit of `path` in this process (the child side).
pub fn run_unit(path: &str, seed: u64, index: u64) -> UnitReport {
    let mut report = UnitReport::default();
    match path {
        regen::WORKLOAD => regen_unit(&mut report),
        serve_open::WORKLOAD => serve_unit(&mut report, seed, index),
        _ => sim_unit(&mut report, seed, index),
    }
    match peak_rss_kib() {
        Ok(kib) => report.rss_kib = kib,
        Err(e) => report.error(e),
    }
    report
}

/// Runs the child to completion, killing it if it outlives
/// [`UNIT_TIMEOUT`] (a hung server must fail the run, not stall it).
fn run_child(mut command: Command) -> Result<String, String> {
    let mut child = command
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("starting: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).map(|_| text)
    });
    let deadline = Instant::now() + UNIT_TIMEOUT;
    let status = loop {
        match child.try_wait().map_err(|e| format!("waiting: {e}"))? {
            Some(status) => break status,
            None if Instant::now() >= deadline => {
                // Kill and reap; the reader then sees end of file.
                let _ = child.kill();
                let _ = child.wait();
                let _ = reader.join();
                return Err(format!("timed out after {} s", UNIT_TIMEOUT.as_secs()));
            }
            None => std::thread::sleep(Duration::from_millis(10)),
        }
    };
    let text = reader
        .join()
        .map_err(|_| "stdout reader panicked".to_string())?
        .map_err(|e| format!("reading its report: {e}"))?;
    if !status.success() {
        return Err(format!("exited with {status}"));
    }
    Ok(text)
}

/// Runs one unit in a child process and parses its report.
fn spawn_unit(path: &str, seed: u64, index: u64) -> UnitReport {
    let report = std::env::current_exe()
        .map_err(|e| format!("locating the benchmark binary: {e}"))
        .and_then(|exe| {
            let mut command = Command::new(exe);
            command.args([
                "--unit",
                path,
                "--seed",
                &seed.to_string(),
                "--index",
                &index.to_string(),
            ]);
            run_child(command)
        })
        .and_then(|text| UnitReport::parse(&text));
    let mut report = report.unwrap_or_else(|e| {
        let mut r = UnitReport::default();
        r.error(e);
        r
    });
    for e in &mut report.errors {
        *e = format!("{path} unit {index}: {e}");
    }
    report
}

/// The untraced run: schedules units until the budget is spent, then
/// turns their reports into the end-to-end metrics.
pub fn untraced(args: &Args) -> Outcome {
    let budget = Duration::from_secs(args.seconds);
    let mut paths: Vec<&'static str> = vec![args.workload];
    paths.extend(crate::PATHS.iter().filter(|&&w| w != args.workload));
    let mut last = [Duration::ZERO; 3];
    let mut reports: [Vec<UnitReport>; 3] = Default::default();
    let mut steal: [Vec<f64>; 3] = Default::default();
    let began = Instant::now();
    loop {
        // Round-robin, the named path first in every cycle: the path
        // furthest behind its share of units runs next.
        let p = (0..3)
            .min_by_key(|&p| (reports[p].len() * 2 / units_per_cycle(paths[p]), p))
            .expect("three paths");
        // Stop once the budget has no room for half of this path's next
        // unit (every path runs at least once).
        if !reports[p].is_empty() && began.elapsed() + last[p] / 2 >= budget {
            break;
        }
        let unit_began = Instant::now();
        let stolen_before = crate::steal_seconds();
        // The unit's index within its path numbers the serve round's
        // request stream and alternates the simulation pair's order.
        let index = reports[p].len() as u64;
        reports[p].push(spawn_unit(paths[p], args.seed, index));
        last[p] = unit_began.elapsed();
        let stolen = match (stolen_before, crate::steal_seconds()) {
            (Some(a), Some(b)) => b - a,
            _ => 0.0,
        };
        steal[p].push(stolen / (last[p].as_secs_f64() * parallelism() as f64));
    }
    let mut out = Outcome::default();
    for (p, path) in paths.iter().enumerate() {
        let units = &reports[p];
        for r in units {
            out.checked(r.attempted, r.failed);
            for e in &r.errors {
                out.error(e.clone());
            }
        }
        let (timed, note) = steady_units(units, &steal[p]);
        if p == 0 {
            primary_metrics(&mut out, path, &timed, &note);
        }
        match *path {
            regen::WORKLOAD => regen_metrics(&mut out, &timed, &note),
            serve_open::WORKLOAD => serve_metrics(&mut out, &timed, &note),
            _ => {
                sim_digests(&mut out, units);
                sim_metrics(&mut out, args.seed, &timed, &note);
            }
        }
    }
    out
}

/// The units whose timings count: those during which the hypervisor
/// stole at most [`MAX_STEAL_SHARE`] of the machine's CPU time, or every
/// unit when none qualifies; and a note saying which were set aside.
/// Their correctness checks count regardless.
fn steady_units<'a>(units: &'a [UnitReport], steal: &[f64]) -> (Vec<&'a UnitReport>, String) {
    let steady: Vec<&UnitReport> = units
        .iter()
        .zip(steal)
        .filter(|(_, &share)| share <= MAX_STEAL_SHARE)
        .map(|(u, _)| u)
        .collect();
    let shares = steal
        .iter()
        .map(|s| format!("{:.1}%", s * 100.0))
        .collect::<Vec<_>>()
        .join(" ");
    if steady.is_empty() {
        let note = format!(
            "all {} units kept, none below the steal limit (steal {shares})",
            units.len()
        );
        (units.iter().collect(), note)
    } else {
        let note = format!(
            "timings from {} of {} units, those above {:.0}% host steal set aside (steal {shares})",
            steady.len(),
            units.len(),
            MAX_STEAL_SHARE * 100.0
        );
        (steady, note)
    }
}

fn walls(units: &[&UnitReport], label: &str) -> Vec<u64> {
    units
        .iter()
        .flat_map(|u| {
            u.walls
                .iter()
                .filter(|(l, _)| l == label)
                .map(|(_, ns)| *ns)
        })
        .collect()
}

fn primary_metrics(out: &mut Outcome, path: &str, units: &[&UnitReport], note: &str) {
    let what = match path {
        serve_open::WORKLOAD => "server start to first 200 /healthz",
        _ => "sim config + trace build",
    };
    if let Some(s) = Summary::of(
        units
            .iter()
            .flat_map(|u| u.setup_ns.iter().copied())
            .collect(),
    ) {
        out.set(
            "setup_s",
            s.median_ns as f64 / 1e9,
            format!(
                "{what}, {SETUP_REPEATS} per unit; {}; {note}",
                s.describe(1e-9, "s")
            ),
        );
    }
    let rss: Vec<f64> = units.iter().map(|u| u.rss_kib as f64 / 1024.0).collect();
    if let Some(mib) = stats::median_of(&rss) {
        out.set(
            "peak_rss_mb",
            mib,
            format!(
                "median over {} {path} unit processes of VmHWM: {rss:.1?}; {note}",
                rss.len()
            ),
        );
    }
}

fn regen_metrics(out: &mut Outcome, units: &[&UnitReport], note: &str) {
    if let Some(s) = Summary::of(walls(units, "regen")) {
        out.set(
            "regen_wall_s",
            s.median_ns as f64 / 1e9,
            format!(
                "all registry experiments, jobs={}; {}; {note}",
                parallelism(),
                s.describe(1e-9, "s")
            ),
        );
    }
}

/// Every unit of one seed must simulate to the same statistics.
fn sim_digests(out: &mut Outcome, units: &[UnitReport]) {
    let digests: Vec<u64> = units.iter().filter_map(|u| u.digest).collect();
    let differ = digests.windows(2).any(|w| w[0] != w[1]);
    out.checked(1, u64::from(differ));
    if differ {
        out.error("sim statistics differ between units of the same seed");
    }
}

fn sim_metrics(out: &mut Outcome, seed: u64, units: &[&UnitReport], note: &str) {
    let threads = parallelism();
    for (name, label, t) in [
        ("sim_maccess_per_s", "banked", threads),
        ("sim_seq_maccess_per_s", "sequential", 1),
    ] {
        if let Some(s) = Summary::of(walls(units, label)) {
            out.set(
                name,
                sim::maccess_per_s(sim::ACCESSES, s.median_ns),
                format!(
                    "{} accesses at threads={t} ({} banks); wall {}; {note}",
                    sim::ACCESSES,
                    sim::config(seed).partitioning(t).banks(),
                    s.describe(1e-9, "s")
                ),
            );
        }
    }
}

fn serve_metrics(out: &mut Outcome, units: &[&UnitReport], note: &str) {
    // CPU per request: the whole process (server and generator threads)
    // over each unit's rung, divided by the requests it completed.
    let cpu_us: Vec<f64> = units
        .iter()
        .filter_map(|u| {
            let cpu = u.walls.iter().find(|(l, _)| l == "serve_cpu")?.1;
            let ok = u.rungs.first()?.ok;
            (ok > 0).then(|| cpu as f64 / ok as f64 / 1e3)
        })
        .collect();
    let rungs: Vec<RungSummary> = units.iter().flat_map(|u| u.rungs.clone()).collect();
    if let Some(us) = stats::median_of(&cpu_us) {
        let p50 = Summary::of(rungs.iter().map(|r| r.median_ns).collect())
            .map_or(f64::NAN, |s| s.median_ns as f64 / 1e6);
        let offered: u64 = rungs.iter().map(|r| r.offered).sum();
        let ok: u64 = rungs.iter().map(|r| r.ok).sum();
        out.set(
            "serve_cpu_us_per_req",
            us,
            format!(
                "median over {} units of process CPU time (server and generator) ÷ completed \
                 requests at {} req/s over {} connection(s): {cpu_us:.1?}; {ok}/{offered} \
                 completed; latency from due time p50 {p50:.4} ms, windowed p99 {:.4} ms; \
                 {note}",
                cpu_us.len(),
                ladder::REPORT_RATE,
                serve_open::connection_count(),
                serve_open::median_window_p99_ns(&rungs) as f64 / 1e6,
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_reports_round_trip_through_the_line_protocol() {
        let report = UnitReport {
            setup_ns: vec![5, 7, 9],
            rss_kib: 12345,
            attempted: 33,
            failed: 1,
            errors: vec!["fig01_power_law: report differs\nsecond line".into()],
            walls: vec![
                ("banked".into(), 1_000_000),
                ("sequential".into(), 2_000_000),
            ],
            digest: Some(u64::MAX - 3),
            rungs: vec![RungSummary {
                rate: 8000,
                offered: 4000,
                ok: 3999,
                seconds: 0.5,
                backlog_grew: true,
                median_ns: 120_000,
                window_p99s_ns: vec![700_000, 650_000, u64::MAX, 900_000],
            }],
        };
        let parsed = UnitReport::parse(&report.render()).expect("parses");
        assert_eq!(
            parsed.errors,
            vec!["fig01_power_law: report differs second line"]
        );
        assert_eq!(
            UnitReport {
                errors: report.errors.clone(),
                ..parsed
            },
            report
        );
        assert!(UnitReport::parse("checks 1").is_err());
        assert!(UnitReport::parse("nonsense 1").is_err());
    }
}
