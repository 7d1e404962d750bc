//! `serve_open`: an in-process `bandwall serve` (default configuration on
//! an ephemeral port) under a seeded open-loop generator.
//!
//! Requests are due on a fixed schedule at the offered rate and are
//! spread round-robin over at most two keep-alive connections, one
//! generator thread each. A connection has one request in flight, so when
//! the server falls behind the generator runs late: every latency is
//! timed from the request's *due* time, and the lateness and backlog are
//! reported. The mix is 60% memoized `/v1/solve`, 10% cold `/v1/solve`
//! (a distinct `total_ceas` each), 20% memoized `/v1/sweep` of
//! `fig05_dram_cache`, and 10% `/v1/batch` (a three-job batch whose third
//! job must fail in its slot).
//!
//! Every reply is checked the way `bandwall loadgen` checks them: status,
//! cache header, byte identity of memoized bodies, and batch slots. A
//! memoized request may legitimately come back as a cache `miss` after
//! the memo cache's FIFO evicted it to make room for cold solves; that is
//! counted, not failed. The request bodies below are the loadgen ones.

use crate::ladder::{self, RungStats};
use crate::spans::Tracer;
use crate::stats::Summary;
use bandwall_experiments::serve::loadgen::{Client, ClientResponse};
use bandwall_experiments::serve::{ServeConfig, Server, StatsSnapshot};
use bandwall_numerics::Rng;
use std::borrow::Cow;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// The workload label spans carry.
pub const WORKLOAD: &str = "serve_open";

/// How long after a rung's end the generator may still send requests
/// that fell due inside it.
const RUNG_GRACE: Duration = Duration::from_millis(25);

/// Requests per window of the windowed p99: consecutive (by due time)
/// slices of this many requests, so each window's p99 has ten samples
/// beyond it.
pub const WINDOW_REQUESTS: usize = 1000;

/// The memoized solve: the paper's 16× DRAM-cache configuration (47
/// cores).
pub const MEMO_BODY: &str =
    r#"{"total_ceas":256,"techniques":[{"kind":"dram_cache","density":8}]}"#;

/// The memoized sweep: the Figure 5 DRAM-cache catalogue sweep.
pub const MEMO_SWEEP_BODY: &str = r#"{"sweep":"fig05_dram_cache"}"#;

/// Two jobs that succeed and one that must fail in its own slot.
pub const BATCH_BODY: &str = r#"{"jobs":[{"kind":"solve","problem":{"total_ceas":256,"techniques":[{"kind":"dram_cache","density":8}]}},{"kind":"sweep","sweep":"fig04_cache_compression"},{"kind":"solve","problem":{"total_ceas":-1}}]}"#;

/// A solve that no other request repeats: `total_ceas` is
/// 24 + (2k + 1)/2048, an odd multiple of 1/2048, so it never lands on an
/// integer problem (the catalogue sweeps' bases) or on loadgen's lattices.
pub fn cold_body(k: u64) -> String {
    format!("{{\"total_ceas\":{}}}", 24.0 + (2 * k + 1) as f64 / 2048.0)
}

/// Request kinds of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `/v1/solve` of [`MEMO_BODY`].
    MemoSolve,
    /// `/v1/solve` of a fresh [`cold_body`].
    ColdSolve,
    /// `/v1/sweep` of [`MEMO_SWEEP_BODY`].
    MemoSweep,
    /// `/v1/batch` of [`BATCH_BODY`].
    Batch,
}

impl Kind {
    /// Draws a kind from the 60/10/20/10 mix.
    pub fn draw(rng: &mut Rng) -> Kind {
        match rng.gen_below(100) {
            0..=59 => Kind::MemoSolve,
            60..=69 => Kind::ColdSolve,
            70..=89 => Kind::MemoSweep,
            _ => Kind::Batch,
        }
    }

    /// The request path.
    pub fn path(self) -> &'static str {
        match self {
            Kind::MemoSolve | Kind::ColdSolve => "/v1/solve",
            Kind::MemoSweep => "/v1/sweep",
            Kind::Batch => "/v1/batch",
        }
    }

    /// Span-name suffix.
    pub fn label(self) -> &'static str {
        match self {
            Kind::MemoSolve => "memo_solve",
            Kind::ColdSolve => "cold_solve",
            Kind::MemoSweep => "memo_sweep",
            Kind::Batch => "batch",
        }
    }
}

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Planned {
    /// Its kind.
    pub kind: Kind,
    /// Its body.
    pub body: Cow<'static, str>,
}

/// The seeded request stream: kinds from `rng`, cold problems numbered
/// from `cold_next` onwards.
#[derive(Debug)]
pub struct Stream {
    rng: Rng,
    cold_next: u64,
}

impl Stream {
    /// Stream number `index` of the workload seed `seed`.
    pub fn new(seed: u64, index: u64) -> Stream {
        Stream {
            rng: Rng::seed_from_stream(seed, index),
            cold_next: 0,
        }
    }

    /// The next `n` requests.
    pub fn take(&mut self, n: usize) -> Vec<Planned> {
        (0..n)
            .map(|_| {
                let kind = Kind::draw(&mut self.rng);
                let body = match kind {
                    Kind::MemoSolve => Cow::Borrowed(MEMO_BODY),
                    Kind::ColdSolve => {
                        self.cold_next += 1;
                        Cow::Owned(cold_body(self.cold_next))
                    }
                    Kind::MemoSweep => Cow::Borrowed(MEMO_SWEEP_BODY),
                    Kind::Batch => Cow::Borrowed(BATCH_BODY),
                };
                Planned { kind, body }
            })
            .collect()
    }
}

/// The first replies of the memoized requests, which every later reply
/// must repeat byte for byte.
#[derive(Debug, Clone, Default)]
pub struct References {
    solve: String,
    sweep: String,
}

/// Checks one reply. `Ok(true)` marks a memoized request that missed
/// the cache (a refill after FIFO eviction).
pub fn check(kind: Kind, response: &ClientResponse, refs: &References) -> Result<bool, String> {
    if response.status != 200 {
        return Err(format!(
            "{}: expected 200, got {} with body {}",
            kind.label(),
            response.status,
            response.body
        ));
    }
    let cache = response.cache.as_deref();
    let memo = |reference: &str| -> Result<bool, String> {
        if !matches!(cache, Some("hit" | "miss")) {
            return Err(format!("{}: no cache header", kind.label()));
        }
        if response.body != reference {
            return Err(format!(
                "{}: body drifted from the first reply\nnow:   {}\nfirst: {reference}",
                kind.label(),
                response.body
            ));
        }
        Ok(cache == Some("miss"))
    };
    match kind {
        Kind::MemoSolve => memo(&refs.solve),
        Kind::MemoSweep => memo(&refs.sweep),
        Kind::ColdSolve => {
            if cache != Some("miss") {
                return Err(format!(
                    "cold_solve: expected a cache miss, got {cache:?} with body {}",
                    response.body
                ));
            }
            Ok(false)
        }
        Kind::Batch => {
            let errors = response.body.matches("\"status\":\"error\"").count();
            let oks = response.body.matches("\"status\":\"ok\"").count();
            if errors != 1 || !response.body.contains("\"kind\":\"invalid_request\"") || oks != 3 {
                return Err(format!(
                    "batch: expected two ok slots and one invalid_request slot, got {}",
                    response.body
                ));
            }
            Ok(false)
        }
    }
}

/// A running server with its generator connections.
pub struct Harness {
    server: Server,
    clients: Vec<Client>,
    /// References for the memoized replies.
    pub refs: References,
    /// `200` replies the client received (whether or not they passed
    /// their checks), to reconcile with the server's count.
    pub ok_replies: u64,
    /// Connections the client opened.
    pub connections: u64,
    /// Requests sent.
    pub attempted: u64,
    /// Replies that failed a check (or never came).
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

/// The generator's connection (and thread) count: two, or fewer on a
/// host with fewer hardware threads.
pub fn connection_count() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .clamp(1, 2)
}

fn serve_config(workers: usize, shards: usize) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        shards,
        ..ServeConfig::default()
    }
}

/// `bandwall serve`'s defaults (two workers, one admission shard) on an
/// ephemeral port.
pub fn default_config() -> ServeConfig {
    let defaults = ServeConfig::default();
    serve_config(defaults.workers, defaults.shards)
}

/// Starts a server and waits for its first `200 /healthz`; returns the
/// server, the probing client and the elapsed time (the workload's
/// set-up).
///
/// # Errors
///
/// Start or probe failures.
pub fn start(config: ServeConfig) -> Result<(Server, Client, Duration), String> {
    let began = Instant::now();
    let server = Server::start(config).map_err(|e| format!("starting server: {e}"))?;
    let mut client = Client::connect(&server.addr())?;
    let reply = client.request("GET", "/healthz", None)?;
    if reply.status != 200 {
        return Err(format!("healthz answered {}", reply.status));
    }
    Ok((server, client, began.elapsed()))
}

/// Stops a server and waits for it to drain.
pub fn stop(server: Server) -> StatsSnapshot {
    server.shutdown_handle().shutdown();
    server.join()
}

impl Harness {
    /// Starts the default-configuration server, opens the generator
    /// connections, and warms each with one request of every kind (the
    /// first replies become the references).
    ///
    /// # Errors
    ///
    /// Start, connect, or warm-up failures.
    pub fn start() -> Result<Harness, String> {
        let (server, probe, _) = start(default_config())?;
        drop(probe);
        let mut harness = Harness {
            clients: Vec::new(),
            refs: References::default(),
            ok_replies: 1,
            connections: 1,
            attempted: 1,
            failed: 0,
            errors: Vec::new(),
            server,
        };
        for _ in 0..connection_count() {
            let mut client = Client::connect(&harness.server.addr())?;
            harness.connections += 1;
            for (path, body) in [
                ("/v1/solve", MEMO_BODY),
                ("/v1/sweep", MEMO_SWEEP_BODY),
                ("/v1/batch", BATCH_BODY),
            ] {
                let reply = client.request("POST", path, Some(body))?;
                harness.attempted += 1;
                if reply.status != 200 {
                    return Err(format!("warm-up {path} answered {}", reply.status));
                }
                harness.ok_replies += 1;
                match path {
                    "/v1/solve" if harness.refs.solve.is_empty() => harness.refs.solve = reply.body,
                    "/v1/sweep" if harness.refs.sweep.is_empty() => harness.refs.sweep = reply.body,
                    _ => {}
                }
            }
            harness.clients.push(client);
        }
        Ok(harness)
    }

    /// The server's address.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Runs one rung: `rate` requests per second for `duration`, taking
    /// requests from `stream`.
    pub fn rung(
        &mut self,
        rate: u32,
        duration: Duration,
        stream: &mut Stream,
        tracer: &Tracer,
    ) -> RungRecord {
        let offered = (f64::from(rate) * duration.as_secs_f64()).round() as usize;
        let plan = stream.take(offered);
        let period_ns = 1e9 / f64::from(rate);
        let conns = self.clients.len();
        let addr = self.addr();
        let rung_span = tracer.begin(format!("serve.rung_{rate}"), WORKLOAD, None, 0);
        let parent = rung_span.id();
        // Leave the threads a moment to start before the first due time.
        // A request due inside the rung may still be sent up to
        // RUNG_GRACE after its end; later than that it counts as never
        // sent.
        let start = Instant::now() + Duration::from_millis(2);
        let end = start + duration + RUNG_GRACE;
        let refs = &self.refs;
        let plan = &plan;
        let records: Vec<ConnRecord> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    scope.spawn(move || {
                        drive(
                            client, addr, c, conns, plan, period_ns, start, end, refs, tracer,
                            parent,
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("generator thread panicked"))
                .collect()
        });
        tracer.end(rung_span);
        // Requests the generator never got to send count as infinitely
        // late.
        let mut record = RungRecord {
            rate,
            offered,
            seconds: duration.as_secs_f64(),
            latencies_ns: vec![u64::MAX; offered],
            ..RungRecord::default()
        };
        for r in records {
            for (i, latency) in r.latencies_ns {
                record.latencies_ns[i] = latency;
            }
            record.late_ns.extend(r.late_ns);
            record.backlog_max = record
                .backlog_max
                .max(r.backlog.iter().copied().max().unwrap_or(0));
            record.backlog_grew |= ladder::backlog_grew(&r.backlog);
            record.sent += r.sent;
            record.ok += r.ok;
            record.status_200 += r.status_200;
            record.failed += r.failed;
            record.memo_refills += r.memo_refills;
            record.reconnects += r.reconnects;
            for e in r.errors {
                if self.errors.len() < 5 {
                    self.errors.push(e);
                }
            }
        }
        self.attempted += record.sent;
        self.failed += record.failed;
        self.ok_replies += record.status_200;
        self.connections += record.reconnects;
        record
    }

    /// Closes the connections, drains the server, and reconciles the
    /// client's counts with the server's counters. Returns the final
    /// counters and any reconciliation failure.
    pub fn finish(self) -> (StatsSnapshot, Option<String>) {
        let Harness {
            server,
            clients,
            ok_replies,
            connections,
            ..
        } = self;
        drop(clients);
        let stats = stop(server);
        let problem = if stats.served_ok != ok_replies {
            Some(format!(
                "server counted {} ok replies, client received {ok_replies}",
                stats.served_ok
            ))
        } else if stats.connections != connections {
            Some(format!(
                "server saw {} connections, client opened {connections}",
                stats.connections
            ))
        } else if stats.internal != 0 || stats.worker_respawns != 0 {
            Some(format!(
                "{} internal errors and {} worker respawns on a clean run",
                stats.internal, stats.worker_respawns
            ))
        } else {
            None
        };
        (stats, problem)
    }
}

/// One rung's outcome.
#[derive(Debug, Clone, Default)]
pub struct RungRecord {
    /// Offered rate.
    pub rate: u32,
    /// Requests scheduled.
    pub offered: usize,
    /// Scheduled duration, seconds.
    pub seconds: f64,
    /// One latency per offered request in due order (ns from due time
    /// to reply); `u64::MAX` for failed or never-sent requests.
    pub latencies_ns: Vec<u64>,
    /// Send lateness per sent request, ns.
    pub late_ns: Vec<u64>,
    /// Largest backlog seen on any connection.
    pub backlog_max: u32,
    /// Whether any connection's backlog grew.
    pub backlog_grew: bool,
    /// Requests sent.
    pub sent: u64,
    /// Replies that passed their checks.
    pub ok: u64,
    /// Replies with status `200`.
    pub status_200: u64,
    /// Replies that failed their checks or never came.
    pub failed: u64,
    /// Memoized requests that missed (FIFO-eviction refills).
    pub memo_refills: u64,
    /// Reconnections after a transport error.
    pub reconnects: u64,
}

impl RungRecord {
    /// The rung's ladder statistics.
    pub fn stats(&self) -> RungStats {
        pooled_stats(&[self.summary()])
    }

    /// The compact form the ladder and the reports need.
    pub fn summary(&self) -> RungSummary {
        let all = Summary::of(self.latencies_ns.clone());
        RungSummary {
            rate: self.rate,
            offered: self.offered as u64,
            ok: self.ok,
            seconds: self.seconds,
            backlog_grew: self.backlog_grew,
            median_ns: all.map_or(u64::MAX, |s| s.median_ns),
            window_p99s_ns: self
                .latencies_ns
                .chunks_exact(WINDOW_REQUESTS)
                .filter_map(|w| Summary::of(w.to_vec()).map(|s| s.percentile_ns(99.0)))
                .collect(),
        }
    }
}

/// One rung reduced to what the ladder and the reports use.
#[derive(Debug, Clone, PartialEq)]
pub struct RungSummary {
    /// Offered rate.
    pub rate: u32,
    /// Requests scheduled.
    pub offered: u64,
    /// Requests completed correctly.
    pub ok: u64,
    /// Scheduled duration, seconds.
    pub seconds: f64,
    /// Whether the backlog grew.
    pub backlog_grew: bool,
    /// Median latency over the offered requests, ns.
    pub median_ns: u64,
    /// The p99 of each full window of [`WINDOW_REQUESTS`] consecutive
    /// requests (by due time), ns (`u64::MAX` when more than 1% of a
    /// window never completed).
    pub window_p99s_ns: Vec<u64>,
}

/// The median over windows of the window p99 — the rung's typical tail —
/// in nanoseconds (`u64::MAX` when there are no windows or most are
/// incomplete).
pub fn median_window_p99_ns(rungs: &[RungSummary]) -> u64 {
    Summary::of(
        rungs
            .iter()
            .flat_map(|r| r.window_p99s_ns.iter().copied())
            .collect(),
    )
    .map_or(u64::MAX, |s| s.median_ns)
}

/// Ladder statistics over several instances of one rate: the median
/// window p99, the pooled completion and goodput, and whether most
/// instances' backlog grew.
pub fn pooled_stats(rungs: &[RungSummary]) -> RungStats {
    let offered: u64 = rungs.iter().map(|r| r.offered).sum();
    let ok: u64 = rungs.iter().map(|r| r.ok).sum();
    let grew = rungs.iter().filter(|r| r.backlog_grew).count();
    let p99_ns = median_window_p99_ns(rungs);
    RungStats {
        rate: rungs.first().map_or(0.0, |r| f64::from(r.rate)),
        p99_ms: if p99_ns == u64::MAX {
            f64::INFINITY
        } else {
            p99_ns as f64 / 1e6
        },
        completion: ok as f64 / offered.max(1) as f64,
        backlog_grew: 2 * grew > rungs.len(),
        goodput: ok as f64 / rungs.iter().map(|r| r.seconds).sum::<f64>().max(1e-9),
    }
}

impl Harness {
    /// One ladder round: the base rates in order, then further rungs
    /// while the top one passes.
    pub fn round(
        &mut self,
        rung: Duration,
        gap: Duration,
        stream: &mut Stream,
        tracer: &Tracer,
    ) -> Vec<RungRecord> {
        let mut records = Vec::new();
        let mut rate = ladder::BASE_RATES[0];
        loop {
            let record = self.rung(rate, rung, stream, tracer);
            let passed = record.stats().passes();
            records.push(record);
            std::thread::sleep(gap);
            rate = match ladder::BASE_RATES.iter().find(|&&r| r > rate) {
                Some(&next) => next,
                None if passed => match ladder::extension_after(rate) {
                    Some(next) => next,
                    None => break,
                },
                None => break,
            };
        }
        records
    }
}

#[derive(Debug, Default)]
struct ConnRecord {
    /// (request index, latency) per sent request.
    latencies_ns: Vec<(usize, u64)>,
    late_ns: Vec<u64>,
    backlog: Vec<u32>,
    sent: u64,
    ok: u64,
    status_200: u64,
    failed: u64,
    memo_refills: u64,
    reconnects: u64,
    errors: Vec<String>,
}

/// One generator thread: sends connection `c`'s share of `plan` (every
/// `conns`-th request) at its due times until `end`.
#[allow(clippy::too_many_arguments)]
fn drive(
    client: &mut Client,
    addr: SocketAddr,
    c: usize,
    conns: usize,
    plan: &[Planned],
    period_ns: f64,
    start: Instant,
    end: Instant,
    refs: &References,
    tracer: &Tracer,
    parent: Option<u64>,
) -> ConnRecord {
    let mut rec = ConnRecord::default();
    for (sent_before, i) in (c..plan.len()).step_by(conns).enumerate() {
        let due = start + Duration::from_nanos((i as f64 * period_ns) as u64);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let send_at = Instant::now();
        if send_at >= end {
            break;
        }
        // Own requests due by now, minus those already sent, minus this one.
        let due_total = (send_at.duration_since(start).as_nanos() as f64 / period_ns) as usize + 1;
        let own_due = due_total.saturating_sub(c).div_ceil(conns);
        rec.backlog
            .push(own_due.saturating_sub(sent_before + 1) as u32);
        rec.late_ns
            .push(send_at.saturating_duration_since(due).as_nanos() as u64);
        let request = &plan[i];
        let span = tracer.begin(
            format!("serve.request.{}", request.kind.label()),
            WORKLOAD,
            parent,
            c as u64 + 1,
        );
        rec.sent += 1;
        let reply = client.request("POST", request.kind.path(), Some(&request.body));
        rec.status_200 += u64::from(reply.as_ref().is_ok_and(|r| r.status == 200));
        let done = Instant::now();
        tracer.end(span);
        let outcome = reply.and_then(|r| check(request.kind, &r, refs));
        match outcome {
            Ok(refill) => {
                rec.ok += 1;
                rec.memo_refills += u64::from(refill);
                rec.latencies_ns
                    .push((i, done.saturating_duration_since(due).as_nanos() as u64));
            }
            Err(message) => {
                rec.failed += 1;
                rec.latencies_ns.push((i, u64::MAX));
                if rec.errors.len() < 5 {
                    rec.errors.push(message);
                }
                // A transport error leaves the connection unusable.
                match Client::connect(&addr) {
                    Ok(fresh) => {
                        *client = fresh;
                        rec.reconnects += 1;
                    }
                    Err(e) => {
                        rec.errors.push(e);
                        break;
                    }
                }
            }
        }
    }
    rec
}

/// The known stall of ROADMAP item 5, measured: a server with two
/// admission shards of one worker each, driven by two keep-alive
/// connections at 2k req/s. When both connections land on one shard,
/// its worker serves the first for its whole life and the second waits.
#[derive(Debug, Clone, Copy)]
pub struct ShardedStall {
    /// The longest time any connection waited for its first reply, ms.
    pub max_first_reply_ms: f64,
    /// `deadline_exceeded` replies the server sent.
    pub deadline_exceeded: u64,
}

/// Runs the sharded-stall probe for `duration`.
///
/// # Errors
///
/// Start or connect failures.
pub fn sharded_stall(duration: Duration, seed: u64) -> Result<ShardedStall, String> {
    let (server, probe, _) = start(serve_config(2, 2))?;
    drop(probe);
    let addr = server.addr();
    let conns = 2usize;
    let period_ns = 1e9 / 2000.0;
    let plan = Stream::new(seed, u64::MAX).take((2000.0 * duration.as_secs_f64()) as usize);
    let clients = (0..conns)
        .map(|_| Client::connect(&addr))
        .collect::<Result<Vec<_>, _>>()?;
    let start_at = Instant::now() + Duration::from_millis(2);
    let end = start_at + duration;
    let plan = &plan;
    let waits: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                // Each thread owns its connection and closes it when its
                // schedule ends, which is what frees a stalled worker.
                scope.spawn(move || {
                    let mut first_reply = None;
                    for i in (c..plan.len()).step_by(conns) {
                        let due = start_at + Duration::from_nanos((i as f64 * period_ns) as u64);
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        if Instant::now() >= end {
                            break;
                        }
                        let request = &plan[i];
                        if client
                            .request("POST", request.kind.path(), Some(&request.body))
                            .is_err()
                        {
                            break;
                        }
                        first_reply.get_or_insert_with(|| due.elapsed());
                    }
                    drop(client);
                    first_reply.map_or(duration.as_secs_f64() * 1e3, |d| d.as_secs_f64() * 1e3)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("stall probe thread panicked"))
            .collect()
    });
    let stats = stop(server);
    Ok(ShardedStall {
        max_first_reply_ms: waits.into_iter().fold(0.0, f64::max),
        deadline_exceeded: stats.deadline_exceeded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn reply(status: u16, cache: Option<&str>, body: &str) -> ClientResponse {
        ClientResponse {
            status,
            cache: cache.map(str::to_string),
            body: body.to_string(),
            close: false,
        }
    }

    #[test]
    fn cold_problems_are_distinct_and_never_integer() {
        let mut seen = HashSet::new();
        for k in 0..200_000 {
            let body = cold_body(k);
            let x: f64 = body
                .trim_start_matches("{\"total_ceas\":")
                .trim_end_matches('}')
                .parse()
                .expect("a number");
            assert!(x.fract() != 0.0 && (x * 128.0).fract() != 0.0, "{body}");
            assert!(seen.insert(body));
        }
    }

    #[test]
    fn the_stream_follows_the_mix_and_its_seed() {
        let plan = Stream::new(7, 0).take(100_000);
        let share = |kind| plan.iter().filter(|p| p.kind == kind).count() as f64 / 1e5;
        for (kind, want) in [
            (Kind::MemoSolve, 0.6),
            (Kind::ColdSolve, 0.1),
            (Kind::MemoSweep, 0.2),
            (Kind::Batch, 0.1),
        ] {
            assert!((share(kind) - want).abs() < 0.01, "{kind:?}");
        }
        let again = Stream::new(7, 0).take(1000);
        assert!(again
            .iter()
            .zip(&plan)
            .all(|(a, b)| a.kind == b.kind && a.body == b.body));
        let other = Stream::new(7, 1).take(1000);
        assert!(other.iter().zip(&plan).any(|(a, b)| a.kind != b.kind));
    }

    #[test]
    fn checks_follow_the_loadgen_contract() {
        let refs = References {
            solve: "solved".into(),
            sweep: "swept".into(),
        };
        assert_eq!(
            check(Kind::MemoSolve, &reply(200, Some("hit"), "solved"), &refs),
            Ok(false)
        );
        // A refill after FIFO eviction is legitimate and counted.
        assert_eq!(
            check(Kind::MemoSweep, &reply(200, Some("miss"), "swept"), &refs),
            Ok(true)
        );
        assert!(check(Kind::MemoSolve, &reply(200, Some("hit"), "drifted"), &refs).is_err());
        assert!(check(Kind::MemoSolve, &reply(200, None, "solved"), &refs).is_err());
        assert!(check(Kind::MemoSolve, &reply(503, Some("hit"), "solved"), &refs).is_err());
        assert_eq!(
            check(Kind::ColdSolve, &reply(200, Some("miss"), "x"), &refs),
            Ok(false)
        );
        assert!(check(Kind::ColdSolve, &reply(200, Some("hit"), "x"), &refs).is_err());
        let good = r#"{"status":"ok","results":[{"status":"ok"},{"status":"ok"},{"status":"error","error":{"kind":"invalid_request"}}]}"#;
        assert_eq!(
            check(Kind::Batch, &reply(200, None, good), &refs),
            Ok(false)
        );
        let bad = good.replace(
            "\"status\":\"error\",\"error\":{\"kind\":\"invalid_request\"}",
            "\"status\":\"ok\"",
        );
        assert!(check(Kind::Batch, &reply(200, None, &bad), &refs).is_err());
    }
}
