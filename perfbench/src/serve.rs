//! `serve-mixed`: the diagnosis daemon over loopback on its 165-AS
//! baseline, under a mixed request stream.
//!
//! Requests rotate over a pool of distinct pre-sampled failure scenarios
//! and all four algorithms; one template in four uploads its own `before`
//! snapshot and sensor directory. Every response must be byte-identical
//! to the response an in-process `NetDiagnoser::report` on the same
//! inputs renders (computed before the timed phases). Two phases:
//!
//! * open loop: requests due on a fixed schedule at a fixed rate, spread
//!   over `nproc` connections, each timed from its due time (so a stall
//!   charges every request queued behind it); connection 0 also polls
//!   `stats` once a second, as an operator's `--watch` does;
//! * closed loop: `nproc` clients back to back, for capacity.

use std::collections::VecDeque;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use netdiag_experiments::runner::{prepare_with, RunConfig};
use netdiag_obs::json::{parse, Json};
use netdiag_obs::{names, RecorderHandle, RunReport};
use netdiag_serve::proto::{diagnose_response, parse_request, write_diagnose_request, DiagnoseJob};
use netdiag_serve::{Baseline, Client, Endpoint, ServeConfig, Server, ServerHandle};
use netdiag_topology::builders::{build_internet, InternetConfig};
use netdiagnoser::text::{
    parse_feed, parse_sensors, parse_snapshot, write_sensors, write_snapshot,
};
use netdiagnoser::{
    Algorithm, BuildOptions, Diagnosis, DiagnosticReport, DiagnosticsConfig, NetDiagnoser,
    Observations, Problem, RoutingFeed, Weights,
};

use crate::stats::Spans;
use crate::stats::{
    derive, median, nanos_since, nproc, peak_rss_mb, quantile, reset_peak_rss, secs,
};
use crate::{Outcome, RunCtx};

/// The serve workload's parameters.
#[derive(Clone, Debug)]
pub struct Shape {
    /// Sensors in the daemon's baseline mesh.
    pub n_sensors: usize,
    /// Distinct failure scenarios requests rotate over.
    pub scenarios: usize,
    /// Daemon start-ups timed per run (their median is `setup_s`).
    pub setup_reps: usize,
}

/// Offered open-loop rate per daemon worker, requests per second: about a
/// quarter of closed-loop capacity on two cores, low enough that the
/// open-loop percentiles measure service, not a backlog.
const OPEN_RATE_PER_WORKER: f64 = 300.0;
/// Latency a closed-loop response must meet to count toward capacity.
const LATENCY_LIMIT: Duration = Duration::from_millis(25);
/// Requests each closed-loop client keeps in flight, so the daemon's
/// per-connection reader always has the next line waiting.
const PIPELINE: usize = 4;

impl Shape {
    /// The benchmark's serve workload.
    pub fn mixed() -> Shape {
        Shape {
            n_sensors: 10,
            scenarios: 24,
            setup_reps: 15,
        }
    }
}

/// The `stats` poll an operator's `--watch` sends.
const STATS_LINE: &str = "{\"op\":\"stats\",\"id\":0}\n";

/// One request the clients send, with the exact response it must get.
struct Template {
    line: String,
    expected: String,
    upload: bool,
    algo: Algorithm,
    job: DiagnoseJob,
}

/// Seed of the daemon's baseline: the paper's 165-AS internet and its
/// default sensor placement. Fixed, so every run serves the same
/// baseline and the workload seed varies only the requests.
const BASELINE_SEED: u64 = 1;

fn serve_config(shape: &Shape, recorder: RecorderHandle) -> ServeConfig {
    ServeConfig {
        seed: BASELINE_SEED,
        n_sensors: shape.n_sensors,
        workers: nproc(),
        recorder,
        ..ServeConfig::default()
    }
}

/// Prepares a baseline, starts a daemon on a loopback port and waits for
/// `health` to answer ready: the daemon's set-up.
fn start(shape: &Shape, recorder: RecorderHandle) -> Result<(ServerHandle, String), String> {
    let config = serve_config(shape, recorder);
    let baseline = Arc::new(Baseline::prepare(&config));
    let handle =
        Server::start_with_baseline(config, Endpoint::Tcp("127.0.0.1:0".to_owned()), baseline)?;
    let addr = handle
        .tcp_addr()
        .ok_or("daemon bound no TCP address")?
        .to_string();
    let mut client = Client::connect_tcp(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let health = client
        .request_line("{\"op\":\"health\",\"id\":1}")
        .map_err(|e| format!("health: {e}"))?;
    if !health.contains("\"health\":\"ready\"") {
        return Err(format!("daemon not ready: {health}"));
    }
    Ok((handle, addr))
}

/// Builds the request templates from the baseline: `scenarios` sampled
/// failures × the four algorithms, every fourth template uploading its own
/// `before` and `sensors`. A template's id is its index, so its response
/// line is fixed and computed here, in-process, before any timing.
fn templates(shape: &Shape, baseline: &Baseline, seed: u64) -> Result<Vec<Template>, String> {
    let mut scenarios = Vec::with_capacity(shape.scenarios);
    let mut k = 0u64;
    while scenarios.len() < shape.scenarios {
        if k > 16 * shape.scenarios as u64 {
            return Err("could not sample enough breaking scenarios".to_owned());
        }
        if let Some(s) = baseline.sample_scenario(derive(seed, 100 + k)) {
            scenarios.push(s);
        }
        k += 1;
    }
    let before = write_snapshot(baseline.before());
    let sensors = write_sensors(baseline.sensors());
    let mut out = Vec::with_capacity(4 * scenarios.len());
    for t in 0..4 * scenarios.len() {
        let scenario = &scenarios[t % scenarios.len()];
        let algo = Algorithm::ALL[(t / scenarios.len()) % 4];
        let upload = t % 4 == 3;
        let job = DiagnoseJob {
            algo,
            after: scenario.after.clone(),
            feed: Some(scenario.feed.clone()),
            before: upload.then(|| before.clone()),
            sensors: upload.then(|| sensors.clone()),
            ..DiagnoseJob::default()
        };
        let id = t as u64;
        let report = in_process_report(baseline, &job)?;
        out.push(Template {
            line: write_diagnose_request(id, &job) + "\n",
            expected: diagnose_response(id, &report.to_json(), &report.to_string(), None),
            upload,
            algo,
            job,
        });
    }
    Ok(out)
}

/// The request's inputs, resolved against the baseline exactly as the
/// daemon documents it (uploaded texts win, else baseline defaults).
fn resolve(baseline: &Baseline, job: &DiagnoseJob) -> Result<(Observations, RoutingFeed), String> {
    let sensors = match &job.sensors {
        Some(text) => parse_sensors(text).map_err(|e| format!("sensors: {e}"))?,
        None => baseline.sensors().to_vec(),
    };
    let before = match &job.before {
        Some(text) => parse_snapshot(text).map_err(|e| format!("before: {e}"))?,
        None => baseline.before().clone(),
    };
    let after = parse_snapshot(&job.after).map_err(|e| format!("after: {e}"))?;
    let feed = match &job.feed {
        Some(text) => parse_feed(text).map_err(|e| format!("feed: {e}"))?,
        None => RoutingFeed::default(),
    };
    Ok((
        Observations {
            sensors,
            before,
            after,
        },
        feed,
    ))
}

fn facade(baseline: &Baseline, algo: Algorithm, feed: RoutingFeed) -> NetDiagnoser {
    NetDiagnoser::builder()
        .config(DiagnosticsConfig {
            algorithm: algo,
            ..DiagnosticsConfig::default()
        })
        .routing_feed(feed)
        .looking_glass(baseline.looking_glass())
        .build()
}

fn in_process_report(baseline: &Baseline, job: &DiagnoseJob) -> Result<DiagnosticReport, String> {
    let (obs, feed) = resolve(baseline, job)?;
    facade(baseline, job.algo, feed)
        .report(&obs, &baseline.ip_to_as())
        .map_err(|e| e.to_string())
}

/// A bench-side protocol connection whose sends and receives are
/// separate calls, so a client can keep several requests in flight; the
/// daemon answers each connection in order.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn connect(addr: &str) -> Result<Conn, String> {
        let connect = || -> std::io::Result<Conn> {
            let writer = TcpStream::connect(addr)?;
            writer.set_nodelay(true)?;
            let reader = BufReader::new(writer.try_clone()?);
            Ok(Conn { writer, reader })
        };
        connect().map_err(|e| format!("connect {addr}: {e}"))
    }

    /// Sends one request line (`line` ends with its newline).
    fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(line.as_bytes())
    }

    /// The next response line, without its newline.
    fn recv(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        line.truncate(line.trim_end_matches(['\n', '\r']).len());
        Ok(line)
    }
}

/// What one client connection saw.
#[derive(Default)]
struct ConnStats {
    /// Latency of every diagnose request, milliseconds: from its due time
    /// (open loop) or its send (closed loop) to its response.
    latency_ms: Vec<f64>,
    /// Per request, seconds into the phase: its due time (open loop) or
    /// its completion (closed loop).
    at_s: Vec<f64>,
    /// Per request: ok, byte-identical and within the latency limit.
    good: Vec<bool>,
    /// How late each open-loop request was sent, milliseconds.
    late_ms: Vec<f64>,
    sent: u64,
    failed: u64,
    rejected: u64,
    stats_polls: u64,
    stats_failed: u64,
    /// When the connection's last response arrived.
    finished: Option<Instant>,
}

impl ConnStats {
    /// Records one diagnose response against its template; true when it
    /// is ok and byte-identical to the expected response.
    fn record(&mut self, template: &Template, response: &str, tamper: bool) -> bool {
        let ok = if tamper {
            response.replacen("\"ok\":true", "\"ok\":true ", 1) == template.expected
        } else {
            response == template.expected
        };
        if !ok {
            self.failed += 1;
            if response.contains("overload") {
                self.rejected += 1;
            }
        }
        ok
    }
}

/// Merged view over every connection of one phase.
#[derive(Default)]
struct Phase {
    conns: Vec<ConnStats>,
    /// Scheduled length of the phase.
    length: Duration,
    /// From the phase start to its last response.
    wall: Duration,
}

impl Phase {
    fn latencies(&self) -> Vec<f64> {
        self.conns
            .iter()
            .flat_map(|c| c.latency_ms.iter().copied())
            .collect()
    }

    fn sum(&self, f: impl Fn(&ConnStats) -> u64) -> u64 {
        self.conns.iter().map(f).sum()
    }

    /// Requests that were ok, byte-identical and within the limit.
    fn within_limit(&self) -> usize {
        self.conns
            .iter()
            .flat_map(|c| &c.good)
            .filter(|&&g| g)
            .count()
    }

    /// Open-loop latency `q`-quantile per window of a thousand due
    /// requests at `rate` (whole windows by `at_s`), then the median
    /// window: one stalled window on a shared host does not move it.
    fn windowed(&self, rate: f64, q: f64) -> f64 {
        let slice = (1000.0 / rate).max(1.0);
        let n = (secs(self.length) / slice).floor().max(1.0) as usize;
        let mut windows = vec![Vec::new(); n];
        for c in &self.conns {
            for (&at, &ms) in c.at_s.iter().zip(&c.latency_ms) {
                if let Some(w) = windows.get_mut((at / slice) as usize) {
                    w.push(ms);
                }
            }
        }
        median(&windows.iter().map(|w| quantile(w, q)).collect::<Vec<_>>())
    }

    /// Closed-loop capacity: the median over one-second windows of
    /// responses per second that were ok and within the limit.
    fn capacity(&self) -> f64 {
        let n = secs(self.length).floor().max(1.0) as usize;
        let mut per = vec![0.0; n];
        for c in &self.conns {
            for (&at, &good) in c.at_s.iter().zip(&c.good) {
                if let Some(slot) = per.get_mut(at as usize) {
                    if good {
                        *slot += 1.0;
                    }
                }
            }
        }
        median(&per)
    }
}

/// Runs `per_conn` on `conns` scoped client threads, one connection each,
/// and merges what they saw.
fn run_clients(
    addr: &str,
    conns: usize,
    start: Instant,
    length: Duration,
    per_conn: impl Fn(usize, &mut Conn) -> Result<ConnStats, String> + Sync,
) -> Result<Phase, String> {
    let per_conn = &per_conn;
    let results: Vec<Result<ConnStats, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|j| scope.spawn(move || per_conn(j, &mut Conn::connect(addr)?)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_owned()))
            })
            .collect()
    });
    let conns = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    let end = conns
        .iter()
        .filter_map(|c| c.finished)
        .max()
        .unwrap_or(start);
    Ok(Phase {
        wall: end.saturating_duration_since(start),
        length,
        conns,
    })
}

/// Open loop: request `k` is due at `start + k / rate` and goes out on
/// connection `k % conns` at its due time, or, when the connection is
/// still waiting on the previous response then, as soon as that arrives;
/// latency runs from the due time, so a stall is charged to every request
/// it delays. Connection 0 also sends `stats` once a second.
fn open_loop(
    addr: &str,
    templates: &[Template],
    rate: f64,
    length: Duration,
    conns: usize,
    tamper: bool,
) -> Result<Phase, String> {
    let start = Instant::now() + Duration::from_millis(20);
    run_clients(addr, conns, start, length, |j, conn| {
        let io = |e: std::io::Error| format!("open loop: {e}");
        let mut st = ConnStats::default();
        let mut next_stats = start;
        let mut k = j;
        loop {
            let offset = Duration::from_secs_f64(k as f64 / rate);
            if offset >= length {
                break;
            }
            let due = start + offset;
            if j == 0 && Instant::now() >= next_stats {
                conn.send(STATS_LINE).map_err(io)?;
                let reply = conn.recv().map_err(io)?;
                st.stats_polls += 1;
                if !reply.contains("\"ok\":true") {
                    st.stats_failed += 1;
                }
                next_stats += Duration::from_secs(1);
            }
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            let template = &templates[k % templates.len()];
            conn.send(&template.line).map_err(io)?;
            let line = conn.recv().map_err(io)?;
            let done = Instant::now();
            st.sent += 1;
            let ok = st.record(template, &line, tamper && k == 0);
            st.late_ms
                .push(secs(sent.saturating_duration_since(due)) * 1e3);
            st.latency_ms
                .push(secs(done.saturating_duration_since(due)) * 1e3);
            st.at_s.push(secs(offset));
            st.good.push(ok);
            st.finished = Some(done);
            k += conns;
        }
        Ok(st)
    })
}

/// Closed loop: `conns` clients, each keeping [`PIPELINE`] requests in flight
/// and sending the next one as each response arrives, for `length`.
fn closed_loop(
    addr: &str,
    templates: &[Template],
    length: Duration,
    conns: usize,
) -> Result<Phase, String> {
    let start = Instant::now();
    run_clients(addr, conns, start, length, |j, conn| {
        let io = |e: std::io::Error| format!("closed loop: {e}");
        let mut st = ConnStats::default();
        let mut in_flight: VecDeque<(usize, Instant)> = VecDeque::new();
        // Clients start at different points of the rotation.
        let mut k = j * templates.len() / conns;
        loop {
            while in_flight.len() < PIPELINE && start.elapsed() < length {
                conn.send(&templates[k % templates.len()].line)
                    .map_err(io)?;
                in_flight.push_back((k, Instant::now()));
                k += 1;
            }
            let Some((i, sent)) = in_flight.pop_front() else {
                break;
            };
            let line = conn.recv().map_err(io)?;
            let latency = sent.elapsed();
            st.sent += 1;
            let ok = st.record(&templates[i % templates.len()], &line, false);
            st.latency_ms.push(secs(latency) * 1e3);
            st.at_s.push(secs(start.elapsed()));
            st.good.push(ok && latency <= LATENCY_LIMIT);
        }
        st.finished = Some(Instant::now());
        Ok(st)
    })
}

/// Sends every template once, in order, on one connection: warms the
/// daemon and checks each response before any timing.
fn warm_up(addr: &str, templates: &[Template], out: &mut Outcome) -> Result<(), String> {
    let mut conn = Conn::connect(addr)?;
    let mut st = ConnStats::default();
    for t in templates {
        conn.send(&t.line).map_err(|e| format!("warm-up: {e}"))?;
        let line = conn.recv().map_err(|e| format!("warm-up: {e}"))?;
        st.sent += 1;
        st.record(t, &line, false);
    }
    out.attempted += st.sent;
    out.check(
        &format!("{} warm-up responses equal the in-process reports", st.sent),
        st.failed == 0,
    );
    Ok(())
}

/// Runs the workload (end-to-end or traced, per `ctx.trace`).
pub fn run(shape: &Shape, ctx: &RunCtx) -> Result<Outcome, String> {
    if ctx.trace {
        traced(shape, ctx)
    } else {
        end_to_end(shape, ctx)
    }
}

fn end_to_end(shape: &Shape, ctx: &RunCtx) -> Result<Outcome, String> {
    let workers = nproc();
    let mut out = Outcome {
        threads: workers,
        connections: workers,
        ..Outcome::default()
    };
    let seed = derive(ctx.seed, 0);
    let mut setup = Vec::with_capacity(shape.setup_reps);
    let mut daemon = None;
    for _ in 0..shape.setup_reps.max(1) {
        // Stop the previous daemon before timing the next start.
        drop(daemon.take());
        let t = Instant::now();
        let started = start(shape, RecorderHandle::noop())?;
        setup.push(secs(t.elapsed()));
        daemon = Some(started);
    }
    let (handle, addr) = daemon.ok_or("no daemon started")?;
    out.metric("setup_s", median(&setup));

    let templates = templates(shape, handle.baseline(), seed)?;
    warm_up(&addr, &templates, &mut out)?;

    reset_peak_rss();
    let half = ctx.seconds / 2;
    let rate = OPEN_RATE_PER_WORKER * workers as f64;
    let open = open_loop(&addr, &templates, rate, half, workers, ctx.tamper)?;
    let closed = closed_loop(&addr, &templates, half, workers)?;
    let rss = peak_rss_mb();

    // Open-loop latency is printed, not gated: on a two-vCPU guest its p50
    // ran 0.8-2.1 ms and its p99 2-16 ms across runs of the same code, as
    // the host's wake-up and stall costs changed. The traced run records
    // it as `serve.open_p50_ms` / `serve.open_p99_ms`.
    let latencies = open.latencies();
    out.metric("throughput_per_s", closed.capacity());
    out.metric("rss_peak_mb", rss);

    let polls = open.sum(|c| c.stats_polls);
    out.attempted += open.sum(|c| c.sent) + closed.sum(|c| c.sent) + polls;
    out.failed += open.sum(|c| c.failed) + closed.sum(|c| c.failed) + open.sum(|c| c.stats_failed);
    let late: Vec<f64> = open
        .conns
        .iter()
        .flat_map(|c| c.late_ms.iter().copied())
        .collect();
    out.note(format!(
        "open loop: {} requests at {rate:.0}/s over {workers} connections in {:.2} s, {polls} stats polls; latency from due time, median of per-window percentiles ({} samples): p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms (pooled p99 {:.3} ms); sends late by p99 {:.3} ms",
        open.sum(|c| c.sent),
        secs(open.wall),
        latencies.len(),
        open.windowed(rate, 0.5),
        open.windowed(rate, 0.9),
        open.windowed(rate, 0.99),
        quantile(&latencies, 0.99),
        quantile(&late, 0.99)
    ));
    out.note(format!(
        "closed loop: {} requests from {workers} clients in {:.2} s, {} within the {} ms limit; capacity is the median one-second window",
        closed.sum(|c| c.sent),
        secs(closed.wall),
        closed.within_limit(),
        LATENCY_LIMIT.as_millis()
    ));
    out.check(
        "every response is ok and byte-identical to the in-process report",
        open.sum(|c| c.failed) + closed.sum(|c| c.failed) == 0,
    );
    handle.stop();
    Ok(out)
}

/// Looks up `report.<section>.<name>.<field>` in a `stats` response.
fn stats_field(doc: &Json, section: &str, name: &str, field: &str) -> u64 {
    doc.get("report")
        .and_then(|r| r.get(section))
        .and_then(|s| s.get(name))
        .and_then(|m| m.get(field))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// Sum of span `name` (nanoseconds) in a recorder snapshot.
fn span_sum(report: &RunReport, name: &str) -> u64 {
    report.span(name).map_or(0, |s| s.sum)
}

fn traced(shape: &Shape, ctx: &RunCtx) -> Result<Outcome, String> {
    let workers = nproc();
    let mut out = Outcome {
        threads: workers,
        connections: workers,
        ..Outcome::default()
    };
    let seed = derive(ctx.seed, 0);
    let quarter = ctx.seconds / 4;

    // Set-up layers, from public calls.
    let t = Instant::now();
    let net = build_internet(&InternetConfig {
        seed: BASELINE_SEED,
        ..InternetConfig::default()
    });
    out.metric("topology.build_ms", secs(t.elapsed()) * 1e3);
    let run = RunConfig {
        n_sensors: shape.n_sensors.min(net.stubs.len()),
        ..RunConfig::default()
    };
    // The daemon's own placement step (`Baseline::prepare` seeds it the
    // same way), with a recorder attached for the set-up counters.
    let (setup_recorder, setup_live) = RecorderHandle::live();
    let mut rng = rand::SeedableRng::seed_from_u64(BASELINE_SEED ^ 0xBEEF);
    let t = Instant::now();
    black_box(prepare_with(&net, &run, &mut rng, setup_recorder));
    out.metric("experiments.prepare_ms", secs(t.elapsed()) * 1e3);
    let setup_counters = setup_live.snapshot();
    out.metric(
        "igp.settled_nodes",
        setup_counters.counter(names::IGP_SETTLED_NODES) as f64,
    );
    out.metric("bgp.msgs", setup_counters.counter(names::BGP_MSGS) as f64);
    out.metric(
        "bgp.decisions",
        setup_counters.counter(names::BGP_DECISIONS) as f64,
    );
    let (spf_ms, converge_ms) = crate::trials::convergence_split(&net, &run, 3, seed);
    out.metric("igp.spf_full_ms", spf_ms);
    out.metric("bgp.converge_for_ms", converge_ms);

    // Two daemons: the untraced production default, and one with a
    // LiveRecorder of the bench fanned in beside its own live plane.
    let (plain, plain_addr) = start(shape, RecorderHandle::noop())?;
    let (recorder, live) = RecorderHandle::live();
    let (handle, addr) = start(shape, recorder)?;
    let templates = templates(shape, plain.baseline(), seed)?;
    warm_up(&plain_addr, &templates, &mut out)?;
    warm_up(&addr, &templates, &mut out)?;
    let rate = OPEN_RATE_PER_WORKER * workers as f64;
    let before = live.snapshot();
    let open = open_loop(&addr, &templates, rate, quarter, workers, false)?;
    let after = live.snapshot();
    // Open-loop client latency from each send (one request in flight per
    // connection) not covered by any server-side phase span: protocol
    // I/O, request-line parsing and the hand-off to the pool.
    let server_ns: u64 = [
        names::SERVE_PHASE_QUEUE,
        names::SERVE_PHASE_RESTORE,
        names::SERVE_PHASE_DIAGNOSE,
        names::SERVE_PHASE_RENDER,
    ]
    .iter()
    .map(|n| span_sum(&after, n).saturating_sub(span_sum(&before, n)))
    .sum();
    let client_ms: f64 = open
        .conns
        .iter()
        .flat_map(|c| {
            c.latency_ms
                .iter()
                .zip(&c.late_ms)
                .map(|(l, late)| l - late)
        })
        .sum();
    out.metric(
        "obs.unattributed_share",
        1.0 - server_ns as f64 / (client_ms * 1e6).max(1.0),
    );

    // Closed-loop capacity of each, in alternating slices so drift on a
    // shared host hits both alike.
    let slice = quarter / 4;
    let mut plain_slices = Vec::new();
    let mut traced_slices = Vec::new();
    for _ in 0..4 {
        plain_slices.push(closed_loop(&plain_addr, &templates, slice, workers)?);
        traced_slices.push(closed_loop(&addr, &templates, slice, workers)?);
    }
    plain.stop();
    let after = live.snapshot();

    let mut client = Client::connect_tcp(&addr).map_err(|e| format!("connect: {e}"))?;
    let stats_line = client
        .request_line("{\"op\":\"stats\",\"id\":2}")
        .map_err(|e| format!("stats: {e}"))?;
    let doc = parse(&stats_line).map_err(|e| format!("stats response: {e}"))?;
    let mut ping_us = Vec::with_capacity(200);
    for i in 0..200 {
        let t = Instant::now();
        let reply = client
            .request_line(&format!("{{\"op\":\"health\",\"id\":{i}}}"))
            .map_err(|e| format!("health: {e}"))?;
        ping_us.push(secs(t.elapsed()) * 1e6);
        if !reply.contains("\"health\":\"ready\"") {
            out.check("health answers ready", false);
        }
    }
    handle.stop();

    let mut failed = 0;
    for phase in plain_slices.iter().chain(&traced_slices).chain([&open]) {
        out.attempted += phase.sum(|c| c.sent);
        failed += phase.sum(|c| c.failed);
    }
    out.failed += failed;
    out.check(
        "every traced-phase response is ok and byte-identical to the in-process report",
        failed == 0,
    );
    let capacity = |slices: &[Phase]| {
        let good: usize = slices.iter().map(Phase::within_limit).sum();
        let wall: f64 = slices.iter().map(|p| secs(p.wall)).sum();
        good as f64 / wall
    };
    let (plain_capacity, traced_capacity) = (capacity(&plain_slices), capacity(&traced_slices));
    out.metric("obs.trace_overhead", plain_capacity / traced_capacity - 1.0);

    let queue_count = stats_field(&doc, "spans", names::SERVE_PHASE_QUEUE, "count");
    let queue_sum = stats_field(&doc, "spans", names::SERVE_PHASE_QUEUE, "sum_ns");
    out.metric(
        "serve.queue_wait_us",
        queue_sum as f64 / queue_count.max(1) as f64 / 1e3,
    );
    out.metric(
        "serve.queue_depth_max",
        stats_field(&doc, "gauges", names::SERVE_QUEUE_DEPTH, "high_water") as f64,
    );
    out.metric(
        "serve.rejected",
        plain_slices
            .iter()
            .chain(&traced_slices)
            .chain([&open])
            .map(|p| p.sum(|c| c.rejected))
            .sum::<u64>() as f64,
    );
    let late: Vec<f64> = open
        .conns
        .iter()
        .flat_map(|c| c.late_ms.iter().copied())
        .collect();
    out.metric("serve.generator_late_ms", quantile(&late, 0.99));
    out.metric("serve.open_p50_ms", open.windowed(rate, 0.5));
    out.metric("serve.open_p99_ms", open.windowed(rate, 0.99));
    out.metric("serve.ping_us", median(&ping_us));
    let runs = after.counter(names::DIAG_RUNS) as f64;
    out.metric(
        "core.words_scanned",
        after.counter(names::HS_WORDS_SCANNED) as f64 / runs.max(1.0),
    );
    out.metric(
        "core.greedy_iters",
        after.counter(names::HS_GREEDY_ITERS) as f64 / runs.max(1.0),
    );
    out.metric(
        "igp.delta_nodes",
        after.counter(names::IGP_SPF_DELTA_NODES) as f64,
    );
    out.metric(
        "bgp.replay_prefixes",
        after.counter(names::BGP_REPLAY_PREFIXES_SCOPED) as f64,
    );

    // Offline replay of the request path, per template, until the run
    // length is used: parse, compose the diagnosis, render the report.
    let baseline = Baseline::prepare(&serve_config(shape, RecorderHandle::noop()));
    let mut spans = Spans::default();
    let mut candidates = Vec::new();
    let (mut compositions, mut mismatches) = (0usize, 0usize);
    let replay_until = quarter;
    let t = Instant::now();
    let mut passes = 0;
    while passes == 0 || t.elapsed() < replay_until {
        for template in &templates {
            replay_request(
                &baseline,
                template,
                &mut spans,
                &mut candidates,
                &mut compositions,
                &mut mismatches,
            )?;
        }
        passes += 1;
    }
    out.check(
        &format!("{compositions} composed diagnoses equal the facade's"),
        mismatches == 0,
    );
    out.metric("serve.parse_light_us", spans.p50_us("serve.parse_light"));
    out.metric("serve.parse_upload_us", spans.p50_us("serve.parse_upload"));
    out.metric("core.problem_build_us", spans.p50_us("core.problem_build"));
    out.metric("core.feed_us", spans.p50_us("core.feed"));
    out.metric("core.greedy_us", spans.p50_us("core.greedy"));
    out.metric("core.nd_lg_us", spans.p50_us("core.nd_lg"));
    out.metric("core.report_us", spans.p50_us("core.report"));
    out.metric("core.candidates_p50", median(&candidates));
    out.note(format!(
        "closed-loop capacity untraced {:.1}/s, traced {:.1}/s; replayed {passes} passes over {} templates; queue wait is the mean of the daemon's serve.phase.queue span (exact sum/count, not a log2 bucket edge)",
        plain_capacity,
        traced_capacity,
        templates.len()
    ));
    Ok(out)
}

/// Replays one request's server-side path from public calls, a span
/// around each: protocol and text parsing, the diagnosis (composed from
/// `Problem` calls for the three greedy algorithms and checked against
/// the facade; ND-LG timed whole) and the report render.
fn replay_request(
    baseline: &Baseline,
    template: &Template,
    spans: &mut Spans,
    candidates: &mut Vec<f64>,
    compositions: &mut usize,
    mismatches: &mut usize,
) -> Result<(), String> {
    let parse_span = if template.upload {
        "serve.parse_upload"
    } else {
        "serve.parse_light"
    };
    let t = Instant::now();
    let request = parse_request(template.line.trim_end());
    let resolved = resolve(baseline, &template.job);
    spans.add(parse_span, nanos_since(t));
    request?;
    let (obs, feed) = resolved?;

    let ip2as = baseline.ip_to_as();
    let config = DiagnosticsConfig {
        algorithm: template.algo,
        ..DiagnosticsConfig::default()
    };
    let diagnosis = match template.algo {
        Algorithm::NdLg => {
            let d = facade(baseline, Algorithm::NdLg, feed);
            spans
                .time("core.nd_lg", || d.diagnose(&obs, &ip2as))
                .map_err(|e| e.to_string())?
        }
        algo => {
            let opts = if algo == Algorithm::Tomo {
                BuildOptions::tomo()
            } else {
                BuildOptions::nd_edge()
            };
            let mut problem =
                spans.time("core.problem_build", || Problem::build(&obs, &ip2as, opts));
            if algo == Algorithm::NdBgpIgp {
                spans.time("core.feed", || problem.apply_feed(&obs, &feed));
            }
            let weights = if algo == Algorithm::Tomo {
                Weights { a: 1, b: 0 }
            } else {
                config.weights
            };
            let greedy = spans.time("core.greedy", || problem.instance().greedy(weights));
            candidates.push(problem.candidates.len() as f64);
            let composed = Diagnosis::new(problem, greedy);
            let reference = facade(baseline, algo, feed)
                .diagnose(&obs, &ip2as)
                .map_err(|e| e.to_string())?;
            *compositions += 1;
            if !crate::trials::same_diagnosis(&reference, &composed) {
                *mismatches += 1;
            }
            composed
        }
    };
    let response = spans.time("core.report", || {
        let report = DiagnosticReport::from_diagnosis(&diagnosis, &config);
        diagnose_response(0, &report.to_json(), &report.to_string(), None)
    });
    if !template
        .expected
        .ends_with(&response[response.find(',').unwrap_or(0)..])
    {
        *mismatches += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Shape {
        Shape {
            n_sensors: 5,
            scenarios: 4,
            setup_reps: 1,
        }
    }

    fn ctx(seed: u64, trace: bool, tamper: bool) -> RunCtx {
        RunCtx {
            seed,
            seconds: Duration::from_millis(400),
            trace,
            tamper,
        }
    }

    #[test]
    fn toy_serve_passes_its_checks() {
        let mut out = run(&toy(), &ctx(2, false, false)).expect("serve run");
        crate::fill_unmeasured(&mut out, false);
        assert_eq!(out.failed, 0, "{:?}", out.notes);
    }

    #[test]
    fn tampered_response_fails_the_check() {
        let out = run(&toy(), &ctx(2, false, true)).expect("serve run");
        assert!(out.failed > 0, "{:?}", out.notes);
    }

    #[test]
    fn toy_serve_trace_passes_its_checks() {
        let mut out = run(&toy(), &ctx(2, true, false)).expect("serve run");
        crate::fill_unmeasured(&mut out, true);
        assert_eq!(out.failed, 0, "{:?}", out.notes);
    }

    #[test]
    fn seed_changes_the_requests() {
        let shape = toy();
        let lines = |seed: u64| -> Vec<String> {
            let seed = derive(seed, 0);
            let baseline = Baseline::prepare(&serve_config(&shape, RecorderHandle::noop()));
            templates(&shape, &baseline, seed)
                .expect("templates")
                .into_iter()
                .map(|t| t.line)
                .collect()
        };
        assert_ne!(lines(1), lines(2));
    }
}
