//! `trials-paper` and `trials-multilink`: the paper's placement × failure
//! grid through `collect_trials` on the 165-AS evaluation internet, and a
//! traced replay of one trial's steps from public calls.
//!
//! The end-to-end run times whole grids on `nproc` workers, cycling over
//! a few base seeds so one run averages over several placement draws,
//! and checks that a repeated grid, and the same grid on one worker,
//! give identical trials. The traced run replays placements trial by
//! trial twice — once through the library's algorithm entry points,
//! once composing `Problem::build` → `apply_feed` → `greedy` itself with
//! a span around every call — and reads the simulator's own counters
//! through a `LiveRecorder` attached only there.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use netdiag_experiments::bridge::{observations, routing_feed, SimLookingGlass, TruthIpToAs};
use netdiag_experiments::figures::{collect_trials, FigureConfig};
use netdiag_experiments::runner::{prepare, prepare_with, RunConfig, TrialResult};
use netdiag_experiments::sampling::{sample_failure_from, FailureSpec};
use netdiag_experiments::truth::{evaluate, TruthMap};
use netdiag_netsim::{apply_failure, probe_mesh, Failure};
use netdiag_obs::{names, LiveRecorder, RecorderHandle, RunReport};
use netdiag_topology::builders::{build_internet, Internet, InternetConfig};
use netdiag_topology::LinkId;
use netdiagnoser::{
    nd_bgpigp, nd_edge, nd_lg, tomo, Algorithm, BuildOptions, Diagnosis, DiagnosticsConfig,
    NetDiagnoser, Problem, Weights,
};

use crate::stats::Spans;
use crate::stats::{
    derive, median, nanos_since, nproc, peak_rss_mb, quantile, reset_peak_rss, secs,
};
use crate::{Outcome, RunCtx};

/// One trial workload: the grid collected per `collect_trials` call and
/// the scenario every trial runs.
#[derive(Clone, Debug)]
pub struct Shape {
    /// Sensor placements per grid.
    pub placements: usize,
    /// Unreachability-causing failures per placement.
    pub failures_per_placement: usize,
    /// Scenario: failure class, blocking and Looking Glass shares.
    pub cfg: RunConfig,
    /// Distinct base seeds a run cycles over (each grid repeats).
    pub base_seeds: usize,
    /// Set-ups timed per run (their median is `setup_s`).
    pub setup_reps: usize,
}

impl Shape {
    /// The paper's canonical experiment: single-link failures, no
    /// traceroute blocking, 10 placements × 100 failures.
    pub fn paper() -> Shape {
        Shape {
            placements: 10,
            failures_per_placement: 100,
            cfg: RunConfig::default(),
            base_seeds: 4,
            setup_reps: 15,
        }
    }

    /// Three-link failures with 30% of probed ASes blocking traceroute
    /// and Looking Glasses in half of them: little memo reuse, every
    /// trial reconverges, probes stars and runs all four diagnoses.
    pub fn multilink() -> Shape {
        Shape {
            placements: 4,
            failures_per_placement: 50,
            cfg: RunConfig {
                failure: FailureSpec::Links(3),
                blocked_frac: 0.3,
                lg_frac: 0.5,
                ..RunConfig::default()
            },
            base_seeds: 6,
            setup_reps: 15,
        }
    }

    fn grid(&self, base_seed: u64, threads: usize) -> FigureConfig {
        FigureConfig {
            placements: self.placements,
            failures_per_placement: self.failures_per_placement,
            base_seed,
            threads,
            ..FigureConfig::default()
        }
    }

    fn trials_per_grid(&self) -> usize {
        self.placements * self.failures_per_placement
    }
}

/// The 165-AS evaluation internet every trial workload runs on.
fn paper_internet() -> Internet {
    build_internet(&InternetConfig::default())
}

/// Runs the workload (end-to-end or traced, per `ctx.trace`).
pub fn run(shape: &Shape, ctx: &RunCtx) -> Outcome {
    if ctx.trace {
        traced(shape, ctx)
    } else {
        end_to_end(shape, ctx)
    }
}

/// Median wall time of `setup_reps` set-ups, cycling over `bases`:
/// topology build plus the convergence and healthy probe mesh of every
/// placement of one grid.
fn setup_seconds(shape: &Shape, bases: &[u64]) -> f64 {
    let samples: Vec<f64> = (0..shape.setup_reps)
        .map(|r| {
            let t = Instant::now();
            let net = paper_internet();
            let contexts: Vec<_> = (0..shape.placements)
                .map(|p| {
                    let mut rng = StdRng::seed_from_u64(derive(bases[r % bases.len()], p as u64));
                    prepare(&net, &shape.cfg, &mut rng)
                })
                .collect();
            let s = secs(t.elapsed());
            drop(black_box(contexts));
            s
        })
        .collect();
    median(&samples)
}

fn end_to_end(shape: &Shape, ctx: &RunCtx) -> Outcome {
    let threads = nproc();
    let mut out = Outcome {
        threads,
        ..Outcome::default()
    };
    let bases: Vec<u64> = (0..shape.base_seeds as u64)
        .map(|k| derive(ctx.seed, k))
        .collect();
    let net = paper_internet();
    // The first grid runs untimed, in a fresh process: its peak RSS is the
    // grid's memory, before later grids fragment the heap; page faults and
    // allocator growth land here. Its trials are the reference the later
    // grids of its seed must equal.
    reset_peak_rss();
    let mut reference: BTreeMap<u64, Vec<TrialResult>> = BTreeMap::new();
    reference.insert(
        bases[0],
        collect_trials(&net, &shape.cfg, &shape.grid(bases[0], threads)),
    );
    out.metric("rss_peak_mb", peak_rss_mb());
    out.metric("setup_s", setup_seconds(shape, &bases));

    // Whole cycles over every base seed, so each run weighs every drawn
    // placement set equally however fast the grids run; at least two, so
    // every grid is repeated.
    let started = Instant::now();
    let mut walls_ms = Vec::new();
    let mut trials = 0usize;
    let mut mismatched = 0usize;
    let mut repeats = 0usize;
    let mut cycles = 0usize;
    while cycles < 2 || started.elapsed() < ctx.seconds {
        for &base in &bases {
            let t = Instant::now();
            let mut got = collect_trials(&net, &shape.cfg, &shape.grid(base, threads));
            walls_ms.push(secs(t.elapsed()) * 1e3);
            out.attempted += shape.trials_per_grid() as u64;
            out.failed += shape.trials_per_grid().saturating_sub(got.len()) as u64;
            trials += got.len();
            if ctx.tamper && cycles == 1 {
                tamper(&mut got);
            }
            match reference.get(&base) {
                Some(first) => {
                    repeats += 1;
                    if *first != got {
                        mismatched += 1;
                    }
                }
                None => {
                    reference.insert(base, got);
                }
            }
        }
        cycles += 1;
    }
    let busy_s: f64 = walls_ms.iter().sum::<f64>() / 1e3;
    out.metric("throughput_per_s", trials as f64 / busy_s);
    out.note(format!(
        "{cycles} cycles over {} base seeds: {} grids of {}x{} trials on {threads} threads ({trials} trials); one grid takes p50 {:.1} ms, p90 {:.1} ms",
        bases.len(),
        walls_ms.len(),
        shape.placements,
        shape.failures_per_placement,
        median(&walls_ms),
        quantile(&walls_ms, 0.9)
    ));
    out.note(format!("grid walls (ms): {:.0?}", walls_ms));
    out.check(
        &format!("{repeats} repeated grids equal their first run"),
        mismatched == 0,
    );

    let t = Instant::now();
    let single = collect_trials(&net, &shape.cfg, &shape.grid(bases[0], 1));
    out.note(format!(
        "one-thread grid: {:.1} ms",
        secs(t.elapsed()) * 1e3
    ));
    out.check(
        "one-thread grid equals the nproc grid",
        reference.get(&bases[0]) == Some(&single),
    );
    out
}

/// Corrupts one trial result the way a wrong diagnosis would.
fn tamper(trials: &mut [TrialResult]) {
    if let Some(t) = trials.first_mut() {
        t.nd_edge.sensitivity = 1.0 - t.nd_edge.sensitivity;
        t.nd_edge.hypothesis_size += 1;
    }
}

/// Share of trials whose failure repeats an earlier trial's failure in
/// the same placement: the work the per-placement replay memo can skip.
fn memo_share(shape: &Shape, trials: &[TrialResult]) -> f64 {
    if trials.is_empty() {
        return 0.0;
    }
    let chunk = shape.failures_per_placement.max(1);
    let repeated: usize = trials
        .chunks(chunk)
        .map(|placement| {
            let mut seen: BTreeSet<Vec<LinkId>> = BTreeSet::new();
            placement
                .iter()
                .filter(|t| match &t.failure {
                    Failure::Links(ls) => !seen.insert(ls.clone()),
                    _ => false,
                })
                .count()
        })
        .sum();
    repeated as f64 / trials.len() as f64
}

/// Work one replayed placement did, and where its time went.
#[derive(Default)]
struct Replay {
    results: Vec<TrialResult>,
    wall_ns: u64,
    injects: u64,
    redraws: u64,
}

/// The three diagnoses whose composition the traced replay checks.
const COMPOSED: [Algorithm; 3] = [Algorithm::Tomo, Algorithm::NdEdge, Algorithm::NdBgpIgp];

/// Replays one placement trial by trial. Without `tracer` every step is
/// one library call; with it every call runs inside a span, the three
/// greedy diagnoses are composed from `Problem` calls and checked equal
/// to the facade's, and the simulator reports to `tracer`'s recorder.
fn replay_placement(
    net: &Internet,
    shape: &Shape,
    placement_seed: u64,
    mut tracer: Option<&mut Tracer>,
) -> Replay {
    let cfg = &shape.cfg;
    let weights = cfg.diagnostics.weights;
    let started = Instant::now();
    let excluded_before = tracer.as_ref().map_or(0, |t| t.spans.excluded_ns());
    let mut rng = StdRng::seed_from_u64(placement_seed);
    let (ctx, prepared) = match tracer.as_deref_mut() {
        Some(t) => {
            let before = t.live.snapshot();
            let handle = t.handle.clone();
            let ctx = t.spans.time("experiments.prepare", || {
                prepare_with(net, cfg, &mut rng, handle)
            });
            let after = t.live.snapshot();
            t.setup.push(delta(&before, &after));
            (ctx, Some(after))
        }
        None => (prepare(net, cfg, &mut rng), None),
    };
    let topology = ctx.sim.topology();
    let ip2as = TruthIpToAs { topology };
    let mut scratch = ctx.sim.clone();
    let healthy = scratch.snapshot();
    let mut dirty = false;
    let mut replay = Replay::default();

    for t in 0..shape.failures_per_placement {
        let mut rng = StdRng::seed_from_u64(derive(placement_seed, 1 + t as u64));
        for _attempt in 0..200 {
            let Some(failure) = span(&mut tracer, "experiments.sample", || {
                sample_failure_from(
                    &ctx.sim,
                    &ctx.probed_links,
                    &ctx.mesh_before,
                    &ctx.sensors,
                    cfg.failure,
                    &mut rng,
                )
            }) else {
                break;
            };
            if dirty {
                span(&mut tracer, "netsim.restore", || scratch.restore(&healthy));
            }
            dirty = true;
            span(&mut tracer, "netsim.inject", || {
                apply_failure(&mut scratch, &failure)
            });
            let mesh_after = span(&mut tracer, "netsim.probe_mesh", || {
                probe_mesh(&scratch, &ctx.sensors, &ctx.blocked)
            });
            replay.injects += 1;
            if mesh_after.failed_count() == 0 {
                replay.redraws += 1;
                continue;
            }
            let (obs, feed) = span(&mut tracer, "experiments.bridge", || {
                let observed = scratch.take_observed();
                let igp_events = scratch.take_igp_events();
                (
                    observations(&ctx.sensors, &ctx.mesh_before, &mesh_after),
                    routing_feed(topology, ctx.observer, &observed, &igp_events),
                )
            });
            let score_started = Instant::now();
            let truth = TruthMap::build(topology, &ctx.mesh_before, &mesh_after);
            let failed_sites: BTreeSet<LinkId> = failure
                .all_failure_sites(&ctx.sim)
                .into_iter()
                .filter(|l| truth.probed_links().contains(l))
                .collect();
            let mut score_ns = nanos_since(score_started);

            let [d_tomo, d_edge, d_bgpigp] = match tracer.as_deref_mut() {
                Some(tr) => COMPOSED.map(|algo| tr.compose(algo, &obs, &ip2as, &feed, weights)),
                None => [
                    tomo(&obs, &ip2as),
                    nd_edge(&obs, &ip2as, weights),
                    nd_bgpigp(&obs, &ip2as, &feed, weights),
                ],
            };
            let d_lg = (!ctx.blocked.is_empty()).then(|| {
                let lg = SimLookingGlass {
                    sim: &ctx.sim,
                    available: &ctx.lg_available,
                };
                span(&mut tracer, "core.nd_lg", || {
                    nd_lg(&obs, &ip2as, &feed, &lg, weights)
                })
            });

            let scored = Instant::now();
            let score = |d: &Diagnosis| evaluate(topology, &truth, d, &failed_sites);
            let result = TrialResult {
                failed_paths: mesh_after.failed_count(),
                tomo: score(&d_tomo),
                nd_edge: score(&d_edge),
                nd_bgpigp: score(&d_bgpigp),
                nd_lg: d_lg.as_ref().map(score),
                router_detected: None,
                failure,
                failed_sites,
            };
            score_ns += nanos_since(scored);
            if let Some(tr) = tracer.as_deref_mut() {
                tr.spans.add("experiments.score", score_ns);
            }
            replay.results.push(result);
            break;
        }
    }
    let excluded = tracer.as_ref().map_or(0, |t| t.spans.excluded_ns()) - excluded_before;
    replay.wall_ns = nanos_since(started).saturating_sub(excluded);
    if let (Some(t), Some(prepared)) = (tracer, prepared) {
        t.trials.push(delta(&prepared, &t.live.snapshot()));
    }
    replay
}

/// Runs `f` in span `name` when tracing, else plainly.
fn span<R>(tracer: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => t.spans.time(name, f),
        None => f(),
    }
}

/// Counter deltas between two snapshots of the same recorder.
fn delta(before: &RunReport, after: &RunReport) -> BTreeMap<String, u64> {
    after
        .counters
        .iter()
        .map(|(k, v)| (k.clone(), v.saturating_sub(before.counter(k))))
        .collect()
}

/// State of the traced replay: spans, the attached recorder and the
/// counter deltas it saw per placement set-up and per trial loop.
struct Tracer {
    spans: Spans,
    handle: RecorderHandle,
    live: Arc<LiveRecorder>,
    setup: Vec<BTreeMap<String, u64>>,
    trials: Vec<BTreeMap<String, u64>>,
    candidates: Vec<f64>,
    composition_mismatches: usize,
    compositions: usize,
}

impl Tracer {
    fn new() -> Tracer {
        let (handle, live) = RecorderHandle::live();
        Tracer {
            spans: Spans::default(),
            handle,
            live,
            setup: Vec::new(),
            trials: Vec::new(),
            candidates: Vec::new(),
            composition_mismatches: 0,
            compositions: 0,
        }
    }

    /// Composes `algo` from `Problem` calls, each in its span, then
    /// (outside the timed loop) checks the result equals the facade's
    /// diagnosis on the same inputs, with the recorder attached so the
    /// hitting-set counters are read.
    fn compose(
        &mut self,
        algo: Algorithm,
        obs: &netdiagnoser::Observations,
        ip2as: &TruthIpToAs<'_>,
        feed: &netdiagnoser::RoutingFeed,
        weights: Weights,
    ) -> Diagnosis {
        let opts = match algo {
            Algorithm::Tomo => BuildOptions::tomo(),
            _ => BuildOptions::nd_edge(),
        };
        let mut problem = self
            .spans
            .time("core.problem_build", || Problem::build(obs, ip2as, opts));
        if algo == Algorithm::NdBgpIgp {
            self.spans
                .time("core.feed", || problem.apply_feed(obs, feed));
        }
        // Tomo scores failure sets only (Algorithm 1).
        let w = match algo {
            Algorithm::Tomo => Weights { a: 1, b: 0 },
            _ => weights,
        };
        let greedy = self
            .spans
            .time("core.greedy", || problem.instance().greedy(w));
        self.candidates.push(problem.candidates.len() as f64);
        let composed = Diagnosis::new(problem, greedy);

        let handle = self.handle.clone();
        let equal = self.spans.exclude(|| {
            let facade = NetDiagnoser::builder()
                .config(DiagnosticsConfig {
                    algorithm: algo,
                    weights,
                    ..DiagnosticsConfig::default()
                })
                .routing_feed(feed.clone())
                .recorder(handle)
                .build();
            facade
                .diagnose(obs, ip2as)
                .is_ok_and(|d| same_diagnosis(&d, &composed))
        });
        self.compositions += 1;
        if !equal {
            self.composition_mismatches += 1;
        }
        composed
    }
}

/// Two diagnoses agree: same hypothesis, same greedy output, same graph.
pub fn same_diagnosis(a: &Diagnosis, b: &Diagnosis) -> bool {
    a.hypothesis == b.hypothesis
        && a.greedy == b.greedy
        && a.hypothesis_endpoints() == b.hypothesis_endpoints()
}

/// Sums counter `name` over `maps`.
fn total(maps: &[BTreeMap<String, u64>], name: &str) -> f64 {
    maps.iter()
        .map(|m| m.get(name).copied().unwrap_or(0))
        .sum::<u64>() as f64
}

fn traced(shape: &Shape, ctx: &RunCtx) -> Outcome {
    let threads = nproc();
    let mut out = Outcome {
        threads,
        ..Outcome::default()
    };
    let base = derive(ctx.seed, 0);
    let started = Instant::now();

    let t = Instant::now();
    let net = paper_internet();
    out.metric("topology.build_ms", secs(t.elapsed()) * 1e3);

    // Untraced pool: one warm-up grid, then one grid on nproc workers and
    // one on a single worker (memo live, as in production).
    let warm = collect_trials(&net, &shape.cfg, &shape.grid(base, threads));
    let t = Instant::now();
    let pooled = collect_trials(&net, &shape.cfg, &shape.grid(base, threads));
    let pooled_s = secs(t.elapsed());
    let t = Instant::now();
    let single = collect_trials(&net, &shape.cfg, &shape.grid(base, 1));
    let single_s = secs(t.elapsed());
    out.metric("experiments.pool_speedup", single_s / pooled_s);
    out.metric("experiments.memo_share", memo_share(shape, &pooled));
    out.attempted += 3 * shape.trials_per_grid() as u64;
    out.check(
        "untraced grids agree across repeats and thread counts",
        warm == pooled && pooled == single,
    );

    // Pool steals: the same grid with a recorder attached (this disables
    // the memo, so it is only read for the steal counter).
    let (handle, live) = RecorderHandle::live();
    let traced_grid = collect_trials(
        &net,
        &shape.cfg,
        &FigureConfig {
            recorder: handle,
            ..shape.grid(base, threads)
        },
    );
    out.attempted += shape.trials_per_grid() as u64;
    out.metric(
        "experiments.pool_steals",
        live.snapshot().counter(names::TRIAL_POOL_STEAL) as f64,
    );
    out.check(
        "grid with a recorder attached equals the untraced grid",
        traced_grid == pooled,
    );

    // Replay placements, each once untraced and once traced, alternating,
    // until the run length is used.
    let mut tracer = Tracer::new();
    let (mut plain_ns, mut traced_ns, mut traced_wall_ns) = (0u64, 0u64, 0u64);
    let (mut injects, mut redraws) = (0u64, 0u64);
    let mut replays_equal = true;
    let mut p = 0u64;
    while p == 0 || started.elapsed() < ctx.seconds {
        let seed = derive(base, 1000 + p);
        let plain = replay_placement(&net, shape, seed, None);
        let traced = replay_placement(&net, shape, seed, Some(&mut tracer));
        replays_equal &= plain.results == traced.results;
        plain_ns += plain.wall_ns;
        traced_ns += traced.wall_ns;
        traced_wall_ns += traced.wall_ns;
        injects += traced.injects;
        redraws += traced.redraws;
        out.attempted += 2 * traced.results.len() as u64;
        p += 1;
    }
    out.check(
        &format!("traced and untraced replays of {p} placements give equal trials"),
        replays_equal,
    );
    out.check(
        &format!(
            "{} composed diagnoses equal the facade's",
            tracer.compositions
        ),
        tracer.composition_mismatches == 0,
    );

    let spans = &tracer.spans;
    let per = |n: f64, d: u64| n / d.max(1) as f64;
    let placements = tracer.setup.len() as u64;
    out.metric(
        "igp.settled_nodes",
        per(total(&tracer.setup, names::IGP_SETTLED_NODES), placements),
    );
    out.metric(
        "bgp.msgs",
        per(total(&tracer.setup, names::BGP_MSGS), placements),
    );
    out.metric(
        "bgp.decisions",
        per(total(&tracer.setup, names::BGP_DECISIONS), placements),
    );
    out.metric(
        "igp.delta_nodes",
        per(total(&tracer.trials, names::IGP_SPF_DELTA_NODES), injects),
    );
    out.metric(
        "bgp.replay_prefixes",
        per(
            total(&tracer.trials, names::BGP_REPLAY_PREFIXES_SCOPED),
            injects,
        ),
    );
    out.metric(
        "netsim.cow_breaks",
        per(
            total(&tracer.trials, names::SIM_SNAPSHOT_COW_BREAKS),
            injects,
        ),
    );
    out.metric(
        "netsim.probe_hops",
        per(total(&tracer.trials, names::PROBE_HOPS), injects),
    );
    let diag_runs = total(&tracer.trials, names::DIAG_RUNS) as u64;
    out.metric(
        "core.words_scanned",
        per(total(&tracer.trials, names::HS_WORDS_SCANNED), diag_runs),
    );
    out.metric(
        "core.greedy_iters",
        per(total(&tracer.trials, names::HS_GREEDY_ITERS), diag_runs),
    );
    out.metric("core.candidates_p50", median(&tracer.candidates));
    out.metric("netsim.redraw_share", per(redraws as f64, injects));
    out.metric(
        "netsim.inject_us_p50",
        spans.quantile_us("netsim.inject", 0.5),
    );
    out.metric(
        "netsim.inject_us_p90",
        spans.quantile_us("netsim.inject", 0.9),
    );
    out.metric("netsim.probe_mesh_us", spans.p50_us("netsim.probe_mesh"));
    out.metric("netsim.restore_us", spans.p50_us("netsim.restore"));
    out.metric(
        "experiments.prepare_ms",
        spans.p50_us("experiments.prepare") / 1e3,
    );
    out.metric("experiments.bridge_us", spans.p50_us("experiments.bridge"));
    out.metric("experiments.score_us", spans.p50_us("experiments.score"));
    out.metric("core.problem_build_us", spans.p50_us("core.problem_build"));
    out.metric("core.feed_us", spans.p50_us("core.feed"));
    out.metric("core.greedy_us", spans.p50_us("core.greedy"));
    out.metric("core.nd_lg_us", spans.p50_us("core.nd_lg"));

    let (build_ms, converge_ms) = convergence_split(&net, &shape.cfg, shape.placements, base);
    out.metric("igp.spf_full_ms", build_ms);
    out.metric("bgp.converge_for_ms", converge_ms);

    out.metric(
        "obs.trace_overhead",
        traced_ns as f64 / plain_ns.max(1) as f64 - 1.0,
    );
    out.metric(
        "obs.unattributed_share",
        1.0 - spans.total_ns() as f64 / traced_wall_ns.max(1) as f64,
    );
    out.note(format!(
        "replayed {p} placements x {} trials twice ({injects} injects, {} spans); memo share from the untraced grid",
        shape.failures_per_placement,
        spans.count("netsim.inject")
    ));
    out
}

/// Times the two halves of a placement's set-up from public calls: the
/// full IGP SPF of the topology, and BGP convergence for the sensor
/// ASes. Medians over `reps` placements, milliseconds.
pub fn convergence_split(net: &Internet, cfg: &RunConfig, reps: usize, base: u64) -> (f64, f64) {
    use netdiag_experiments::placement::place_sensors;
    use netdiag_igp::{Igp, LinkState};
    use netdiag_netsim::{SensorSet, Sim};

    let topology = Arc::new(net.topology.clone());
    let mut spf_ms = Vec::new();
    let mut converge_ms = Vec::new();
    for p in 0..reps as u64 {
        let t = Instant::now();
        black_box(Igp::compute(&topology, &LinkState::all_up(&topology)));
        spf_ms.push(secs(t.elapsed()) * 1e3);

        let mut rng = StdRng::seed_from_u64(derive(base, 2000 + p));
        let spec = place_sensors(net, cfg.placement, cfg.n_sensors, &mut rng);
        let sensors = SensorSet::place(&topology, &spec);
        let mut sim = Sim::new(Arc::clone(&topology));
        sensors.register(&mut sim);
        sim.set_observer(net.cores[0].as_id);
        let t = Instant::now();
        sim.converge_for(&sensors.as_ids());
        converge_ms.push(secs(t.elapsed()) * 1e3);
    }
    (median(&spf_ms), median(&converge_ms))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn toy(multilink: bool) -> Shape {
        Shape {
            placements: 2,
            failures_per_placement: 4,
            base_seeds: 2,
            setup_reps: 1,
            ..if multilink {
                Shape::multilink()
            } else {
                Shape::paper()
            }
        }
    }

    fn ctx(seed: u64, trace: bool, tamper: bool) -> RunCtx {
        RunCtx {
            seed,
            seconds: Duration::from_millis(1),
            trace,
            tamper,
        }
    }

    #[test]
    fn toy_grid_passes_its_checks() {
        for multilink in [false, true] {
            let mut out = run(&toy(multilink), &ctx(3, false, false));
            crate::fill_unmeasured(&mut out, false);
            assert_eq!(out.failed, 0, "{:?}", out.notes);
            assert!(out.attempted >= 16);
        }
    }

    #[test]
    fn tampered_trial_fails_the_check() {
        let out = run(&toy(false), &ctx(3, false, true));
        assert!(out.failed > 0, "{:?}", out.notes);
    }

    #[test]
    fn toy_trace_passes_its_checks() {
        let mut out = run(&toy(true), &ctx(5, true, false));
        crate::fill_unmeasured(&mut out, true);
        assert_eq!(out.failed, 0, "{:?}", out.notes);
    }

    #[test]
    fn seed_changes_the_trials() {
        let shape = toy(false);
        let net = paper_internet();
        let a = collect_trials(&net, &shape.cfg, &shape.grid(derive(1, 0), 1));
        let b = collect_trials(&net, &shape.cfg, &shape.grid(derive(2, 0), 1));
        assert_ne!(a, b);
    }
}
