//! `converge-1k`: a generated 1,000-AS internet converged to a full RIB
//! through `Sim::converge_all_sharded(nproc)`. Full BGP convergence and
//! memory dominate; no diagnosis runs.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use netdiag_igp::{Igp, LinkState};
use netdiag_netsim::Sim;
use netdiag_obs::{names, RecorderHandle};
use netdiag_topology::gen::{generate, GenConfig};
use netdiag_topology::Topology;

use crate::stats::Spans;
use crate::stats::{
    derive, median, nanos_since, nproc, peak_rss_mb, quantile, reset_peak_rss, secs,
};
use crate::{Outcome, RunCtx};

/// The convergence workload's parameters.
#[derive(Clone, Debug)]
pub struct Shape {
    /// ASes in each generated internet.
    pub ases: usize,
    /// Distinct internets a run cycles over.
    pub internets: usize,
    /// Set-ups timed per run (their median is `setup_s`).
    pub setup_reps: usize,
}

impl Shape {
    /// The benchmark's 1,000-AS internet.
    pub fn ases_1k() -> Shape {
        Shape {
            ases: 1000,
            internets: 3,
            setup_reps: 15,
        }
    }
}

fn topology(shape: &Shape, seed: u64) -> Arc<Topology> {
    let generated = generate(&GenConfig::new(shape.ases, seed)).expect("generated topology builds");
    Arc::new(generated.topology)
}

/// Loc-RIB routes summed over every router.
fn rib_routes(sim: &Sim) -> u64 {
    sim.topology()
        .routers()
        .iter()
        .map(|r| sim.bgp().loc_rib(r.id).count() as u64)
        .sum()
}

/// Runs the workload (end-to-end or traced, per `ctx.trace`).
pub fn run(shape: &Shape, ctx: &RunCtx) -> Outcome {
    if ctx.trace {
        traced(shape, ctx)
    } else {
        end_to_end(shape, ctx)
    }
}

fn end_to_end(shape: &Shape, ctx: &RunCtx) -> Outcome {
    let threads = nproc();
    let mut out = Outcome {
        threads,
        ..Outcome::default()
    };
    let seeds: Vec<u64> = (0..shape.internets as u64)
        .map(|k| derive(ctx.seed, k))
        .collect();
    let topologies: Vec<Arc<Topology>> = seeds.iter().map(|&s| topology(shape, s)).collect();
    // The first convergence runs untimed, in a fresh process: its peak RSS
    // is the convergence's memory, before later runs fragment the heap.
    reset_peak_rss();
    let messages: Vec<u64> = topologies
        .iter()
        .map(|topo| {
            let mut warm = Sim::new_parallel(Arc::clone(topo), threads);
            warm.converge_all_sharded(threads);
            warm.bgp_messages()
        })
        .collect();
    out.metric("rss_peak_mb", peak_rss_mb());

    // Set-up: topology generation plus the initial IGP of the simulator.
    let setup: Vec<f64> = (0..shape.setup_reps)
        .map(|r| {
            let t = Instant::now();
            let sim = Sim::new_parallel(topology(shape, seeds[r % seeds.len()]), threads);
            let s = secs(t.elapsed());
            drop(black_box(sim));
            s
        })
        .collect();
    out.metric("setup_s", median(&setup));

    // Whole cycles over every internet, so each run weighs them equally
    // however fast convergence runs.
    let started = Instant::now();
    let mut walls_ms = Vec::new();
    let mut routes_converged = 0u64;
    let mut message_mismatch = 0;
    let mut not_full = 0;
    let mut cycles = 0;
    while cycles == 0 || started.elapsed() < ctx.seconds {
        for (i, topo) in topologies.iter().enumerate() {
            let mut sim = Sim::new_parallel(Arc::clone(topo), threads);
            let t = Instant::now();
            sim.converge_all_sharded(threads);
            walls_ms.push(secs(t.elapsed()) * 1e3);
            out.attempted += 1;
            let full = (topo.router_count() * topo.as_count()) as u64;
            routes_converged += full;
            if sim.bgp_messages() != messages[i] {
                message_mismatch += 1;
            }
            if cycles == 0 {
                let routes = rib_routes(&sim) - u64::from(ctx.tamper);
                if routes != full {
                    not_full += 1;
                }
            }
        }
        cycles += 1;
    }
    let busy_s = walls_ms.iter().sum::<f64>() / 1e3;
    out.metric("throughput_per_s", routes_converged as f64 / busy_s);
    out.note(format!(
        "{cycles} cycles over {} internets of {} ASes ({:?} routers): {} convergences on {threads} threads; throughput is Loc-RIB routes per second; one convergence takes p50 {:.1} ms, p90 {:.1} ms",
        topologies.len(),
        shape.ases,
        topologies.iter().map(|t| t.router_count()).collect::<Vec<_>>(),
        walls_ms.len(),
        median(&walls_ms),
        quantile(&walls_ms, 0.9)
    ));
    out.note(format!("convergence walls (ms): {walls_ms:.0?}"));
    out.check("every RIB is full (routers x prefixes)", not_full == 0);
    out.check(
        "every sharded convergence of an internet delivered the same messages",
        message_mismatch == 0,
    );
    let mut sequential = Sim::new(Arc::clone(&topologies[0]));
    sequential.converge_all();
    out.check(
        &format!(
            "sharded message count equals the sequential one ({})",
            messages[0]
        ),
        sequential.bgp_messages() == messages[0],
    );
    out
}

fn traced(shape: &Shape, ctx: &RunCtx) -> Outcome {
    let threads = nproc();
    let mut out = Outcome {
        threads,
        ..Outcome::default()
    };
    let seed = derive(ctx.seed, 0);
    let started = Instant::now();
    let mut spans = Spans::default();
    let (mut plain_ns, mut traced_ns, mut traced_wall_ns) = (0u64, 0u64, 0u64);
    let (mut settled, mut msgs, mut decisions) = (0u64, 0u64, 0u64);
    let mut sharded_msgs_equal = true;
    let mut reps = 0u64;
    while reps == 0 || started.elapsed() < ctx.seconds {
        // Untraced: the end-to-end path.
        let mut plain = Sim::new_parallel(topology(shape, seed), threads);
        let t = Instant::now();
        plain.converge_all_sharded(threads);
        plain_ns += nanos_since(t);
        let plain_msgs = plain.bgp_messages();
        drop(plain);

        // Traced: the same steps with a span around each public call and
        // a recorder attached for the engine's own counters.
        let t = Instant::now();
        let topo = spans.time("topology.build", || topology(shape, seed));
        spans.time("igp.spf_full", || {
            Igp::compute(&topo, &LinkState::all_up(&topo))
        });
        let (handle, live) = RecorderHandle::live();
        let mut seq = spans.time("netsim.sim_new", || {
            Sim::with_recorder(Arc::clone(&topo), handle)
        });
        spans.time("bgp.converge_seq", || seq.converge_all());
        let counters = live.snapshot();
        settled += counters.counter(names::IGP_SETTLED_NODES);
        msgs += counters.counter(names::BGP_MSGS);
        decisions += counters.counter(names::BGP_DECISIONS);
        drop(seq);
        let (handle, live) = RecorderHandle::live();
        let mut sharded = spans.time("netsim.sim_new", || {
            Sim::with_recorder(Arc::clone(&topo), handle)
        });
        let t_sharded = Instant::now();
        sharded.converge_all_sharded(threads);
        let sharded_ns = nanos_since(t_sharded);
        spans.add("bgp.converge_sharded", sharded_ns);
        traced_ns += sharded_ns;
        sharded_msgs_equal &= live.snapshot().counter(names::BGP_MSGS) == plain_msgs
            && sharded.bgp_messages() == plain_msgs;
        drop(sharded);
        traced_wall_ns += nanos_since(t);
        out.attempted += 3;
        reps += 1;
    }
    let per = |n: u64| n as f64 / reps as f64;
    out.metric("topology.build_ms", spans.p50_us("topology.build") / 1e3);
    out.metric("igp.spf_full_ms", spans.p50_us("igp.spf_full") / 1e3);
    out.metric("igp.settled_nodes", per(settled));
    out.metric("bgp.msgs", per(msgs));
    out.metric("bgp.decisions", per(decisions));
    let seq_ms = spans.p50_us("bgp.converge_seq") / 1e3;
    let sharded_ms = spans.p50_us("bgp.converge_sharded") / 1e3;
    out.metric("bgp.converge_seq_ms", seq_ms);
    out.metric("bgp.converge_sharded_ms", sharded_ms);
    out.metric("bgp.shard_gain", seq_ms / sharded_ms);
    out.metric(
        "obs.trace_overhead",
        traced_ns as f64 / plain_ns.max(1) as f64 - 1.0,
    );
    out.metric(
        "obs.unattributed_share",
        1.0 - spans.total_ns() as f64 / traced_wall_ns.max(1) as f64,
    );
    out.check(
        "sharded message count equals the sequential one, traced and untraced",
        sharded_msgs_equal,
    );
    out.note(format!(
        "{reps} repetitions of: untraced new_parallel + converge_all_sharded({threads}), then traced generate, SPF, sequential and sharded convergence"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn toy() -> Shape {
        Shape {
            ases: 60,
            internets: 2,
            setup_reps: 1,
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
    fn toy_convergence_passes_its_checks() {
        for trace in [false, true] {
            let mut out = run(&toy(), &ctx(4, trace, false));
            crate::fill_unmeasured(&mut out, trace);
            assert_eq!(out.failed, 0, "{:?}", out.notes);
        }
    }

    #[test]
    fn tampered_rib_fails_the_check() {
        let out = run(&toy(), &ctx(4, false, true));
        assert!(out.failed > 0, "{:?}", out.notes);
    }

    #[test]
    fn seed_changes_the_topology() {
        let a = topology(&toy(), derive(1, 0));
        let b = topology(&toy(), derive(2, 0));
        assert_ne!(
            (a.router_count(), a.link_count()),
            (b.router_count(), b.link_count())
        );
    }
}
