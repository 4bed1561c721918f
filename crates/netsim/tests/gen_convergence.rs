//! Full-convergence properties on generated internet-scale topologies:
//! the sharded message plane must be byte-identical to the sequential
//! one, and every converged route must respect Gao-Rexford export
//! legality (no valleys, no multi-peer hops).

// Test code: unwrap on a broken fixture is the correct failure mode.
#![allow(clippy::unwrap_used)]

use std::sync::Arc;

use netdiag_netsim::Sim;
use netdiag_obs::{names, LiveRecorder, RecorderHandle};
use netdiag_topology::gen::{generate, GenConfig};
use netdiag_topology::{AsId, LinkId, PeerKind, Prefix, Topology};

fn internet(ases: usize, seed: u64) -> Arc<Topology> {
    Arc::new(generate(&GenConfig::new(ases, seed)).unwrap().topology)
}

/// A simulator reporting to its own live recorder. Asserts the engine
/// really shards: a silent fallback to the sequential path would make
/// every sharded-vs-sequential comparison below vacuous.
fn recorded(topology: &Arc<Topology>) -> (Sim, Arc<LiveRecorder>) {
    let (handle, live) = RecorderHandle::live();
    let sim = Sim::with_recorder(Arc::clone(topology), handle);
    assert!(
        sim.bgp().can_shard(),
        "a live recorder must not gate sharding off"
    );
    (sim, live)
}

/// `bgp.msgs`, `bgp.decisions` and copy-on-write breaks as the recorder
/// saw them. A failure breaks sharing only at routers whose session
/// tables name the failed session, so the break count also tells a
/// stale empty `adj_in_by_session` entry apart from a pruned one.
fn work(live: &LiveRecorder) -> (u64, u64, u64) {
    let report = live.snapshot();
    (
        report.counter(names::BGP_MSGS),
        report.counter(names::BGP_DECISIONS),
        report.counter(names::SIM_SNAPSHOT_COW_BREAKS),
    )
}

/// Every router's full Loc-RIB — paths, egresses, learned-from sessions,
/// local-prefs — in router order.
fn ribs(sim: &Sim) -> Vec<Vec<(Prefix, netdiag_bgp::Route)>> {
    sim.topology()
        .routers()
        .iter()
        .map(|r| sim.bgp().loc_rib(r.id).collect())
        .collect()
}

fn assert_same_state(seq: &Sim, par: &Sim, what: &str) {
    assert_eq!(
        seq.bgp_messages(),
        par.bgp_messages(),
        "{what}: sharding must not create or suppress messages"
    );
    for (r, (a, b)) in ribs(seq).iter().zip(ribs(par)).enumerate() {
        assert_eq!(*a, b, "{what}: Loc-RIB of router {r} diverged");
    }
}

/// Sequential vs. sharded convergence of the same 200-AS generated
/// internet, at several widths. "Same fixed point" is not enough:
/// `Bgp::run_sharded` converges each pid range in place and promises
/// the *exact* state the sequential run produces, so the full Loc-RIB
/// of every router, the total message count and the recorded message
/// and decision counters must all match. Width 3 and 7 put shard
/// bounds inside 64-bit words (66, 133; 28, 57, ...), so two shards
/// fold bits into the same word.
#[test]
fn sharded_convergence_is_byte_identical_to_sequential() {
    let topology = internet(200, 7);
    let (mut seq, seq_live) = recorded(&topology);
    seq.converge_all();
    let seq_work = work(&seq_live);
    assert!(seq_work.0 > 0 && seq_work.1 > 0, "{seq_work:?}");

    for threads in [2, 3, 4, 7] {
        let (mut par, par_live) = recorded(&topology);
        par.converge_all_sharded(threads);
        assert_same_state(&seq, &par, &format!("{threads} shards"));
        assert_eq!(
            work(&par_live),
            seq_work,
            "{threads} shards: recorded work differs from the sequential run"
        );
    }

    // The parallel-IGP constructor feeds the same engine.
    let mut par = Sim::new_parallel(Arc::clone(&topology), 3);
    par.converge_all_sharded(3);
    assert_same_state(&seq, &par, "new_parallel + 3 shards");
}

/// A toy internet with fewer prefixes than workers: the width clamps to
/// one prefix per shard, and every shard bound (1, 2, ...) falls inside
/// the same 64-bit word of every per-session bitset.
#[test]
fn more_workers_than_prefixes_still_matches_sequential() {
    let topology = internet(12, 5);
    assert!(topology.as_count() < 16);
    let (mut seq, seq_live) = recorded(&topology);
    seq.converge_all();
    let (mut par, par_live) = recorded(&topology);
    par.converge_all_sharded(16);
    assert_same_state(&seq, &par, "16 workers over 12 prefixes");
    assert_eq!(work(&par_live), work(&seq_live));
    let full = topology.router_count() * topology.as_count();
    assert_eq!(ribs(&par).iter().map(Vec::len).sum::<usize>(), full);
}

/// The sharded run writes the engine's tables in place, so every router
/// it touches must first leave copy-on-write sharing: a clone taken
/// before the run — here of a partly converged simulator, so the shared
/// state is not empty — must come out unchanged.
#[test]
fn sharded_run_leaves_a_live_clone_untouched() {
    let topology = internet(150, 11);
    let mut sim = Sim::new(Arc::clone(&topology));
    sim.converge_for(&[AsId(0), AsId(40), AsId(149)]);
    let clone = sim.clone();
    let before = ribs(&clone);
    let messages_before = clone.bgp_messages();

    let mut seq = sim.clone();
    seq.converge_all();
    sim.converge_all_sharded(3);

    assert_eq!(ribs(&clone), before, "the clone's RIBs changed");
    assert_eq!(clone.bgp_messages(), messages_before);
    assert_same_state(
        &seq,
        &sim,
        "sharded on top of a shared, partly converged engine",
    );
}

/// Loc-RIB equality does not cover the per-session `adj_out` and
/// `adj_in_by_session` bitsets the sharded run folds back, but a later
/// failure reads both: withdrawals go out only where `adj_out` says a
/// route was advertised, and a session flush replays exactly the pids
/// `adj_in_by_session` lists. So fail and repair the same links on a
/// sequentially and a sharded converged simulator, then restore and fail
/// again: RIBs and the recorded work must keep matching.
#[test]
fn failures_after_sharded_convergence_match_sequential() {
    let topology = internet(200, 7);
    let (mut seq, seq_live) = recorded(&topology);
    seq.converge_all();
    let (mut par, par_live) = recorded(&topology);
    par.converge_all_sharded(3);
    let (seq_snap, par_snap) = (seq.snapshot(), par.snapshot());

    let links: Vec<LinkId> = topology.links().iter().map(|l| l.id).collect();
    let first: Vec<LinkId> = links.iter().copied().step_by(37).take(6).collect();
    let second: Vec<LinkId> = links.iter().copied().skip(5).step_by(23).take(8).collect();

    seq.fail_links(&first);
    par.fail_links(&first);
    assert_same_state(&seq, &par, "after the first failure set");
    assert_eq!(
        work(&par_live),
        work(&seq_live),
        "after the first failure set"
    );

    for &l in &first {
        seq.repair_link(l);
        par.repair_link(l);
    }
    assert_same_state(&seq, &par, "after repairing the first set");

    seq.restore(&seq_snap);
    par.restore(&par_snap);
    assert_same_state(&seq, &par, "after restore");
    seq.fail_links(&second);
    par.fail_links(&second);
    assert_same_state(&seq, &par, "after the second failure set");
    assert_eq!(work(&par_live), work(&seq_live), "overall");
}

/// Every AS path selected anywhere in a converged 200-AS generated
/// internet must be valley-free: read in propagation order (origin
/// toward the local AS), the relationship sequence is uphill
/// (customer→provider) edges, then at most one peer edge, then
/// downhill (provider→customer) edges. A violation means the
/// generator wired a relationship the Gao-Rexford export policy
/// could never have propagated over — i.e. the graph and the policy
/// engine disagree about the business topology.
#[test]
fn converged_routes_are_valley_free() {
    let cfg = GenConfig::new(200, 3);
    let topology = Arc::new(generate(&cfg).unwrap().topology);
    let mut sim = Sim::new(Arc::clone(&topology));
    sim.converge_all();

    let mut checked = 0u64;
    for r in topology.routers() {
        let local = topology.as_of_router(r.id);
        for (prefix, route) in sim.bgp().loc_rib(r.id) {
            // Propagation order: origin (path back) ... neighbor (path
            // front), then the local AS.
            let mut chain: Vec<_> = route.as_path.as_slice().to_vec();
            chain.reverse();
            chain.push(local);
            chain.dedup(); // prepending repeats an AS; the hop is one edge

            // uphill* peer? downhill*
            let mut phase = 0u8; // 0 = climbing, 1 = crossed a peer, 2 = descending
            for hop in chain.windows(2) {
                let rel = topology
                    .relationship(hop[0], hop[1])
                    .unwrap_or_else(|| panic!("{prefix}: path hops {:?} are not neighbors", hop));
                phase = match (phase, rel) {
                    (0, PeerKind::Provider) => 0,
                    (0, PeerKind::Peer) => 1,
                    (_, PeerKind::Customer) => 2,
                    (p, r) => panic!(
                        "{prefix}: valley at {:?} ({r:?} edge in phase {p}, path {:?})",
                        hop, route.as_path
                    ),
                };
                checked += 1;
            }
        }
    }
    assert!(
        checked > 10_000,
        "suspiciously few edges checked: {checked}"
    );
}
