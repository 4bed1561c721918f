//! `Problem::build` against the reference builder in `support/`: random
//! observations with stars, duplicate sensor pairs, pairs missing after
//! the event, hops of no known AS and inter-domain hops that split into
//! logical halves must give the same graph (ids included), sets,
//! working edges and candidates under every `BuildOptions`.

// Test code: unwrap on a broken fixture is the correct failure mode.
#![allow(clippy::unwrap_used)]

mod support;

use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use netdiag_topology::{AsId, SensorId};
use netdiagnoser::{
    BuildOptions, EdgeBitSet, EdgeId, Hop, IpToAsFn, NodeId, Observations, PathSet, ProbePath,
    Problem, SensorMeta, Snapshot,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `10.x.*` is in AS x; `172.16.*` has no known AS.
fn ip2as() -> IpToAsFn<impl Fn(Ipv4Addr) -> Option<AsId>> {
    IpToAsFn(|a: Ipv4Addr| (a.octets()[0] == 10).then(|| AsId(u32::from(a.octets()[1]))))
}

/// Every combination of the three build switches.
fn all_options() -> Vec<BuildOptions> {
    (0..8u8)
        .map(|bits| BuildOptions {
            logical: bits & 1 != 0,
            use_after: bits & 2 != 0,
            ignore_unidentified: bits & 4 != 0,
        })
        .collect()
}

fn random_hop(rng: &mut StdRng) -> Hop {
    if rng.gen_bool(0.15) {
        return Hop::Star;
    }
    // A small address pool so paths share nodes and links; one address
    // in six has no known AS.
    let host = rng.gen_range(1u8..=4);
    if rng.gen_bool(1.0 / 6.0) {
        Hop::Addr(Ipv4Addr::new(172, 16, 0, host))
    } else {
        Hop::Addr(Ipv4Addr::new(10, rng.gen_range(1u8..=5), 0, host))
    }
}

fn random_path(rng: &mut StdRng, ids: &[SensorId]) -> ProbePath {
    let len = rng.gen_range(0usize..8);
    ProbePath {
        src: ids[rng.gen_range(0..ids.len())],
        dst: ids[rng.gen_range(0..ids.len())],
        hops: (0..len).map(|_| random_hop(rng)).collect(),
        reached: rng.gen_bool(0.6),
    }
}

fn random_observations(seed: u64) -> Observations {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(2u32..6);
    // Sparse ids, and now and then a repeated id whose first entry wins.
    let mut sensors: Vec<SensorMeta> = (0..n)
        .map(|i| SensorMeta {
            id: SensorId(i * 7 + 3),
            addr: Ipv4Addr::new(10, (i + 1) as u8, 9, 9),
            as_id: AsId(rng.gen_range(1u32..=6)),
        })
        .collect();
    if rng.gen_bool(0.3) {
        let mut twin = sensors[0];
        twin.as_id = AsId(99);
        sensors.push(twin);
    }
    let ids: Vec<SensorId> = sensors.iter().map(|s| s.id).collect();
    let before: Vec<ProbePath> = (0..rng.gen_range(0usize..14))
        .map(|_| random_path(&mut rng, &ids))
        .collect();
    // After: the same pairs re-probed (some dropped, some repeated) plus a
    // few fresh ones.
    let mut after = Vec::new();
    for p in &before {
        for _ in 0..rng.gen_range(0usize..3) {
            let mut q = random_path(&mut rng, &ids);
            (q.src, q.dst) = (p.src, p.dst);
            if rng.gen_bool(0.4) {
                q.hops.clone_from(&p.hops);
            }
            after.push(q);
        }
    }
    for _ in 0..rng.gen_range(0usize..3) {
        after.push(random_path(&mut rng, &ids));
    }
    Observations {
        sensors,
        before: Snapshot { paths: before },
        after: Snapshot { paths: after },
    }
}

fn assert_same_sets(what: &str, got: &[PathSet], want: &[support::Set]) {
    assert_eq!(got.len(), want.len(), "{what}: set count");
    for (g, (src, dst, before_index, edges)) in got.iter().zip(want) {
        assert_eq!(
            (g.src, g.dst, g.before_index),
            (*src, *dst, *before_index),
            "{what}"
        );
        let want_ids: BTreeSet<EdgeId> = edges.iter().copied().collect();
        assert_eq!(g.edges.iter().collect::<BTreeSet<_>>(), want_ids, "{what}");
        // Same word length too: greedy's scanned-word count reads it.
        let inserted: EdgeBitSet = edges.iter().copied().collect();
        assert_eq!(g.edges.words(), inserted.words(), "{what}: words");
    }
}

fn assert_parity(obs: &Observations, context: &str) {
    let ip2as = ip2as();
    for opts in all_options() {
        let what = format!("{context} {opts:?}");
        let got = Problem::build(obs, &ip2as, opts);
        let want = support::build(obs, &ip2as, opts);

        assert_eq!(got.graph.node_count(), want.graph.nodes.len(), "{what}");
        for (i, (key, tag)) in want.graph.nodes.iter().enumerate() {
            let node = got.graph.node(NodeId(i as u32));
            assert_eq!((&node.key, &node.tag), (key, tag), "{what}: node {i}");
        }
        assert_eq!(got.graph.edge_count(), want.graph.edges.len(), "{what}");
        for ((id, g), w) in got.graph.edges().zip(&want.graph.edges) {
            assert_eq!(
                (g.from, g.to, g.logical, g.phys),
                (w.from, w.to, w.logical, w.phys),
                "{what}: edge {id:?}"
            );
        }
        assert_eq!(got.before_edges, want.before_edges, "{what}");
        assert_eq!(got.after_edges, want.after_edges, "{what}");
        assert_same_sets(
            &format!("{what} failure"),
            &got.failure_sets,
            &want.failure_sets,
        );
        assert_same_sets(
            &format!("{what} reroute"),
            &got.reroute_sets,
            &want.reroute_sets,
        );
        assert_eq!(
            got.working_edges.iter().collect::<BTreeSet<_>>(),
            want.working_edges,
            "{what}"
        );
        assert_eq!(
            got.candidates.iter().collect::<BTreeSet<_>>(),
            want.candidates,
            "{what}"
        );
    }
}

#[test]
fn random_observations_build_the_reference_problem() {
    let mut shapes = [0usize; 4];
    for seed in 0..400 {
        let obs = random_observations(seed);
        assert_parity(&obs, &format!("seed {seed}"));
        let p = Problem::build(&obs, &ip2as(), BuildOptions::nd_edge());
        shapes[0] += p.failure_sets.len();
        shapes[1] += p.reroute_sets.len();
        shapes[2] += p.graph.edges().filter(|(_, d)| d.logical.is_some()).count();
        shapes[3] += p
            .graph
            .edges()
            .filter(|(e, _)| p.graph.is_unidentified(*e))
            .count();
    }
    // The generator reaches every feature the builder has.
    assert!(
        shapes.iter().all(|&n| n > 0),
        "failure/reroute/logical/unidentified: {shapes:?}"
    );
}

#[test]
fn duplicate_pairs_reroute_against_the_first_reached_before_path() {
    let a = |x: u8| Hop::Addr(Ipv4Addr::new(10, 1, 0, x));
    let path = |hops: Vec<Hop>, reached: bool| ProbePath {
        src: SensorId(0),
        dst: SensorId(1),
        hops,
        reached,
    };
    let obs = Observations {
        sensors: (0..2)
            .map(|i| SensorMeta {
                id: SensorId(i),
                addr: Ipv4Addr::new(10, 1, 9, i as u8),
                as_id: AsId(1),
            })
            .collect(),
        before: Snapshot {
            paths: vec![
                // Unreached: never the reference path for a reroute.
                path(vec![a(1), a(2)], false),
                path(vec![a(1), a(3), a(4)], true),
                path(vec![a(1), a(5), a(4)], true),
            ],
        },
        after: Snapshot {
            paths: vec![path(vec![a(1), a(6), a(4)], true)],
        },
    };
    assert_parity(&obs, "fixed");
    let p = Problem::build(&obs, &ip2as(), BuildOptions::nd_edge());
    assert_eq!(p.reroute_sets.len(), 1);
    let set = &p.reroute_sets[0];
    assert_eq!(set.before_index, 1, "first reached before path of the pair");
    // Only the link into 10.1.0.3 vanished; the one into 10.1.0.4 is
    // physically still on the new path.
    let labels: Vec<String> = set.edges.iter().map(|e| p.graph.edge_label(e)).collect();
    assert_eq!(labels, ["10.1.0.1->10.1.0.3"]);
}
