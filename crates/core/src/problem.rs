//! Building the Boolean-tomography problem from probe observations.
//!
//! A [`Problem`] holds the inferred graph plus the failure sets, reroute
//! sets, working-path constraints and candidate set defined in §2.3–§3.2 of
//! the paper, and can be refined with AS-X's control-plane feed (§3.3).

use std::collections::BTreeMap;

use netdiag_topology::{AsId, SensorId};

use crate::bitset::EdgeBitSet;
use crate::graph::{DiagGraph, EdgeId, Epoch, HopNode, PathRef, PhysId};
use crate::hitting_set::HittingSetInstance;
use crate::observation::{Hop, IpToAs, Observations, ProbePath, RoutingFeed};
use crate::seeded_hash::SeededMap;

/// A failure or reroute set attached to its sensor pair.
#[derive(Clone, Debug)]
pub struct PathSet {
    /// Probing sensor.
    pub src: SensorId,
    /// Target sensor.
    pub dst: SensorId,
    /// Index of the underlying path in the *before* snapshot.
    pub before_index: usize,
    /// The edges of the set.
    pub edges: EdgeBitSet,
}

/// How to construct the problem (which paper features to enable).
#[derive(Clone, Copy, Debug)]
pub struct BuildOptions {
    /// Expand inter-domain links into logical half-links (§3.1).
    pub logical: bool,
    /// Use the post-failure snapshot: working constraints from `T+` paths
    /// and reroute sets (§3.2). Plain Tomo leaves this off.
    pub use_after: bool,
    /// Drop unidentified (star-adjacent) links from the candidate set —
    /// what the paper's ND-bgpigp does when ASes block traceroute (§5.4).
    /// ND-LG keeps them and maps them to ASes instead.
    pub ignore_unidentified: bool,
}

impl BuildOptions {
    /// Plain multi-AS Boolean tomography (the paper's Tomo).
    pub fn tomo() -> Self {
        BuildOptions {
            logical: false,
            use_after: false,
            ignore_unidentified: true,
        }
    }

    /// Logical links + reroute information (the paper's ND-edge).
    pub fn nd_edge() -> Self {
        BuildOptions {
            logical: true,
            use_after: true,
            ignore_unidentified: true,
        }
    }

    /// ND-edge, but keeping unidentified links as candidates (ND-LG).
    pub fn nd_lg() -> Self {
        BuildOptions {
            ignore_unidentified: false,
            ..Self::nd_edge()
        }
    }
}

/// A fully-constructed tomography problem.
#[derive(Clone, Debug)]
pub struct Problem {
    /// The inferred graph (union of observed paths).
    pub graph: DiagGraph,
    /// One set per failed sensor pair: the edges of its pre-failure path.
    pub failure_sets: Vec<PathSet>,
    /// One set per rerouted-but-working pair: old-path edges absent from
    /// the new path.
    pub reroute_sets: Vec<PathSet>,
    /// Edges proven up by working paths.
    pub working_edges: EdgeBitSet,
    /// Candidate edges for the hypothesis.
    pub candidates: EdgeBitSet,
    /// Edge sequence of every before-snapshot path (aligned with
    /// `Observations::before.paths`).
    pub before_edges: Vec<Vec<EdgeId>>,
    /// Edge sequence of every after-snapshot path (empty unless
    /// `use_after`).
    pub after_edges: Vec<Vec<EdgeId>>,
    /// Edges forced into the hypothesis by IGP link-down events (§3.3).
    pub forced: Vec<EdgeId>,
}

impl Problem {
    /// Builds the problem from observations.
    ///
    /// # Panics
    ///
    /// Panics if a path names a sensor missing from `obs.sensors`
    /// ([`NetDiagnoser::diagnose`](crate::NetDiagnoser::diagnose) checks
    /// this first and answers [`DiagnoseError::UnknownSensor`](crate::DiagnoseError::UnknownSensor)).
    pub fn build(obs: &Observations, ip2as: &dyn IpToAs, opts: BuildOptions) -> Problem {
        Self::build_recorded(obs, ip2as, opts, &netdiag_obs::RecorderHandle::noop())
    }

    /// [`build`](Self::build), additionally timing the build as a
    /// [`DIAG_PROBLEM_BUILD`](netdiag_obs::names::DIAG_PROBLEM_BUILD) span
    /// and emitting one
    /// [`EV_DIAG_REROUTE_SET`](netdiag_obs::names::EV_DIAG_REROUTE_SET)
    /// trace event per constructed reroute set.
    pub fn build_recorded(
        obs: &Observations,
        ip2as: &dyn IpToAs,
        opts: BuildOptions,
        recorder: &netdiag_obs::RecorderHandle,
    ) -> Problem {
        let _span = recorder.span(netdiag_obs::names::DIAG_PROBLEM_BUILD);
        let (before, after) = (&obs.before.paths, &obs.after.paths);

        // Each sensor's AS, by id (the first entry wins, as in
        // `Observations::sensor`).
        let mut sensor_as: SeededMap<SensorId, AsId> = SeededMap::default();
        sensor_as.reserve(obs.sensors.len());
        for s in &obs.sensors {
            sensor_as.entry(s.id).or_insert(s.as_id);
        }
        let dst_as = |p: &ProbePath| -> AsId {
            *sensor_as
                .get(&p.dst)
                .expect("sensor ids in observations come from the sensor table")
        };

        // Dense pair tables, one hash lookup per path: every before pair
        // gets an id; per id, the first *reached* before path (the one the
        // reroute comparison uses) and the post-failure reachability (the
        // last after path of the pair wins).
        let mut pair_id: SeededMap<(SensorId, SensorId), u32> = SeededMap::default();
        pair_id.reserve(before.len());
        let mut first_reached: Vec<Option<usize>> = Vec::with_capacity(before.len());
        let mut before_pair: Vec<u32> = Vec::with_capacity(before.len());
        for (i, p) in before.iter().enumerate() {
            let id = *pair_id.entry((p.src, p.dst)).or_insert_with(|| {
                first_reached.push(None);
                (first_reached.len() - 1) as u32
            });
            before_pair.push(id);
            let first = &mut first_reached[id as usize];
            if p.reached && first.is_none() {
                *first = Some(i);
            }
        }
        let mut reached_after: Vec<Option<bool>> = vec![None; first_reached.len()];
        let mut after_pair: Vec<Option<u32>> = Vec::with_capacity(after.len());
        for p in after {
            let id = pair_id.get(&(p.src, p.dst)).copied();
            if let Some(id) = id {
                reached_after[id as usize] = Some(p.reached);
            }
            after_pair.push(id);
        }
        let reached_after_of = |i: usize| reached_after[before_pair[i] as usize];

        // Expand the before-snapshot paths, then the after-snapshot paths
        // when requested.
        let mut graph = DiagGraph::new();
        let mut expand = |epoch: Epoch, paths: &[ProbePath]| -> Vec<Vec<EdgeId>> {
            paths
                .iter()
                .enumerate()
                .map(|(index, p)| {
                    let path_ref = PathRef { epoch, index };
                    graph.expand_path(p, path_ref, dst_as(p), ip2as, opts.logical)
                })
                .collect()
        };
        let before_edges = expand(Epoch::Before, before);
        let after_edges = if opts.use_after {
            expand(Epoch::After, after)
        } else {
            Vec::new()
        };

        // Failure sets: pairs healthy at T- and broken at T+; the set is
        // the pre-failure path's edges.
        let failure_sets: Vec<PathSet> = before
            .iter()
            .enumerate()
            .filter(|&(i, p)| p.reached && reached_after_of(i) == Some(false))
            .map(|(i, p)| PathSet {
                src: p.src,
                dst: p.dst,
                before_index: i,
                edges: EdgeBitSet::from_edges(&before_edges[i]),
            })
            .collect();

        // Working constraints.
        let mut working_edges = EdgeBitSet::with_capacity(graph.edge_count());
        if opts.use_after {
            // Post-failure working paths prove their (new) edges up.
            for (j, p) in after.iter().enumerate() {
                if p.reached {
                    working_edges.extend(after_edges[j].iter().copied());
                }
            }
        } else {
            // Plain Tomo never re-probes: it treats the *stale* pre-failure
            // paths of still-reachable pairs as proof their links are up —
            // exactly the limitation §2.5(2) describes.
            for (i, p) in before.iter().enumerate() {
                if p.reached && reached_after_of(i) == Some(true) {
                    working_edges.extend(before_edges[i].iter().copied());
                }
            }
        }

        // Reroute sets: pairs working at both instants whose path changed;
        // the set is the old edges whose physical identity vanished from
        // the new path.
        let mut reroute_sets = Vec::new();
        if opts.use_after {
            // Compare *identified* edges only: an unidentified hop is a
            // fresh node on every path, so including UH edges would make
            // every unchanged path through a blocked AS look rerouted. An
            // identified edge's physical identity is `Ingress(to)`, so
            // "on the new path" is a per-node stamp: `on_new[n] == j + 1`
            // when after path `j` holds an edge with identity
            // `Ingress(n)`.
            let mut on_new: Vec<usize> = vec![0; graph.node_count()];
            let mut removed: Vec<EdgeId> = Vec::new();
            for (j, p) in after.iter().enumerate() {
                if !p.reached {
                    continue;
                }
                let Some(i) = after_pair[j].and_then(|id| first_reached[id as usize]) else {
                    continue;
                };
                for &e in &after_edges[j] {
                    if let PhysId::Ingress(n) = graph.edge(e).phys() {
                        on_new[n.index()] = j + 1;
                    }
                }
                removed.clear();
                removed.extend(before_edges[i].iter().copied().filter(|&e| {
                    matches!(graph.edge(e).phys(), PhysId::Ingress(n) if on_new[n.index()] != j + 1)
                }));
                if !removed.is_empty() {
                    reroute_sets.push(PathSet {
                        src: p.src,
                        dst: p.dst,
                        before_index: i,
                        edges: EdgeBitSet::from_edges(&removed),
                    });
                }
            }
        }

        // Candidate set: everything implicated, minus proven-up edges,
        // minus (optionally) unidentified links.
        let mut candidates = EdgeBitSet::with_capacity(graph.edge_count());
        for set in failure_sets.iter().chain(&reroute_sets) {
            candidates.extend(set.edges.iter());
        }
        candidates.retain(|e| !working_edges.contains(e));
        if opts.ignore_unidentified {
            candidates.retain(|e| !graph.is_unidentified(e));
        }

        if recorder.trace_enabled() {
            for set in &reroute_sets {
                recorder.event(netdiag_obs::names::EV_DIAG_REROUTE_SET, || {
                    let excluded: Vec<netdiag_obs::Value> = set
                        .edges
                        .iter()
                        .map(|e| graph.edge_label(e).into())
                        .collect();
                    netdiag_obs::EventPayload::new()
                        .field("src", set.src.index())
                        .field("dst", set.dst.index())
                        .field("excluded", excluded)
                });
            }
        }

        Problem {
            graph,
            failure_sets,
            reroute_sets,
            working_edges,
            candidates,
            before_edges,
            after_edges,
            forced: Vec::new(),
        }
    }

    /// Applies AS-X's control-plane feed (§3.3):
    ///
    /// * every IGP link-down event whose interfaces appear in the graph
    ///   forces the matching edges straight into the hypothesis and marks
    ///   the sets they hit as explained;
    /// * every BGP withdrawal received from neighbor `n` for the prefix of
    ///   a failed destination exonerates, on that destination's failed
    ///   path, every edge up to and including the hop where `n` answered —
    ///   the failure must lie strictly downstream of `n`.
    pub fn apply_feed(&mut self, obs: &Observations, feed: &RoutingFeed) {
        self.apply_feed_recorded(obs, feed, &netdiag_obs::RecorderHandle::noop());
    }

    /// [`apply_feed`](Self::apply_feed), additionally counting forced and
    /// exonerated edges on `recorder`.
    pub fn apply_feed_recorded(
        &mut self,
        obs: &Observations,
        feed: &RoutingFeed,
        recorder: &netdiag_obs::RecorderHandle,
    ) {
        let forced_before = self.forced.len() as u64;
        let mut exonerated: u64 = 0;
        // IGP link-down: edges terminating at either interface of the
        // failed link are that link.
        for ev in &feed.igp_link_down {
            let mut hit: Vec<EdgeId> = self
                .graph
                .edges()
                .filter(|(_, d)| {
                    matches!(self.graph.node(d.to).key,
                        HopNode::Ip(a) if a == ev.addr_a || a == ev.addr_b)
                })
                .map(|(id, _)| id)
                .collect();
            hit.retain(|e| !self.forced.contains(e));
            for e in hit {
                recorder.event(netdiag_obs::names::EV_FEED_FORCED, || {
                    netdiag_obs::EventPayload::new()
                        .field("edge", e.index())
                        .field("label", self.graph.edge_label(e))
                        .field("addr_a", ev.addr_a.to_string())
                        .field("addr_b", ev.addr_b.to_string())
                });
                self.forced.push(e);
            }
        }
        if !self.forced.is_empty() {
            let forced = self.forced.clone();
            self.failure_sets
                .retain(|s| !forced.iter().any(|&e| s.edges.contains(e)));
            self.reroute_sets
                .retain(|s| !forced.iter().any(|&e| s.edges.contains(e)));
            for &e in &forced {
                self.candidates.remove(e);
            }
        }

        // BGP withdrawals: prune upstream edges from each matching failure
        // set.
        for set in &mut self.failure_sets {
            let dst_addr = obs.sensor(set.dst).addr;
            let path = &obs.before.paths[set.before_index];
            let edges = &self.before_edges[set.before_index];
            for w in &feed.withdrawals {
                if !w.prefix.contains(dst_addr) {
                    continue;
                }
                // Find the hop where the withdrawing neighbor answered.
                let hit = path
                    .hops
                    .iter()
                    .any(|h| matches!(h, Hop::Addr(a) if *a == w.from_addr));
                if !hit {
                    continue;
                }
                // Prune every edge up to and including the last edge into
                // that address (logical halves share the target node).
                let last = edges.iter().rposition(|&e| {
                    let d = self.graph.edge(e);
                    matches!(self.graph.node(d.to).key,
                        HopNode::Ip(a) if a == w.from_addr)
                });
                if let Some(last) = last {
                    for &e in &edges[..=last] {
                        // The withdrawal itself arrived over the link into
                        // the neighbor, so that link is physically up — but
                        // a *logical* (per-neighbor) variant of it may be
                        // the very misconfigured announcement that caused
                        // this withdrawal. Keep logical variants of the
                        // into-neighbor edge as candidates.
                        let d = self.graph.edge(e);
                        let into_neighbor = matches!(
                            self.graph.node(d.to).key,
                            HopNode::Ip(a) if a == w.from_addr
                        );
                        if into_neighbor && d.logical.is_some() {
                            continue;
                        }
                        if set.edges.remove(e) {
                            exonerated += 1;
                            recorder.event(netdiag_obs::names::EV_FEED_EXONERATED, || {
                                netdiag_obs::EventPayload::new()
                                    .field("edge", e.index())
                                    .field("label", self.graph.edge_label(e))
                                    .field("neighbor", w.from_addr.to_string())
                                    .field("prefix", w.prefix.to_string())
                            });
                        }
                    }
                }
            }
        }
        // Candidates implicated by nothing anymore can be dropped.
        let still_implicated: EdgeBitSet = self
            .failure_sets
            .iter()
            .flat_map(|s| s.edges.iter())
            .chain(self.reroute_sets.iter().flat_map(|s| s.edges.iter()))
            .collect();
        self.candidates.retain(|e| still_implicated.contains(e));

        if recorder.enabled() {
            use netdiag_obs::names;
            recorder.add(
                names::FEED_FORCED_EDGES,
                self.forced.len() as u64 - forced_before,
            );
            recorder.add(names::FEED_EXONERATED_EDGES, exonerated);
        }
    }

    /// Converts to a hitting-set instance (clusters empty; ND-LG adds them).
    pub fn instance(&self) -> HittingSetInstance {
        HittingSetInstance {
            failure_sets: self.failure_sets.iter().map(|s| s.edges.clone()).collect(),
            reroute_sets: self.reroute_sets.iter().map(|s| s.edges.clone()).collect(),
            candidates: self.candidates.clone(),
            clusters: BTreeMap::new(),
        }
    }
}
