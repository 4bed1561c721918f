//! Test support: a reference `Problem` builder.
//!
//! It builds the tomography problem the straightforward way — interning
//! with ordered maps, pairing every after path with its before path by a
//! linear scan, one `BTreeSet` of physical identities per rerouted path,
//! a linear sensor-table scan per path — so the production builder's hash
//! tables, pair tables and reused buffers can be checked against it.

use std::collections::{BTreeMap, BTreeSet};

use netdiag_topology::{AsId, SensorId};
use netdiagnoser::{
    BuildOptions, EdgeData, EdgeId, Epoch, Hop, HopNode, IpToAs, LogicalPart, NodeId, Observations,
    PathRef, PhysId, ProbePath,
};

/// The reference diagnosis graph: ids in first-seen order.
#[derive(Default)]
pub struct Graph {
    /// Node keys and AS tags, by node id.
    pub nodes: Vec<(HopNode, Option<BTreeSet<AsId>>)>,
    node_index: BTreeMap<HopNode, NodeId>,
    /// Edge payloads, by edge id.
    pub edges: Vec<EdgeData>,
    edge_index: BTreeMap<(PhysId, Option<LogicalPart>), EdgeId>,
}

impl Graph {
    fn intern_node(&mut self, key: HopNode, ip2as: &dyn IpToAs) -> NodeId {
        if let Some(&id) = self.node_index.get(&key) {
            return id;
        }
        let tag = match key {
            HopNode::Ip(addr) => ip2as.as_of(addr).map(|a| BTreeSet::from([a])),
            HopNode::Uh(..) => None,
        };
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push((key, tag));
        self.node_index.insert(key, id);
        id
    }

    fn intern_edge(&mut self, from: NodeId, to: NodeId, logical: Option<LogicalPart>) -> EdgeId {
        let known = |n: NodeId| matches!(self.nodes[n.index()].0, HopNode::Ip(_));
        let phys = if known(from) && known(to) {
            PhysId::Ingress(to)
        } else {
            PhysId::Pair(from, to)
        };
        if let Some(&id) = self.edge_index.get(&(phys, logical)) {
            return id;
        }
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(EdgeData {
            from,
            to,
            logical,
            phys,
        });
        self.edge_index.insert((phys, logical), id);
        id
    }

    fn single_tag(&self, n: NodeId) -> Option<AsId> {
        match &self.nodes[n.index()].1 {
            Some(set) if set.len() == 1 => set.iter().next().copied(),
            _ => None,
        }
    }

    fn expand_path(
        &mut self,
        path: &ProbePath,
        path_ref: PathRef,
        dst_as: AsId,
        ip2as: &dyn IpToAs,
        logical: bool,
    ) -> Vec<EdgeId> {
        let nodes: Vec<NodeId> = path
            .hops
            .iter()
            .enumerate()
            .map(|(pos, hop)| match hop {
                Hop::Addr(addr) => HopNode::Ip(*addr),
                Hop::Star => HopNode::Uh(path_ref, pos),
            })
            .map(|k| self.intern_node(k, ip2as))
            .collect();
        let hop_as: Vec<Option<AsId>> = nodes.iter().map(|&n| self.single_tag(n)).collect();
        let mut edges = Vec::new();
        for i in 1..nodes.len() {
            let (u, v) = (nodes[i - 1], nodes[i]);
            let interdomain = matches!((hop_as[i - 1], hop_as[i]), (Some(a), Some(b)) if a != b);
            if logical && interdomain {
                let v_as = hop_as[i].unwrap();
                let next_as = hop_as[i + 1..]
                    .iter()
                    .flatten()
                    .copied()
                    .find(|&a| a != v_as)
                    .unwrap_or(dst_as);
                edges.push(self.intern_edge(u, v, Some(LogicalPart::First(next_as))));
                edges.push(self.intern_edge(u, v, Some(LogicalPart::Second(next_as))));
            } else {
                edges.push(self.intern_edge(u, v, None));
            }
        }
        edges
    }

    fn is_unidentified(&self, e: EdgeId) -> bool {
        let d = &self.edges[e.index()];
        [d.from, d.to]
            .iter()
            .any(|n| matches!(self.nodes[n.index()].0, HopNode::Uh(..)))
    }
}

/// A failure or reroute set: `(src, dst, before_index, edges)`.
pub type Set = (SensorId, SensorId, usize, Vec<EdgeId>);

/// Everything the reference builder produces.
pub struct Built {
    /// The inferred graph.
    pub graph: Graph,
    /// Failure sets, in before-path order.
    pub failure_sets: Vec<Set>,
    /// Reroute sets, in after-path order.
    pub reroute_sets: Vec<Set>,
    /// Edges proven up.
    pub working_edges: BTreeSet<EdgeId>,
    /// Candidate edges.
    pub candidates: BTreeSet<EdgeId>,
    /// Edge sequence of every before path.
    pub before_edges: Vec<Vec<EdgeId>>,
    /// Edge sequence of every after path (empty unless `use_after`).
    pub after_edges: Vec<Vec<EdgeId>>,
}

fn dst_as(obs: &Observations, p: &ProbePath) -> AsId {
    obs.sensors.iter().find(|s| s.id == p.dst).unwrap().as_id
}

/// Builds the problem the reference way.
pub fn build(obs: &Observations, ip2as: &dyn IpToAs, opts: BuildOptions) -> Built {
    let mut graph = Graph::default();
    let mut expand = |epoch: Epoch, paths: &[ProbePath]| -> Vec<Vec<EdgeId>> {
        let mut out = Vec::new();
        for (index, p) in paths.iter().enumerate() {
            let path_ref = PathRef { epoch, index };
            out.push(graph.expand_path(p, path_ref, dst_as(obs, p), ip2as, opts.logical));
        }
        out
    };
    let before_edges = expand(Epoch::Before, &obs.before.paths);
    let after_edges = if opts.use_after {
        expand(Epoch::After, &obs.after.paths)
    } else {
        Vec::new()
    };

    // Later after paths of a pair overwrite earlier ones.
    let reached_after: BTreeMap<(SensorId, SensorId), bool> = obs
        .after
        .paths
        .iter()
        .map(|p| ((p.src, p.dst), p.reached))
        .collect();

    let mut failure_sets = Vec::new();
    for (i, p) in obs.before.paths.iter().enumerate() {
        if p.reached && reached_after.get(&(p.src, p.dst)) == Some(&false) {
            failure_sets.push((p.src, p.dst, i, before_edges[i].clone()));
        }
    }

    let mut working_edges = BTreeSet::new();
    if opts.use_after {
        for (j, p) in obs.after.paths.iter().enumerate() {
            if p.reached {
                working_edges.extend(after_edges[j].iter().copied());
            }
        }
    } else {
        for (i, p) in obs.before.paths.iter().enumerate() {
            if p.reached && reached_after.get(&(p.src, p.dst)) == Some(&true) {
                working_edges.extend(before_edges[i].iter().copied());
            }
        }
    }

    let mut reroute_sets = Vec::new();
    if opts.use_after {
        for (j, p) in obs.after.paths.iter().enumerate() {
            if !p.reached {
                continue;
            }
            let Some(i) = obs
                .before
                .paths
                .iter()
                .position(|bp| bp.src == p.src && bp.dst == p.dst && bp.reached)
            else {
                continue;
            };
            let new_phys: BTreeSet<PhysId> = after_edges[j]
                .iter()
                .map(|&e| graph.edges[e.index()].phys)
                .collect();
            let removed: Vec<EdgeId> = before_edges[i]
                .iter()
                .copied()
                .filter(|&e| {
                    !graph.is_unidentified(e) && !new_phys.contains(&graph.edges[e.index()].phys)
                })
                .collect();
            if !removed.is_empty() {
                reroute_sets.push((p.src, p.dst, i, removed));
            }
        }
    }

    let mut candidates: BTreeSet<EdgeId> = failure_sets
        .iter()
        .chain(&reroute_sets)
        .flat_map(|s| s.3.iter().copied())
        .collect();
    candidates.retain(|e| !working_edges.contains(e));
    if opts.ignore_unidentified {
        candidates.retain(|&e| !graph.is_unidentified(e));
    }

    Built {
        graph,
        failure_sets,
        reroute_sets,
        working_edges,
        candidates,
        before_edges,
        after_edges,
    }
}
