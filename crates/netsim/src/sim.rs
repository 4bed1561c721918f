//! The simulator bundle: topology + link state + IGP + BGP, with failure
//! application and deterministic reconvergence.

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

use netdiag_bgp::{Bgp, Ctx, ExportDeny, ObservedMsg};
use netdiag_igp::{Igp, LinkState, SpfDelta};
use netdiag_obs::{names, RecorderHandle};
use netdiag_topology::{AsId, LinkId, LinkKind, RouterId, Topology};

/// An IGP "link down" event, as seen by the operator of the link's AS.
///
/// The paper's ND-bgpigp consumes these for links inside AS-X.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IgpLinkDown {
    /// The failed intra-domain link.
    pub link: LinkId,
    /// The AS that owns it.
    pub as_id: AsId,
}

/// All mutable routing state of a [`Sim`], captured at one instant.
///
/// Taking a snapshot is cheap: per-AS IGP tables and per-router BGP RIBs
/// live behind `Arc`s, so the capture is O(#ASes + #routers) pointer bumps.
/// [`Sim::restore`] rolls the simulator back to the captured state, which
/// lets one scratch simulator serve many failure experiments in a row
/// instead of cloning a fresh simulator per experiment.
#[derive(Clone)]
pub struct SimSnapshot {
    links: LinkState,
    igp: Igp,
    bgp: Bgp,
    igp_events: Vec<IgpLinkDown>,
    messages: u64,
}

/// A runnable network: static topology plus all dynamic routing state.
///
/// `Sim` is `Clone`, so a converged healthy network can be snapshotted once
/// and each failure experiment applied to a fresh copy. Cloning is cheap
/// (copy-on-write: shared state is only copied for the ASes/routers a
/// mutation actually touches); [`Sim::deep_clone`] forces the full copy the
/// seed implementation used to pay per clone.
///
/// ```
/// use std::sync::Arc;
/// use netdiag_netsim::Sim;
/// use netdiag_topology::builders::{build_internet, InternetConfig};
///
/// let net = build_internet(&InternetConfig::small(1));
/// let mut sim = Sim::new(Arc::new(net.topology.clone()));
/// sim.converge_all();
/// // Snapshot, break a link in the copy, and compare.
/// let mut broken = sim.clone();
/// broken.fail_link(net.topology.links()[0].id);
/// assert!(sim.links().is_up(net.topology.links()[0].id));
/// assert!(!broken.links().is_up(net.topology.links()[0].id));
/// ```
#[derive(Clone)]
pub struct Sim {
    topology: Arc<Topology>,
    links: LinkState,
    igp: Igp,
    bgp: Bgp,
    /// Registered end hosts (sensor address -> attach router).
    hosts: HashMap<Ipv4Addr, RouterId>,
    /// IGP link-down events since the last take.
    igp_events: Vec<IgpLinkDown>,
    /// Cumulative BGP message count across all convergences.
    messages: u64,
    /// Instrumentation sink, shared by clones (`igp.*`/`bgp.*`/`probe.*`).
    recorder: RecorderHandle,
}

impl Sim {
    /// Creates a simulator with all links up, IGP converged, and an empty
    /// BGP — call [`Sim::converge_for`] or [`Sim::converge_all`] next.
    pub fn new(topology: Arc<Topology>) -> Self {
        Self::with_recorder(topology, RecorderHandle::noop())
    }

    /// [`Sim::new`] with the initial per-AS SPF runs fanned over `threads`
    /// scoped workers ([`Igp::compute_parallel`]). Byte-identical to
    /// [`Sim::new`] — each AS's IGP tables depend only on the immutable
    /// topology and link state — but without instrumentation: the SPF
    /// counters are defined by the sequential run order, so a recorder
    /// cannot be attached to the parallel path.
    pub fn new_parallel(topology: Arc<Topology>, threads: usize) -> Self {
        let links = LinkState::all_up(&topology);
        let igp = Igp::compute_parallel(&topology, &links, threads);
        let mut bgp = Bgp::new(&topology);
        bgp.recompute_liveness(Ctx {
            topology: &topology,
            igp: &igp,
            links: &links,
        });
        Sim {
            topology,
            links,
            igp,
            bgp,
            hosts: HashMap::new(),
            igp_events: Vec::new(),
            messages: 0,
            recorder: RecorderHandle::noop(),
        }
    }

    /// [`Sim::new`] with an instrumentation sink: all IGP/BGP/probe work of
    /// this simulator (including the initial SPF and every clone taken from
    /// it) reports to `recorder`.
    pub fn with_recorder(topology: Arc<Topology>, recorder: RecorderHandle) -> Self {
        let links = LinkState::all_up(&topology);
        let igp = Igp::compute_recorded(&topology, &links, &recorder);
        let mut bgp = Bgp::new(&topology);
        bgp.set_recorder(recorder.clone());
        bgp.recompute_liveness(Ctx {
            topology: &topology,
            igp: &igp,
            links: &links,
        });
        Sim {
            topology,
            links,
            igp,
            bgp,
            hosts: HashMap::new(),
            igp_events: Vec::new(),
            messages: 0,
            recorder,
        }
    }

    /// The simulator's instrumentation sink.
    pub fn recorder(&self) -> &RecorderHandle {
        &self.recorder
    }

    /// Captures all mutable routing state (cheap: Arc bumps, no table
    /// copies). Restore with [`Sim::restore`].
    pub fn snapshot(&self) -> SimSnapshot {
        SimSnapshot {
            links: self.links.clone(),
            igp: self.igp.clone(),
            bgp: self.bgp.clone(),
            igp_events: self.igp_events.clone(),
            messages: self.messages,
        }
    }

    /// Rolls all mutable routing state back to `snap`, undoing every
    /// failure, repair and misconfiguration applied since the capture.
    /// Topology, registered hosts and the recorder are immutable across
    /// failure experiments and stay as they are.
    pub fn restore(&mut self, snap: &SimSnapshot) {
        self.links = snap.links.clone();
        self.igp = snap.igp.clone();
        self.bgp = snap.bgp.clone();
        self.igp_events = snap.igp_events.clone();
        self.messages = snap.messages;
    }

    /// A clone with every shared table forced into unique ownership — the
    /// full deep copy the pre-CoW implementation paid for every clone.
    /// Counted under `sim.snapshot.deep_copies`; kept for benchmarks and
    /// equivalence tests.
    pub fn deep_clone(&self) -> Self {
        let mut copy = self.clone();
        copy.igp.unshare_all();
        copy.bgp.unshare_all();
        if self.recorder.enabled() {
            self.recorder.add(names::SIM_SNAPSHOT_DEEP_COPIES, 1);
        }
        copy
    }

    /// Originates the prefixes of the given ASes and converges.
    ///
    /// Routing toward a prefix is independent of other prefixes in this
    /// model, so experiments only need the sensor ASes' prefixes.
    pub fn converge_for(&mut self, ases: &[AsId]) {
        let ctx = Ctx {
            topology: &self.topology,
            igp: &self.igp,
            links: &self.links,
        };
        for &a in ases {
            self.bgp.originate_as(ctx, a);
        }
        self.messages += self.bgp.run(ctx).messages;
    }

    /// Originates every AS's prefix and converges.
    pub fn converge_all(&mut self) {
        let ids: Vec<AsId> = self.topology.ases().iter().map(|a| a.id).collect();
        self.converge_for(&ids);
    }

    /// [`Sim::converge_all`] with the BGP message plane sharded over a
    /// worker pool. Routing toward one prefix never reads another
    /// prefix's state in this model, so partitioning the prefix space
    /// and converging each shard independently reaches the same fixed
    /// point as the sequential run — asserted byte-identical by the
    /// equivalence tests. Falls back to the sequential path when
    /// `threads <= 1` or when an observer / tracer is attached (their
    /// event streams are defined by the sequential delivery order).
    pub fn converge_all_sharded(&mut self, threads: usize) {
        if threads <= 1 || !self.bgp.can_shard() {
            self.converge_all();
            return;
        }
        let ctx = Ctx {
            topology: &self.topology,
            igp: &self.igp,
            links: &self.links,
        };
        for a in self.topology.ases() {
            self.bgp.originate_as(ctx, a.id);
        }
        self.messages += self.bgp.run_sharded(ctx, threads).messages;
    }

    /// Designates the observer AS (AS-X) whose received eBGP messages are
    /// recorded.
    pub fn set_observer(&mut self, as_id: AsId) {
        self.bgp.set_observer(as_id);
    }

    /// Drains eBGP messages observed at the observer AS.
    pub fn take_observed(&mut self) -> Vec<ObservedMsg> {
        self.bgp.take_observed()
    }

    /// Drains recorded IGP link-down events (all ASes; filter by
    /// [`IgpLinkDown::as_id`] for the observer's view).
    pub fn take_igp_events(&mut self) -> Vec<IgpLinkDown> {
        std::mem::take(&mut self.igp_events)
    }

    /// Registers an end host (e.g. a sensor) attached to a router.
    pub fn register_host(&mut self, addr: Ipv4Addr, attach: RouterId) {
        self.hosts.insert(addr, attach);
    }

    /// The attach router of a registered host address.
    pub fn host_router(&self, addr: Ipv4Addr) -> Option<RouterId> {
        self.hosts.get(&addr).copied()
    }

    /// Fails a set of links simultaneously and reconverges *incrementally*:
    /// delta-SPF recomputes only the cone of routers whose shortest-path
    /// DAG used a failed edge, and BGP replays the decision process only
    /// for the sessions/routers the delta actually touched.
    ///
    /// Byte-identical to the full path ([`Sim::fail_links_full`]) in every
    /// observable: RIBs, forwarding, observed eBGP stream, IGP events.
    /// The cow_equivalence proptests hold the two paths against each
    /// other.
    pub fn fail_links(&mut self, failed: &[LinkId]) {
        // Phase 1: link state + failure events, same order as the full
        // path.
        let mut affected_ases = Vec::new();
        let mut downed = Vec::new();
        for &l in failed {
            if !self.links.set_down(l) {
                continue; // already down
            }
            downed.push(l);
            let link = self.topology.link(l);
            self.recorder.event(names::EV_SIM_LINK_FAIL, || {
                netdiag_obs::EventPayload::new()
                    .field("link", l.index())
                    .field("kind", kind_str(link.kind))
                    .field("a", link.a.index())
                    .field("b", link.b.index())
            });
            if link.kind == LinkKind::Intra {
                let as_id = self.topology.as_of_router(link.a);
                self.igp_events.push(IgpLinkDown { link: l, as_id });
                if !affected_ases.contains(&as_id) {
                    affected_ases.push(as_id);
                }
            }
        }
        // Phase 2: delta-SPF per affected AS. A delta that recomputes
        // nothing leaves the shared tables untouched, so copy-on-write
        // breaks are counted only when work actually happened.
        let mut deltas: Vec<(AsId, SpfDelta)> = Vec::with_capacity(affected_ases.len());
        for &a in &affected_ases {
            let was_shared = self.igp.is_shared(a);
            let delta = self.igp.delta_fail_links_recorded(
                &self.topology,
                a,
                &self.links,
                &downed,
                &self.recorder,
            );
            if was_shared && delta.recomputed > 0 && self.recorder.enabled() {
                self.recorder.add(names::SIM_SNAPSHOT_COW_BREAKS, 1);
            }
            deltas.push((a, delta));
        }
        // Phase 3: degrade the session-liveness cache *before* any BGP
        // replay, so every liveness read during the replay sees the
        // post-failure truth (failures only take sessions down).
        let ctx = Ctx {
            topology: &self.topology,
            igp: &self.igp,
            links: &self.links,
        };
        if !self.bgp.has_liveness() {
            self.bgp.recompute_liveness(ctx);
        }
        self.bgp.mark_links_down(&downed);
        for (_, d) in &deltas {
            self.bgp.mark_pairs_down(&d.lost_pairs);
        }
        // Phase 4: scoped BGP replay in the original link order; an AS's
        // scoped refresh runs once, at its first failed intra link.
        let mut refreshed: Vec<AsId> = Vec::new();
        for &l in &downed {
            let link = self.topology.link(l);
            match link.kind {
                LinkKind::Inter => self.bgp.fail_ebgp_link(ctx, l),
                LinkKind::Intra => {
                    let as_id = self.topology.as_of_router(link.a);
                    if !refreshed.contains(&as_id) {
                        refreshed.push(as_id);
                        let delta = deltas
                            .iter()
                            .find(|(a, _)| *a == as_id)
                            .map(|(_, d)| d)
                            .expect("every failed intra link's AS has a delta");
                        self.bgp.refresh_as_scoped(ctx, delta);
                    }
                }
            }
        }
        self.messages += self.bgp.run(ctx).messages;
    }

    /// The pre-incremental failure path, kept as the behavioral oracle:
    /// full per-AS SPF recompute and whole-AS BGP refresh for every
    /// failed link. [`Sim::fail_links`] must produce byte-identical
    /// observables; equivalence proptests compare the two.
    pub fn fail_links_full(&mut self, failed: &[LinkId]) {
        self.bgp.invalidate_liveness();
        let mut affected_ases = Vec::new();
        for &l in failed {
            if !self.links.set_down(l) {
                continue; // already down
            }
            let link = self.topology.link(l);
            self.recorder.event(names::EV_SIM_LINK_FAIL, || {
                netdiag_obs::EventPayload::new()
                    .field("link", l.index())
                    .field("kind", kind_str(link.kind))
                    .field("a", link.a.index())
                    .field("b", link.b.index())
            });
            if link.kind == LinkKind::Intra {
                let as_id = self.topology.as_of_router(link.a);
                self.igp_events.push(IgpLinkDown { link: l, as_id });
                if !affected_ases.contains(&as_id) {
                    affected_ases.push(as_id);
                }
            }
        }
        if self.recorder.enabled() {
            let breaks = affected_ases
                .iter()
                .filter(|&&a| self.igp.is_shared(a))
                .count();
            if breaks > 0 {
                self.recorder
                    .add(names::SIM_SNAPSHOT_COW_BREAKS, breaks as u64);
            }
        }
        for &a in &affected_ases {
            self.igp
                .recompute_as(&self.topology, a, &self.links, &self.recorder);
        }
        let ctx = Ctx {
            topology: &self.topology,
            igp: &self.igp,
            links: &self.links,
        };
        for &l in failed {
            self.bgp.handle_link_down(ctx, l);
        }
        self.messages += self.bgp.run(ctx).messages;
    }

    /// Fails a single link.
    pub fn fail_link(&mut self, l: LinkId) {
        self.fail_links(&[l]);
    }

    /// Repairs a previously-failed link and reconverges: link state, IGP,
    /// then BGP session re-establishment and route refresh. Together with
    /// [`Sim::fail_link`] this models link flaps (§6 of the paper).
    pub fn repair_link(&mut self, l: LinkId) {
        if self.links.set_up(l) {
            return; // was already up
        }
        let link = self.topology.link(l);
        self.recorder.event(names::EV_SIM_LINK_REPAIR, || {
            netdiag_obs::EventPayload::new()
                .field("link", l.index())
                .field("kind", kind_str(link.kind))
                .field("a", link.a.index())
                .field("b", link.b.index())
        });
        if link.kind == LinkKind::Intra {
            let as_id = self.topology.as_of_router(link.a);
            if self.recorder.enabled() && self.igp.is_shared(as_id) {
                self.recorder.add(names::SIM_SNAPSHOT_COW_BREAKS, 1);
            }
            self.igp
                .recompute_as(&self.topology, as_id, &self.links, &self.recorder);
        }
        let ctx = Ctx {
            topology: &self.topology,
            igp: &self.igp,
            links: &self.links,
        };
        // Repairs can bring sessions back up, which point updates cannot
        // express — rebuild the liveness cache from the ground truth.
        self.bgp.recompute_liveness(ctx);
        self.bgp.handle_link_up(ctx, l);
        self.messages += self.bgp.run(ctx).messages;
    }

    /// Fails a router: all its links go down simultaneously.
    pub fn fail_router(&mut self, r: RouterId) {
        let links = self.topology.router(r).links.clone();
        self.fail_links(&links);
    }

    /// Installs a BGP export-filter misconfiguration and reconverges.
    pub fn misconfigure(&mut self, rules: &[ExportDeny]) {
        let ctx = Ctx {
            topology: &self.topology,
            igp: &self.igp,
            links: &self.links,
        };
        for &rule in rules {
            self.bgp.install_filter(ctx, rule);
        }
        self.messages += self.bgp.run(ctx).messages;
    }

    /// Removes export-filter misconfigurations (the operator's fix) and
    /// reconverges.
    pub fn fix_misconfiguration(&mut self, rules: &[ExportDeny]) {
        let ctx = Ctx {
            topology: &self.topology,
            igp: &self.igp,
            links: &self.links,
        };
        for rule in rules {
            self.bgp.remove_filter(ctx, rule);
        }
        self.messages += self.bgp.run(ctx).messages;
    }

    /// The static topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// A shareable handle to the topology.
    pub fn topology_arc(&self) -> Arc<Topology> {
        Arc::clone(&self.topology)
    }

    /// Current link state.
    pub fn links(&self) -> &LinkState {
        &self.links
    }

    /// Converged IGP state.
    pub fn igp(&self) -> &Igp {
        &self.igp
    }

    /// Converged BGP state.
    pub fn bgp(&self) -> &Bgp {
        &self.bgp
    }

    /// Total BGP messages processed across all convergences so far
    /// (convergence-cost statistics; resets never — compare snapshots).
    pub fn bgp_messages(&self) -> u64 {
        self.messages
    }
}

/// Stable link-kind label used in trace payloads.
fn kind_str(kind: LinkKind) -> &'static str {
    match kind {
        LinkKind::Intra => "intra",
        LinkKind::Inter => "inter",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdiag_topology::{AsKind, LinkRelationship, TopologyBuilder};

    fn line() -> (Arc<Topology>, [RouterId; 3]) {
        // A (a1) -- B (b1) -- C (c1), B provider of nobody: make A-B and
        // B-C provider-customer chains so everything is reachable:
        // A is customer of B, C is customer of B.
        let mut b = TopologyBuilder::new();
        let a = b.add_as(AsKind::Stub, "A");
        let mid = b.add_as(AsKind::Tier2, "B");
        let c = b.add_as(AsKind::Stub, "C");
        let a1 = b.add_router(a, "a1");
        let b1 = b.add_router(mid, "b1");
        let c1 = b.add_router(c, "c1");
        b.add_inter_link(b1, a1, LinkRelationship::ProviderCustomer);
        b.add_inter_link(b1, c1, LinkRelationship::ProviderCustomer);
        (Arc::new(b.build().unwrap()), [a1, b1, c1])
    }

    #[test]
    fn converge_for_subset() {
        let (t, [a1, _, c1]) = line();
        let mut sim = Sim::new(Arc::clone(&t));
        sim.converge_for(&[AsId(2)]); // only C's prefix
        let c_prefix = t.as_node(AsId(2)).prefix;
        assert!(sim.bgp().best_route(a1, &c_prefix).is_some());
        let a_prefix = t.as_node(AsId(0)).prefix;
        assert!(sim.bgp().best_route(c1, &a_prefix).is_none());
    }

    #[test]
    fn clone_snapshot_isolates_failures() {
        let (t, [a1, b1, _]) = line();
        let mut healthy = Sim::new(Arc::clone(&t));
        healthy.converge_all();
        let mut broken = healthy.clone();
        broken.fail_link(t.link_between(a1, b1).unwrap());
        let a_prefix = t.as_node(AsId(0)).prefix;
        assert!(healthy.bgp().best_route(b1, &a_prefix).is_some());
        assert!(broken.bgp().best_route(b1, &a_prefix).is_none());
    }

    #[test]
    fn igp_events_recorded_for_intra_failures_only() {
        let mut b = TopologyBuilder::new();
        let a = b.add_as(AsKind::Core, "A");
        let r0 = b.add_router(a, "r0");
        let r1 = b.add_router(a, "r1");
        let r2 = b.add_router(a, "r2");
        b.add_intra_link(r0, r1, 1);
        b.add_intra_link(r1, r2, 1);
        b.add_intra_link(r0, r2, 5);
        let stub = b.add_as(AsKind::Stub, "S");
        let s1 = b.add_router(stub, "s1");
        let inter = b.add_inter_link(r2, s1, LinkRelationship::ProviderCustomer);
        let t = Arc::new(b.build().unwrap());
        let mut sim = Sim::new(Arc::clone(&t));
        sim.converge_all();
        let intra = t.link_between(r0, r1).unwrap();
        sim.fail_links(&[intra, inter]);
        let events = sim.take_igp_events();
        assert_eq!(
            events,
            vec![IgpLinkDown {
                link: intra,
                as_id: a
            }]
        );
        assert!(sim.take_igp_events().is_empty(), "take drains");
    }

    #[test]
    fn fail_router_downs_all_links() {
        let (t, [_, b1, _]) = line();
        let mut sim = Sim::new(Arc::clone(&t));
        sim.converge_all();
        sim.fail_router(b1);
        for &l in &t.router(b1).links {
            assert!(!sim.links().is_up(l));
        }
    }

    #[test]
    fn host_registry() {
        let (t, [a1, _, _]) = line();
        let mut sim = Sim::new(t);
        let addr = Ipv4Addr::new(10, 0, 0, 100);
        sim.register_host(addr, a1);
        assert_eq!(sim.host_router(addr), Some(a1));
        assert_eq!(sim.host_router(Ipv4Addr::new(10, 0, 0, 101)), None);
    }

    #[test]
    fn failing_already_down_link_is_idempotent() {
        let (t, [a1, b1, _]) = line();
        let mut sim = Sim::new(Arc::clone(&t));
        sim.converge_all();
        let l = t.link_between(a1, b1).unwrap();
        sim.fail_link(l);
        let rib_after_first: Vec<_> = sim.bgp().loc_rib(b1).map(|(p, _)| p).collect();
        sim.fail_link(l);
        let rib_after_second: Vec<_> = sim.bgp().loc_rib(b1).map(|(p, _)| p).collect();
        assert_eq!(rib_after_first, rib_after_second);
    }
}

#[cfg(test)]
mod repair_tests {
    use super::*;
    use netdiag_topology::{AsKind, LinkRelationship, TopologyBuilder};

    fn chain() -> (Arc<Topology>, [RouterId; 3], LinkId) {
        let mut b = TopologyBuilder::new();
        let t2 = b.add_as(AsKind::Tier2, "T");
        let s1 = b.add_as(AsKind::Stub, "S1");
        let s2 = b.add_as(AsKind::Stub, "S2");
        let h = b.add_router(t2, "h");
        let s1r = b.add_router(s1, "s1r");
        let s2r = b.add_router(s2, "s2r");
        b.add_inter_link(h, s1r, LinkRelationship::ProviderCustomer);
        let l2 = b.add_inter_link(h, s2r, LinkRelationship::ProviderCustomer);
        (Arc::new(b.build().unwrap()), [h, s1r, s2r], l2)
    }

    #[test]
    fn flap_restores_forwarding() {
        let (t, [_, s1r, s2r], l2) = chain();
        let mut sim = Sim::new(Arc::clone(&t));
        sim.converge_all();
        let dst = t.as_node(AsId(2)).prefix.host(200);
        sim.register_host(dst, s2r);
        assert!(sim.forward(s1r, dst).delivered());
        sim.fail_link(l2);
        assert!(!sim.forward(s1r, dst).delivered());
        sim.repair_link(l2);
        assert!(sim.links().is_up(l2));
        assert!(sim.forward(s1r, dst).delivered(), "flap healed");
    }

    #[test]
    fn repair_of_up_link_is_a_noop() {
        let (t, _, l2) = chain();
        let mut sim = Sim::new(Arc::clone(&t));
        sim.converge_all();
        let before: Vec<_> = sim
            .bgp()
            .loc_rib(RouterId(0))
            .map(|(p, r)| (p, r.clone()))
            .collect();
        sim.repair_link(l2);
        let after: Vec<_> = sim
            .bgp()
            .loc_rib(RouterId(0))
            .map(|(p, r)| (p, r.clone()))
            .collect();
        assert_eq!(before, after);
    }

    #[test]
    fn repair_emits_no_igp_event() {
        let (t, _, l2) = chain();
        let mut sim = Sim::new(Arc::clone(&t));
        sim.converge_all();
        sim.fail_link(l2);
        sim.take_igp_events();
        sim.repair_link(l2);
        assert!(sim.take_igp_events().is_empty());
    }
}
