//! Decision-process tests: each rung of the BGP preference ladder is
//! exercised in isolation on purpose-built topologies.

// Test code: unwrap on a broken fixture is the correct failure mode.
#![allow(clippy::unwrap_used)]
use std::sync::Arc;

use netdiag_bgp::{Bgp, Ctx, RouteSource};
use netdiag_igp::{Igp, LinkState};
use netdiag_topology::{
    AsId, AsKind, LinkRelationship, Prefix, RouterId, Topology, TopologyBuilder,
};

/// Every AS of `t`, in id order.
fn every_as(t: &Topology) -> Vec<AsId> {
    t.ases().iter().map(|a| a.id).collect()
}

fn converge(topology: &Arc<Topology>) -> (LinkState, Igp, Bgp) {
    let links = LinkState::all_up(topology);
    let igp = Igp::compute(topology, &links);
    let mut bgp = Bgp::new(topology);
    let ctx = Ctx {
        topology,
        igp: &igp,
        links: &links,
    };
    bgp.originate(ctx, &every_as(topology));
    bgp.run(ctx);
    (links, igp, bgp)
}

fn dst_prefix(t: &Topology, a: AsId) -> Prefix {
    t.as_node(a).prefix
}

/// Rung 1 — local preference: a customer route beats a shorter peer (or
/// provider) route.
#[test]
fn customer_route_beats_shorter_peer_route() {
    // X has: customer path X<-C1<-C2<-D (long, via customers) and a direct
    // peer P who also reaches D as P<-D (short).
    //
    //   X --peer-- P --prov--> D
    //   X --prov-> C1 --prov-> C2 --prov-> D2? — build D reachable both ways:
    // Simpler: D is customer of both P and C2; C2 customer of C1; C1
    // customer of X. X hears D via P (path [P, D]) and via C1
    // ([C1, C2, D]). Customer route must win despite being longer.
    let mut b = TopologyBuilder::new();
    let x = b.add_as(AsKind::Core, "X");
    let p = b.add_as(AsKind::Core, "P");
    let c1 = b.add_as(AsKind::Tier2, "C1");
    let c2 = b.add_as(AsKind::Tier2, "C2");
    let d = b.add_as(AsKind::Stub, "D");
    let xr = b.add_router(x, "xr");
    let pr = b.add_router(p, "pr");
    let c1r = b.add_router(c1, "c1r");
    let c2r = b.add_router(c2, "c2r");
    let dr = b.add_router(d, "dr");
    b.add_inter_link(xr, pr, LinkRelationship::PeerPeer);
    b.add_inter_link(xr, c1r, LinkRelationship::ProviderCustomer);
    b.add_inter_link(c1r, c2r, LinkRelationship::ProviderCustomer);
    b.add_inter_link(pr, dr, LinkRelationship::ProviderCustomer);
    b.add_inter_link(c2r, dr, LinkRelationship::ProviderCustomer);
    let t = Arc::new(b.build().unwrap());
    let (_, _, bgp) = converge(&t);
    let route = bgp.best_route(xr, &dst_prefix(&t, d)).unwrap();
    assert_eq!(
        route.as_path.to_vec(),
        vec![c1, c2, d],
        "longer customer route must beat shorter peer route"
    );
    assert_eq!(
        route.source,
        RouteSource::External(netdiag_topology::PeerKind::Customer)
    );
}

/// Rung 2 — AS-path length: among equal-preference routes the shorter
/// path wins.
#[test]
fn shorter_as_path_wins_among_equals() {
    // D is X's customer twice over: directly, and via intermediate C.
    let mut b = TopologyBuilder::new();
    let x = b.add_as(AsKind::Core, "X");
    let c = b.add_as(AsKind::Tier2, "C");
    let d = b.add_as(AsKind::Stub, "D");
    let x1 = b.add_router(x, "x1");
    let x2 = b.add_router(x, "x2");
    b.add_intra_link(x1, x2, 1);
    let cr = b.add_router(c, "cr");
    let dr = b.add_router(d, "dr");
    b.add_inter_link(x1, cr, LinkRelationship::ProviderCustomer);
    b.add_inter_link(cr, dr, LinkRelationship::ProviderCustomer);
    b.add_inter_link(x2, dr, LinkRelationship::ProviderCustomer);
    let t = Arc::new(b.build().unwrap());
    let (_, _, bgp) = converge(&t);
    for r in [x1, x2] {
        let route = bgp.best_route(r, &dst_prefix(&t, d)).unwrap();
        assert_eq!(
            route.as_path.to_vec(),
            vec![d],
            "direct path is shorter at {r}"
        );
    }
}

/// Rung 3 — eBGP over iBGP: a border router prefers its own exit over a
/// peer's equally good one.
#[test]
fn ebgp_beats_ibgp() {
    // X has two borders x1, x2, both with a direct customer link to D.
    let mut b = TopologyBuilder::new();
    let x = b.add_as(AsKind::Core, "X");
    let d = b.add_as(AsKind::Stub, "D");
    let x1 = b.add_router(x, "x1");
    let x2 = b.add_router(x, "x2");
    b.add_intra_link(x1, x2, 1);
    let d1 = b.add_router(d, "d1");
    let d2 = b.add_router(d, "d2");
    b.add_intra_link(d1, d2, 1);
    b.add_inter_link(x1, d1, LinkRelationship::ProviderCustomer);
    b.add_inter_link(x2, d2, LinkRelationship::ProviderCustomer);
    let t = Arc::new(b.build().unwrap());
    let (_, _, bgp) = converge(&t);
    for r in [x1, x2] {
        let route = bgp.best_route(r, &dst_prefix(&t, d)).unwrap();
        assert!(route.ebgp_learned, "{r} must use its own exit");
        assert_eq!(route.egress, r);
    }
}

/// Rung 4 — hot potato: an interior router with no exit of its own picks
/// the IGP-closest egress.
#[test]
fn hot_potato_picks_closest_egress() {
    let mut b = TopologyBuilder::new();
    let x = b.add_as(AsKind::Core, "X");
    let d = b.add_as(AsKind::Stub, "D");
    // Interior m: 1 hop from x1, 10 from x2.
    let x1 = b.add_router(x, "x1");
    let x2 = b.add_router(x, "x2");
    let m = b.add_router(x, "m");
    b.add_intra_link(m, x1, 1);
    b.add_intra_link(m, x2, 10);
    b.add_intra_link(x1, x2, 20);
    let d1 = b.add_router(d, "d1");
    let d2 = b.add_router(d, "d2");
    b.add_intra_link(d1, d2, 1);
    b.add_inter_link(x1, d1, LinkRelationship::ProviderCustomer);
    b.add_inter_link(x2, d2, LinkRelationship::ProviderCustomer);
    let t = Arc::new(b.build().unwrap());
    let (_, _, bgp) = converge(&t);
    let route = bgp.best_route(m, &dst_prefix(&t, d)).unwrap();
    assert_eq!(route.egress, x1, "m is IGP-closer to x1");
    assert!(!route.ebgp_learned);
}

/// Rung 5 — deterministic tie-break: all else equal, the lowest neighbor
/// router id wins, and repeated convergence agrees.
#[test]
fn final_tie_break_is_deterministic() {
    // Interior m equidistant from both egresses.
    let mut b = TopologyBuilder::new();
    let x = b.add_as(AsKind::Core, "X");
    let d = b.add_as(AsKind::Stub, "D");
    let x1 = b.add_router(x, "x1");
    let x2 = b.add_router(x, "x2");
    let m = b.add_router(x, "m");
    b.add_intra_link(m, x1, 5);
    b.add_intra_link(m, x2, 5);
    b.add_intra_link(x1, x2, 5);
    let d1 = b.add_router(d, "d1");
    let d2 = b.add_router(d, "d2");
    b.add_intra_link(d1, d2, 1);
    b.add_inter_link(x1, d1, LinkRelationship::ProviderCustomer);
    b.add_inter_link(x2, d2, LinkRelationship::ProviderCustomer);
    let t = Arc::new(b.build().unwrap());
    let (_, _, bgp1) = converge(&t);
    let (_, _, bgp2) = converge(&t);
    let r1 = bgp1.best_route(m, &dst_prefix(&t, d)).unwrap();
    let r2 = bgp2.best_route(m, &dst_prefix(&t, d)).unwrap();
    assert_eq!(r1, r2);
    // Lowest neighbor router id: x1 < x2.
    assert_eq!(r1.egress, x1);
}

/// Withdrawing the best route falls back to the next-best, not to nothing.
#[test]
fn withdrawal_falls_back_to_next_best() {
    let mut b = TopologyBuilder::new();
    let x = b.add_as(AsKind::Core, "X");
    let p = b.add_as(AsKind::Core, "P");
    let d = b.add_as(AsKind::Stub, "D");
    let xr = b.add_router(x, "xr");
    let pr = b.add_router(p, "pr");
    let dr = b.add_router(d, "dr");
    b.add_inter_link(xr, pr, LinkRelationship::PeerPeer);
    b.add_inter_link(xr, dr, LinkRelationship::ProviderCustomer);
    b.add_inter_link(pr, dr, LinkRelationship::ProviderCustomer);
    let t = Arc::new(b.build().unwrap());
    let (mut links, igp, mut bgp) = converge(&t);
    let prefix = dst_prefix(&t, d);
    assert_eq!(
        bgp.best_route(xr, &prefix).unwrap().as_path.to_vec(),
        vec![d]
    );

    // Fail X's direct customer link; X falls back to the peer route.
    let l = t.link_between(xr, dr).unwrap();
    links.set_down(l);
    let ctx = Ctx {
        topology: &t,
        igp: &igp,
        links: &links,
    };
    bgp.handle_link_down(ctx, l);
    bgp.run(ctx);
    let fallback = bgp.best_route(xr, &prefix).unwrap();
    assert_eq!(fallback.as_path.to_vec(), vec![p, d]);
    let _ = RouterId(0);
}
