//! Property-based tests of the BGP engine over randomized internets:
//! convergence, valley-freeness, reachability, determinism, and failover
//! consistency.

// Test code: unwrap on a broken fixture is the correct failure mode.
#![allow(clippy::unwrap_used)]
use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;

use netdiag_bgp::{Bgp, Ctx};
use netdiag_igp::{Igp, LinkState};
use netdiag_obs::RecorderHandle;
use netdiag_topology::builders::{build_internet, InternetConfig};
use netdiag_topology::{AsId, LinkId, PeerKind, Topology};

struct World {
    topology: Arc<Topology>,
    links: LinkState,
    igp: Igp,
    bgp: Bgp,
}

/// Every AS of `t`, in id order.
fn every_as(t: &Topology) -> Vec<AsId> {
    t.ases().iter().map(|a| a.id).collect()
}

fn converge_world(seed: u64) -> World {
    let net = build_internet(&InternetConfig::small(seed));
    let topology = Arc::new(net.topology.clone());
    let links = LinkState::all_up(&topology);
    let igp = Igp::compute(&topology, &links);
    let mut bgp = Bgp::new(&topology);
    let ctx = Ctx {
        topology: &topology,
        igp: &igp,
        links: &links,
    };
    bgp.originate(ctx, &every_as(&topology));
    bgp.run(ctx);
    World {
        topology,
        links,
        igp,
        bgp,
    }
}

/// Is the AS path valley-free from the vantage AS? (up* peer? down*)
fn valley_free(t: &Topology, vantage: AsId, as_path: &[AsId]) -> bool {
    let mut path = vec![vantage];
    path.extend(as_path.iter().copied());
    let mut downhill_only = false;
    for w in path.windows(2) {
        match t.relationship(w[0], w[1]) {
            Some(PeerKind::Provider) | Some(PeerKind::Peer) => {
                if downhill_only {
                    return false;
                }
                if t.relationship(w[0], w[1]) == Some(PeerKind::Peer) {
                    downhill_only = true;
                }
            }
            Some(PeerKind::Customer) => downhill_only = true,
            None => return false, // consecutive ASes must be neighbors
        }
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every converged route has a loop-free, valley-free AS path whose
    /// origin matches the destination prefix.
    #[test]
    fn routes_are_policy_safe(seed in 0u64..3000) {
        let w = converge_world(seed);
        let t = &w.topology;
        for router in t.routers() {
            for (prefix, route) in w.bgp.loc_rib(router.id) {
                // No loops.
                let mut seen = BTreeSet::new();
                prop_assert!(route.as_path.iter().all(|a| seen.insert(*a)));
                prop_assert!(!route.as_path.contains(&router.as_id));
                // Valley-free from this AS.
                prop_assert!(
                    valley_free(t, router.as_id, &route.as_path),
                    "valley: {:?} via {:?}",
                    router.as_id,
                    route.as_path
                );
                // The origin AS owns the prefix.
                let origin = route.as_path.last().copied().unwrap_or(router.as_id);
                prop_assert_eq!(t.as_node(origin).prefix, prefix);
            }
        }
    }

    /// Full reachability: customer trees hang off peered cores, so every
    /// router reaches every AS prefix in the healthy network.
    #[test]
    fn healthy_full_reachability(seed in 0u64..3000) {
        let w = converge_world(seed);
        let t = &w.topology;
        for router in t.routers() {
            for asn in t.ases() {
                if asn.id == router.as_id {
                    continue;
                }
                prop_assert!(
                    w.bgp.best_route(router.id, &asn.prefix).is_some(),
                    "{} cannot reach {:?}",
                    router.id,
                    asn.id
                );
            }
        }
    }

    /// Two independent convergences of the same world agree exactly.
    #[test]
    fn convergence_deterministic(seed in 0u64..1000) {
        let a = converge_world(seed);
        let b = converge_world(seed);
        for router in a.topology.routers() {
            let ra: Vec<_> = a.bgp.loc_rib(router.id).map(|(p, r)| (p, r.clone())).collect();
            let rb: Vec<_> = b.bgp.loc_rib(router.id).map(|(p, r)| (p, r.clone())).collect();
            prop_assert_eq!(ra, rb);
        }
    }

    /// After any single link failure the network reconverges to a state
    /// that is again policy-safe, and routes never traverse the dead link.
    #[test]
    fn reconvergence_policy_safe(seed in 0u64..1000, fail in 0usize..200) {
        let mut w = converge_world(seed);
        let link = LinkId((fail % w.topology.link_count()) as u32);
        w.links.set_down(link);
        let l = w.topology.link(link);
        let as_a = w.topology.as_of_router(l.a);
        if as_a == w.topology.as_of_router(l.b) {
            w.igp.recompute_as(&w.topology, as_a, &w.links, &RecorderHandle::noop());
        }
        let ctx = Ctx { topology: &w.topology, igp: &w.igp, links: &w.links };
        w.bgp.handle_link_down(ctx, link);
        w.bgp.run(ctx);

        for router in w.topology.routers() {
            for (_, route) in w.bgp.loc_rib(router.id) {
                prop_assert!(valley_free(&w.topology, router.as_id, &route.as_path));
                if let Some(el) = route.ebgp_link {
                    prop_assert!(w.links.is_up(el), "route uses the dead link");
                }
                if !route.ebgp_learned && route.egress != router.id {
                    // iBGP routes must still have a live IGP path to the
                    // egress.
                    prop_assert!(
                        w.igp.of(router.as_id).reachable(router.id, route.egress)
                    );
                }
            }
        }
    }
}
