//! Pid-space growth parity: the BGP engine's dense prefix ids cover only
//! the prefixes originated so far, and each batch of new prefixes is merged
//! into the sorted table with every existing table renamed. An engine grown
//! batch by batch must be observationally identical to one pre-grown to
//! every AS prefix (`Sim::new_parallel`), including when a later batch's
//! prefixes sort before an earlier batch's (so existing pids move) and when
//! a batch arrives while messages are still queued.

// Test code: unwrap on a broken fixture is the correct failure mode.
#![allow(clippy::unwrap_used)]
use std::net::Ipv4Addr;
use std::sync::Arc;

use proptest::prelude::*;

use netdiag_bgp::{Bgp, Ctx, ExportDeny};
use netdiag_igp::{Igp, LinkState};
use netdiag_netsim::Sim;
use netdiag_topology::builders::{build_internet, InternetConfig};
use netdiag_topology::{AsId, LinkId, Topology};

/// The ASes of `t` in ascending prefix order.
fn by_prefix(t: &Topology) -> Vec<AsId> {
    let mut ases: Vec<AsId> = t.ases().iter().map(|a| a.id).collect();
    ases.sort_by_key(|&a| t.as_node(a).prefix);
    ases
}

/// Two batches: the first drawn from the upper half of the prefix order,
/// the second from the whole order with at least one prefix below every
/// prefix of the first, so growing by it moves existing pids.
fn batches(t: &Topology, first: &[usize], second: &[usize]) -> (Vec<AsId>, Vec<AsId>) {
    let order = by_prefix(t);
    let half = order.len() / 2;
    let upper = &order[half..];
    let a: Vec<AsId> = first.iter().map(|&i| upper[i % upper.len()]).collect();
    let mut b = vec![order[second[0] % half]];
    b.extend(second[1..].iter().map(|&i| order[i % order.len()]));
    (a, b)
}

/// Every observable of the control and data plane the parity covers.
fn assert_same(grown: &mut Sim, pre: &mut Sim, probes: &[Ipv4Addr], what: &str) {
    let t = grown.topology_arc();
    for r in t.routers() {
        let g: Vec<_> = grown.bgp().loc_rib(r.id).collect();
        let p: Vec<_> = pre.bgp().loc_rib(r.id).collect();
        assert_eq!(g, p, "{what}: Loc-RIB of {:?}", r.id);
        for &dst in probes {
            assert_eq!(
                grown.bgp().lookup(r.id, dst),
                pre.bgp().lookup(r.id, dst),
                "{what}: lookup of {dst} at {:?}",
                r.id
            );
        }
    }
    assert_eq!(
        grown.take_observed(),
        pre.take_observed(),
        "{what}: observed"
    );
    assert_eq!(grown.bgp_messages(), pre.bgp_messages(), "{what}: messages");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Batch-by-batch growth through `Sim::converge_for`, then failures,
    /// restore, repair and misconfiguration, against the pre-grown layout.
    #[test]
    fn batch_growth_matches_the_pre_grown_engine(
        seed in 0u64..200,
        first in proptest::collection::vec(0usize..1000, 1..4),
        second in proptest::collection::vec(0usize..1000, 1..4),
        picks in proptest::collection::vec(0usize..1000, 1..3),
        observer in 0usize..1000,
    ) {
        let net = build_internet(&InternetConfig::small(seed));
        let topology = Arc::new(net.topology.clone());
        let (a, b) = batches(&topology, &first, &second);
        let probes: Vec<Ipv4Addr> = topology.ases().iter().map(|x| x.prefix.host(1)).collect();
        let obs = AsId((observer % topology.as_count()) as u32);

        let mut grown = Sim::new(Arc::clone(&topology));
        let mut pre = Sim::new_parallel(Arc::clone(&topology), 1);
        for sim in [&mut grown, &mut pre] {
            sim.set_observer(obs);
            sim.converge_for(&a);
        }
        assert_same(&mut grown, &mut pre, &probes, "first batch");

        // A filter on a prefix the grown engine has not added yet: it must
        // bite once the prefix is originated, as in the pre-grown engine.
        let inter: Vec<LinkId> = topology.inter_links().map(|l| l.id).collect();
        let l = topology.link(inter[picks[0] % inter.len()]);
        let early = ExportDeny { at: l.a, peer: l.b, prefix: topology.as_node(b[0]).prefix };
        for sim in [&mut grown, &mut pre] {
            sim.misconfigure(&[early]);
            sim.converge_for(&b);
        }
        assert_same(&mut grown, &mut pre, &probes, "second batch");

        let links: Vec<LinkId> = topology.links().iter().map(|l| l.id).collect();
        let failed: Vec<LinkId> = picks.iter().map(|&p| links[p % links.len()]).collect();
        let (snap_g, snap_p) = (grown.snapshot(), pre.snapshot());
        for sim in [&mut grown, &mut pre] {
            sim.fail_links(&failed);
        }
        assert_same(&mut grown, &mut pre, &probes, "failures");

        grown.restore(&snap_g);
        pre.restore(&snap_p);
        assert_same(&mut grown, &mut pre, &probes, "restore");

        for sim in [&mut grown, &mut pre] {
            sim.fail_links(&failed);
            for &l in &failed {
                sim.repair_link(l);
            }
        }
        assert_same(&mut grown, &mut pre, &probes, "repair");

        let l = topology.link(inter[picks[picks.len() - 1] % inter.len()]);
        let late = ExportDeny { at: l.b, peer: l.a, prefix: topology.as_node(a[0]).prefix };
        for sim in [&mut grown, &mut pre] {
            sim.misconfigure(&[late]);
        }
        assert_same(&mut grown, &mut pre, &probes, "misconfiguration");
    }

    /// A batch originated while the previous batch's announcements are
    /// still queued: the growth renames the queued messages' pids, and the
    /// run then delivers exactly what the pre-grown engine delivers.
    #[test]
    fn growth_with_queued_messages_matches_the_pre_grown_engine(
        seed in 0u64..200,
        first in proptest::collection::vec(0usize..1000, 1..4),
        second in proptest::collection::vec(0usize..1000, 1..4),
        observer in 0usize..1000,
    ) {
        let net = build_internet(&InternetConfig::small(seed));
        let topology = net.topology;
        let (a, b) = batches(&topology, &first, &second);
        let links = LinkState::all_up(&topology);
        let igp = Igp::compute(&topology, &links);
        let ctx = Ctx { topology: &topology, igp: &igp, links: &links };
        let every: Vec<AsId> = topology.ases().iter().map(|x| x.id).collect();
        let obs = AsId((observer % topology.as_count()) as u32);

        let mut grown = Bgp::new(&topology);
        let mut pre = Bgp::new(&topology);
        pre.add_prefixes(&topology, &every);
        let mut messages = Vec::new();
        for bgp in [&mut grown, &mut pre] {
            bgp.set_observer(obs);
            bgp.originate(ctx, &a);
            bgp.originate(ctx, &b);
            messages.push(bgp.run(ctx).messages);
        }
        prop_assert_eq!(messages[0], messages[1], "messages");
        prop_assert_eq!(grown.take_observed(), pre.take_observed(), "observed");
        for r in topology.routers() {
            let g: Vec<_> = grown.loc_rib(r.id).collect();
            let p: Vec<_> = pre.loc_rib(r.id).collect();
            prop_assert_eq!(g, p, "Loc-RIB of {:?}", r.id);
        }
    }
}
