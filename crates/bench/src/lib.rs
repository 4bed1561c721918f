//! Shared fixture for the Criterion perf benchmark (`benches/perf.rs`),
//! whose medians `scripts/bench.sh` gates. End-to-end and per-layer
//! timing lives in `perfbench/`; the `figures` binary regenerates the
//! paper figures and ablation tables.

use std::collections::BTreeSet;
use std::sync::Arc;

use netdiag_netsim::{probe_mesh, ProbeMesh, SensorSet, Sim};
use netdiag_topology::builders::{build_internet, Internet, InternetConfig};

/// A converged full-scale simulator with ten sensors — the common fixture.
pub struct Fixture {
    /// Generated internet (roles + topology).
    pub net: Internet,
    /// Converged healthy simulator.
    pub sim: Sim,
    /// The placed sensors.
    pub sensors: SensorSet,
    /// Healthy full-mesh traceroutes.
    pub mesh: ProbeMesh,
}

impl Fixture {
    /// Builds the paper-scale fixture (165 ASes, 10 sensors).
    pub fn paper_scale() -> Fixture {
        let net = build_internet(&InternetConfig::default());
        let topology = Arc::new(net.topology.clone());
        let spec: Vec<_> = net.stubs[..10]
            .iter()
            .map(|s| (s.as_id, s.routers[0]))
            .collect();
        let sensors = SensorSet::place(&topology, &spec);
        let mut sim = Sim::new(topology);
        sensors.register(&mut sim);
        sim.converge_for(&sensors.as_ids());
        let mesh = probe_mesh(&sim, &sensors, &BTreeSet::new());
        Fixture {
            net,
            sim,
            sensors,
            mesh,
        }
    }
}
