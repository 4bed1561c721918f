//! End-to-end instrumentation: a full trial on a small topology must leave
//! nonzero counters in every layer of the run report.

// Test code: unwrap on a broken fixture is the correct failure mode.
#![allow(clippy::unwrap_used)]
use netdiag_experiments::runner::{prepare_with, run_trial, RunConfig};
use netdiag_obs::{names, RecorderHandle};
use netdiag_topology::builders::{build_internet, InternetConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn trial_populates_every_layer_of_the_run_report() {
    let net = build_internet(&InternetConfig::small(3));
    let cfg = RunConfig::default();
    let (recorder, sink) = RecorderHandle::live();

    let mut rng = StdRng::seed_from_u64(11);
    let ctx = prepare_with(&net, &cfg, &mut rng, recorder);
    let mut frng = StdRng::seed_from_u64(12);
    let trial = run_trial(&ctx, &cfg, &mut frng).expect("a failure trial runs");
    assert!(!trial.failed_sites.is_empty() || trial.failed_paths > 0);

    let report = sink.snapshot();
    assert!(report.counter(names::IGP_SPF_RUNS) > 0, "SPF ran");
    assert!(
        report.counter(names::IGP_SETTLED_NODES) > 0,
        "SPF settled nodes"
    );
    assert!(
        report.counter(names::BGP_MSGS) > 0,
        "BGP exchanged messages"
    );
    assert!(report.counter(names::BGP_DECISIONS) > 0, "BGP decided");
    assert!(report.counter(names::PROBE_TRACEROUTES) > 0, "probes ran");
    assert!(report.counter(names::PROBE_HOPS) > 0, "probes saw hops");
    assert!(
        report.counter(names::HS_GREEDY_ITERS) > 0,
        "greedy iterated"
    );
    assert_eq!(
        report.counter(names::DIAG_RUNS),
        3,
        "tomo + nd-edge + nd-bgpigp"
    );
    assert!(report.histogram(names::HS_CANDIDATES).is_some());
    assert!(report.histogram(names::DIAG_HYPOTHESIS_SIZE).is_some());

    // All four trial phases were timed.
    for phase in [
        names::TRIAL_SETUP,
        names::TRIAL_INJECT,
        names::TRIAL_MEASURE,
        names::TRIAL_DIAGNOSE,
    ] {
        let span = report
            .span(phase)
            .unwrap_or_else(|| panic!("{phase} span missing"));
        assert!(span.count > 0, "{phase} recorded");
    }

    // The JSON serialization carries the same numbers.
    let json = report.to_json();
    assert!(json.contains("\"version\": 3"), "{json}");
    assert!(json.contains("\"igp.spf_runs\""), "{json}");
    assert!(json.contains("\"trial.diagnose\""), "{json}");
    assert!(
        json.contains("\"p99\""),
        "histograms carry percentiles: {json}"
    );
}

#[test]
fn traced_trial_replays_into_an_explanation() {
    let net = build_internet(&InternetConfig::small(3));
    let cfg = RunConfig::default();
    let (recorder, tracer) = RecorderHandle::tracing();

    let _scope = netdiag_obs::trial_scope(0, 0);
    let mut rng = StdRng::seed_from_u64(11);
    let ctx = prepare_with(&net, &cfg, &mut rng, recorder);
    let mut frng = StdRng::seed_from_u64(12);
    run_trial(&ctx, &cfg, &mut frng).expect("a failure trial runs");

    let narrative = netdiag_experiments::explain::explain(
        &tracer.to_jsonl(),
        &netdiag_experiments::explain::ExplainFilter {
            algo: Some("nd-edge".into()),
            ..Default::default()
        },
    )
    .expect("trace explains");
    assert!(narrative.contains("--- nd-edge ---"), "{narrative}");
    assert!(narrative.contains("hypothesis"), "{narrative}");
}

#[test]
fn noop_recorder_leaves_no_trace_and_changes_no_results() {
    let net = build_internet(&InternetConfig::small(3));
    let cfg = RunConfig::default();

    let run = |recorder: RecorderHandle| {
        let mut rng = StdRng::seed_from_u64(11);
        let ctx = prepare_with(&net, &cfg, &mut rng, recorder);
        let mut frng = StdRng::seed_from_u64(12);
        run_trial(&ctx, &cfg, &mut frng).expect("a failure trial runs")
    };

    let (handle, sink) = RecorderHandle::live();
    let recorded = run(handle);
    let plain = run(RecorderHandle::noop());

    // Instrumentation must not perturb the diagnosis.
    assert_eq!(recorded.failed_sites, plain.failed_sites);
    assert_eq!(recorded.failed_paths, plain.failed_paths);
    assert_eq!(
        recorded.nd_edge.hypothesis_size,
        plain.nd_edge.hypothesis_size
    );
    assert!(sink.snapshot().counter(names::IGP_SPF_RUNS) > 0);
}
