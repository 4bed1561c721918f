//! Parallel trial collection must be a pure wall-clock optimisation:
//! [`collect_trials`] (worker pool over placements x trials) and
//! [`collect_trials_sequential`] (single thread, same derived seeds) must
//! return identical results in identical order, at every pool width.

// Test code: unwrap on a broken fixture is the correct failure mode.
#![allow(clippy::unwrap_used)]
use netdiag_experiments::figures::{collect_trials, collect_trials_sequential, FigureConfig};
use netdiag_experiments::runner::RunConfig;
use netdiag_experiments::sampling::FailureSpec;
use netdiag_obs::{names, RecorderHandle};

/// Pinned pool widths: one worker, and pools narrower and as wide as the
/// quick grid's three placements — independent of the host's core count.
const WIDTHS: [usize; 3] = [1, 2, 3];

/// Collects `fc`'s grid on the pool at every width in [`WIDTHS`] and
/// asserts each equals the sequential reference.
fn assert_pool_matches_reference(fc: &FigureConfig, cfg: &RunConfig) {
    let net = fc.internet();
    let reference = collect_trials_sequential(&net, cfg, fc);
    assert!(!reference.is_empty(), "config must yield trials");
    for threads in WIDTHS {
        let fc = FigureConfig {
            threads,
            ..fc.clone()
        };
        assert_eq!(
            collect_trials(&net, cfg, &fc),
            reference,
            "threads = {threads}"
        );
    }
}

#[test]
fn parallel_equals_sequential() {
    assert_pool_matches_reference(&FigureConfig::quick(), &RunConfig::default());
}

#[test]
fn parallel_equals_sequential_with_blocking() {
    // Blocking exercises the Looking-Glass branch of run_trial too.
    let fc = FigureConfig {
        placements: 2,
        failures_per_placement: 3,
        ..FigureConfig::default()
    };
    let cfg = RunConfig {
        blocked_frac: 0.3,
        failure: FailureSpec::Links(2),
        ..RunConfig::default()
    };
    assert_pool_matches_reference(&fc, &cfg);
}

#[test]
fn recorded_pool_equals_sequential_with_the_memo_off() {
    // An attached recorder turns the replay memo off, so every trial does
    // (and reports) its real work; the output must not change.
    let fc = FigureConfig::quick();
    let net = fc.internet();
    let cfg = RunConfig::default();
    let reference = collect_trials_sequential(&net, &cfg, &fc);
    for threads in WIDTHS {
        let (recorder, live) = RecorderHandle::live();
        let recorded = FigureConfig {
            threads,
            recorder,
            ..fc.clone()
        };
        assert_eq!(
            collect_trials(&net, &cfg, &recorded),
            reference,
            "threads = {threads}"
        );
        let report = live.snapshot();
        assert!(
            report.counter(names::HS_GREEDY_ITERS) > 0,
            "trials recorded"
        );
        if threads == 1 {
            // A lone worker walking the placements takes work from nobody.
            assert_eq!(report.counter(names::TRIAL_POOL_STEAL), 0);
        }
    }
}
