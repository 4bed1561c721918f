//! Concurrency stress and parity tests for [`LiveRecorder`].
//!
//! The recorder's record path is lock-free (sharded atomics, a
//! thread-local slot cache), so plain-thread hammering is the honest
//! check we can run without a model checker: every contribution must
//! land exactly once, from any interleaving, whether recorded straight
//! into the registry or through a [`FanoutRecorder`] composed via
//! [`RecorderHandle::sink`]. The other half of the contract — on a
//! sequential workload the lock-free registry reports exactly what a
//! plain mutex-guarded aggregator reports — is pinned by the parity
//! tests beside that oracle in the crate's unit tests.

use std::sync::Arc;

use netdiag_obs::{LiveRecorder, Recorder, RecorderHandle};

const THREADS: u64 = 8;
const OPS: u64 = 10_000;

const COUNTER: &str = "stress.counter";
const HIST: &str = "stress.hist";
const SPAN: &str = "stress.span";
const GAUGE: &str = "stress.gauge";

/// Runs `THREADS` workers, each recording `OPS` of every metric kind
/// through its own clone of `handle`.
fn hammer(handle: &RecorderHandle) {
    let mut workers = Vec::new();
    for t in 0..THREADS {
        let recorder = handle.clone();
        workers.push(std::thread::spawn(move || {
            for i in 0..OPS {
                recorder.add(COUNTER, 1);
                recorder.observe(HIST, (t * OPS + i) % 1024);
                recorder.record_span(SPAN, i % 64);
                recorder.gauge_add(GAUGE, 1);
                recorder.gauge_sub(GAUGE, 1);
            }
        }));
    }
    for worker in workers {
        worker.join().expect("stress worker panicked");
    }
}

/// Asserts a report holds exactly the `THREADS * OPS` contributions.
fn assert_totals(report: &netdiag_obs::RunReport, label: &str) {
    let total = THREADS * OPS;
    assert_eq!(report.counter(COUNTER), total, "{label}: counter");
    let hist = report.histogram(HIST).expect("histogram recorded");
    assert_eq!(hist.count, total, "{label}: histogram count");
    // Per-thread sums of (t*OPS + i) % 1024 are deterministic, so the
    // shard-summed total must match a sequential computation exactly.
    let expected_sum: u64 = (0..THREADS)
        .flat_map(|t| (0..OPS).map(move |i| (t * OPS + i) % 1024))
        .sum();
    assert_eq!(hist.sum, expected_sum, "{label}: histogram sum");
    assert_eq!(hist.min, 0, "{label}: histogram min");
    assert_eq!(hist.max, 1023, "{label}: histogram max");
    let span = report.span(SPAN).expect("span recorded");
    assert_eq!(span.count, total, "{label}: span count");
    let gauge = report.gauge(GAUGE).expect("gauge recorded");
    assert_eq!(gauge.current, 0, "{label}: gauge settles to zero");
    assert!(
        gauge.high_water >= 1 && gauge.high_water <= THREADS,
        "{label}: gauge high water {} outside [1, {THREADS}]",
        gauge.high_water
    );
}

#[test]
fn concurrent_hammering_loses_nothing() {
    let (handle, live) = RecorderHandle::live();
    hammer(&handle);
    assert_eq!(live.overflowed(), 0, "slot tables must not overflow");
    assert_totals(&live.snapshot(), "direct");
}

#[test]
fn fanout_composition_keeps_every_sink_exact() {
    // The daemon's shape: a live registry fanned out with another sink,
    // reached through RecorderHandle::sink() composition. Two registries
    // also share every thread's slot cache, which must keep them apart.
    let live = Arc::new(LiveRecorder::new());
    let mirror = Arc::new(LiveRecorder::new());
    let handle = RecorderHandle::fanout(vec![
        Arc::clone(&live) as Arc<dyn Recorder>,
        Arc::clone(&mirror) as Arc<dyn Recorder>,
    ]);
    // Re-wrap through sink() as server code does when re-fanning.
    let rewrapped = RecorderHandle::fanout(vec![handle.sink()]);
    hammer(&rewrapped);
    assert_totals(&live.snapshot(), "live sink");
    assert_totals(&mirror.snapshot(), "mirrored sink");
}
