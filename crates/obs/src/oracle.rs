//! The mutex-guarded reference aggregator, kept only as a test oracle.
//!
//! [`MutexRecorder`] aggregates every call under one `Mutex` in the
//! plainest possible way. Production code records through
//! [`LiveRecorder`](crate::LiveRecorder); the parity tests below pin the
//! lock-free registry `==` to this oracle on the same workload.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::{log2_bucket, GaugeSnapshot, Recorder, RunReport, SeriesStats};

impl SeriesStats {
    /// A series holding the single observation `value`.
    pub(crate) fn new(value: u64) -> Self {
        let mut buckets = [0u64; 65];
        buckets[log2_bucket(value)] = 1;
        SeriesStats {
            count: 1,
            sum: value,
            min: value,
            max: value,
            buckets,
        }
    }

    /// Adds one observation of `value`.
    pub(crate) fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[log2_bucket(value)] += 1;
    }
}

#[derive(Debug, Default)]
struct Aggregates {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, SeriesStats>,
    spans: BTreeMap<&'static str, SeriesStats>,
    gauges: BTreeMap<&'static str, GaugeSnapshot>,
}

/// Aggregates every record under one global mutex.
#[derive(Debug, Default)]
pub(crate) struct MutexRecorder {
    inner: Mutex<Aggregates>,
}

fn series(map: &mut BTreeMap<&'static str, SeriesStats>, name: &'static str, value: u64) {
    match map.entry(name) {
        Entry::Occupied(mut e) => e.get_mut().record(value),
        Entry::Vacant(e) => {
            e.insert(SeriesStats::new(value));
        }
    }
}

fn owned<V: Copy>(map: &BTreeMap<&'static str, V>) -> BTreeMap<String, V> {
    map.iter().map(|(&k, &v)| (k.to_owned(), v)).collect()
}

impl MutexRecorder {
    /// Snapshots the aggregates collected so far.
    pub(crate) fn report(&self) -> RunReport {
        let inner = self.inner.lock().expect("recorder poisoned");
        RunReport {
            counters: owned(&inner.counters),
            histograms: owned(&inner.histograms),
            spans: owned(&inner.spans),
            gauges: owned(&inner.gauges),
        }
    }

    fn with<R>(&self, f: impl FnOnce(&mut Aggregates) -> R) -> R {
        f(&mut self.inner.lock().expect("recorder poisoned"))
    }
}

impl Recorder for MutexRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn add(&self, name: &'static str, delta: u64) {
        self.with(|a| *a.counters.entry(name).or_insert(0) += delta);
    }

    fn observe(&self, name: &'static str, value: u64) {
        self.with(|a| series(&mut a.histograms, name, value));
    }

    fn record_span(&self, name: &'static str, nanos: u64) {
        self.with(|a| series(&mut a.spans, name, nanos));
    }

    fn gauge_set(&self, name: &'static str, value: u64) {
        self.with(|a| {
            let g = a.gauges.entry(name).or_default();
            g.current = value;
            g.high_water = g.high_water.max(value);
        });
    }

    fn gauge_add(&self, name: &'static str, delta: u64) {
        self.with(|a| {
            let g = a.gauges.entry(name).or_default();
            g.current = g.current.saturating_add(delta);
            g.high_water = g.high_water.max(g.current);
        });
    }

    fn gauge_sub(&self, name: &'static str, delta: u64) {
        self.with(|a| {
            let g = a.gauges.entry(name).or_default();
            g.current = g.current.saturating_sub(delta);
        });
    }
}

mod tests {
    use std::sync::Arc;

    use super::MutexRecorder;
    use crate::{LiveRecorder, RecorderHandle};

    const COUNTER: &str = "parity.counter";
    const HIST: &str = "parity.hist";
    const SPAN: &str = "parity.span";
    const GAUGE: &str = "parity.gauge";

    #[test]
    fn sequential_workload_matches_the_mutex_oracle_exactly() {
        let (live_handle, live) = RecorderHandle::live();
        let oracle = Arc::new(MutexRecorder::default());
        let oracle_handle = RecorderHandle::new(oracle.clone());
        for recorder in [&live_handle, &oracle_handle] {
            for i in 0..5_000u64 {
                recorder.add(COUNTER, 1 + i % 3);
                recorder.observe(HIST, i * i % 4096);
                recorder.record_span(SPAN, i % 100);
                recorder.gauge_add(GAUGE, 2);
                recorder.gauge_sub(GAUGE, 1);
                if i % 500 == 0 {
                    recorder.gauge_set(GAUGE, 5);
                }
            }
        }
        // Whole-report equality: counters, per-bucket histograms, spans,
        // gauges — the lock-free path may not drift from the reference
        // aggregation in any field.
        assert_eq!(live.snapshot(), oracle.report());
    }

    #[test]
    fn fanout_feeds_live_and_oracle_alike() {
        let live = Arc::new(LiveRecorder::new());
        let oracle = Arc::new(MutexRecorder::default());
        let h = RecorderHandle::fanout(vec![live.clone(), oracle.clone()]);
        h.add("both", 3);
        h.gauge_add("lvl", 2);
        h.observe("sizes", 9);
        assert_eq!(live.snapshot(), oracle.report());
        assert_eq!(live.snapshot().counter("both"), 3);
        assert_eq!(live.snapshot().gauges["lvl"].current, 2);
    }
}
