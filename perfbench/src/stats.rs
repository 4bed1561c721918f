//! Sample statistics, bench-side span accounting and process probes
//! shared by every workload.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Linear-interpolated `q`-quantile (`0 <= q <= 1`) of `values`; 0 when
/// empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Seconds as `f64`.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Nanoseconds elapsed since `t`.
pub fn nanos_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Derives the `k`-th sub-seed of `seed` (splitmix64), so every input a
/// workload generates follows from the one `--seed`.
pub fn derive(seed: u64, k: u64) -> u64 {
    let mut z = seed ^ k.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Worker count every workload uses: the machine's available
/// parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Resets this process's peak-RSS mark (`VmHWM`) so the next
/// [`peak_rss_mb`] covers only what runs after it. Returns false where
/// the kernel does not offer the reset; the peak then covers the whole
/// process.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bench-side spans: wall time of calls into the library, keyed by the
/// layer metric they feed. Spans never nest, so a span's self time is its
/// duration, and whatever a timed loop spends outside every span is the
/// unattributed remainder.
#[derive(Default)]
pub struct Spans {
    series: BTreeMap<&'static str, Vec<u64>>,
    /// Time spent on bench-only work inside a timed loop (reference
    /// computations for correctness checks), excluded from its wall.
    excluded_ns: u64,
}

impl Spans {
    /// Runs `f` inside span `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = black_box(f());
        self.add(name, nanos_since(t));
        r
    }

    /// Records one sample of `ns` nanoseconds under `name`.
    pub fn add(&mut self, name: &'static str, ns: u64) {
        self.series.entry(name).or_default().push(ns);
    }

    /// Runs bench-only work whose time must not count toward the loop.
    pub fn exclude<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.excluded_ns += nanos_since(t);
        r
    }

    /// Excluded nanoseconds so far.
    pub fn excluded_ns(&self) -> u64 {
        self.excluded_ns
    }

    /// Sum of every span sample, nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.series.values().flatten().sum()
    }

    /// The `q`-quantile of span `name` in microseconds (0 when unseen).
    pub fn quantile_us(&self, name: &str, q: f64) -> f64 {
        self.series.get(name).map_or(0.0, |v| {
            let us: Vec<f64> = v.iter().map(|&ns| ns as f64 / 1e3).collect();
            quantile(&us, q)
        })
    }

    /// Median of span `name` in microseconds.
    pub fn p50_us(&self, name: &str) -> f64 {
        self.quantile_us(name, 0.5)
    }

    /// Samples recorded under `name`.
    pub fn count(&self, name: &str) -> usize {
        self.series.get(name).map_or(0, Vec::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn seeds_derive_distinct_streams() {
        assert_ne!(derive(1, 0), derive(1, 1));
        assert_ne!(derive(1, 0), derive(2, 0));
        assert_eq!(derive(7, 3), derive(7, 3));
    }
}
