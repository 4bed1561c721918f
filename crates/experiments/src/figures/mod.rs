//! Figure regenerators: one module per results figure of the paper
//! (Figures 5–12), plus [`claims`], which checks the paper's in-text
//! numeric claims. Each regenerator returns named [`Table`]s with exactly
//! the rows/series the paper plots.

pub mod ablations;
pub mod claims;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod robustness;
pub mod scalability;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use netdiag_obs::{names, RecorderHandle};
use rand::rngs::StdRng;
use rand::SeedableRng;

use netdiag_topology::builders::{build_internet, Internet, InternetConfig};

use crate::output::{Cdf, Table};
use crate::runner::{
    prepare_with, run_trial_reference, run_trial_with, PlacementContext, RunConfig, TrialResult,
    TrialScratch,
};

/// How much work a figure regeneration does.
#[derive(Clone, Debug)]
pub struct FigureConfig {
    /// Sensor placements per scenario (paper: 10).
    pub placements: usize,
    /// Failure trials per placement (paper: 100).
    pub failures_per_placement: usize,
    /// Seed of the generated topology.
    pub topology_seed: u64,
    /// Base seed for placements and failures.
    pub base_seed: u64,
    /// Worker threads for trial collection; `0` (the default) means
    /// available parallelism. The CLI `--threads` flag sets this.
    pub threads: usize,
    /// Instrumentation sink shared by every placement and trial (no-op by
    /// default).
    pub recorder: RecorderHandle,
}

impl Default for FigureConfig {
    fn default() -> Self {
        FigureConfig {
            placements: 10,
            failures_per_placement: 100,
            topology_seed: 1,
            base_seed: 7,
            threads: 0,
            recorder: RecorderHandle::noop(),
        }
    }
}

impl FigureConfig {
    /// A fast configuration for tests and benches (3 x 5 trials).
    pub fn quick() -> Self {
        FigureConfig {
            placements: 3,
            failures_per_placement: 5,
            ..Default::default()
        }
    }

    /// The evaluation topology.
    pub fn internet(&self) -> Internet {
        build_internet(&InternetConfig {
            seed: self.topology_seed,
            ..InternetConfig::default()
        })
    }
}

/// A named output table (written as `<name>.csv`).
#[derive(Clone, Debug)]
pub struct FigureOutput {
    /// File stem, e.g. `fig6_tomo_sensitivity`.
    pub name: String,
    /// The data.
    pub table: Table,
}

impl FigureOutput {
    /// Creates a named output.
    pub fn new(name: impl Into<String>, table: Table) -> Self {
        FigureOutput {
            name: name.into(),
            table,
        }
    }
}

/// Seed of the failure RNG for trial `t` of placement `p`. Every trial
/// owns an independent RNG derived from `(base_seed, placement, trial)`,
/// so trials may run on any thread in any order and still draw exactly
/// the same failures.
fn trial_seed(base_seed: u64, p: usize, t: usize) -> u64 {
    base_seed
        ^ 0xABCD
        ^ (p as u64).wrapping_mul(0x85EB_CA6B)
        ^ (t as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
}

/// The worker count a config resolves to: `fc.threads`, or available
/// parallelism when 0.
fn resolved_threads(fc: &FigureConfig) -> usize {
    if fc.threads > 0 {
        fc.threads
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Phase 1 of a collection: one [`PlacementContext`] per placement, each
/// from its own derived seed, prepared on up to `threads` workers that
/// claim placements in turn (preparation order does not matter — the
/// seeds make every context independent of scheduling).
fn prepare_contexts(
    net: &Internet,
    cfg: &RunConfig,
    fc: &FigureConfig,
    threads: usize,
) -> Vec<PlacementContext> {
    let prepare_one = |p: usize| -> PlacementContext {
        let _trial = netdiag_obs::trial_scope(p as u32, netdiag_obs::SETUP_TRIAL);
        let mut prng = StdRng::seed_from_u64(fc.base_seed ^ (p as u64).wrapping_mul(0x9E37_79B9));
        prepare_with(net, cfg, &mut prng, fc.recorder.clone())
    };
    let workers = threads.min(fc.placements);
    if workers <= 1 {
        return (0..fc.placements).map(prepare_one).collect();
    }
    let next = AtomicUsize::new(0);
    let mut prepared: Vec<(usize, PlacementContext)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let p = next.fetch_add(1, Ordering::Relaxed);
                        if p >= fc.placements {
                            return mine;
                        }
                        mine.push((p, prepare_one(p)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("placement worker panicked"))
            .collect()
    });
    prepared.sort_unstable_by_key(|&(p, _)| p);
    prepared.into_iter().map(|(_, ctx)| ctx).collect()
}

/// Runs the paper's standard experiment loop for one scenario: `placements`
/// sensor placements, `failures_per_placement` unreachability-causing
/// failures each — on the production path (incremental reconvergence,
/// per-worker persistent scratch simulators, per-placement replay memo).
///
/// Work is distributed as a work-stealing pool over placement x trial
/// units: worker `w` starts at placement `w % placements` and drains it
/// with one persistent [`TrialScratch`] (restores between trials are `Arc`
/// bumps; only a placement switch rebuilds the scratch), then steals
/// trials from the next placements (`trial.pool.steal` counts those; a
/// lone worker walking the placements in order steals from nobody).
/// Every trial owns an independent seeded RNG and writes to its
/// `(placement, trial)` slot, so the output is deterministic and identical
/// to [`collect_trials_sequential`] regardless of scheduling —
/// `tests/parallel_parity.rs` enforces exactly that.
pub fn collect_trials(net: &Internet, cfg: &RunConfig, fc: &FigureConfig) -> Vec<TrialResult> {
    let threads = resolved_threads(fc);
    let contexts = prepare_contexts(net, cfg, fc, threads);

    let fpp = fc.failures_per_placement;
    let total = fc.placements * fpp;
    if total == 0 {
        return Vec::new();
    }
    let workers = threads.min(total);
    // Per-placement claim counters: a worker claims trial `t` of placement
    // `p` by incrementing `next[p]`. Draining one placement before moving
    // on keeps scratch simulators (and the replay memo's locality) warm.
    let next: Vec<AtomicUsize> = (0..fc.placements).map(|_| AtomicUsize::new(0)).collect();
    let slots: Vec<Mutex<Option<TrialResult>>> = (0..total).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let next = &next;
            let slots = &slots;
            let contexts = &contexts;
            scope.spawn(move || {
                let home = w % fc.placements;
                let mut scratch: Option<(usize, TrialScratch)> = None;
                for off in 0..fc.placements {
                    let p = (home + off) % fc.placements;
                    loop {
                        let t = next[p].fetch_add(1, Ordering::Relaxed);
                        if t >= fpp {
                            break; // placement drained: move (steal) on
                        }
                        if off > 0 && workers > 1 && fc.recorder.enabled() {
                            fc.recorder.add(names::TRIAL_POOL_STEAL, 1);
                        }
                        if scratch.as_ref().map(|(sp, _)| *sp) != Some(p) {
                            scratch = Some((p, TrialScratch::new(&contexts[p])));
                        }
                        let (_, sc) = scratch
                            .as_mut()
                            .expect("scratch installed for this placement");
                        let _trial = netdiag_obs::trial_scope(p as u32, t as u32);
                        let mut rng = StdRng::seed_from_u64(trial_seed(fc.base_seed, p, t));
                        let result = run_trial_with(&contexts[p], cfg, &mut rng, sc);
                        *slots[p * fpp + t].lock().expect("trial slot poisoned") = result;
                    }
                }
            });
        }
    });
    slots
        .into_iter()
        .filter_map(|m| m.into_inner().expect("trial slot poisoned"))
        .collect()
}

/// Single-threaded full-reconvergence baseline of [`collect_trials`]: same
/// derived seeds, same trial order, but every trial runs on
/// [`run_trial_reference`] (fresh clone + snapshot per trial, full IGP/BGP
/// reconvergence per attempt, no memo) — the frozen pre-incremental
/// behavior. Tests use it as the parity oracle; benches measure the
/// production pool against it.
pub fn collect_trials_sequential(
    net: &Internet,
    cfg: &RunConfig,
    fc: &FigureConfig,
) -> Vec<TrialResult> {
    let contexts = prepare_contexts(net, cfg, fc, 1);
    let mut out: Vec<Option<TrialResult>> =
        Vec::with_capacity(fc.placements * fc.failures_per_placement);
    for (p, ctx) in contexts.iter().enumerate() {
        for t in 0..fc.failures_per_placement {
            let _trial = netdiag_obs::trial_scope(p as u32, t as u32);
            let mut rng = StdRng::seed_from_u64(trial_seed(fc.base_seed, p, t));
            out.push(run_trial_reference(ctx, cfg, &mut rng));
        }
    }
    out.into_iter().flatten().collect()
}

/// Collects a metric from trials into a CDF.
pub fn cdf_of(trials: &[TrialResult], f: impl Fn(&TrialResult) -> f64) -> Cdf {
    Cdf::new(trials.iter().map(f).collect())
}

/// Grid resolution for CDF tables.
pub const CDF_STEPS: usize = 20;

/// Builds a CDF table with one `x` column and one column per named series.
pub fn cdf_table(series: &[(&str, &Cdf)]) -> Table {
    let mut header = vec!["x"];
    header.extend(series.iter().map(|(n, _)| *n));
    let mut table = Table::new(&header);
    for i in 0..=CDF_STEPS {
        let x = i as f64 / CDF_STEPS as f64;
        let mut row = vec![crate::output::f4(x)];
        row.extend(series.iter().map(|(_, c)| crate::output::f4(c.at(x))));
        table.row(&row);
    }
    table
}
