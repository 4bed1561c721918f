//! Minimum-hitting-set machinery.
//!
//! The multi-source multi-destination Boolean tomography problem is an
//! instance of Minimum Hitting Set (§2.3 of the paper): find the smallest
//! set of links intersecting every failure set without touching any working
//! path. This module provides the paper's greedy heuristic (with the
//! weighted failure/reroute scoring of §3.2 and the link clusters of §3.4)
//! plus an exact branch-and-bound solver used as a test oracle and for the
//! greedy-vs-exact ablation bench.
//!
//! All edge sets are dense [`EdgeBitSet`]s: membership is one word load and
//! greedy scoring is popcount work, but iteration order (ascending edge id)
//! matches the `BTreeSet` representation this replaced, so the greedy's
//! tie-breaking — and therefore every hypothesis — is bit-identical.

use std::collections::{BTreeMap, BTreeSet};

use netdiag_obs::{names, RecorderHandle};

use crate::bitset::EdgeBitSet;
use crate::graph::EdgeId;

/// Scoring weights: `score(ℓ) = a·|C(ℓ)| + b·|R(ℓ)|` (§3.2; the paper uses
/// `a = b = 1`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Weights {
    /// Weight of unexplained failure sets.
    pub a: u32,
    /// Weight of unexplained reroute sets.
    pub b: u32,
}

impl Default for Weights {
    fn default() -> Self {
        Weights { a: 1, b: 1 }
    }
}

/// A hitting-set instance over graph edges.
///
/// ```
/// use netdiagnoser::{EdgeBitSet, EdgeId, HittingSetInstance, Weights};
///
/// // Two broken paths share edge 0: the greedy explains both with it.
/// let inst = HittingSetInstance {
///     failure_sets: vec![
///         EdgeBitSet::from([EdgeId(0), EdgeId(1)]),
///         EdgeBitSet::from([EdgeId(0), EdgeId(2)]),
///     ],
///     reroute_sets: vec![],
///     candidates: EdgeBitSet::from([EdgeId(0), EdgeId(1), EdgeId(2)]),
///     clusters: Default::default(),
/// };
/// let result = inst.greedy(Weights::default());
/// assert_eq!(result.hypothesis, vec![EdgeId(0)]);
/// // The exact solver agrees this is minimal.
/// assert_eq!(inst.exact(3).unwrap(), vec![EdgeId(0)]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct HittingSetInstance {
    /// Failure sets (must be hit; weight `a`).
    pub failure_sets: Vec<EdgeBitSet>,
    /// Reroute sets (must be hit; weight `b`).
    pub reroute_sets: Vec<EdgeBitSet>,
    /// Candidate edges the hypothesis may draw from.
    pub candidates: EdgeBitSet,
    /// Link clusters (§3.4): for an unidentified link, the other links
    /// believed to be the same physical link. Covering one covers the
    /// failure sets of all cluster members.
    pub clusters: BTreeMap<EdgeId, Vec<EdgeId>>,
}

/// Result of the greedy heuristic.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GreedyResult {
    /// The hypothesis set, in selection order.
    pub hypothesis: Vec<EdgeId>,
    /// Indices of failure sets left unexplained (no candidate hits them).
    pub unexplained_failures: Vec<usize>,
    /// Indices of reroute sets left unexplained.
    pub unexplained_reroutes: Vec<usize>,
}

impl HittingSetInstance {
    /// The paper's greedy heuristic (Algorithm 1, extended with reroute
    /// sets and clusters). In each iteration *every* edge achieving the
    /// maximum score is added (Algorithm 1, lines 13–16). Stops when all
    /// sets are explained, candidates run out, or no candidate scores > 0.
    pub fn greedy(&self, weights: Weights) -> GreedyResult {
        self.greedy_recorded(weights, &RecorderHandle::noop())
    }

    /// [`HittingSetInstance::greedy`] reporting `hs.greedy_iters`, the
    /// `hs.candidates` instance size, and the bitset words touched by
    /// scoring (`hitting_set.words_scanned`) to `recorder`.
    pub fn greedy_recorded(&self, weights: Weights, recorder: &RecorderHandle) -> GreedyResult {
        let mut unexplained_f: BTreeSet<usize> = (0..self.failure_sets.len()).collect();
        let mut unexplained_r: BTreeSet<usize> = (0..self.reroute_sets.len()).collect();
        let mut candidates = self.candidates.clone();
        let mut hypothesis = Vec::new();
        let mut iterations: u64 = 0;
        let mut words_scanned: u64 = 0;

        // Coverage bitsets, built only for clustered candidates (clusters
        // are empty outside ND-LG): an unclustered edge covers via a single
        // `contains`, a clustered one via a word-wise intersection.
        let groups: BTreeMap<EdgeId, EdgeBitSet> = self
            .clusters
            .iter()
            .map(|(&e, members)| {
                let mut g: EdgeBitSet = members.iter().copied().collect();
                g.insert(e);
                (e, g)
            })
            .collect();
        let hits = |set: &EdgeBitSet, e: EdgeId, words: &mut u64| -> bool {
            match groups.get(&e) {
                Some(g) => {
                    *words += set.words().len().min(g.words().len()).max(1) as u64;
                    set.intersects(g)
                }
                None => {
                    *words += 1;
                    set.contains(e)
                }
            }
        };

        recorder.event(names::EV_HS_BEGIN, || {
            netdiag_obs::EventPayload::new()
                .field("candidates", self.candidates.len())
                .field("failures", self.failure_sets.len())
                .field("reroutes", self.reroute_sets.len())
                .field("clusters", self.clusters.len())
        });

        // Loop while work remains (Algorithm 1 line 7): some set is still
        // unexplained and candidates are left.
        #[allow(clippy::nonminimal_bool)] // mirrors the paper's condition
        while !candidates.is_empty() && !(unexplained_f.is_empty() && unexplained_r.is_empty()) {
            iterations += 1;
            // Score every candidate (ascending edge id, the BTreeSet order).
            let mut best_score = 0u64;
            let mut best: Vec<EdgeId> = Vec::new();
            for e in candidates.iter() {
                let c = unexplained_f
                    .iter()
                    .filter(|&&i| hits(&self.failure_sets[i], e, &mut words_scanned))
                    .count() as u64;
                let r = unexplained_r
                    .iter()
                    .filter(|&&i| hits(&self.reroute_sets[i], e, &mut words_scanned))
                    .count() as u64;
                let score = u64::from(weights.a) * c + u64::from(weights.b) * r;
                match score.cmp(&best_score) {
                    std::cmp::Ordering::Greater => {
                        best_score = score;
                        best = vec![e];
                    }
                    std::cmp::Ordering::Equal if score > 0 => best.push(e),
                    _ => {}
                }
            }
            if best_score == 0 {
                break; // remaining sets cannot be explained by any candidate
            }
            for e in best {
                // Trace-only coverage capture *before* the retains, with a
                // scratch counter so `words_scanned` stays identical with
                // and without tracing.
                let covered = recorder.trace_enabled().then(|| {
                    let mut scratch = 0u64;
                    let covered_f: Vec<netdiag_obs::Value> = unexplained_f
                        .iter()
                        .filter(|&&i| hits(&self.failure_sets[i], e, &mut scratch))
                        .map(|&i| netdiag_obs::Value::from(i))
                        .collect();
                    let covered_r: Vec<netdiag_obs::Value> = unexplained_r
                        .iter()
                        .filter(|&&i| hits(&self.reroute_sets[i], e, &mut scratch))
                        .map(|&i| netdiag_obs::Value::from(i))
                        .collect();
                    (covered_f, covered_r)
                });
                unexplained_f.retain(|&i| !hits(&self.failure_sets[i], e, &mut words_scanned));
                unexplained_r.retain(|&i| !hits(&self.reroute_sets[i], e, &mut words_scanned));
                candidates.remove(e);
                hypothesis.push(e);
                if let Some((covered_f, covered_r)) = covered {
                    recorder.event(names::EV_HS_PICK, || {
                        netdiag_obs::EventPayload::new()
                            .field("iter", iterations)
                            .field("edge", e.index())
                            .field("score", best_score)
                            .field("covered_failures", covered_f)
                            .field("covered_reroutes", covered_r)
                            .field("remaining_failures", unexplained_f.len())
                            .field("remaining_reroutes", unexplained_r.len())
                    });
                }
            }
        }

        if recorder.enabled() {
            recorder.add(names::HS_GREEDY_ITERS, iterations);
            recorder.observe(names::HS_CANDIDATES, self.candidates.len() as u64);
            recorder.add(names::HS_WORDS_SCANNED, words_scanned);
        }

        GreedyResult {
            hypothesis,
            unexplained_failures: unexplained_f.into_iter().collect(),
            unexplained_reroutes: unexplained_r.into_iter().collect(),
        }
    }

    /// Exact minimum hitting set via iterative-deepening branch and bound
    /// (ignores clusters; failure and reroute sets are all treated as
    /// must-hit). Branches on the smallest unhit set. Returns `None` when
    /// no hitting set exists within `max_size` — or when the node budget
    /// (10M expansions) runs out; use only on modest instances.
    pub fn exact(&self, max_size: usize) -> Option<Vec<EdgeId>> {
        // Restrict each set to candidates; an empty restricted set is
        // unhittable.
        let sets: Vec<Vec<EdgeId>> = self
            .failure_sets
            .iter()
            .chain(self.reroute_sets.iter())
            .map(|s| s.iter().filter(|&e| self.candidates.contains(e)).collect())
            .collect();
        if sets.iter().any(|s: &Vec<EdgeId>| s.is_empty()) {
            return None;
        }
        let mut nodes: u64 = 10_000_000;
        for k in 0..=max_size {
            let mut chosen = Vec::new();
            if Self::search(&sets, &mut chosen, k, &mut nodes) {
                chosen.sort_unstable();
                return Some(chosen);
            }
            if nodes == 0 {
                return None; // budget exhausted: give up
            }
        }
        None
    }

    /// Depth-limited search: hit every set using at most `budget` more
    /// elements, branching on the smallest unhit set.
    fn search(
        sets: &[Vec<EdgeId>],
        chosen: &mut Vec<EdgeId>,
        budget: usize,
        nodes: &mut u64,
    ) -> bool {
        if *nodes == 0 {
            return false;
        }
        *nodes -= 1;
        // Pick the smallest unhit set (fewest branches).
        let unhit = sets
            .iter()
            .filter(|s| !s.iter().any(|e| chosen.contains(e)))
            .min_by_key(|s| s.len());
        let Some(unhit) = unhit else {
            return true; // all hit
        };
        if budget == 0 {
            return false;
        }
        for &e in unhit {
            chosen.push(e);
            if Self::search(sets, chosen, budget - 1, nodes) {
                return true;
            }
            chosen.pop();
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32) -> EdgeId {
        EdgeId(i)
    }

    fn set(ids: &[u32]) -> EdgeBitSet {
        ids.iter().map(|&i| e(i)).collect()
    }

    fn instance(fail: &[&[u32]], cands: &[u32]) -> HittingSetInstance {
        HittingSetInstance {
            failure_sets: fail.iter().map(|s| set(s)).collect(),
            reroute_sets: Vec::new(),
            candidates: set(cands),
            clusters: BTreeMap::new(),
        }
    }

    #[test]
    fn single_set_picks_all_ties() {
        // One failure set {0,1,2}: all three tie at score 1 -> all added
        // (the paper's Algorithm 1 adds the entire argmax set).
        let inst = instance(&[&[0, 1, 2]], &[0, 1, 2]);
        let r = inst.greedy(Weights::default());
        assert_eq!(r.hypothesis.len(), 3);
        assert!(r.unexplained_failures.is_empty());
    }

    #[test]
    fn shared_edge_wins() {
        // Sets {0,1}, {0,2}: edge 0 hits both, chosen alone.
        let inst = instance(&[&[0, 1], &[0, 2]], &[0, 1, 2]);
        let r = inst.greedy(Weights::default());
        assert_eq!(r.hypothesis, vec![e(0)]);
    }

    #[test]
    fn working_links_not_candidates() {
        // Set {0,1} but only 1 is a candidate (0 was on a working path).
        let inst = instance(&[&[0, 1]], &[1]);
        let r = inst.greedy(Weights::default());
        assert_eq!(r.hypothesis, vec![e(1)]);
    }

    #[test]
    fn unexplainable_set_reported() {
        // Set {0} with empty candidates: greedy stops, reports index 0.
        let inst = instance(&[&[0]], &[]);
        let r = inst.greedy(Weights::default());
        assert!(r.hypothesis.is_empty());
        assert_eq!(r.unexplained_failures, vec![0]);
    }

    #[test]
    fn reroute_sets_contribute_to_score() {
        // Failure set {1}; reroute set {0}. Both must be hit.
        let inst = HittingSetInstance {
            failure_sets: vec![set(&[1])],
            reroute_sets: vec![set(&[0])],
            candidates: set(&[0, 1]),
            clusters: BTreeMap::new(),
        };
        let r = inst.greedy(Weights::default());
        let h: BTreeSet<_> = r.hypothesis.iter().copied().collect();
        assert_eq!(h, set(&[0, 1]).iter().collect());
        assert!(r.unexplained_reroutes.is_empty());
    }

    #[test]
    fn weights_bias_choice() {
        // Edge 0 covers 2 reroute sets, edge 1 covers 1 failure set; with
        // a=10, b=1 the failure edge scores higher and is picked first.
        let inst = HittingSetInstance {
            failure_sets: vec![set(&[1])],
            reroute_sets: vec![set(&[0]), set(&[0])],
            candidates: set(&[0, 1]),
            clusters: BTreeMap::new(),
        };
        let r = inst.greedy(Weights { a: 10, b: 1 });
        assert_eq!(r.hypothesis[0], e(1));
    }

    #[test]
    fn clusters_extend_coverage() {
        // Edge 0 clusters with edge 5; failure sets {0} and {5}. Picking 0
        // explains both.
        let mut clusters = BTreeMap::new();
        clusters.insert(e(0), vec![e(5)]);
        let inst = HittingSetInstance {
            failure_sets: vec![set(&[0]), set(&[5])],
            reroute_sets: Vec::new(),
            candidates: set(&[0]),
            clusters,
        };
        let r = inst.greedy(Weights::default());
        assert_eq!(r.hypothesis, vec![e(0)]);
        assert!(r.unexplained_failures.is_empty());
    }

    #[test]
    fn exact_finds_minimum() {
        // Greedy can be fooled; exact cannot. Sets: {0,1},{0,2},{1,2}:
        // minimum hitting set has size 2.
        let inst = instance(&[&[0, 1], &[0, 2], &[1, 2]], &[0, 1, 2]);
        let exact = inst.exact(3).unwrap();
        assert_eq!(exact.len(), 2);
    }

    #[test]
    fn exact_none_when_unhittable() {
        let inst = instance(&[&[0]], &[1]);
        assert_eq!(inst.exact(5), None);
    }

    #[test]
    fn exact_respects_max_size() {
        let inst = instance(&[&[0], &[1], &[2]], &[0, 1, 2]);
        assert_eq!(inst.exact(2), None);
        assert_eq!(inst.exact(3).unwrap().len(), 3);
    }

    #[test]
    fn greedy_is_deterministic() {
        let inst = instance(&[&[0, 1], &[2, 3], &[0, 2]], &[0, 1, 2, 3]);
        let r1 = inst.greedy(Weights::default());
        let r2 = inst.greedy(Weights::default());
        assert_eq!(r1, r2);
    }

    #[test]
    fn words_scanned_reported() {
        use netdiag_obs::RecorderHandle;
        let inst = instance(&[&[0, 1], &[0, 2]], &[0, 1, 2]);
        let (recorder, sink) = RecorderHandle::live();
        inst.greedy_recorded(Weights::default(), &recorder);
        let report = sink.snapshot();
        assert!(report.counter("hitting_set.words_scanned") > 0);
    }
}
