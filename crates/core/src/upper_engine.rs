//! The upper frontier policy: §III over-representation detection without
//! the per-`k` rescan.
//!
//! The per-`k` rescan ([`crate::upper::upper_most_specific`], one
//! instantiation of the depth-first most-specific search in `topdown.rs`)
//! re-runs a fresh DFS plus `O(m·card)` maximality probes at **every**
//! `k` — exactly the cost blow-up the paper's Algorithms 2–3 eliminate
//! for the lower-bound problems. This policy maintains the answer over
//! the same incremental [`PatternTree`] as the lower one; the rescan
//! stays as the tree-independent reference it is checked against.
//!
//! Qualification here is `s_D(p) ≥ τs ∧ s_Rk(p) > U_k`, which is
//! **subset-closed**: both counts are anti-monotone in specialization, so
//! a subset of a qualifying pattern qualifies. On top of the tree's exact
//! counts the policy keeps these invariants between `k` values:
//!
//! * **tree closure** — every qualifying node is expanded (its search-tree
//!   children are live), so the live store always covers the full
//!   qualifying set plus one boundary layer. With `U_k` fixed, counts only
//!   grow, so nodes only *start* qualifying — the closure is repaired by
//!   expanding exactly the newly qualifying nodes (and, recursively, their
//!   fresh qualifying children);
//! * **maximal frontier** — the reported most-specific patterns. A pattern
//!   leaves the frontier only when a one-term extension starts qualifying,
//!   and every such extension is itself a live node when it flips (its
//!   tree prefixes are subsets, hence qualify, hence are expanded). So the
//!   per-step frontier delta is: drop the one-term subsets of each newly
//!   qualifying node, then run the `O(m·card)` maximality probe **only on
//!   the newly qualifying nodes** — not on the whole qualifying set as the
//!   per-`k` rescan does. Probes read stored nodes exclusively: an
//!   extension outside the live closure has a non-qualifying (unopened)
//!   prefix, so by subset-closure it cannot qualify — no probe ever costs
//!   a fresh pattern evaluation.
//!
//! On an upper-bound step (`U_k ≠ U_{k-1}`) nodes can flip in both
//! directions, so the policy reclassifies the whole live store in one
//! pass — a store rescan with zero fresh evaluations, not a from-scratch
//! rebuild — expands any newly qualifying region, and applies the same
//! frontier delta with the *lost* nodes folded in: a lost node leaves the
//! frontier, and its still-qualifying one-term subsets (for which it may
//! have been the last qualifying blocker) join the probe candidates.
//! Probes stay confined to the flipped region, so bounds that change at
//! every `k` (e.g. [`Bounds::LinearFraction`]) remain incremental;
//! decreasing bounds are covered too, since the growing qualifying set is
//! re-covered by the expansion cascade.
//!
//! For [`OverRepScope::MostGeneral`] the answer collapses: the qualifying
//! set is subset-closed, so every qualifying multi-term pattern has a
//! qualifying single-term subset, and the most general qualifying patterns
//! are exactly the qualifying **single-term** patterns. The policy then
//! maintains only the root level of the store.

use crate::audit::OverRepScope;
use crate::bounds::Bounds;
use crate::pattern::Pattern;
use crate::space::{AttrId, CountsProvider, PatternSpace};
use crate::stats::{DeadlineGuard, DetectConfig, DetectionOutput};
use crate::tree::{Frontier, PatternTree, Stream, NOT_LIVE};
use crate::util::FxHashSet;
use rankfair_data::ValueCode;

/// The upper policy: the bound, the scope and the maximal frontier.
pub(crate) struct Upper {
    upper: Bounds,
    scope: OverRepScope,
    /// `U_k` of the step in progress, set before any node is classified.
    u: usize,
    /// Node ids of the maximal frontier (most-specific qualifying
    /// patterns). Unused for [`OverRepScope::MostGeneral`].
    maximal: FxHashSet<u32>,
}

impl Upper {
    pub(crate) fn new(upper: Bounds, scope: OverRepScope) -> Self {
        Upper {
            upper,
            scope,
            u: 0,
            maximal: FxHashSet::default(),
        }
    }
}

impl Frontier for Upper {
    type Snap = FxHashSet<u32>;

    fn on_live<I: CountsProvider>(t: &mut PatternTree<'_, I, Self>, id: u32, _k: usize) {
        t.marked[id as usize] = t.counts[id as usize] as usize > t.frontier.u;
    }

    /// Brings the root level live, grows the closure over the qualifying
    /// set and computes the frontier (every qualifying node is "fresh",
    /// so the delta probes each exactly once).
    fn build<I: CountsProvider>(
        t: &mut PatternTree<'_, I, Self>,
        k: usize,
        guard: &mut DeadlineGuard,
    ) -> bool {
        if guard.expired() {
            return false;
        }
        t.frontier.u = t.frontier.upper.at(k);
        t.stats.full_searches += 1;
        t.activate_roots(k);
        if t.frontier.scope == OverRepScope::MostGeneral {
            return true;
        }
        let mut fresh: Vec<u32> = t
            .arena
            .root_children
            .iter()
            .copied()
            .filter(|&id| t.marked[id as usize])
            .collect();
        t.cascade(&mut fresh, k, guard) && t.apply_frontier_delta(&fresh, &[], guard)
    }

    /// With an unchanged bound: walk the new tuple's subtree, repair the
    /// closure and apply the frontier delta (counts only grow, so no node
    /// can stop qualifying). Across a bound change `U_{k-1} ≠ U_k`: walk,
    /// then [`Self::reclassify`] the entire live store (no fresh
    /// evaluations) — increasing *and* decreasing bounds, with frontier
    /// probes confined to the flipped region, so even a bound that
    /// changes at every `k` keeps the policy incremental.
    fn advance<I: CountsProvider>(
        t: &mut PatternTree<'_, I, Self>,
        k: usize,
        guard: &mut DeadlineGuard,
    ) -> bool {
        if guard.expired() {
            return false;
        }
        let u = t.frontier.upper.at(k);
        if u != t.frontier.upper.at(k - 1) {
            t.walk(k - 1, true, |_, _| {});
            return Self::reclassify(t, k, &[], guard);
        }
        t.frontier.u = u;
        let mut fresh = Vec::new();
        t.walk(k - 1, true, |t, id| {
            if !t.marked[id as usize] && (t.counts[id as usize] as usize) > u {
                t.marked[id as usize] = true;
                fresh.push(id);
            }
        });
        if t.frontier.scope == OverRepScope::MostGeneral {
            return true;
        }
        t.cascade(&mut fresh, k, guard) && t.apply_frontier_delta(&fresh, &[], guard)
    }

    /// Reclassifies every live node under `U_k` after counts or the bound
    /// moved in bulk, repairs the closure where the qualifying set grew,
    /// and applies the frontier delta with both gains and losses. Counts
    /// are classified directly, so `decremented` needs no extra handling.
    fn reclassify<I: CountsProvider>(
        t: &mut PatternTree<'_, I, Self>,
        k: usize,
        _decremented: &[u32],
        guard: &mut DeadlineGuard,
    ) -> bool {
        let u = t.frontier.upper.at(k);
        t.frontier.u = u;
        let mut fresh = Vec::new();
        let mut lost = Vec::new();
        t.rescan(|t, id| {
            let q = (t.counts[id as usize] as usize) > u;
            if q != t.marked[id as usize] {
                t.marked[id as usize] = q;
                if q {
                    fresh.push(id);
                } else {
                    lost.push(id);
                }
            }
        });
        if t.frontier.scope == OverRepScope::MostGeneral {
            return true;
        }
        t.cascade(&mut fresh, k, guard) && t.apply_frontier_delta(&fresh, &lost, guard)
    }

    fn clear(&mut self) {
        self.maximal.clear();
    }

    fn snap(&self) -> FxHashSet<u32> {
        self.maximal.clone()
    }

    fn restore(&mut self, snap: &FxHashSet<u32>) {
        self.maximal = snap.clone();
    }

    fn results<I: CountsProvider>(t: &PatternTree<'_, I, Self>) -> Vec<Pattern> {
        let pattern = |&id: &u32| t.arena.nodes[id as usize].pattern.clone();
        match t.frontier.scope {
            OverRepScope::MostSpecific => t.frontier.maximal.iter().map(pattern).collect(),
            OverRepScope::MostGeneral => t
                .arena
                .root_children
                .iter()
                .filter(|&&id| t.marked[id as usize])
                .map(pattern)
                .collect(),
        }
    }
}

/// The upper policy's steps. `marked` is qualification under the current
/// `(k, U_k)`.
impl<I: CountsProvider> PatternTree<'_, I, Upper> {
    /// Repairs the tree closure. Every node in `fresh` (newly qualifying)
    /// is opened; children that qualify join the worklist, so the closure
    /// grows to cover the whole new qualifying region.
    fn cascade(&mut self, fresh: &mut Vec<u32>, k: usize, guard: &mut DeadlineGuard) -> bool {
        let mut i = 0;
        while i < fresh.len() {
            if guard.expired() {
                return false;
            }
            let id = fresh[i];
            i += 1;
            // An already open node re-qualifies after a bound step: its
            // children are live and walked, and their own flips were
            // collected independently.
            if self.expand(id, k) {
                let children = &self.arena.nodes[id as usize].children;
                fresh.extend(children.iter().filter(|&&c| self.marked[c as usize]));
            }
        }
        true
    }

    /// Whether any one-term extension of `id` qualifies under the current
    /// bound — entirely from live state, with **zero** fresh pattern
    /// evaluations: a `lookup` miss means some tree prefix of the
    /// extension is unopened, i.e. non-qualifying, and qualification is
    /// subset-closed, so the extension cannot qualify either. Returns
    /// `None` on deadline expiry.
    fn probe_maximal(&mut self, id: u32, guard: &mut DeadlineGuard) -> Option<bool> {
        let pattern = self.arena.nodes[id as usize].pattern.clone();
        let m = self.space.n_attrs() as AttrId;
        let mut ext: Vec<(AttrId, ValueCode)> = Vec::with_capacity(pattern.len() + 1);
        for a in 0..m {
            if pattern.value_of(a).is_some() {
                continue;
            }
            for v in self.space.value_codes(a) {
                if guard.expired() {
                    return None;
                }
                ext.clear();
                ext.extend_from_slice(pattern.terms());
                ext.push((a, v));
                ext.sort_unstable();
                if let Some(eid) = self.lookup(&ext) {
                    self.stats.nodes_touched += 1;
                    debug_assert!(self.counts[eid as usize] != NOT_LIVE);
                    if self.marked[eid as usize] {
                        return Some(false);
                    }
                }
            }
        }
        Some(true)
    }

    /// Applies the frontier delta once a step has finalized every
    /// qualification flag and repaired the closure. `fresh` holds the
    /// nodes that started qualifying, `lost` those that stopped (possible
    /// only on bound steps and repairs).
    ///
    /// Correctness: a pattern's frontier membership changes only when (a)
    /// it flips qualification itself, or (b) a one-term extension flips —
    /// and every extension that flips is a live node in `fresh`/`lost`
    /// (its tree prefixes are subsets, hence qualify(ed), hence are
    /// expanded). Exits are therefore the lost nodes plus the one-term
    /// subsets of fresh nodes; entry candidates are the fresh nodes plus
    /// the still-qualifying one-term subsets of lost nodes (the lost
    /// extension may have been their last qualifying blocker). Only the
    /// entry candidates are probed — never the whole qualifying set.
    fn apply_frontier_delta(
        &mut self,
        fresh: &[u32],
        lost: &[u32],
        guard: &mut DeadlineGuard,
    ) -> bool {
        for &id in lost {
            self.frontier.maximal.remove(&id);
        }
        for &id in fresh {
            for sid in self.one_term_subset_ids(id) {
                self.frontier.maximal.remove(&sid);
            }
        }
        let mut cands: Vec<u32> = fresh.to_vec();
        let mut seen: FxHashSet<u32> = fresh.iter().copied().collect();
        for &id in lost {
            for sid in self.one_term_subset_ids(id) {
                if self.marked[sid as usize] && seen.insert(sid) {
                    cands.push(sid);
                }
            }
        }
        for id in cands {
            // A candidate already in the frontier kept its verdict: any
            // newly qualifying extension would have evicted it above.
            if !self.marked[id as usize] || self.frontier.maximal.contains(&id) {
                continue;
            }
            match self.probe_maximal(id, guard) {
                None => return false,
                Some(true) => {
                    self.frontier.maximal.insert(id);
                }
                Some(false) => {}
            }
        }
        true
    }
}

/// Batch driver: runs the incremental upper policy over the whole `k`
/// range.
pub(crate) fn upper_incremental<I: CountsProvider>(
    index: &I,
    space: &PatternSpace,
    cfg: &DetectConfig,
    upper: &Bounds,
    scope: OverRepScope,
) -> DetectionOutput {
    Stream::new(index, space, cfg, Upper::new(upper.clone(), scope)).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::SearchStats;
    use crate::tree::tests::{fig1, seeks_checkpoints, segmented_spans, upper_cases};
    use crate::upper::{upper_most_general_single_k, upper_most_specific};

    #[test]
    fn incremental_matches_per_k_search_on_fig1() {
        let (space, index) = fig1();
        for tau in [1, 2, 4] {
            for u in [0, 1, 2, 4] {
                let cfg = DetectConfig::new(tau, 2, 16);
                let bounds = Bounds::constant(u);
                let rescan = upper_most_specific(&index, &space, &cfg, &bounds).per_k;
                for scope in [OverRepScope::MostSpecific, OverRepScope::MostGeneral] {
                    let per_k = upper_incremental(&index, &space, &cfg, &bounds, scope).per_k;
                    assert_eq!(per_k.len(), 15);
                    for (kr, specific) in per_k.iter().zip(&rescan) {
                        let want = match scope {
                            OverRepScope::MostSpecific => specific.patterns.clone(),
                            OverRepScope::MostGeneral => upper_most_general_single_k(
                                &index,
                                &space,
                                tau,
                                kr.k,
                                u,
                                &mut SearchStats::default(),
                            ),
                        };
                        assert_eq!(kr.patterns, want, "tau={tau} u={u} k={} {scope:?}", kr.k);
                    }
                }
            }
        }
    }

    #[test]
    fn incremental_matches_per_k_search_across_bound_steps() {
        let (space, index) = fig1();
        // Includes an increasing and a decreasing step, exercising the
        // store-rescan path in both directions.
        let bounds = Bounds::steps(vec![(0, 1), (6, 3), (11, 2)]);
        let cfg = DetectConfig::new(2, 2, 16);
        let per_k =
            upper_incremental(&index, &space, &cfg, &bounds, OverRepScope::MostSpecific).per_k;
        assert_eq!(
            per_k,
            upper_most_specific(&index, &space, &cfg, &bounds).per_k
        );
    }

    #[test]
    fn incremental_evaluates_fewer_nodes_than_per_k_rescan() {
        let (space, index) = fig1();
        let cfg = DetectConfig::new(2, 2, 16);
        let bounds = Bounds::constant(2);
        let inc_stats =
            upper_incremental(&index, &space, &cfg, &bounds, OverRepScope::MostSpecific).stats;
        let rescan = upper_most_specific(&index, &space, &cfg, &bounds).stats;
        assert!(
            inc_stats.nodes_evaluated < rescan.nodes_evaluated,
            "incremental {} >= rescan {}",
            inc_stats.nodes_evaluated,
            rescan.nodes_evaluated
        );
    }

    #[test]
    fn zero_deadline_truncates_and_flags() {
        let (space, index) = fig1();
        let cfg = DetectConfig::new(1, 2, 16).with_deadline(std::time::Duration::ZERO);
        let out = upper_incremental(
            &index,
            &space,
            &cfg,
            &Bounds::constant(1),
            OverRepScope::MostSpecific,
        );
        assert!(out.per_k.is_empty());
        assert!(out.stats.timed_out);
    }

    #[test]
    fn upper_replay_matches_batch_and_seeks_checkpoints() {
        let (space, index) = fig1();
        let cfg = DetectConfig::new(2, 2, 16);
        for (upper, scope, want) in upper_cases(&index, &space, &cfg) {
            let make = || Upper::new(upper.clone(), scope);
            let label = format!("{upper:?} {scope:?}");
            seeks_checkpoints(&index, &space, &cfg, &label, make, &want);
        }
    }

    #[test]
    fn upper_replay_segmented_spans_match_batch() {
        let (space, index) = fig1();
        let cfg = DetectConfig::new(2, 2, 16);
        for (upper, scope, want) in upper_cases(&index, &space, &cfg) {
            let make = || Upper::new(upper.clone(), scope);
            let label = format!("{upper:?} {scope:?}");
            segmented_spans(&index, &space, &cfg, &label, make, &want);
        }
    }
}
