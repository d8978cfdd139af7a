//! The lower frontier policy behind `GlobalBounds` (Algorithm 2) and
//! `PropBounds` (Algorithm 3): the most general under-represented
//! patterns, maintained over a [`PatternTree`].
//!
//! Between `k` values the policy keeps these invariants on top of the
//! tree's exact counts:
//!
//! * **pure bias** — whether a node is biased is always recomputed from
//!   `(count, s_D, k)`, never cached, so nodes masked below a biased
//!   ancestor can never go stale;
//! * **tracked frontier** — `Res` holds the biased substantial nodes with
//!   no biased proper subset (the output) and `DRes` the dominated ones,
//!   exactly the paper’s two sets; when a stopped node un-biases the engine
//!   resumes the suspended search from that node (the paper’s
//!   `searchFromNode`), promoting newly undominated `DRes` members;
//! * **`k̃` schedule** (proportional only) — every non-biased node is
//!   scheduled at the `k̃` where the growing bound `α·s_D·k/n` would first
//!   overtake its count; entries are validated lazily when popped, so a
//!   count bump simply moves the node’s flip to a later pop.
//!
//! For the global measure the bound is constant between bound steps and
//! counts only grow, so nodes can only *leave* the biased state — no
//! schedule is needed. Where Algorithm 2 (lines 4–5) re-runs the search
//! whenever `L_k` changes, every mode here — batch, stream and replay —
//! walks the entering tuple and reclassifies the live store instead, in
//! either direction and with zero fresh evaluations: the same
//! [`Frontier::reclassify`] pass that repairs a checkpoint.
//!
//! The over-representation side is the [`crate::upper_engine::Upper`]
//! policy over the same tree. The per-`k` search core in `topdown.rs`
//! (Algorithm 1's breadth-first search behind `IterTD`, and the
//! depth-first most-specific search behind the §III variants in
//! [`crate::upper`]) recomputes each `k` from scratch, independently of
//! the tree, and is what both policies are checked against.

use std::collections::VecDeque;

use crate::bounds::{BiasMeasure, Bounds};
use crate::pattern::Pattern;
use crate::space::{CountsProvider, PatternSpace};
use crate::stats::{DeadlineGuard, DetectConfig, DetectionOutput};
use crate::tree::{Frontier, PatternTree, Stream, NOT_LIVE, ROOT};
use crate::util::{FxHashMap, FxHashSet};

/// The lower policy: the bias measure and the `Res`/`DRes` frontier.
pub(crate) struct Lower {
    measure: BiasMeasure,
    /// `L_k` of the step in progress (global measure only), set before
    /// any node is classified: the bound lookup (a linear scan for
    /// [`Bounds::Steps`]) is hoisted out of the per-node predicate.
    l: usize,
    sets: LowerSets,
}

/// The lower policy's run state, and its part of a checkpoint.
#[derive(Debug, Clone, Default)]
pub(crate) struct LowerSets {
    res: FxHashSet<u32>,
    /// The dominated biased nodes (`DRes`), each mapped to its
    /// **designated dominator**: one current `res` member whose pattern
    /// is a proper subset. When a `res` member un-biases, only the nodes
    /// designated to it can have lost their last dominator — so the
    /// promotion scan touches `O(|designees|)`, not `O(|DRes|)`.
    dres: FxHashMap<u32, u32>,
    /// Reverse index: `res` member → nodes designated to it. Entries may
    /// be stale (the designee re-designated or removed); they are
    /// validated against `dres` when consumed.
    dominates: FxHashMap<u32, Vec<u32>>,
    /// `k̃` buckets indexed by `k` (0..=k_max, proportional only); entries
    /// may be stale and are re-validated when popped.
    schedule: Vec<Vec<u32>>,
}

impl LowerSets {
    /// Records `d`'s designation to `dom` in the reverse index. Lists are
    /// append-mostly with lazily validated (possibly duplicate) entries;
    /// when one outgrows twice the whole dominated set it is compacted in
    /// place — valid entries deduped, stale ones dropped — so a node
    /// flip-flopping under a long-lived dominator cannot grow the list
    /// (and every checkpoint clone of it) without bound.
    fn push_designee(&mut self, dom: u32, d: u32) {
        let dres = &self.dres;
        let list = self.dominates.entry(dom).or_default();
        list.push(d);
        if list.len() > 2 * dres.len() + 8 {
            list.retain(|&x| dres.get(&x) == Some(&dom));
            list.sort_unstable();
            list.dedup();
        }
    }
}

impl Lower {
    pub(crate) fn new(measure: BiasMeasure, k_max: usize) -> Self {
        let schedule = if measure.is_proportional() {
            vec![Vec::new(); k_max + 1]
        } else {
            Vec::new()
        };
        Lower {
            measure,
            l: 0,
            sets: LowerSets {
                schedule,
                ..LowerSets::default()
            },
        }
    }

    /// Enters the step at `k`: loads `L_k` for the global measure.
    fn enter(&mut self, k: usize) {
        if let BiasMeasure::GlobalLower(b) = &self.measure {
            self.l = b.at(k);
        }
    }
}

impl Frontier for Lower {
    type Snap = LowerSets;

    fn on_live<I: CountsProvider>(t: &mut PatternTree<'_, I, Self>, id: u32, k: usize) {
        if !t.is_biased(id, k) {
            t.schedule_push(id, k);
        }
    }

    /// Full top-down build at `k_min`. Breadth-first so dominance sees
    /// subsets before supersets. With a populated arena the whole pass
    /// runs on prefix recounts — fresh (batched child-count) evaluations
    /// happen only for never-seen patterns.
    fn build<I: CountsProvider>(
        t: &mut PatternTree<'_, I, Self>,
        k: usize,
        guard: &mut DeadlineGuard,
    ) -> bool {
        t.frontier.enter(k);
        t.stats.full_searches += 1;
        t.activate_roots(k);
        let mut queue: VecDeque<u32> = t.arena.root_children.iter().copied().collect();
        while let Some(id) = queue.pop_front() {
            if guard.expired() {
                return false;
            }
            if t.arena.pruned[id as usize] {
                continue;
            }
            if t.is_biased(id, k) {
                t.add_stopped(id);
            } else {
                t.expand(id, k);
                queue.extend(&t.arena.nodes[id as usize].children);
            }
        }
        true
    }

    /// Walks the entering tuple, drains the `k̃` schedule and applies
    /// transitions. Across a global bound change `L_{k-1} ≠ L_k` — up or
    /// down — the walk is followed by a store-wide [`Self::reclassify`]
    /// instead.
    fn advance<I: CountsProvider>(
        t: &mut PatternTree<'_, I, Self>,
        k: usize,
        guard: &mut DeadlineGuard,
    ) -> bool {
        if let BiasMeasure::GlobalLower(b) = &t.frontier.measure {
            if b.at(k) != b.at(k - 1) {
                t.walk(k - 1, true, |_, _| {});
                return Self::reclassify(t, k, &[], guard);
            }
        }
        t.frontier.enter(k);
        let mut cands = FxHashSet::default();
        t.walk_counts(k, &mut cands);
        t.pop_schedule(k, &mut cands);
        t.apply_transitions(k, cands, guard)
    }

    /// Reclassifies the whole store and applies the transitions, then
    /// refreshes the proportional `k̃` schedule for `decremented` nodes: a
    /// smaller count flips *earlier*, and a stale later entry would miss
    /// the flip — the inverse of the growth-only staleness
    /// `pop_schedule` tolerates.
    fn reclassify<I: CountsProvider>(
        t: &mut PatternTree<'_, I, Self>,
        k: usize,
        decremented: &[u32],
        guard: &mut DeadlineGuard,
    ) -> bool {
        t.frontier.enter(k);
        let mut cands = FxHashSet::default();
        t.rescan_all(k, &mut cands);
        if !t.apply_transitions(k, cands, guard) {
            return false;
        }
        for &id in decremented {
            if !t.arena.pruned[id as usize] && !t.marked[id as usize] {
                t.schedule_push(id, k);
            }
        }
        true
    }

    fn clear(&mut self) {
        self.sets.res.clear();
        self.sets.dres.clear();
        self.sets.dominates.clear();
        for bucket in &mut self.sets.schedule {
            bucket.clear();
        }
    }

    fn snap(&self) -> LowerSets {
        self.sets.clone()
    }

    fn restore(&mut self, snap: &LowerSets) {
        self.sets = snap.clone();
    }

    /// `Res`: the most general biased patterns.
    fn results<I: CountsProvider>(t: &PatternTree<'_, I, Self>) -> Vec<Pattern> {
        t.frontier
            .sets
            .res
            .iter()
            .map(|&id| t.arena.nodes[id as usize].pattern.clone())
            .collect()
    }
}

/// The lower policy's steps. `marked` is `Res ∪ DRes` membership.
impl<I: CountsProvider> PatternTree<'_, I, Lower> {
    #[inline]
    fn is_biased(&self, id: u32, k: usize) -> bool {
        debug_assert!(self.counts[id as usize] != NOT_LIVE);
        match &self.frontier.measure {
            // Same predicate as `BiasMeasure::is_biased` (`count < L_k`,
            // an exact integer compare — no drift possible), with `L_k`
            // loaded once per step instead of re-scanned for every
            // touched node.
            BiasMeasure::GlobalLower(_) => (self.counts[id as usize] as usize) < self.frontier.l,
            m => m.is_biased(
                self.counts[id as usize] as usize,
                self.arena.nodes[id as usize].sd as usize,
                k,
                self.n,
            ),
        }
    }

    /// Pushes a `k̃` entry for a currently non-biased node (proportional
    /// measure only; no-op otherwise or when the flip falls past `k_max`).
    fn schedule_push(&mut self, id: u32, k: usize) {
        let schedule = &mut self.frontier.sets.schedule;
        if schedule.is_empty() {
            return;
        }
        if let Some(kt) = self.frontier.measure.k_tilde(
            self.counts[id as usize] as usize,
            self.arena.nodes[id as usize].sd as usize,
            k,
            self.n,
        ) {
            if let Some(bucket) = schedule.get_mut(kt) {
                bucket.push(id);
            }
        }
    }

    /// Inserts a newly biased node into `Res`/`DRes`, demoting any `Res`
    /// members it dominates. Idempotent.
    fn add_stopped(&mut self, id: u32) {
        if self.marked[id as usize] {
            return;
        }
        self.marked[id as usize] = true;
        let nodes = &self.arena.nodes;
        let sets = &mut self.frontier.sets;
        let p = &nodes[id as usize].pattern;
        let dominator = sets
            .res
            .iter()
            .copied()
            .find(|&r| nodes[r as usize].pattern.is_subset_of(p));
        if let Some(dom) = dominator {
            sets.dres.insert(id, dom);
            sets.push_designee(dom, id);
            return;
        }
        let demote: Vec<u32> = sets
            .res
            .iter()
            .copied()
            .filter(|&r| p.is_proper_subset_of(&nodes[r as usize].pattern))
            .collect();
        let mut mine: Vec<u32> = Vec::new();
        for r in demote {
            sets.res.remove(&r);
            // Everything designated to `r` is also dominated by the
            // strictly more general `id` — re-point in O(designees).
            for d in sets.dominates.remove(&r).unwrap_or_default() {
                if sets.dres.get(&d) == Some(&r) {
                    sets.dres.insert(d, id);
                    mine.push(d);
                }
            }
            sets.dres.insert(r, id);
            mine.push(r);
        }
        if !mine.is_empty() {
            sets.dominates.entry(id).or_default().extend(mine);
        }
        sets.res.insert(id);
    }

    /// Removes a node that stopped being biased, promoting `DRes` members
    /// it was the last `Res` dominator of. Only the nodes *designated* to
    /// the removed member are candidates: every other dominated node has
    /// a designated dominator still in `res`, so it cannot have lost its
    /// last one. Candidates are processed most-general-first so a
    /// promoted pattern immediately dominates its own supersets.
    fn remove_stopped(&mut self, id: u32, k: usize) {
        self.marked[id as usize] = false;
        if !self.frontier.sets.res.remove(&id) {
            self.frontier.sets.dres.remove(&id);
            return;
        }
        let mut cands = self.frontier.sets.dominates.remove(&id).unwrap_or_default();
        cands.retain(|&d| self.frontier.sets.dres.get(&d) == Some(&id));
        cands.sort_by_key(|&d| (self.arena.nodes[d as usize].pattern.len(), d));
        for d in cands {
            // Designation lists can hold duplicates (a node designated
            // here, moved away, then designated here again): re-check so
            // a second occurrence of an already promoted or re-designated
            // node is skipped — processing it again would self-designate a
            // fresh `res` member into `dres`.
            if self.frontier.sets.dres.get(&d) != Some(&id) {
                continue;
            }
            // A candidate that flipped non-biased in this same round is
            // left for its own pending transition event (its dangling
            // designation dies with that event's `dres` removal).
            if !self.is_biased(d, k) {
                continue;
            }
            let nodes = &self.arena.nodes;
            let sets = &mut self.frontier.sets;
            let dp = &nodes[d as usize].pattern;
            let dominator = sets
                .res
                .iter()
                .copied()
                .find(|&r| nodes[r as usize].pattern.is_subset_of(dp));
            if let Some(dom) = dominator {
                sets.dres.insert(d, dom);
                sets.push_designee(dom, d);
            } else {
                sets.dres.remove(&d);
                sets.res.insert(d);
            }
        }
    }

    /// Whether all tree ancestors of `id` are currently non-biased (the
    /// node is on the live search frontier rather than masked below a
    /// biased ancestor).
    fn tree_minimal(&self, id: u32, k: usize) -> bool {
        let mut cur = self.arena.nodes[id as usize].parent;
        while cur != ROOT {
            if self.is_biased(cur, k) {
                return false;
            }
            cur = self.arena.nodes[cur as usize].parent;
        }
        true
    }

    /// The paper’s `searchFromNode`: resumes the suspended search below a
    /// node that just stopped being biased, expanding any frontier not yet
    /// opened and stopping at (and registering) biased descendants.
    fn resume_subtree(&mut self, id: u32, k: usize, guard: &mut DeadlineGuard) -> bool {
        let mut stack = vec![id];
        while let Some(nid) = stack.pop() {
            if guard.expired() {
                return false;
            }
            self.expand(nid, k);
            for i in 0..self.arena.nodes[nid as usize].children.len() {
                let c = self.arena.nodes[nid as usize].children[i];
                if self.arena.pruned[c as usize] {
                    continue;
                }
                if self.is_biased(c, k) {
                    self.add_stopped(c);
                } else {
                    stack.push(c);
                }
            }
        }
        true
    }

    /// Phase 1 of an incremental step: walk the newly ranked tuple,
    /// collecting nodes whose bias classification may flip.
    fn walk_counts(&mut self, k: usize, cands: &mut FxHashSet<u32>) {
        self.walk(k - 1, true, |t, id| {
            if t.is_biased(id, k) != t.marked[id as usize] {
                cands.insert(id);
            }
        });
    }

    /// Phase 2 (proportional only): drain the `k̃` bucket for `k`. Stale
    /// entries (count grew since scheduling) are re-inserted at their
    /// recomputed `k̃`; genuine flips join the transition candidates.
    fn pop_schedule(&mut self, k: usize, cands: &mut FxHashSet<u32>) {
        let Some(bucket) = self.frontier.sets.schedule.get_mut(k) else {
            return;
        };
        for id in std::mem::take(bucket) {
            self.stats.schedule_pops += 1;
            if self.arena.pruned[id as usize] || self.counts[id as usize] == NOT_LIVE {
                continue;
            }
            let biased = self.is_biased(id, k);
            if biased != self.marked[id as usize] {
                cands.insert(id);
            }
            if !biased {
                self.schedule_push(id, k);
            }
        }
    }

    /// Phase 3: apply bias transitions, most-general patterns first.
    fn apply_transitions(
        &mut self,
        k: usize,
        cands: FxHashSet<u32>,
        guard: &mut DeadlineGuard,
    ) -> bool {
        let mut ids: Vec<u32> = cands.into_iter().collect();
        ids.sort_by_key(|&id| (self.arena.nodes[id as usize].pattern.len(), id));
        for id in ids {
            let before = self.marked[id as usize];
            let after = self.is_biased(id, k);
            if before && !after {
                self.remove_stopped(id, k);
                self.schedule_push(id, k);
                if !self.arena.pruned[id as usize]
                    && self.tree_minimal(id, k)
                    && !self.resume_subtree(id, k, guard)
                {
                    return false;
                }
            } else if !before && after && !self.arena.pruned[id as usize] {
                self.add_stopped(id);
            }
        }
        true
    }

    /// Collects every live node whose classification disagrees with its
    /// frontier bit — the store-wide pass behind a global bound change,
    /// where Algorithm 2 would re-run the search instead.
    ///
    /// No fresh pattern evaluation is needed in either direction. When
    /// `L` grows by `≥ 1` while a count grows by at most one, a node
    /// non-biased now was non-biased one step earlier, so every most
    /// general biased pattern under the new bound has an expanded parent
    /// and is already stored. When `L` shrinks (or a repair moved counts
    /// either way), nodes that stop being biased are stored and flagged,
    /// and [`Self::apply_transitions`] resumes the search below them.
    fn rescan_all(&mut self, k: usize, cands: &mut FxHashSet<u32>) {
        self.rescan(|t, id| {
            if t.is_biased(id, k) != t.marked[id as usize] {
                cands.insert(id);
            }
        });
    }
}

/// `GlobalBounds` (Algorithm 2): detection of groups with biased
/// representation under global lower bounds, incremental across the `k`
/// range.
pub(crate) fn global_bounds<I: CountsProvider>(
    index: &I,
    space: &PatternSpace,
    cfg: &DetectConfig,
    bounds: &Bounds,
) -> DetectionOutput {
    let lower = Lower::new(BiasMeasure::GlobalLower(bounds.clone()), cfg.k_max);
    Stream::new(index, space, cfg, lower).run()
}

/// `PropBounds` (Algorithm 3): detection of groups with biased
/// proportional representation, incremental across the `k` range with
/// `k̃` scheduling.
pub(crate) fn prop_bounds<I: CountsProvider>(
    index: &I,
    space: &PatternSpace,
    cfg: &DetectConfig,
    alpha: f64,
) -> DetectionOutput {
    assert!(alpha > 0.0, "alpha must be positive");
    let lower = Lower::new(BiasMeasure::Proportional { alpha }, cfg.k_max);
    Stream::new(index, space, cfg, lower).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::KResult;
    use crate::topdown::iter_td;
    use crate::tree::tests::{fig1, lower_cases, seeks_checkpoints, segmented_spans};

    fn names(space: &PatternSpace, pats: &[Pattern]) -> Vec<String> {
        pats.iter().map(|p| space.display(p)).collect()
    }

    #[test]
    fn example_4_6_global_bounds_k4_to_k5() {
        let (space, index) = fig1();
        let cfg = DetectConfig::new(4, 4, 5);
        let out = global_bounds(&index, &space, &cfg, &Bounds::constant(2));
        assert_eq!(out.per_k.len(), 2);
        let k4 = names(&space, &out.per_k[0].patterns);
        assert!(k4.contains(&"{Address=U}".to_string()));
        assert!(k4.contains(&"{Failures=1}".to_string()));
        let k5 = names(&space, &out.per_k[1].patterns);
        for e in [
            "{School=GP}",
            "{Failures=2}",
            "{Address=U, Failures=1}",
            "{Gender=F, Address=U}",
            "{Gender=M, Address=U}",
            "{Gender=F, Failures=1}",
            "{Address=R, Failures=1}",
            "{Gender=F, School=MS}",
            "{Gender=F, Address=R}",
        ] {
            assert!(k5.contains(&e.to_string()), "missing {e} in {k5:?}");
        }
        assert_eq!(k5.len(), 9);
    }

    #[test]
    fn example_4_9_prop_bounds_k4_to_k5() {
        let (space, index) = fig1();
        let cfg = DetectConfig::new(5, 4, 5);
        let out = prop_bounds(&index, &space, &cfg, 0.9);
        let k4 = names(&space, &out.per_k[0].patterns);
        assert_eq!(k4, vec!["{School=GP}", "{Address=U}", "{Failures=1}"]);
        let k5 = names(&space, &out.per_k[1].patterns);
        assert!(k5.contains(&"{Gender=F}".to_string()));
        assert_eq!(k5.len(), 4);
    }

    #[test]
    fn global_bounds_matches_iter_td_on_fig1_sweep() {
        let (space, index) = fig1();
        for tau in [1, 2, 4, 6] {
            for l in [1, 2, 3, 5] {
                let cfg = DetectConfig::new(tau, 2, 16);
                let bounds = Bounds::constant(l);
                let measure = BiasMeasure::GlobalLower(bounds.clone());
                let base = iter_td(&index, &space, &cfg, &measure);
                let opt = global_bounds(&index, &space, &cfg, &bounds);
                assert_eq!(base.per_k, opt.per_k, "tau={tau} l={l}");
            }
        }
    }

    #[test]
    fn global_bounds_with_steps_matches_iter_td() {
        let (space, index) = fig1();
        let bounds = Bounds::steps(vec![(2, 1), (6, 2), (10, 3)]);
        let cfg = DetectConfig::new(2, 2, 16);
        let measure = BiasMeasure::GlobalLower(bounds.clone());
        let base = iter_td(&index, &space, &cfg, &measure);
        let opt = global_bounds(&index, &space, &cfg, &bounds);
        assert_eq!(base.per_k, opt.per_k);
        // Bound steps reclassify the store in every mode: the batch run
        // does exactly the stream's work, one initial build and no
        // rebuild.
        let lower = Lower::new(BiasMeasure::GlobalLower(bounds.clone()), cfg.k_max);
        let mut stream = Stream::new(&index, &space, &cfg, lower);
        let streamed: Vec<KResult> = stream.by_ref().collect();
        assert_eq!(opt.per_k, streamed);
        assert_eq!(opt.stats.full_searches, 1);
        assert_eq!(stream.stats().full_searches, 1);
        assert_eq!(opt.stats.nodes_evaluated, stream.stats().nodes_evaluated);
    }

    #[test]
    fn prop_bounds_matches_iter_td_on_fig1_sweep() {
        let (space, index) = fig1();
        for tau in [1, 2, 4, 6] {
            for alpha in [0.3, 0.5, 0.8, 0.9, 1.0, 1.2] {
                let cfg = DetectConfig::new(tau, 2, 16);
                let measure = BiasMeasure::Proportional { alpha };
                let base = iter_td(&index, &space, &cfg, &measure);
                let opt = prop_bounds(&index, &space, &cfg, alpha);
                assert_eq!(base.per_k, opt.per_k, "tau={tau} alpha={alpha}");
            }
        }
    }

    #[test]
    fn optimized_examines_fewer_patterns_than_baseline() {
        let (space, index) = fig1();
        let cfg = DetectConfig::new(2, 2, 16);
        let bounds = Bounds::constant(2);
        let measure = BiasMeasure::GlobalLower(bounds.clone());
        let base = iter_td(&index, &space, &cfg, &measure);
        let opt = global_bounds(&index, &space, &cfg, &bounds);
        assert!(
            opt.stats.patterns_examined() < base.stats.patterns_examined(),
            "optimized {} >= baseline {}",
            opt.stats.patterns_examined(),
            base.stats.patterns_examined()
        );
    }

    #[test]
    #[should_panic(expected = "k_max")]
    fn k_max_beyond_dataset_rejected() {
        let (space, index) = fig1();
        let cfg = DetectConfig::new(2, 2, 17);
        global_bounds(&index, &space, &cfg, &Bounds::constant(2));
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn nonpositive_alpha_rejected() {
        let (space, index) = fig1();
        let cfg = DetectConfig::new(2, 2, 5);
        prop_bounds(&index, &space, &cfg, 0.0);
    }

    #[test]
    fn lower_replay_matches_batch_and_seeks_checkpoints() {
        let (space, index) = fig1();
        let cfg = DetectConfig::new(2, 2, 16);
        for (measure, want) in lower_cases(&index, &space, &cfg) {
            let make = || Lower::new(measure.clone(), cfg.k_max);
            seeks_checkpoints(&index, &space, &cfg, &format!("{measure:?}"), make, &want);
        }
    }

    #[test]
    fn lower_replay_segmented_spans_match_batch() {
        let (space, index) = fig1();
        let cfg = DetectConfig::new(2, 2, 16);
        for (measure, want) in lower_cases(&index, &space, &cfg) {
            let make = || Lower::new(measure.clone(), cfg.k_max);
            segmented_spans(&index, &space, &cfg, &format!("{measure:?}"), make, &want);
        }
    }
}

#[cfg(test)]
mod stream_tests {
    use super::*;
    use crate::stats::KResult;
    use crate::tree::tests::fig1;

    #[test]
    fn stream_collect_equals_batch_global() {
        let (space, index) = fig1();
        let cfg = DetectConfig::new(2, 2, 16);
        let bounds = Bounds::steps(vec![(2, 1), (6, 2), (10, 3)]);
        let batch = global_bounds(&index, &space, &cfg, &bounds);
        let lower = Lower::new(BiasMeasure::GlobalLower(bounds.clone()), cfg.k_max);
        let streamed: Vec<KResult> = Stream::new(&index, &space, &cfg, lower).collect();
        assert_eq!(batch.per_k, streamed);
    }

    #[test]
    fn stream_collect_equals_batch_proportional() {
        let (space, index) = fig1();
        let cfg = DetectConfig::new(2, 3, 16);
        let batch = prop_bounds(&index, &space, &cfg, 0.8);
        let lower = Lower::new(BiasMeasure::Proportional { alpha: 0.8 }, cfg.k_max);
        let streamed: Vec<KResult> = Stream::new(&index, &space, &cfg, lower).collect();
        assert_eq!(batch.per_k, streamed);
    }

    #[test]
    fn stream_is_lazy() {
        let (space, index) = fig1();
        let cfg = DetectConfig::new(2, 2, 16);
        let lower = Lower::new(BiasMeasure::Proportional { alpha: 0.8 }, cfg.k_max);
        let mut stream = Stream::new(&index, &space, &cfg, lower);
        let first = stream.next().unwrap();
        assert_eq!(first.k, 2);
        let after_one = stream.stats().nodes_evaluated;
        let _rest: Vec<KResult> = stream.by_ref().collect();
        assert!(stream.stats().nodes_evaluated >= after_one);
        assert!(!stream.timed_out());
    }

    #[test]
    fn stream_can_stop_early() {
        let (space, index) = fig1();
        let cfg = DetectConfig::new(2, 2, 16);
        let lower = Lower::new(BiasMeasure::GlobalLower(Bounds::constant(2)), cfg.k_max);
        let ks: Vec<usize> = Stream::new(&index, &space, &cfg, lower)
            .take(3)
            .map(|kr| kr.k)
            .collect();
        assert_eq!(ks, vec![2, 3, 4]);
    }
}
