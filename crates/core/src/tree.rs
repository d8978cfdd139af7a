//! The incremental search tree under both detection engines.
//!
//! Algorithms 2–3 and the §III upper-bound engine all rest on one
//! observation (Proposition 4.3): the top-`k` and top-`(k+1)` differ by a
//! single tuple `t = R(D)[k+1]`. If `t` satisfies a pattern it satisfies
//! the pattern's tree parent (Definition 4.1), so the stored nodes `t`
//! satisfies form a connected subtree from the root: one root walk
//! ([`PatternTree::walk`]) keeps every stored count exact with **no
//! dataset scans**. [`PatternTree`] owns that machinery once; what the
//! stored counts *mean* is a [`Frontier`] policy, statically dispatched so
//! the hot walk stays monomorphized:
//!
//! * [`crate::engine::Lower`] — the most general **under**-represented
//!   patterns (`Res`/`DRes` and the `k̃` schedule);
//! * [`crate::upper_engine::Upper`] — the most specific **over**-
//!   represented patterns (the qualifying closure and its maximal
//!   frontier).
//!
//! Both policies handle counts or the bound moving in bulk — a bound step
//! in [`Frontier::advance`], a checkpoint repair in
//! [`PatternTree::apply_set_diff`] — through one hook,
//! [`Frontier::reclassify`].
//!
//! ## Arena store and run state
//!
//! The node store is split in two. An [`Arena`] holds everything that is
//! a function of the **pattern alone** — the interned pattern, its tree
//! parent, `s_D`, the substantiality (`s_D ≥ τs`) verdict, and the
//! generated-children structure — in a flat `Vec` addressed by `u32` ids.
//! Per-run state lives beside it in parallel vectors: `counts[id]` is the
//! node's `s_Rk` (sentinel [`NOT_LIVE`] until the node joins the current
//! run), `open[id]` is the run-level expansion frontier the walks descend
//! through (`open[id]` implies every stored child of `id` is live), and
//! `marked[id]` is the policy's per-node frontier bit. The split buys
//! three things:
//!
//! * a [`Checkpoint`] is a **counts-plus-frontier memcpy** (three flat
//!   vectors plus the policy's small frontier sets) instead of a deep
//!   clone of the node store — the arena is shared, not copied;
//! * re-expanding a stored node re-activates its children with
//!   **prefix-only recounts** ([`CountsProvider::prefix_count`], a
//!   truncated bitmap scan) — the stored `s_D` is reused, never
//!   recomputed;
//! * [`PatternTree::reset`] keeps the arena and only clears run state, so
//!   a replay's cold build runs on prefix recounts after the first build.
//!
//! Fresh nodes are created one sibling set at a time: [`PatternTree::expand`]
//! (and [`PatternTree::activate_roots`], for the empty parent) counts every
//! child of a node in one batched [`CountsProvider::child_counts`] call.
//!
//! The arena is append-only (structure is `k`- and bound-independent), so
//! a checkpoint taken at any time stays consistent with every later arena:
//! restoring extends the run vectors with `NOT_LIVE`/`false` for nodes
//! created after the snapshot.
//!
//! ## Checkpoint validity
//!
//! Every stored count is `|top-k ∩ p|`, a function of the top-`k` **set**
//! alone, and each policy's frontier is determined by those counts plus
//! store structure. A pure reorder of rank positions `[lo, hi]` leaves the
//! top-`k` set unchanged for `k ≤ lo` and `k > hi` — and for every `k` no
//! row's net movement crossed, which segmented [`replay`] exploits — so
//! those checkpoints stay exact; a checkpoint the reorder did swallow is
//! repaired in place from the top-`k` set diff
//! ([`PatternTree::apply_set_diff`]).
//! Insertions move `n` and `s_D`, invalidating every checkpoint and the
//! arena itself ([`Store::clear`]).

use crate::audit::{top_k_diff, ReorderSpec};
use crate::pattern::Pattern;
use crate::space::{AttrId, CountsProvider, PatternSpace};
use crate::stats::{
    DeadlineGuard, DetectConfig, DetectionOutput, KResult, ReplayCounters, SearchStats,
};
use crate::util::FxHashSet;
use rankfair_data::{TupleId, ValueCode};

/// Parent id of the level-1 nodes.
pub(crate) const ROOT: u32 = u32::MAX;

/// Sentinel in `counts` marking a node that is not live in the current
/// run. Real counts are bounded by `n`, which fits `TupleId` (u32).
pub(crate) const NOT_LIVE: u32 = u32::MAX;

/// Everything about a node that is a function of its pattern alone —
/// shared across runs, checkpoints and replays without cloning.
#[derive(Debug, Clone)]
pub(crate) struct NodeMeta {
    pub(crate) pattern: Pattern,
    pub(crate) parent: u32,
    pub(crate) sd: u32,
    /// Structural: the children have been generated and stored. Distinct
    /// from the run-level `open` frontier — a node expanded in an earlier
    /// run re-activates its stored children instead of re-evaluating them.
    expanded: bool,
    /// Children in (attribute, value) order for attributes past
    /// `max_attr`, enabling arithmetic child lookup on the walk.
    pub(crate) children: Vec<u32>,
}

/// The index-addressed node arena: flat `Vec` of [`NodeMeta`] plus the
/// level-1 child index. Append-only, owned by a [`Store`] between runs
/// and moved — not cloned — into the tree for the duration of a replay.
#[derive(Debug, Default)]
pub(crate) struct Arena {
    pub(crate) nodes: Vec<NodeMeta>,
    /// `s_D < τs` verdict per node, kept out of [`NodeMeta`] so the hot
    /// walks resolve the prune-skip from one flat byte array — a closed
    /// node's visit never has to pull its full `NodeMeta` cache line.
    pub(crate) pruned: Vec<bool>,
    /// Level-1 nodes laid out by `card_prefix[attr] + value` — the walk's
    /// entry points.
    pub(crate) root_children: Vec<u32>,
}

/// A frontier policy: what a [`PatternTree`]'s counts are classified
/// into, and how a step maintains that classification.
pub(crate) trait Frontier: Sized {
    /// The policy's part of a [`Checkpoint`].
    type Snap: Clone + std::fmt::Debug;

    /// Classifies a non-pruned node that just became live at `k` (fresh
    /// evaluation or prefix re-activation).
    fn on_live<I: CountsProvider>(t: &mut PatternTree<'_, I, Self>, id: u32, k: usize);

    /// Full build at `k` on a reset tree. `false` on deadline expiry.
    fn build<I: CountsProvider>(
        t: &mut PatternTree<'_, I, Self>,
        k: usize,
        guard: &mut DeadlineGuard,
    ) -> bool;

    /// One incremental step `k−1 → k`. The batch run, the stream and the
    /// checkpointed replay all step through exactly this function, so no
    /// execution mode can drift from another.
    fn advance<I: CountsProvider>(
        t: &mut PatternTree<'_, I, Self>,
        k: usize,
        guard: &mut DeadlineGuard,
    ) -> bool;

    /// Reclassifies the whole live store at `k` after counts or the bound
    /// moved in bulk — a bound step, or a checkpoint repair — and applies
    /// the resulting flips in both directions. `decremented` lists the
    /// nodes whose counts went down (with repetition). Loads the step's
    /// bound itself: a restored checkpoint does not carry it.
    fn reclassify<I: CountsProvider>(
        t: &mut PatternTree<'_, I, Self>,
        k: usize,
        decremented: &[u32],
        guard: &mut DeadlineGuard,
    ) -> bool;

    /// Clears the policy's run state (the tree's [`PatternTree::reset`]).
    fn clear(&mut self);

    /// Copies the policy's run state for a checkpoint.
    fn snap(&self) -> Self::Snap;

    /// Overwrites the policy's run state from a checkpoint.
    fn restore(&mut self, snap: &Self::Snap);

    /// The current result patterns, in any order.
    fn results<I: CountsProvider>(t: &PatternTree<'_, I, Self>) -> Vec<Pattern>;
}

/// The arena, the per-run state over it, and the frontier policy `F`.
pub(crate) struct PatternTree<'a, I: CountsProvider, F> {
    index: &'a I,
    pub(crate) space: &'a PatternSpace,
    tau_s: usize,
    pub(crate) n: usize,
    pub(crate) arena: Arena,
    /// Per-run `s_Rk` per node, [`NOT_LIVE`] until activated this run.
    pub(crate) counts: Vec<u32>,
    /// Run-level expansion frontier: walks descend through `open` nodes
    /// only.
    pub(crate) open: Vec<bool>,
    /// The policy's per-node frontier bit: `Res ∪ DRes` membership for
    /// the lower policy, qualification for the upper one. Always `false`
    /// for pruned and not-live nodes.
    pub(crate) marked: Vec<bool>,
    /// `card_prefix[a] = Σ_{b<a} card(b)`. Children of an expanded node
    /// are generated in (attribute, value) order, so the child binding
    /// `(a, v)` sits at `children[card_prefix[a] − card_prefix[ma+1] + v]`
    /// (where `ma` is the node's max attribute) — child lookup is pure
    /// arithmetic, no hashing on the hot walk.
    card_prefix: Vec<u32>,
    pub(crate) stats: SearchStats,
    /// Activations served by a stored `s_D` plus a truncated prefix scan
    /// instead of a fresh evaluation.
    prefix_recounts: u64,
    /// Reused walk buffers: the DFS stack and the entering tuple's value
    /// codes. Taken/returned by the walks so a replay's per-step walks
    /// never hit the allocator.
    scratch_stack: Vec<u32>,
    scratch_codes: Vec<ValueCode>,
    /// Reused expansion buffers for [`CountsProvider::child_counts`]: the
    /// parent's materialized bitmap and the per-child `(s_D, s_Rk)` slots.
    /// Tree-owned rather than index-owned because one index serves every
    /// `k`-range thread.
    scratch_bits: Vec<u64>,
    scratch_counts: Vec<(usize, usize)>,
    pub(crate) frontier: F,
}

impl<'a, I: CountsProvider, F: Frontier> PatternTree<'a, I, F> {
    /// A tree over `arena` (empty for a fresh run, a store's for a
    /// replay) with no live nodes yet.
    pub(crate) fn new(
        index: &'a I,
        space: &'a PatternSpace,
        tau_s: usize,
        frontier: F,
        arena: Arena,
    ) -> Self {
        let mut card_prefix = Vec::with_capacity(space.n_attrs() + 1);
        let mut acc = 0u32;
        card_prefix.push(0);
        for a in space.attr_ids() {
            acc += u32::try_from(space.card(a)).expect("dictionary cap keeps cardinality in u32");
            card_prefix.push(acc);
        }
        let len = arena.nodes.len();
        PatternTree {
            index,
            space,
            tau_s,
            n: index.n(),
            arena,
            counts: vec![NOT_LIVE; len],
            open: vec![false; len],
            marked: vec![false; len],
            card_prefix,
            stats: SearchStats::default(),
            prefix_recounts: 0,
            scratch_stack: Vec::new(),
            scratch_codes: Vec::new(),
            scratch_bits: Vec::new(),
            scratch_counts: Vec::new(),
            frontier,
        }
    }

    /// Interns a freshly counted pattern — one evaluation of a batched
    /// [`CountsProvider::child_counts`] call — in the arena and classifies
    /// it.
    fn intern(
        &mut self,
        pattern: Pattern,
        parent: u32,
        (sd, count): (usize, usize),
        k: usize,
    ) -> u32 {
        self.stats.nodes_evaluated += 1;
        let id = u32::try_from(self.arena.nodes.len()).expect("node ids fit u32");
        let pruned = sd < self.tau_s;
        self.arena.nodes.push(NodeMeta {
            pattern,
            parent,
            // Row counts are bounded by n, which fits TupleId (u32).
            sd: u32::try_from(sd).expect("row counts fit TupleId"),
            expanded: false,
            children: Vec::new(),
        });
        self.arena.pruned.push(pruned);
        self.counts
            .push(u32::try_from(count).expect("row counts fit TupleId"));
        self.open.push(false);
        self.marked.push(false);
        if !pruned {
            F::on_live(self, id, k);
        }
        id
    }

    /// Brings a stored node into the current run: the stored `s_D` and
    /// pruned verdict are reused and only the top-`k` prefix is recounted
    /// (a truncated scan that never touches blocks past `k`). Idempotent —
    /// an already-live node is left untouched.
    pub(crate) fn activate(&mut self, id: u32, k: usize) {
        if self.counts[id as usize] != NOT_LIVE {
            return;
        }
        if self.arena.pruned[id as usize] {
            // Live marker only; counts of pruned nodes are never read.
            self.counts[id as usize] = 0;
            return;
        }
        let count = self
            .index
            .prefix_count(&self.arena.nodes[id as usize].pattern, k);
        self.stats.nodes_evaluated += 1;
        self.prefix_recounts += 1;
        self.counts[id as usize] = u32::try_from(count).expect("row counts fit TupleId");
        F::on_live(self, id, k);
    }

    /// Counts every search-tree child of `parent` in one batched
    /// [`CountsProvider::child_counts`] call and interns them in
    /// (attribute, value) order — the tree's only fresh evaluations.
    /// Returns the new ids.
    fn eval_children(&mut self, parent: &Pattern, parent_id: u32, k: usize) -> Vec<u32> {
        let mut counts = std::mem::take(&mut self.scratch_counts);
        let mut bits = std::mem::take(&mut self.scratch_bits);
        self.index
            .child_counts(self.space, parent, k, &mut bits, &mut counts);
        let start = parent.max_attr().map_or(0, |a| a + 1);
        let base = self.card_prefix[usize::from(start)];
        let mut children = Vec::with_capacity(counts.len());
        for a in start..self.space.attr_ids().end {
            for v in self.space.value_codes(a) {
                let slot = (self.card_prefix[usize::from(a)] - base) as usize + usize::from(v);
                children.push(self.intern(parent.child(a, v), parent_id, counts[slot], k));
            }
        }
        self.scratch_counts = counts;
        self.scratch_bits = bits;
        children
    }

    /// Brings the level-1 nodes live: fresh evaluations (the empty
    /// pattern's children) on a virgin arena, prefix recounts otherwise.
    /// Builds then start from `root_children`.
    pub(crate) fn activate_roots(&mut self, k: usize) {
        if self.arena.root_children.is_empty() {
            self.arena.root_children = self.eval_children(&Pattern::empty(), ROOT, k);
        } else {
            for i in 0..self.arena.root_children.len() {
                self.activate(self.arena.root_children[i], k);
            }
        }
    }

    /// Opens `id`'s search-tree children (Definition 4.1) in the current
    /// run: stored children are re-activated with prefix recounts, a node
    /// never expanded before generates them fresh, all counted in one
    /// batched call.
    /// Returns `false` if `id` was already open this run.
    pub(crate) fn expand(&mut self, id: u32, k: usize) -> bool {
        if self.open[id as usize] {
            return false;
        }
        if self.arena.nodes[id as usize].expanded {
            for i in 0..self.arena.nodes[id as usize].children.len() {
                self.activate(self.arena.nodes[id as usize].children[i], k);
            }
        } else {
            let pattern = self.arena.nodes[id as usize].pattern.clone();
            let children = self.eval_children(&pattern, id, k);
            let nd = &mut self.arena.nodes[id as usize];
            nd.children = children;
            nd.expanded = true;
        }
        self.open[id as usize] = true;
        true
    }

    /// Adds (`up`) or removes one tuple's worth of counts: walks the
    /// subtree of live nodes the tuple at rank position `t_pos` satisfies,
    /// moving each non-pruned node's count by one and then calling
    /// `visit` on it. `t_pos` is any position whose index codes are the
    /// tuple's — for a tuple that left the top-`k`, its new position
    /// below `k`.
    pub(crate) fn walk(&mut self, t_pos: usize, up: bool, mut visit: impl FnMut(&mut Self, u32)) {
        let m = self.space.n_attrs() as AttrId;
        // Hoist the tuple's value codes into one contiguous buffer: the
        // inner loop below reads a code per remaining attribute for every
        // open node, and `code_at` is a per-column indirection. Both
        // buffers are tree-owned scratch, so steady-state steps are
        // allocation-free.
        let mut codes = std::mem::take(&mut self.scratch_codes);
        codes.clear();
        codes.extend((0..m).map(|a| self.index.code_at(t_pos, a)));
        let mut stack = std::mem::take(&mut self.scratch_stack);
        stack.clear();
        for a in 0..m {
            let idx =
                self.card_prefix[usize::from(a)] as usize + usize::from(codes[usize::from(a)]);
            stack.push(self.arena.root_children[idx]);
        }
        while let Some(id) = stack.pop() {
            if self.arena.pruned[id as usize] {
                continue; // counts of pruned nodes are never read
            }
            if up {
                self.counts[id as usize] += 1;
            } else {
                self.counts[id as usize] -= 1;
            }
            self.stats.nodes_touched += 1;
            visit(self, id);
            if self.open[id as usize] {
                let start = self.arena.nodes[id as usize]
                    .pattern
                    .max_attr()
                    .map_or(0, |a| a + 1);
                let base = self.card_prefix[usize::from(start)];
                for a in start..m {
                    let idx = (self.card_prefix[usize::from(a)] - base) as usize
                        + usize::from(codes[usize::from(a)]);
                    stack.push(self.arena.nodes[id as usize].children[idx]);
                }
            }
        }
        self.scratch_codes = codes;
        self.scratch_stack = stack;
    }

    /// Calls `visit` on every live, non-pruned node in id order — the
    /// store-wide reclassification after counts moved in bulk.
    pub(crate) fn rescan(&mut self, mut visit: impl FnMut(&mut Self, u32)) {
        for id in 0..u32::try_from(self.arena.nodes.len()).expect("node ids fit u32") {
            if self.arena.pruned[id as usize] || self.counts[id as usize] == NOT_LIVE {
                continue;
            }
            self.stats.nodes_touched += 1;
            visit(self, id);
        }
    }

    /// Finds the live node for sorted `terms` by walking the child
    /// arithmetic from the root, or `None` if the path leaves the open
    /// frontier.
    pub(crate) fn lookup(&self, terms: &[(AttrId, ValueCode)]) -> Option<u32> {
        let (&(a0, v0), rest) = terms.split_first()?;
        let mut id =
            self.arena.root_children[self.card_prefix[usize::from(a0)] as usize + usize::from(v0)];
        let mut ma = a0;
        for &(a, v) in rest {
            if !self.open[id as usize] {
                return None;
            }
            let base = self.card_prefix[usize::from(ma) + 1];
            id = self.arena.nodes[id as usize].children
                [(self.card_prefix[usize::from(a)] - base) as usize + usize::from(v)];
            ma = a;
        }
        Some(id)
    }

    /// The sorted one-term-deletion subsets of a stored node's pattern
    /// (empty for single-term patterns, whose only subset is the
    /// never-reported empty pattern), resolved to node ids. Callers only
    /// ask for nodes whose tree prefixes are all open, so every subset is
    /// reachable — hence the `expect`.
    pub(crate) fn one_term_subset_ids(&self, id: u32) -> Vec<u32> {
        let pattern = &self.arena.nodes[id as usize].pattern;
        if pattern.len() < 2 {
            return Vec::new();
        }
        let terms = pattern.terms();
        let mut sub: Vec<(AttrId, ValueCode)> = Vec::with_capacity(terms.len() - 1);
        (0..terms.len())
            .map(|drop_i| {
                sub.clear();
                sub.extend(
                    terms
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| i != drop_i)
                        .map(|(_, &t)| t),
                );
                self.lookup(&sub)
                    // lint:allow(panic-reachability) -- closure invariant: every one-term subset of a stored pattern is itself stored; the expect is the loud invariant check
                    .expect("one-term subsets of a qualifying pattern are stored")
            })
            .collect()
    }

    /// Repairs a state positioned at `k` after a pure reorder changed its
    /// top-`k` **set**: `entering`/`leaving` are rank positions in the
    /// patched index (see [`top_k_diff`]). Sound because a reorder leaves
    /// `s_D`, `n` and the pruned verdicts untouched.
    pub(crate) fn apply_set_diff(
        &mut self,
        k: usize,
        entering: &[usize],
        leaving: &[usize],
        guard: &mut DeadlineGuard,
    ) -> bool {
        let mut decremented = Vec::new();
        for &pos in leaving {
            self.walk(pos, false, |_, id| decremented.push(id));
        }
        for &pos in entering {
            self.walk(pos, true, |_, _| {});
        }
        F::reclassify(self, k, &decremented, guard)
    }

    /// Clears the run state for a fresh build. The arena is kept: the
    /// follow-up build re-activates the stored structure with prefix
    /// recounts instead of re-evaluating it.
    pub(crate) fn reset(&mut self) {
        let len = self.arena.nodes.len();
        self.counts.clear();
        self.counts.resize(len, NOT_LIVE);
        self.open.clear();
        self.open.resize(len, false);
        self.marked.clear();
        self.marked.resize(len, false);
        self.frontier.clear();
    }

    /// Copies the run state into a [`Checkpoint`] anchored at `k`; the
    /// arena is **not** cloned.
    fn to_checkpoint(&self, k: usize) -> Checkpoint<F::Snap> {
        Checkpoint {
            k,
            counts: self.counts.clone(),
            open: self.open.clone(),
            marked: self.marked.clone(),
            frontier: self.frontier.snap(),
        }
    }

    /// Overwrites the run state from a checkpoint, positioning the tree at
    /// `cp.k`; the next [`Frontier::advance`] must be for `cp.k + 1`.
    /// Nodes interned after the snapshot was taken restore as not-live.
    fn restore(&mut self, cp: &Checkpoint<F::Snap>) {
        let len = self.arena.nodes.len();
        self.counts.clear();
        self.counts.extend_from_slice(&cp.counts);
        self.counts.resize(len, NOT_LIVE);
        self.open.clear();
        self.open.extend_from_slice(&cp.open);
        self.open.resize(len, false);
        self.marked.clear();
        self.marked.extend_from_slice(&cp.marked);
        self.marked.resize(len, false);
        self.frontier.restore(&cp.frontier);
    }

    /// The current results for `k`, sorted canonically.
    fn snapshot(&self, k: usize) -> KResult {
        let mut patterns = F::results(self);
        patterns.sort_unstable();
        KResult { k, patterns }
    }
}

/// A resumable snapshot of a tree's **run state** — per-node counts, the
/// open frontier, the frontier bits and the policy's frontier sets —
/// anchored at a specific `k`. The live monitor keeps one every `C`
/// values of `k` so a delta re-audit can seek to the checkpoint at or
/// below a segment start and replay forward with per-`k` subtree walks,
/// instead of paying a from-scratch build.
#[derive(Debug, Clone)]
pub(crate) struct Checkpoint<S> {
    /// The `k` whose state this snapshot holds.
    pub(crate) k: usize,
    counts: Vec<u32>,
    open: Vec<bool>,
    marked: Vec<bool>,
    frontier: S,
}

impl<S> Checkpoint<S> {
    /// Number of node slots snapshotted (the checkpoint's memory
    /// footprint driver — one `u32` + two `bool`s each, not a node clone).
    pub(crate) fn stored_nodes(&self) -> usize {
        self.counts.len()
    }
}

/// The persistent per-direction store a monitor keeps between batches:
/// one shared arena plus the `k`-grid of snapshots taken over it.
#[derive(Debug)]
pub(crate) struct Store<S> {
    pub(crate) arena: Arena,
    pub(crate) snaps: Vec<Checkpoint<S>>,
}

impl<S> Default for Store<S> {
    fn default() -> Self {
        Store {
            arena: Arena::default(),
            snaps: Vec::new(),
        }
    }
}

impl<S> Store<S> {
    /// Drops every snapshot and the arena (insertions change `s_D` and
    /// the pruned verdicts, so the arena is rebuilt from scratch).
    /// Returns the number of snapshots dropped.
    pub(crate) fn clear(&mut self) -> usize {
        let dropped = self.snaps.len();
        self.snaps.clear();
        self.arena = Arena::default();
        dropped
    }
}

/// Checkpoint-grid maintenance: writes a snapshot of `tree` at `k` when
/// `k` sits on the grid (`k ≡ k_min (mod cadence)`). Reorder replays pass
/// a `heal_cutoff` so only the snapshots near the span start — where the
/// next seek lands — are (re)written, and deeper stale ones are dropped
/// instead of recloned; full builds (no cutoff) lay the whole grid.
/// Returns whether a snapshot was written (inserted or overwritten) at
/// `k` — segmented replays track written grid `k`s so a later segment of
/// the same call never re-repairs state that already holds the new order.
fn maybe_checkpoint<I: CountsProvider, F: Frontier>(
    snaps: &mut Vec<Checkpoint<F::Snap>>,
    tree: &PatternTree<'_, I, F>,
    k: usize,
    k_min: usize,
    cadence: usize,
    heal_cutoff: Option<usize>,
) -> bool {
    if k < k_min || !(k - k_min).is_multiple_of(cadence) {
        return false;
    }
    match snaps.binary_search_by_key(&k, |cp| cp.k) {
        Ok(i) => match heal_cutoff {
            Some(cut) if k > cut => {
                snaps.remove(i);
                false
            }
            _ => {
                snaps[i] = tree.to_checkpoint(k);
                true
            }
        },
        Err(i) => {
            if heal_cutoff.is_none_or(|cut| k <= cut) {
                snaps.insert(i, tree.to_checkpoint(k));
                true
            } else {
                false
            }
        }
    }
}

/// Checkpointed execution over the given `k` **segments** (sorted,
/// disjoint) — the monitor's delta re-audit core, for either policy.
///
/// For each segment the replay seeks to the latest stored checkpoint at
/// or below the segment start (or keeps stepping from the previous
/// segment's end when that is at least as cheap) and replays forward with
/// per-`k` subtree walks. When the edit hull swallowed a seek checkpoint
/// (`cp.k > reorder.lo`), it is **repaired** in place from the top-`k`
/// set diff rather than discarded — but only when that diff is non-empty:
/// checkpoints in the gaps *between* segments are exact by construction
/// (no row's net movement crossed their `k`), and checkpoints already
/// healed by an earlier segment of this call hold the new state, so both
/// are used as-is. A delta re-audit therefore performs **zero**
/// from-scratch builds on any pure reorder. With an empty store (initial
/// audit, or after an insertion voided it) it builds at `k_min` exactly
/// like a fresh run — on the shared arena, so even cold builds after the
/// first run on prefix recounts. Every replayed grid `k` rewrites its
/// snapshot, keeping the whole store valid after every batch.
/// Output-equivalent to a fresh [`Stream`] run on the replayed `k` values
/// — asserted by the differential sweeps.
#[allow(clippy::too_many_arguments)]
pub(crate) fn replay<I: CountsProvider, F: Frontier>(
    index: &I,
    space: &PatternSpace,
    cfg: &DetectConfig,
    frontier: F,
    spans: &[(usize, usize)],
    reorder: Option<(&ReorderSpec, &[TupleId])>,
    store: &mut Store<F::Snap>,
    cadence: usize,
    counters: &mut ReplayCounters,
) -> DetectionOutput {
    debug_assert!(cadence >= 1);
    debug_assert!(spans
        .iter()
        .all(|&(lo, hi)| cfg.k_min <= lo && lo <= hi && hi <= cfg.k_max));
    debug_assert!(spans.windows(2).all(|w| w[0].1 < w[1].0));
    // No deadline: monitors reject deadlines at construction, so a replay
    // can never truncate mid-span.
    let mut guard = DeadlineGuard::new(None);
    let mut per_k = Vec::with_capacity(spans.iter().map(|&(lo, hi)| hi - lo + 1).sum());
    counters.segments += spans.len() as u64;
    let arena = std::mem::take(&mut store.arena);
    let mut tree = PatternTree::new(index, space, cfg.tau_s, frontier, arena);
    // Grid ks whose snapshot was rewritten by this call: those hold the
    // *new* state, so a later segment seeking to one must not repair it.
    let mut healed: FxHashSet<usize> = FxHashSet::default();
    let mut positioned: Option<usize> = None;
    for &(k_lo, k_hi) in spans {
        // Reorder replays re-clone at most the grid snapshots nearest each
        // segment start; see `maybe_checkpoint`.
        let heal_cutoff = reorder.is_some().then_some(k_lo + cadence);
        let seek = store.snaps.iter().rposition(|cp| cp.k <= k_lo);
        let mut k_cur = match (positioned, seek) {
            // Stepping on from the previous segment's end is at least as
            // cheap as restoring a snapshot at or below it.
            (Some(p), seek) if p <= k_lo && seek.is_none_or(|i| store.snaps[i].k <= p) => p,
            (_, Some(i)) => {
                counters.seeks += 1;
                let cp_k = store.snaps[i].k;
                tree.restore(&store.snaps[i]);
                if let Some((spec, new_order)) = reorder {
                    if cp_k > spec.lo && !healed.contains(&cp_k) {
                        let (entering, leaving) =
                            top_k_diff(cp_k, spec.lo, &spec.old_order, new_order);
                        if !(entering.is_empty() && leaving.is_empty()) {
                            tree.apply_set_diff(cp_k, &entering, &leaving, &mut guard);
                            counters.repairs += 1;
                            store.snaps[i] = tree.to_checkpoint(cp_k);
                            healed.insert(cp_k);
                        }
                    }
                }
                cp_k
            }
            _ => {
                counters.cold_builds += 1;
                counters.replayed_steps += 1;
                tree.reset();
                F::build(&mut tree, cfg.k_min, &mut guard);
                if maybe_checkpoint(&mut store.snaps, &tree, cfg.k_min, cfg.k_min, cadence, None) {
                    healed.insert(cfg.k_min);
                }
                cfg.k_min
            }
        };
        if k_cur >= k_lo {
            per_k.push(tree.snapshot(k_cur));
        }
        while k_cur < k_hi {
            k_cur += 1;
            F::advance(&mut tree, k_cur, &mut guard);
            counters.replayed_steps += 1;
            if k_cur >= k_lo {
                per_k.push(tree.snapshot(k_cur));
            }
            if maybe_checkpoint(
                &mut store.snaps,
                &tree,
                k_cur,
                cfg.k_min,
                cadence,
                heal_cutoff,
            ) {
                healed.insert(k_cur);
            }
        }
        positioned = Some(k_cur);
    }
    store.arena = tree.arena;
    counters.prefix_recounts += tree.prefix_recounts;
    let mut stats = tree.stats;
    stats.elapsed = guard.elapsed();
    DetectionOutput { per_k, stats }
}

/// A lazy, resumable detection run: yields the [`KResult`] for each `k`
/// in `[k_min, k_max]` on demand, maintaining the tree between calls.
/// Later `k` values are never computed unless requested, and the
/// incremental state is reused exactly as in a batch run — which is this
/// stream collected ([`Stream::run`]).
pub(crate) struct Stream<'a, I: CountsProvider, F> {
    tree: PatternTree<'a, I, F>,
    k_min: usize,
    k_max: usize,
    guard: DeadlineGuard,
    next_k: usize,
    failed: bool,
}

impl<'a, I: CountsProvider, F: Frontier> Stream<'a, I, F> {
    pub(crate) fn new(
        index: &'a I,
        space: &'a PatternSpace,
        cfg: &DetectConfig,
        frontier: F,
    ) -> Self {
        assert!(
            cfg.k_max <= index.n(),
            "k_max ({}) exceeds the number of ranked tuples ({})",
            cfg.k_max,
            index.n()
        );
        Stream {
            tree: PatternTree::new(index, space, cfg.tau_s, frontier, Arena::default()),
            k_min: cfg.k_min,
            k_max: cfg.k_max,
            guard: DeadlineGuard::new(cfg.deadline),
            next_k: cfg.k_min,
            failed: false,
        }
    }

    /// Instrumentation accumulated so far, with up-to-date wall clock and
    /// timeout flag.
    pub(crate) fn stats(&self) -> SearchStats {
        let mut stats = self.tree.stats.clone();
        stats.elapsed = self.guard.elapsed();
        stats.timed_out = self.failed;
        stats
    }

    /// Whether the stream stopped early on the deadline.
    pub(crate) fn timed_out(&self) -> bool {
        self.failed
    }

    /// Batch driver: the whole `k` range (truncated on deadline expiry).
    pub(crate) fn run(mut self) -> DetectionOutput {
        let per_k = self.by_ref().collect();
        DetectionOutput {
            per_k,
            stats: self.stats(),
        }
    }
}

impl<I: CountsProvider, F: Frontier> Iterator for Stream<'_, I, F> {
    type Item = KResult;

    fn next(&mut self) -> Option<KResult> {
        if self.failed || self.next_k > self.k_max {
            return None;
        }
        let k = self.next_k;
        let ok = if k == self.k_min {
            F::build(&mut self.tree, k, &mut self.guard)
        } else {
            F::advance(&mut self.tree, k, &mut self.guard)
        };
        if !ok {
            self.failed = true;
            return None;
        }
        self.next_k += 1;
        Some(self.tree.snapshot(k))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::audit::OverRepScope;
    use crate::bounds::{BiasMeasure, Bounds};
    use crate::engine::{global_bounds, prop_bounds};
    use crate::space::RankedIndex;
    use crate::upper_engine::upper_incremental;
    use rankfair_data::examples::{fig1_rank_order, students_fig1};
    use rankfair_rank::Ranking;

    /// The paper's Figure 1 students dataset, ranked as in the paper.
    pub(crate) fn fig1() -> (PatternSpace, RankedIndex) {
        let ds = students_fig1();
        let space = PatternSpace::from_dataset(&ds).unwrap();
        let ranking = Ranking::from_order(fig1_rank_order()).unwrap();
        let index = RankedIndex::build(&ds, &space, &ranking);
        (space, index)
    }

    /// The lower measures the replay tests cover — a rising and an
    /// up-and-down stepped global bound, a per-`k` one, and the
    /// proportional measure — each with the fresh batch run its replays
    /// must reproduce.
    pub(crate) fn lower_cases(
        index: &RankedIndex,
        space: &PatternSpace,
        cfg: &DetectConfig,
    ) -> Vec<(BiasMeasure, Vec<KResult>)> {
        let steps = Bounds::steps(vec![(2, 1), (6, 2), (10, 3)]);
        let mixed = Bounds::steps(vec![(2, 3), (5, 1), (11, 4), (13, 2)]);
        let fraction = Bounds::LinearFraction(0.3);
        vec![
            (
                BiasMeasure::GlobalLower(steps.clone()),
                global_bounds(index, space, cfg, &steps).per_k,
            ),
            (
                BiasMeasure::GlobalLower(mixed.clone()),
                global_bounds(index, space, cfg, &mixed).per_k,
            ),
            (
                BiasMeasure::GlobalLower(fraction.clone()),
                global_bounds(index, space, cfg, &fraction).per_k,
            ),
            (
                BiasMeasure::Proportional { alpha: 0.8 },
                prop_bounds(index, space, cfg, 0.8).per_k,
            ),
        ]
    }

    /// The upper bounds the replay tests cover — one changing at every
    /// `k`, one stepped up and down — in both scopes, each with its fresh
    /// batch run.
    pub(crate) fn upper_cases(
        index: &RankedIndex,
        space: &PatternSpace,
        cfg: &DetectConfig,
    ) -> Vec<(Bounds, OverRepScope, Vec<KResult>)> {
        let mut cases = Vec::new();
        for upper in [
            Bounds::LinearFraction(0.4),
            Bounds::steps(vec![(0, 1), (6, 3), (11, 2)]),
        ] {
            for scope in [OverRepScope::MostSpecific, OverRepScope::MostGeneral] {
                let want = upper_incremental(index, space, cfg, &upper, scope).per_k;
                cases.push((upper.clone(), scope, want));
            }
        }
        cases
    }

    /// A full replay over `2..=16` at several cadences must equal the
    /// batch run `want`; sub-span replays must seek a stored checkpoint
    /// and reproduce their slice of it.
    pub(crate) fn seeks_checkpoints<F: Frontier>(
        index: &RankedIndex,
        space: &PatternSpace,
        cfg: &DetectConfig,
        label: &str,
        make: impl Fn() -> F,
        want: &[KResult],
    ) {
        for cadence in [1usize, 3, 4, 8] {
            let mut store = Store::default();
            let mut counters = ReplayCounters::default();
            let full = replay(
                index,
                space,
                cfg,
                make(),
                &[(2, 16)],
                None,
                &mut store,
                cadence,
                &mut counters,
            );
            assert_eq!(full.per_k, want, "{label} cadence {cadence}");
            assert_eq!(counters.cold_builds, 1);
            assert!(!store.snaps.is_empty());
            assert!(store.snaps.windows(2).all(|w| w[0].k < w[1].k));
            // A sub-span replay seeded from the stored checkpoints must
            // reproduce the batch run's slice exactly, without a fresh
            // build.
            for (lo, hi) in [(9, 12), (10, 14)] {
                let mut counters = ReplayCounters::default();
                let sub = replay(
                    index,
                    space,
                    cfg,
                    make(),
                    &[(lo, hi)],
                    None,
                    &mut store,
                    cadence,
                    &mut counters,
                );
                assert_eq!(
                    sub.per_k[..],
                    want[lo - 2..=hi - 2],
                    "{label} cadence {cadence}"
                );
                assert_eq!(counters.seeks, 1);
                assert_eq!(counters.cold_builds, 0);
                // Every replay-driven position (catch-up + in-span) beats
                // a full-range pass (1 build + 14 advances).
                assert!(counters.replayed_steps < 14);
            }
        }
    }

    /// Two disjoint segments replayed over a populated store must each
    /// seek, emit only their own `k`s, and match the batch run `want`.
    pub(crate) fn segmented_spans<F: Frontier>(
        index: &RankedIndex,
        space: &PatternSpace,
        cfg: &DetectConfig,
        label: &str,
        make: impl Fn() -> F,
        want: &[KResult],
    ) {
        for cadence in [1usize, 3, 8] {
            let mut store = Store::default();
            let mut counters = ReplayCounters::default();
            let full = replay(
                index,
                space,
                cfg,
                make(),
                &[(2, 16)],
                None,
                &mut store,
                cadence,
                &mut counters,
            );
            assert_eq!(full.per_k, want, "{label} cadence {cadence}");
            // Two disjoint segments: each seeks independently; the gap ks
            // are neither stepped nor emitted.
            let mut counters = ReplayCounters::default();
            let got = replay(
                index,
                space,
                cfg,
                make(),
                &[(4, 5), (12, 13)],
                None,
                &mut store,
                cadence,
                &mut counters,
            )
            .per_k;
            let got_ks: Vec<usize> = got.iter().map(|r| r.k).collect();
            assert_eq!(got_ks, vec![4, 5, 12, 13], "{label} cadence {cadence}");
            assert_eq!(got[..2], want[2..=3], "{label} cadence {cadence}");
            assert_eq!(got[2..4], want[10..=11], "{label} cadence {cadence}");
            assert_eq!(counters.segments, 2);
            assert_eq!(counters.cold_builds, 0);
            assert!(
                (1..=2).contains(&counters.seeks),
                "{label} cadence {cadence}: seeks {}",
                counters.seeks
            );
        }
    }
}
