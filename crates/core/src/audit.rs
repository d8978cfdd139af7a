//! The owned, thread-safe audit API: one builder, one task enum, one
//! entry point for every detection mode in the paper.
//!
//! [`Audit`] owns its dataset (behind an [`Arc`]), the pattern space, the
//! ranking and the ranked counting index ([`AuditIndex`]: a single
//! [`RankedIndex`] or a [`ShardedIndex`] merging per-shard counts
//! additively), so it is `Send + Sync` and can be shared across threads,
//! held in a server, or cached between requests. The detection mode is a
//! value, not a method name:
//!
//! * [`AuditTask::UnderRep`] — the paper's Problems 3.1/3.2 (most general
//!   under-represented groups, Algorithms 1–3);
//! * [`AuditTask::OverRep`] — the §III upper-bound extension (groups whose
//!   top-`k` count exceeds `U_k`, most specific or most general);
//! * [`AuditTask::Combined`] — both directions at once, the paper's
//!   "plausible problem definition" accounting for both bounds.
//!
//! Each task runs on either the optimized incremental engines or the
//! brute-force baseline ([`Engine`]), which keeps every mode
//! differentially testable. [`Audit::run`] splits the `k` range across
//! scoped threads ([`AuditBuilder::threads`]) sharing the immutable index;
//! results are byte-identical to the single-threaded run.
//!
//! ```
//! use std::sync::Arc;
//! use rankfair_core::{Audit, AuditTask, BiasMeasure, Bounds, DetectConfig, Engine};
//! use rankfair_data::examples::{students_fig1, fig1_rank_order};
//! use rankfair_rank::Ranking;
//!
//! let audit = Audit::builder(Arc::new(students_fig1()))
//!     .ranking(Ranking::from_order(fig1_rank_order()).unwrap())
//!     .build()
//!     .unwrap();
//! let out = audit
//!     .run(
//!         &DetectConfig::new(4, 4, 5),
//!         &AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::constant(2))),
//!         Engine::Optimized,
//!     )
//!     .unwrap();
//! let k4: Vec<String> = out.per_k[0].under.iter().map(|p| audit.describe(p)).collect();
//! assert!(k4.contains(&"{Address=U}".to_string())); // Example 4.6
//! ```

use std::fmt;
use std::sync::Arc;

use rankfair_data::{Dataset, TupleId, ValueCode};
use rankfair_rank::{Ranker, Ranking};

use crate::bounds::{BiasMeasure, Bounds};
use crate::engine::{self, Lower, LowerSets};
use crate::oracle;
use crate::pattern::Pattern;
use crate::report::{summarize_audit, KReport};
use crate::shard::ShardedIndex;
use crate::space::{AttrId, CountsProvider, PatternSpace, RankedIndex, SpaceError};
use crate::stats::{DetectConfig, DetectionOutput, ReplayCounters, SearchStats};
use crate::topdown;
use crate::tree::{self, Store, Stream};
use crate::upper_engine::{self, Upper};
use crate::util::FxHashSet;

/// Typed error for audit construction and execution, replacing the
/// `SpaceError`-or-`String` mix of the old facade.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditError {
    /// The pattern space could not be built.
    Space(SpaceError),
    /// Neither [`AuditBuilder::ranking`] nor [`AuditBuilder::ranker`] was
    /// called.
    MissingRanking,
    /// The ranking length does not match the dataset.
    RankingMismatch {
        /// Tuples in the ranking.
        ranking: usize,
        /// Rows in the dataset.
        rows: usize,
    },
    /// `k_max` exceeds the number of ranked tuples.
    InvalidKRange {
        /// Largest requested `k`.
        k_max: usize,
        /// Ranked tuples available.
        n: usize,
    },
    /// The proportional factor `α` must be positive and finite (a NaN
    /// silently classifies nothing as biased).
    InvalidAlpha(f64),
    /// A [`Bounds::LinearFraction`] must be finite and non-negative (a NaN
    /// or negative fraction silently empties or floods the result set).
    InvalidBound(f64),
    /// A dataset-preparation hook (bucketization) failed.
    Prepare(String),
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::Space(e) => write!(f, "pattern space: {e}"),
            AuditError::MissingRanking => {
                write!(f, "no ranking: call AuditBuilder::ranking or ::ranker")
            }
            AuditError::RankingMismatch { ranking, rows } => write!(
                f,
                "ranking covers {ranking} tuples but the dataset has {rows} rows"
            ),
            AuditError::InvalidKRange { k_max, n } => {
                write!(
                    f,
                    "k_max ({k_max}) exceeds the number of ranked tuples ({n})"
                )
            }
            AuditError::InvalidAlpha(a) => {
                write!(f, "alpha must be positive and finite, got {a}")
            }
            AuditError::InvalidBound(v) => write!(
                f,
                "LinearFraction bounds must be finite and non-negative, got {v}"
            ),
            AuditError::Prepare(e) => write!(f, "preparing dataset: {e}"),
        }
    }
}

impl std::error::Error for AuditError {}

impl From<SpaceError> for AuditError {
    fn from(e: SpaceError) -> Self {
        AuditError::Space(e)
    }
}

/// Which implementation executes a task: the paper's optimized algorithms
/// or the from-scratch baselines used for differential testing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `GlobalBounds` / `PropBounds` for under-representation, the
    /// incremental upper engine (persistent node store, per-`k` subtree
    /// walks, incremental maximal frontier) for over-representation.
    Optimized,
    /// `IterTD` for under-representation; brute-force enumeration with
    /// naive row-scan counting for over-representation. Kept as the
    /// differential anchor for the incremental engines.
    Baseline,
}

/// Which boundary of the (subset-closed) over-represented set is reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverRepScope {
    /// Most specific substantial patterns exceeding the bound — the
    /// narrowest actionable descriptions (the paper's primary variant).
    MostSpecific,
    /// Most general patterns exceeding the bound — the broadest groups.
    MostGeneral,
}

/// One detection mode of the paper, unified as a value.
#[derive(Debug, Clone)]
pub enum AuditTask {
    /// Most general substantial groups below the measure's lower bound
    /// (Problems 3.1 and 3.2, Algorithms 1–3).
    UnderRep(BiasMeasure),
    /// Groups whose top-`k` count exceeds `U_k` (§III upper bounds).
    OverRep {
        /// The upper bound `U_k`.
        upper: Bounds,
        /// Report the most specific or the most general qualifying
        /// patterns.
        scope: OverRepScope,
    },
    /// Both directions at once: most general groups below `lower` and most
    /// specific substantial groups above `upper`.
    Combined {
        /// The lower bound `L_k`.
        lower: Bounds,
        /// The upper bound `U_k`.
        upper: Bounds,
    },
}

impl AuditTask {
    /// The task's per-direction specs: the under side's measure and the
    /// over side's bound and scope. Combined is the global lower bound
    /// with the most specific over-represented groups.
    fn sides(&self) -> (Option<BiasMeasure>, Option<(Bounds, OverRepScope)>) {
        match self {
            AuditTask::UnderRep(measure) => (Some(measure.clone()), None),
            AuditTask::OverRep { upper, scope } => (None, Some((upper.clone(), *scope))),
            AuditTask::Combined { lower, upper } => (
                Some(BiasMeasure::GlobalLower(lower.clone())),
                Some((upper.clone(), OverRepScope::MostSpecific)),
            ),
        }
    }
}

/// Result set of one `k` under an [`AuditTask`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditKResult {
    /// The `k` this refers to.
    pub k: usize,
    /// Most general under-represented patterns (empty for
    /// [`AuditTask::OverRep`]).
    pub under: Vec<Pattern>,
    /// Over-represented patterns (empty for [`AuditTask::UnderRep`]).
    pub over: Vec<Pattern>,
}

/// Full output of [`Audit::run`]: one [`AuditKResult`] per `k`, plus
/// instrumentation summed over every sub-search (and every worker thread).
#[derive(Debug, Clone)]
pub struct AuditOutcome {
    /// Per-`k` result sets, ordered by `k`.
    pub per_k: Vec<AuditKResult>,
    /// Instrumentation counters.
    pub stats: SearchStats,
}

impl AuditOutcome {
    /// The result set for a specific `k`, if computed.
    pub fn at_k(&self, k: usize) -> Option<&AuditKResult> {
        self.per_k.iter().find(|r| r.k == k)
    }

    /// Total number of reported `(k, pattern)` pairs, both directions.
    pub fn total_groups(&self) -> usize {
        self.per_k
            .iter()
            .map(|r| r.under.len() + r.over.len())
            .sum()
    }
}

/// The counting index an [`Audit`] executes against: one [`RankedIndex`]
/// over the whole ranking, or a [`ShardedIndex`] whose per-shard counts
/// merge additively ([`AuditBuilder::shards`]). Both satisfy the
/// [`CountsProvider`] contract the engines consume, so every task,
/// engine and streaming mode runs unchanged on either variant and the
/// results are identical — the differential suite sweeps that equality.
#[derive(Debug, Clone)]
pub enum AuditIndex {
    /// A single index over the whole ranking (the default).
    Single(RankedIndex),
    /// Rows partitioned into contiguous rank blocks with one shard-local
    /// index per block.
    Sharded(ShardedIndex),
}

impl AuditIndex {
    /// Number of ranked tuples.
    pub fn n(&self) -> usize {
        match self {
            AuditIndex::Single(i) => i.n(),
            AuditIndex::Sharded(i) => i.n(),
        }
    }

    /// `(s_D(p), s_Rk(p))` in one pass.
    pub fn counts(&self, p: &Pattern, k: usize) -> (usize, usize) {
        match self {
            AuditIndex::Single(i) => i.counts(p, k),
            AuditIndex::Sharded(i) => i.counts(p, k),
        }
    }

    /// `s_Rk(p)` alone via a truncated prefix scan — the arena engines'
    /// re-activation fast path (the stored `s_D` makes the full fused
    /// scan redundant).
    pub fn prefix_count(&self, p: &Pattern, k: usize) -> usize {
        match self {
            AuditIndex::Single(i) => i.prefix_count(p, k),
            AuditIndex::Sharded(i) => i.prefix_count(p, k),
        }
    }

    /// `s_D(p)` alone.
    pub fn size_in_data(&self, p: &Pattern) -> usize {
        self.counts(p, 0).0
    }

    /// Value of `attr` for the tuple at rank position `pos`.
    pub fn code_at(&self, pos: usize, attr: AttrId) -> ValueCode {
        match self {
            AuditIndex::Single(i) => i.code_at(pos, attr),
            AuditIndex::Sharded(i) => i.code_at(pos, attr),
        }
    }

    /// Whether the tuple at rank position `pos` satisfies `p`.
    pub fn matches_at(&self, pos: usize, p: &Pattern) -> bool {
        p.matches(|a| self.code_at(pos, a))
    }

    /// Number of shards (`1` for the single-index variant).
    pub fn shard_count(&self) -> usize {
        match self {
            AuditIndex::Single(_) => 1,
            AuditIndex::Sharded(i) => i.shard_count(),
        }
    }
}

impl CountsProvider for AuditIndex {
    fn n(&self) -> usize {
        AuditIndex::n(self)
    }

    fn counts(&self, p: &Pattern, k: usize) -> (usize, usize) {
        AuditIndex::counts(self, p, k)
    }

    fn code_at(&self, pos: usize, attr: AttrId) -> ValueCode {
        AuditIndex::code_at(self, pos, attr)
    }

    fn prefix_count(&self, p: &Pattern, k: usize) -> usize {
        AuditIndex::prefix_count(self, p, k)
    }

    /// The single index answers with its batched kernel; the sharded one
    /// keeps the per-pattern default, so the sharded ≡ unsharded
    /// differentials compare the two.
    fn child_counts(
        &self,
        space: &PatternSpace,
        parent: &Pattern,
        k: usize,
        scratch: &mut Vec<u64>,
        out: &mut Vec<(usize, usize)>,
    ) {
        match self {
            AuditIndex::Single(i) => i.child_counts(space, parent, k, scratch, out),
            AuditIndex::Sharded(i) => i.child_counts(space, parent, k, scratch, out),
        }
    }
}

type PrepareHook = Box<dyn FnOnce(&mut Dataset) -> Result<(), String>>;

/// Fluent construction of an [`Audit`].
///
/// The dataset arrives as an `Arc` so a server can hand the same in-memory
/// dataset to many audits without copying; the ranking is either supplied
/// precomputed or produced by a [`Ranker`] on the *unprepared* dataset
/// (the paper ranks on raw numeric attributes and detects on the
/// bucketized ones — [`AuditBuilder::bucketize`] reproduces exactly that
/// split).
pub struct AuditBuilder {
    dataset: Arc<Dataset>,
    ranking: Option<Ranking>,
    attrs: Option<Vec<String>>,
    prepare: Vec<PrepareHook>,
    threads: usize,
    shards: usize,
}

impl AuditBuilder {
    /// Starts a builder over `dataset`.
    pub fn new(dataset: impl Into<Arc<Dataset>>) -> Self {
        AuditBuilder {
            dataset: dataset.into(),
            ranking: None,
            attrs: None,
            prepare: Vec::new(),
            threads: 1,
            shards: 1,
        }
    }

    /// Uses a precomputed ranking.
    pub fn ranking(mut self, ranking: Ranking) -> Self {
        self.ranking = Some(ranking);
        self
    }

    /// Ranks the (raw, unprepared) dataset with `ranker` now.
    pub fn ranker(mut self, ranker: &dyn Ranker) -> Self {
        self.ranking = Some(ranker.rank(&self.dataset));
        self
    }

    /// Restricts the pattern attributes to the named columns (the
    /// experiments vary the attribute count this way). Default: every
    /// categorical column.
    pub fn attributes<I, S>(mut self, attrs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.attrs = Some(attrs.into_iter().map(Into::into).collect());
        self
    }

    /// Bucketizes a numeric column into `bins` equal-width bins before
    /// detection (after ranking). May be called repeatedly.
    pub fn bucketize(mut self, column: &str, bins: usize) -> Self {
        let column = column.to_string();
        self.prepare.push(Box::new(move |ds| {
            rankfair_data::bucketize::bucketize_in_place(
                ds,
                &column,
                bins,
                rankfair_data::bucketize::BinStrategy::EqualWidth,
            )
            .map_err(|e| format!("bucketizing `{column}`: {e}"))
        }));
        self
    }

    /// Arbitrary dataset-preparation hook, run (in registration order,
    /// after ranking) on a private copy of the dataset.
    pub fn prepare_with(
        mut self,
        hook: impl FnOnce(&mut Dataset) -> Result<(), String> + 'static,
    ) -> Self {
        self.prepare.push(Box::new(hook));
        self
    }

    /// Number of worker threads [`Audit::run`] splits the `k` range
    /// across. `0` means one per available CPU; default 1.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Partitions the ranking into `shards` contiguous rank blocks, each
    /// with its own shard-local index; pattern counts are merged
    /// additively across shards ([`ShardedIndex`]). `0` or `1` keeps the
    /// single unsharded index; results are identical either way.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Builds the audit: ranks (if needed), applies preparation hooks,
    /// constructs the pattern space and the ranked bitmap index.
    pub fn build(self) -> Result<Audit, AuditError> {
        let Some(ranking) = self.ranking else {
            return Err(AuditError::MissingRanking);
        };
        let dataset = if self.prepare.is_empty() {
            self.dataset
        } else {
            let mut ds = (*self.dataset).clone();
            for hook in self.prepare {
                hook(&mut ds).map_err(AuditError::Prepare)?;
            }
            Arc::new(ds)
        };
        if ranking.len() != dataset.n_rows() {
            return Err(AuditError::RankingMismatch {
                ranking: ranking.len(),
                rows: dataset.n_rows(),
            });
        }
        let space = match &self.attrs {
            Some(attrs) => {
                let refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
                PatternSpace::from_column_names(&dataset, &refs)?
            }
            None => PatternSpace::from_dataset(&dataset)?,
        };
        let index = if self.shards <= 1 {
            AuditIndex::Single(RankedIndex::build(&dataset, &space, &ranking))
        } else {
            AuditIndex::Sharded(ShardedIndex::build(&dataset, &space, &ranking, self.shards))
        };
        let threads = if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.threads
        };
        Ok(Audit {
            dataset,
            space,
            ranking,
            index,
            threads,
        })
    }
}

/// An owned, `Send + Sync` audit: dataset + ranking + pattern space +
/// ranked index, executing [`AuditTask`]s. Built by [`AuditBuilder`].
#[derive(Debug, Clone)]
pub struct Audit {
    dataset: Arc<Dataset>,
    space: PatternSpace,
    ranking: Ranking,
    index: AuditIndex,
    threads: usize,
}

// Compile-time half of the thread-safety contract: `Audit` (and the types
// an audit run shares across worker threads) must stay `Send + Sync`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Audit>();
    assert_send_sync::<AuditOutcome>();
    assert_send_sync::<AuditTask>();
};

impl Audit {
    /// Starts an [`AuditBuilder`] over `dataset`.
    pub fn builder(dataset: impl Into<Arc<Dataset>>) -> AuditBuilder {
        AuditBuilder::new(dataset)
    }

    /// The (prepared) dataset the audit detects on.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// A clone of the shared dataset handle.
    pub fn dataset_arc(&self) -> Arc<Dataset> {
        Arc::clone(&self.dataset)
    }

    /// The pattern space (attribute order, cardinalities, labels).
    pub fn space(&self) -> &PatternSpace {
        &self.space
    }

    /// The ranking in use.
    pub fn ranking(&self) -> &Ranking {
        &self.ranking
    }

    /// The ranked counting index (single or sharded).
    pub fn index(&self) -> &AuditIndex {
        &self.index
    }

    /// Worker threads [`Audit::run`] uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Renders a pattern with attribute names and value labels.
    pub fn describe(&self, p: &Pattern) -> String {
        self.space.display(p)
    }

    /// Row ids of the tuples matching `p`.
    pub fn group_members(&self, p: &Pattern) -> Vec<u32> {
        let n = u32::try_from(self.dataset.n_rows()).expect("row count fits TupleId");
        (0..n)
            .filter(|&r| p.matches(|a| self.dataset.code(r as usize, self.space.dataset_col(a))))
            .collect()
    }

    /// Enriches an outcome into per-`k` display reports (both directions).
    pub fn report(&self, out: &AuditOutcome, task: &AuditTask) -> Vec<KReport> {
        summarize_audit(out, &self.index, &self.space, task)
    }

    fn validate(&self, cfg: &DetectConfig, task: &AuditTask) -> Result<(), AuditError> {
        validate_task(cfg, task, self.index.n())
    }

    /// The borrowed execution core shared with [`crate::MonitorAudit`].
    fn parts(&self) -> AuditParts<'_, AuditIndex> {
        AuditParts {
            dataset: &self.dataset,
            space: &self.space,
            ranking: &self.ranking,
            index: &self.index,
        }
    }

    /// Executes `task` over `cfg`'s `k` range.
    ///
    /// With [`AuditBuilder::threads`] > 1 (and no deadline) the range is
    /// split into contiguous chunks executed on `std::thread::scope`
    /// workers that share the immutable index; every algorithm is exact
    /// for any starting `k`, so the concatenated `per_k` is identical to
    /// the single-threaded result (only the work counters differ, since
    /// each chunk pays its own initial build). Deadline-bound runs stay
    /// sequential so truncation keeps its prefix semantics; both the
    /// under- and over-representation loops honor the deadline and mark
    /// [`SearchStats::timed_out`].
    pub fn run(
        &self,
        cfg: &DetectConfig,
        task: &AuditTask,
        engine: Engine,
    ) -> Result<AuditOutcome, AuditError> {
        self.validate(cfg, task)?;
        let threads = self.threads.min(cfg.range_len()).max(1);
        if threads == 1 || cfg.deadline.is_some() {
            return Ok(self.run_range(cfg, task, engine));
        }
        let chunk = cfg.range_len().div_ceil(threads);
        let ranges: Vec<(usize, usize)> = (0..threads)
            .map(|i| {
                let lo = cfg.k_min + i * chunk;
                let hi = (lo + chunk - 1).min(cfg.k_max);
                (lo, hi)
            })
            .filter(|(lo, hi)| lo <= hi)
            .collect();
        let parts: Vec<AuditOutcome> = std::thread::scope(|s| {
            let handles: Vec<_> = ranges
                .iter()
                .map(|&(lo, hi)| {
                    let sub = DetectConfig {
                        tau_s: cfg.tau_s,
                        k_min: lo,
                        k_max: hi,
                        deadline: None,
                    };
                    s.spawn(move || self.run_range(&sub, task, engine))
                })
                .collect();
            handles
                .into_iter()
                // lint:allow(panic-reachability) -- join() only errs if the worker panicked; re-raising that panic is propagation, not a new panic path
                .map(|h| h.join().expect("audit worker"))
                .collect()
        });
        let mut per_k = Vec::with_capacity(cfg.range_len());
        let mut stats = SearchStats::default();
        for part in parts {
            per_k.extend(part.per_k);
            stats.merge(&part.stats);
        }
        Ok(AuditOutcome { per_k, stats })
    }

    /// Sequential execution over one contiguous sub-range (already
    /// validated).
    fn run_range(&self, cfg: &DetectConfig, task: &AuditTask, engine: Engine) -> AuditOutcome {
        self.parts().run_range(cfg, task, engine)
    }
}

/// Shared validation of a `(config, task)` pair against a universe of `n`
/// ranked tuples — used by [`Audit`] and [`crate::MonitorAudit`].
pub(crate) fn validate_task(
    cfg: &DetectConfig,
    task: &AuditTask,
    n: usize,
) -> Result<(), AuditError> {
    if cfg.k_max > n {
        return Err(AuditError::InvalidKRange {
            k_max: cfg.k_max,
            n,
        });
    }
    // The finiteness check must come first: a bare `alpha <= 0.0` is
    // false for NaN, which would sail through and mark nothing biased.
    if let AuditTask::UnderRep(BiasMeasure::Proportional { alpha }) = task {
        if !alpha.is_finite() || *alpha <= 0.0 {
            return Err(AuditError::InvalidAlpha(*alpha));
        }
    }
    let bounds_of = |task: &AuditTask| -> Vec<Bounds> {
        match task {
            AuditTask::UnderRep(BiasMeasure::GlobalLower(b)) => vec![b.clone()],
            AuditTask::UnderRep(BiasMeasure::Proportional { .. }) => Vec::new(),
            AuditTask::OverRep { upper, .. } => vec![upper.clone()],
            AuditTask::Combined { lower, upper } => vec![lower.clone(), upper.clone()],
        }
    };
    for b in bounds_of(task) {
        b.validate().map_err(AuditError::InvalidBound)?;
    }
    Ok(())
}

/// The borrowed pieces an audit task executes against. [`Audit`] owns one
/// set; [`crate::MonitorAudit`] owns an *evolving* set and re-runs tasks
/// over sub-ranges of `k` after ranking edits — both drive exactly this
/// code, so a delta re-audit can never drift from a full audit.
pub(crate) struct AuditParts<'a, I: CountsProvider> {
    pub dataset: &'a Dataset,
    pub space: &'a PatternSpace,
    pub ranking: &'a Ranking,
    pub index: &'a I,
}

/// The persistent engine state a [`crate::MonitorAudit`] carries between
/// delta re-audits: per-direction [`Store`]s (the shared node arena plus
/// counts-only tree snapshots every `cadence` values of `k`, grid
/// `k ≡ k_min (mod cadence)`) and the replay work counters. The monitor
/// invalidates entries that an edit batch made stale — the changed-`k`
/// segments for a pure reorder, everything (arena included) for an
/// insertion — and [`AuditParts::run_range_checkpointed`] heals the holes
/// while recomputing.
#[derive(Debug)]
pub(crate) struct EngineCheckpoints {
    /// Grid spacing `C`: one snapshot every `C` values of `k`.
    pub(crate) cadence: usize,
    /// Lower-policy arena + snapshots (UnderRep and the lower half of
    /// Combined).
    pub(crate) lower: Store<LowerSets>,
    /// Upper-policy arena + snapshots (OverRep and the upper half of
    /// Combined).
    pub(crate) upper: Store<FxHashSet<u32>>,
    /// Seek/build/replay counters accumulated over the monitor's life.
    pub(crate) counters: ReplayCounters,
    /// Checkpoints dropped by edit invalidation so far.
    pub(crate) invalidated: u64,
}

impl EngineCheckpoints {
    pub(crate) fn new(cadence: usize) -> Self {
        EngineCheckpoints {
            cadence: cadence.max(1),
            lower: Store::default(),
            upper: Store::default(),
            counters: ReplayCounters::default(),
            invalidated: 0,
        }
    }

    /// Drops every checkpoint *and* both arenas — an insertion moved `n`
    /// and `s_D`, which every interned node's pruned verdict and every
    /// snapshot's classification depend on.
    pub(crate) fn invalidate_all(&mut self) {
        self.invalidated += (self.lower.clear() + self.upper.clear()) as u64;
    }

    /// Live checkpoints per direction.
    pub(crate) fn live(&self) -> (usize, usize) {
        (self.lower.snaps.len(), self.upper.snaps.len())
    }

    /// Total node slots held across every stored snapshot (each one
    /// `u32` count plus frontier bits — the arena is shared, not cloned).
    pub(crate) fn stored_nodes(&self) -> usize {
        self.lower
            .snaps
            .iter()
            .map(|cp| cp.stored_nodes())
            .sum::<usize>()
            + self
                .upper
                .snaps
                .iter()
                .map(|cp| cp.stored_nodes())
                .sum::<usize>()
    }

    /// Nodes interned across both arenas (the steady-state memory
    /// driver; checkpoints only add counts-vector slots on top).
    pub(crate) fn arena_nodes(&self) -> usize {
        self.lower.arena.nodes.len() + self.upper.arena.nodes.len()
    }
}

/// Zips per-direction outputs into one outcome; an over side behind an
/// under side covers a prefix of its `k` values.
fn join_sides(under: Option<DetectionOutput>, over: Option<DetectionOutput>) -> AuditOutcome {
    let row = |k, under, over| AuditKResult { k, under, over };
    let (mut per_k, mut stats) = match under {
        Some(low) => {
            let rows = low
                .per_k
                .into_iter()
                .map(|kr| row(kr.k, kr.patterns, Vec::new()));
            (Some(rows.collect::<Vec<_>>()), low.stats)
        }
        None => (None, SearchStats::default()),
    };
    if let Some(high) = over {
        // The two directions ran back to back: report their total, not
        // the max `merge` takes for parallel workers.
        let elapsed = stats.elapsed + high.stats.elapsed;
        stats.merge(&high.stats);
        stats.elapsed = elapsed;
        per_k = Some(match per_k {
            Some(rows) => rows
                .into_iter()
                .zip(high.per_k)
                .map(|(r, h)| row(r.k, r.under, h.patterns))
                .collect(),
            None => high
                .per_k
                .into_iter()
                .map(|kr| row(kr.k, Vec::new(), kr.patterns))
                .collect(),
        });
    }
    AuditOutcome {
        per_k: per_k.unwrap_or_default(),
        stats,
    }
}

/// How a pure-reorder edit batch moved the ranking: the hull start `lo`
/// (smallest rank position whose occupant changed) and the pre-batch
/// order. A checkpoint at `k ≤ lo` or `k > hi` is untouched by the
/// reorder; the one seek checkpoint that can land inside `(lo, hi]` is
/// **repaired** from this spec instead of discarded — the top-`k` set
/// diff is bounded by the number of moved tuples, never by the span, so
/// the repair costs a handful of ±count walks plus one store rescan
/// where a discard would cost a from-scratch build at `k_min`.
pub(crate) struct ReorderSpec {
    /// Smallest rank position whose occupant changed.
    pub lo: usize,
    /// The full pre-batch rank order.
    pub old_order: Vec<TupleId>,
}

/// The top-`k` set transition of a reorder whose hull starts at `lo`:
/// `(entering, leaving)` rank positions **in the new order**. Entering
/// tuples (joined the top-`k`) sit at their new positions `< k`; leaving
/// tuples sit at their new positions `≥ k`, where the patched index can
/// still read their attribute codes.
pub(crate) fn top_k_diff(
    k: usize,
    lo: usize,
    old_order: &[TupleId],
    new_order: &[TupleId],
) -> (Vec<usize>, Vec<usize>) {
    debug_assert!(lo < k && k <= old_order.len() && old_order.len() == new_order.len());
    // Only the window [lo, k) can differ between the two top-k sets; hash
    // the windows so the diff stays linear in the window even when a
    // top-of-ranking edit meets a large `k_min` (window = [0, k_min)).
    let old_w: crate::util::FxHashSet<TupleId> = old_order[lo..k].iter().copied().collect();
    let new_w: crate::util::FxHashSet<TupleId> = new_order[lo..k].iter().copied().collect();
    let entering: Vec<usize> = (lo..k)
        .filter(|&p| !old_w.contains(&new_order[p]))
        .collect();
    let mut remaining: crate::util::FxHashSet<TupleId> =
        old_w.difference(&new_w).copied().collect();
    debug_assert_eq!(entering.len(), remaining.len());
    let mut leaving = Vec::with_capacity(remaining.len());
    if !remaining.is_empty() {
        for (off, r) in new_order[k..].iter().enumerate() {
            if remaining.remove(r) {
                leaving.push(k + off);
                if remaining.is_empty() {
                    break;
                }
            }
        }
        debug_assert!(remaining.is_empty(), "leaving tuples must reappear below k");
    }
    (entering, leaving)
}

impl<I: CountsProvider> AuditParts<'_, I> {
    /// Sequential execution over one contiguous, already validated `k`
    /// sub-range.
    pub(crate) fn run_range(
        &self,
        cfg: &DetectConfig,
        task: &AuditTask,
        engine: Engine,
    ) -> AuditOutcome {
        let (under, over) = task.sides();
        let low = under.map(|measure| self.run_under(cfg, &measure, engine));
        let high = over.and_then(|(upper, scope)| {
            // Behind an under side, only compute the k values the
            // (possibly deadline-truncated) under side produced — no work
            // whose results the zip would discard — and on the *remaining*
            // wall-clock budget, not a fresh one.
            let over_cfg = match &low {
                Some(low) => DetectConfig {
                    k_max: low.per_k.last()?.k,
                    deadline: cfg.deadline.map(|d| d.saturating_sub(low.stats.elapsed)),
                    ..cfg.clone()
                },
                None => cfg.clone(),
            };
            Some(self.run_over(&over_cfg, &upper, scope, engine))
        });
        join_sides(low, high)
    }

    /// Checkpointed execution over the disjoint ascending `k` segments
    /// `spans` (each `[lo, hi]` inclusive) —
    /// [`crate::MonitorAudit`]'s delta path with `Engine::Optimized`.
    ///
    /// Functionally identical to [`AuditParts::run_range`] over the same
    /// `k` values (both drive the same tree step code; the differential
    /// sweeps assert equality), but it seeks into `ckpts`'s stored
    /// snapshots instead of building from scratch at each segment's first
    /// `k`, repairing the seek checkpoint against `reorder` when an edit
    /// swallowed it, and refreshes snapshots as it replays. Deadlines are
    /// unsupported (monitors reject them at construction): a truncated
    /// replay would leave the checkpoint store inconsistent with the
    /// cached results.
    pub(crate) fn run_range_checkpointed(
        &self,
        cfg: &DetectConfig,
        spans: &[(usize, usize)],
        task: &AuditTask,
        ckpts: &mut EngineCheckpoints,
        reorder: Option<&ReorderSpec>,
    ) -> AuditOutcome {
        debug_assert!(cfg.deadline.is_none(), "checkpointed runs take no deadline");
        let (under, over) = task.sides();
        let reorder = reorder.map(|r| (r, self.ranking.order()));
        let (index, space, cadence) = (self.index, self.space, ckpts.cadence);
        let low = under.map(|measure| {
            let lower = Lower::new(measure, cfg.k_max);
            tree::replay(
                index,
                space,
                cfg,
                lower,
                spans,
                reorder,
                &mut ckpts.lower,
                cadence,
                &mut ckpts.counters,
            )
        });
        let high = over.map(|(upper, scope)| {
            let upper = Upper::new(upper, scope);
            tree::replay(
                index,
                space,
                cfg,
                upper,
                spans,
                reorder,
                &mut ckpts.upper,
                cadence,
                &mut ckpts.counters,
            )
        });
        join_sides(low, high)
    }

    fn run_under(
        &self,
        cfg: &DetectConfig,
        measure: &BiasMeasure,
        engine_sel: Engine,
    ) -> DetectionOutput {
        match engine_sel {
            Engine::Baseline => topdown::iter_td(self.index, self.space, cfg, measure),
            Engine::Optimized => match measure {
                BiasMeasure::GlobalLower(b) => {
                    engine::global_bounds(self.index, self.space, cfg, b)
                }
                BiasMeasure::Proportional { alpha } => {
                    engine::prop_bounds(self.index, self.space, cfg, *alpha)
                }
            },
        }
    }

    fn run_over(
        &self,
        cfg: &DetectConfig,
        upper: &Bounds,
        scope: OverRepScope,
        engine_sel: Engine,
    ) -> DetectionOutput {
        // The optimized path is the incremental upper policy: one build at
        // `k_min`, then per-`k` subtree walks and frontier deltas instead
        // of a fresh DFS plus full maximality sweep at every `k`.
        if engine_sel == Engine::Optimized {
            return upper_engine::upper_incremental(self.index, self.space, cfg, upper, scope);
        }
        // Brute force, on a different code path from the optimized
        // searches. The substantial set depends only on τs, so the first
        // `k` enumerates it once per run, inside the runner's guard so
        // that time counts against the budget. Within each `k` the guard
        // is polled per pattern: a deadline overrun is bounded by one
        // naive count, not by a whole `k` value.
        let (ds, space, ranking) = (self.dataset, self.space, self.ranking);
        let mut substantial: Option<Vec<Pattern>> = None;
        topdown::run_range(cfg, |k, stats, guard| {
            let substantial = substantial.get_or_insert_with(|| {
                let all = oracle::enumerate_substantial(ds, space, ranking, cfg.tau_s);
                stats.nodes_evaluated += all.len() as u64;
                all
            });
            let u = upper.at(k);
            let over = |count| count > u;
            oracle::extremal(ds, space, ranking, substantial, k, over, scope, || {
                guard.expired()
            })
        })
    }
}

impl Audit {
    /// Lazily yields the [`AuditKResult`] for each `k` on demand,
    /// maintaining the incremental engines between pulls — the owned
    /// successor of the deprecated `DetectionStream`.
    ///
    /// Later `k` values cost nothing unless pulled; **both** directions
    /// run their optimized incremental engine (the under side via
    /// `GlobalBounds`/`PropBounds`, the over side via the incremental
    /// upper engine).
    pub fn run_streaming(
        &self,
        cfg: &DetectConfig,
        task: &AuditTask,
    ) -> Result<AuditStream<'_>, AuditError> {
        self.validate(cfg, task)?;
        let (under, over) = task.sides();
        let under = under.map(|measure| {
            let lower = Lower::new(measure, cfg.k_max);
            Stream::new(&self.index, &self.space, cfg, lower)
        });
        let over = over.map(|(upper, scope)| {
            Stream::new(&self.index, &self.space, cfg, Upper::new(upper, scope))
        });
        Ok(AuditStream {
            k_max: cfg.k_max,
            under,
            over,
            next_k: cfg.k_min,
        })
    }
}

/// Lazy per-`k` iterator returned by [`Audit::run_streaming`].
pub struct AuditStream<'a> {
    k_max: usize,
    under: Option<Stream<'a, AuditIndex, Lower>>,
    over: Option<Stream<'a, AuditIndex, Upper>>,
    next_k: usize,
}

impl AuditStream<'_> {
    /// Instrumentation counters accumulated so far (both directions).
    pub fn stats(&self) -> SearchStats {
        let mut stats = self.over.as_ref().map(|s| s.stats()).unwrap_or_default();
        if let Some(s) = &self.under {
            stats.merge(&s.stats());
        }
        stats
    }

    /// Whether either side stopped early on the deadline.
    pub fn timed_out(&self) -> bool {
        let under = self.under.as_ref().is_some_and(|s| s.timed_out());
        under || self.over.as_ref().is_some_and(|s| s.timed_out())
    }
}

impl Iterator for AuditStream<'_> {
    type Item = AuditKResult;

    fn next(&mut self) -> Option<AuditKResult> {
        if self.next_k > self.k_max {
            return None;
        }
        // Each side enforces the deadline inside its incremental engine;
        // if either truncates, the zipped stream ends (truncate-and-flag,
        // matching the batch path).
        let k = self.next_k;
        let under = match &mut self.under {
            Some(stream) => stream.next()?.patterns,
            None => Vec::new(),
        };
        let over = match &mut self.over {
            Some(stream) => stream.next()?.patterns,
            None => Vec::new(),
        };
        self.next_k += 1;
        Some(AuditKResult { k, under, over })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rankfair_data::examples::{fig1_rank_order, students_fig1};
    use rankfair_rank::{AttributeRanker, SortKey};

    fn fig1_audit() -> Audit {
        Audit::builder(Arc::new(students_fig1()))
            .ranking(Ranking::from_order(fig1_rank_order()).unwrap())
            .build()
            .unwrap()
    }

    #[test]
    fn builder_with_ranker_matches_precomputed() {
        let ds = Arc::new(students_fig1());
        let ranker = AttributeRanker::new(vec![SortKey::desc("Grade"), SortKey::asc("Failures")]);
        let via_ranker = Audit::builder(Arc::clone(&ds))
            .ranker(&ranker)
            .build()
            .unwrap();
        let via_order = fig1_audit();
        let cfg = DetectConfig::new(4, 4, 5);
        let task = AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::constant(2)));
        assert_eq!(
            via_ranker
                .run(&cfg, &task, Engine::Optimized)
                .unwrap()
                .per_k,
            via_order.run(&cfg, &task, Engine::Optimized).unwrap().per_k,
        );
    }

    #[test]
    fn builder_errors_are_typed() {
        let ds = Arc::new(students_fig1());
        assert_eq!(
            Audit::builder(Arc::clone(&ds)).build().unwrap_err(),
            AuditError::MissingRanking
        );
        let short = Ranking::from_order(vec![0, 1, 2]).unwrap();
        assert!(matches!(
            Audit::builder(Arc::clone(&ds))
                .ranking(short)
                .build()
                .unwrap_err(),
            AuditError::RankingMismatch {
                ranking: 3,
                rows: 16
            }
        ));
        let bad_attr = Audit::builder(Arc::clone(&ds))
            .ranking(Ranking::from_order(fig1_rank_order()).unwrap())
            .attributes(["Nope"])
            .build();
        assert!(matches!(
            bad_attr.unwrap_err(),
            AuditError::Space(SpaceError::UnknownColumn(_))
        ));
    }

    #[test]
    fn run_validates_range_and_alpha() {
        let audit = fig1_audit();
        let cfg = DetectConfig::new(2, 2, 17);
        let task = AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::constant(2)));
        assert_eq!(
            audit.run(&cfg, &task, Engine::Optimized).unwrap_err(),
            AuditError::InvalidKRange { k_max: 17, n: 16 }
        );
        let cfg = DetectConfig::new(2, 2, 5);
        let bad = AuditTask::UnderRep(BiasMeasure::Proportional { alpha: 0.0 });
        assert_eq!(
            audit.run(&cfg, &bad, Engine::Optimized).unwrap_err(),
            AuditError::InvalidAlpha(0.0)
        );
    }

    #[test]
    fn run_rejects_nan_and_negative_parameters() {
        // Regression: a NaN α passed `alpha <= 0.0` (false for NaN) and a
        // NaN/negative `LinearFraction` was never inspected — both
        // produced silently empty or all-biased results.
        let audit = fig1_audit();
        let cfg = DetectConfig::new(2, 2, 5);
        let nan_alpha = AuditTask::UnderRep(BiasMeasure::Proportional { alpha: f64::NAN });
        assert!(matches!(
            audit.run(&cfg, &nan_alpha, Engine::Optimized).unwrap_err(),
            AuditError::InvalidAlpha(a) if a.is_nan()
        ));
        let nan_lower =
            AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::LinearFraction(f64::NAN)));
        assert!(matches!(
            audit.run(&cfg, &nan_lower, Engine::Optimized).unwrap_err(),
            AuditError::InvalidBound(v) if v.is_nan()
        ));
        let neg_upper = AuditTask::OverRep {
            upper: Bounds::LinearFraction(-0.5),
            scope: OverRepScope::MostSpecific,
        };
        assert_eq!(
            audit.run(&cfg, &neg_upper, Engine::Optimized).unwrap_err(),
            AuditError::InvalidBound(-0.5)
        );
        let bad_combined = AuditTask::Combined {
            lower: Bounds::constant(1),
            upper: Bounds::LinearFraction(f64::INFINITY),
        };
        assert!(matches!(
            audit
                .run(&cfg, &bad_combined, Engine::Optimized)
                .unwrap_err(),
            AuditError::InvalidBound(_)
        ));
        // The streaming entry point validates identically.
        assert!(audit.run_streaming(&cfg, &nan_alpha).is_err());
        // Well-formed fractional bounds still pass.
        let ok = AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::LinearFraction(0.25)));
        assert!(audit.run(&cfg, &ok, Engine::Optimized).is_ok());
    }

    #[test]
    fn under_rep_matches_example_4_6() {
        let audit = fig1_audit();
        let cfg = DetectConfig::new(4, 4, 5);
        let task = AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::constant(2)));
        let out = audit.run(&cfg, &task, Engine::Optimized).unwrap();
        let k4: Vec<String> = out.per_k[0]
            .under
            .iter()
            .map(|p| audit.describe(p))
            .collect();
        for e in ["{School=GP}", "{Address=U}", "{Failures=1}", "{Failures=2}"] {
            assert!(k4.contains(&e.to_string()), "missing {e}: {k4:?}");
        }
        assert!(out.per_k.iter().all(|kr| kr.over.is_empty()));
    }

    #[test]
    fn all_tasks_agree_between_engines_on_fig1() {
        let audit = fig1_audit();
        let cfg = DetectConfig::new(2, 3, 16);
        let tasks = [
            AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::constant(2))),
            AuditTask::UnderRep(BiasMeasure::Proportional { alpha: 0.8 }),
            AuditTask::OverRep {
                upper: Bounds::constant(2),
                scope: OverRepScope::MostSpecific,
            },
            AuditTask::OverRep {
                upper: Bounds::constant(1),
                scope: OverRepScope::MostGeneral,
            },
            AuditTask::Combined {
                lower: Bounds::constant(2),
                upper: Bounds::constant(3),
            },
        ];
        for task in &tasks {
            let opt = audit.run(&cfg, task, Engine::Optimized).unwrap();
            let base = audit.run(&cfg, task, Engine::Baseline).unwrap();
            assert_eq!(opt.per_k, base.per_k, "{task:?}");
        }
    }

    #[test]
    fn combined_reports_both_directions() {
        let audit = fig1_audit();
        let cfg = DetectConfig::new(4, 4, 6);
        let task = AuditTask::Combined {
            lower: Bounds::constant(2),
            upper: Bounds::constant(2),
        };
        let out = audit.run(&cfg, &task, Engine::Optimized).unwrap();
        assert_eq!(out.per_k.len(), 3);
        assert!(out.per_k.iter().any(|kr| !kr.under.is_empty()));
        assert!(out.per_k.iter().any(|kr| !kr.over.is_empty()));
        for kr in &out.per_k {
            for p in &kr.over {
                let (sd, count) = audit.index().counts(p, kr.k);
                assert!(sd >= 4 && count > 2);
            }
        }
    }

    #[test]
    fn parallel_run_is_byte_identical_for_every_task() {
        let ds = Arc::new(students_fig1());
        let ranking = Ranking::from_order(fig1_rank_order()).unwrap();
        let seq = Audit::builder(Arc::clone(&ds))
            .ranking(ranking.clone())
            .build()
            .unwrap();
        let par = Audit::builder(Arc::clone(&ds))
            .ranking(ranking)
            .threads(4)
            .build()
            .unwrap();
        let cfg = DetectConfig::new(2, 2, 16);
        let tasks = [
            AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::steps(vec![
                (2, 1),
                (6, 2),
                (10, 3),
            ]))),
            AuditTask::UnderRep(BiasMeasure::Proportional { alpha: 0.9 }),
            AuditTask::OverRep {
                upper: Bounds::constant(2),
                scope: OverRepScope::MostSpecific,
            },
            AuditTask::Combined {
                lower: Bounds::constant(2),
                upper: Bounds::constant(3),
            },
        ];
        for task in &tasks {
            let a = seq.run(&cfg, task, Engine::Optimized).unwrap();
            let b = par.run(&cfg, task, Engine::Optimized).unwrap();
            assert_eq!(a.per_k, b.per_k, "{task:?}");
        }
    }

    #[test]
    fn sharded_builder_matches_unsharded_for_every_task() {
        let ds = Arc::new(students_fig1());
        let ranking = Ranking::from_order(fig1_rank_order()).unwrap();
        let single = Audit::builder(Arc::clone(&ds))
            .ranking(ranking.clone())
            .build()
            .unwrap();
        assert_eq!(single.index().shard_count(), 1);
        let cfg = DetectConfig::new(2, 2, 16);
        let tasks = [
            AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::constant(2))),
            AuditTask::UnderRep(BiasMeasure::Proportional { alpha: 0.8 }),
            AuditTask::OverRep {
                upper: Bounds::constant(2),
                scope: OverRepScope::MostSpecific,
            },
            AuditTask::Combined {
                lower: Bounds::constant(2),
                upper: Bounds::constant(3),
            },
        ];
        for shards in [2, 4, 7] {
            let sharded = Audit::builder(Arc::clone(&ds))
                .ranking(ranking.clone())
                .shards(shards)
                .build()
                .unwrap();
            assert_eq!(sharded.index().shard_count(), shards);
            for task in &tasks {
                for engine in [Engine::Optimized, Engine::Baseline] {
                    let a = single.run(&cfg, task, engine).unwrap();
                    let b = sharded.run(&cfg, task, engine).unwrap();
                    assert_eq!(a.per_k, b.per_k, "shards={shards} {task:?} {engine:?}");
                }
                let streamed: Vec<AuditKResult> =
                    sharded.run_streaming(&cfg, task).unwrap().collect();
                assert_eq!(
                    single.run(&cfg, task, Engine::Optimized).unwrap().per_k,
                    streamed,
                    "streaming shards={shards} {task:?}"
                );
            }
        }
    }

    #[test]
    fn audit_is_shareable_across_threads() {
        let audit = fig1_audit();
        let cfg = DetectConfig::new(2, 4, 8);
        let task = AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::constant(2)));
        let expected = audit.run(&cfg, &task, Engine::Optimized).unwrap().per_k;
        std::thread::scope(|s| {
            for _ in 0..4 {
                let (audit, cfg, task, expected) = (&audit, &cfg, &task, &expected);
                s.spawn(move || {
                    let got = audit.run(cfg, task, Engine::Optimized).unwrap();
                    assert_eq!(&got.per_k, expected);
                });
            }
        });
    }

    #[test]
    fn streaming_matches_batch_for_every_task() {
        let audit = fig1_audit();
        let cfg = DetectConfig::new(2, 3, 16);
        let tasks = [
            AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::constant(2))),
            AuditTask::UnderRep(BiasMeasure::Proportional { alpha: 0.8 }),
            AuditTask::OverRep {
                upper: Bounds::constant(2),
                scope: OverRepScope::MostSpecific,
            },
            AuditTask::Combined {
                lower: Bounds::constant(2),
                upper: Bounds::constant(3),
            },
        ];
        for task in &tasks {
            let batch = audit.run(&cfg, task, Engine::Optimized).unwrap();
            let streamed: Vec<AuditKResult> = audit.run_streaming(&cfg, task).unwrap().collect();
            assert_eq!(batch.per_k, streamed, "{task:?}");
        }
    }

    #[test]
    fn streaming_is_lazy_and_stoppable() {
        let audit = fig1_audit();
        let cfg = DetectConfig::new(2, 2, 16);
        let task = AuditTask::UnderRep(BiasMeasure::Proportional { alpha: 0.8 });
        let mut stream = audit.run_streaming(&cfg, &task).unwrap();
        let first = stream.next().unwrap();
        assert_eq!(first.k, 2);
        let after_one = stream.stats().nodes_evaluated;
        let ks: Vec<usize> = stream.by_ref().take(3).map(|kr| kr.k).collect();
        assert_eq!(ks, vec![3, 4, 5]);
        assert!(stream.stats().nodes_evaluated >= after_one);
        assert!(!stream.timed_out());
    }

    #[test]
    fn every_task_flags_deadline_truncation() {
        let audit = fig1_audit();
        let full_cfg = DetectConfig::new(1, 2, 16);
        let tasks = [
            AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::constant(2))),
            AuditTask::UnderRep(BiasMeasure::Proportional { alpha: 0.8 }),
            AuditTask::OverRep {
                upper: Bounds::constant(1),
                scope: OverRepScope::MostSpecific,
            },
            AuditTask::Combined {
                lower: Bounds::constant(2),
                upper: Bounds::constant(3),
            },
        ];
        for task in &tasks {
            let full = audit.run(&full_cfg, task, Engine::Optimized).unwrap();
            assert_eq!(full.per_k.len(), 15, "{task:?}");
            for deadline in [None, Some(std::time::Duration::ZERO)] {
                let cfg = DetectConfig {
                    deadline,
                    ..full_cfg.clone()
                };
                let batch = audit.run(&cfg, task, Engine::Optimized).unwrap();
                let mut stream = audit.run_streaming(&cfg, task).unwrap();
                let streamed: Vec<AuditKResult> = stream.by_ref().collect();
                let stream_stats = stream.stats();
                assert_eq!(stream.timed_out(), stream_stats.timed_out, "{task:?}");
                if deadline.is_none() {
                    assert!(!stream_stats.elapsed.is_zero(), "{task:?}");
                }
                for (mode, per_k, stats) in [
                    ("run", &batch.per_k, &batch.stats),
                    ("run_streaming", &streamed, &stream_stats),
                ] {
                    // A truncated run says so, and its prefix is exact.
                    let truncated = per_k.len() < full.per_k.len();
                    assert_eq!(stats.timed_out, truncated, "{task:?} {deadline:?} {mode}");
                    assert_eq!(per_k[..], full.per_k[..per_k.len()], "{task:?} {mode}");
                }
            }
        }
    }

    #[test]
    fn bucketize_hook_prepares_detection_dataset() {
        // Rank on the numeric Grade, then bucketize it for detection: the
        // grade becomes a pattern attribute without disturbing the ranking.
        let ds = Arc::new(students_fig1());
        let ranker = AttributeRanker::new(vec![SortKey::desc("Grade"), SortKey::asc("Failures")]);
        let audit = Audit::builder(Arc::clone(&ds))
            .ranker(&ranker)
            .bucketize("Grade", 3)
            .build()
            .unwrap();
        assert_eq!(audit.space().n_attrs(), 5); // 4 categorical + bucketized Grade
        assert!(audit.space().attr_by_name("Grade").is_some());
        // The source dataset is untouched (copy-on-prepare).
        assert!(ds.column_by_name("Grade").unwrap().codes().is_none());
        // Hooks that fail surface as typed errors.
        let err = Audit::builder(Arc::clone(&ds))
            .ranker(&ranker)
            .bucketize("Nope", 3)
            .build()
            .unwrap_err();
        assert!(matches!(err, AuditError::Prepare(_)));
    }
}
