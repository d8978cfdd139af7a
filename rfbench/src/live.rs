//! `live-monitor`: one optimized `MonitorAudit` kept current under a
//! seeded stream of edit batches. Closed loop on one thread; one operation
//! is one `apply` call.
//!
//! The time goes to rank patching, `rewrite_span`, checkpoint seek and
//! repair, segmented replay, the per-`k` walk and reclassify, and the
//! diff. The index is built only at set-up and on inserts; json, net and
//! the cache are never touched.
//!
//! Batch sizes and shapes come from shuffled decks of 20, so every run
//! holds the stated mix exactly and the per-run figures depend little on
//! the seed: sizes 1 / 4 / 16 for 50% / 30% / 20% of batches; shapes
//! dense (60%, rows above `k_max + 30` nudged by up to 25 positions),
//! sparse (25%, two tight clusters near `k_min` and `k_max` nudged by 1–2)
//! and far (15%, rows below `3·k_max`, which change no top-`k` set). Every
//! 100th batch also inserts a tuple, which voids the checkpoints.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};
use rankfair::core::{
    Audit, AuditTask, Bounds, CheckpointStats, DeltaReport, DetectConfig, Engine, MonitorAudit,
    RankingEdit,
};
use rankfair::data::{Column, Dataset, RowValue};
use rankfair::prelude::{compas_workload, AttributeRanker};
use rankfair::rank::ScoredRanking;

use crate::stats::mean;
use crate::trace::{ledger, SpanId, Tracer};
use crate::{kernel_probe, repeat_setup, trace_summary, Args, EndToEnd, Report, DATA_SEED};

const ATTRS: usize = 11;
const TAU_S: usize = 50;
const K_MIN: usize = 10;
const K_MAX: usize = 199;
const SCORE: &str = "__score";
/// Batches between full checks against a fresh audit.
const CHECK_EVERY: usize = 250;
/// Every this many batches, one batch also inserts a tuple (1%).
const INSERT_EVERY: usize = 100;
/// Batches applied during set-up, before the timed loop.
const WARMUP_BATCHES: usize = 20;

/// `CheckpointStats` counters reported as per-batch deltas.
pub const CHECKPOINT_COUNTERS: [&str; 6] = [
    "seeks",
    "repairs",
    "cold_builds",
    "replayed_steps",
    "prefix_recounts",
    "invalidated",
];

fn counters(c: &CheckpointStats) -> [u64; 6] {
    [
        c.seeks,
        c.repairs,
        c.cold_builds,
        c.replayed_steps,
        c.prefix_recounts,
        c.invalidated,
    ]
}

fn task() -> AuditTask {
    AuditTask::Combined {
        lower: Bounds::paper_default(),
        upper: Bounds::steps(vec![(10, 6), (20, 12), (30, 18), (40, 24)]),
    }
}

fn cfg() -> DetectConfig {
    DetectConfig::new(TAU_S, K_MIN, K_MAX)
}

#[derive(Debug, Clone, Copy)]
enum Shape {
    Dense,
    Sparse,
    Far,
}

/// The seeded batch stream. It reads positions and scores from the
/// benchmark's mirror `ScoredRanking` and patches the mirror as it goes,
/// so every edit targets the position it names.
struct Stream {
    rng: StdRng,
    deck: Vec<(usize, Shape)>,
    batches: usize,
}

impl Stream {
    fn new(seed: u64) -> Stream {
        Stream {
            rng: StdRng::seed_from_u64(seed ^ 0x11fe_3017),
            deck: Vec::new(),
            batches: 0,
        }
    }

    fn refill(&mut self) {
        let mut sizes: Vec<usize> = [(1, 10), (4, 6), (16, 4)]
            .iter()
            .flat_map(|&(size, count)| std::iter::repeat_n(size, count))
            .collect();
        let mut shapes: Vec<Shape> = [(Shape::Dense, 12), (Shape::Sparse, 5), (Shape::Far, 3)]
            .iter()
            .flat_map(|&(shape, count)| std::iter::repeat_n(shape, count))
            .collect();
        sizes.shuffle(&mut self.rng);
        shapes.shuffle(&mut self.rng);
        self.deck = sizes.into_iter().zip(shapes).collect();
    }

    /// The next batch; `patch` accumulates the mirror's patch time and
    /// `tr` gets one `rank.patch` span per mirror edit.
    fn next(
        &mut self,
        mirror: &mut ScoredRanking,
        ds: &Dataset,
        tr: &mut Tracer,
        op: u32,
        root: SpanId,
    ) -> Vec<RankingEdit> {
        if self.deck.is_empty() {
            self.refill();
        }
        let (size, shape) = self.deck.pop().expect("refilled deck");
        let n = mirror.len();
        let mut edits = Vec::with_capacity(size + 1);
        for i in 0..size {
            let rng = &mut self.rng;
            let (from, nudge, floor) = match shape {
                Shape::Dense => (
                    rng.random_range(0..K_MAX + 30),
                    rng.random_range(1..=25usize),
                    0,
                ),
                Shape::Sparse => {
                    let base = if i % 2 == 0 { K_MIN } else { K_MAX };
                    (
                        base - 1 + rng.random_range(0..3usize),
                        rng.random_range(1..=2usize),
                        0,
                    )
                }
                Shape::Far => (
                    rng.random_range(3 * K_MAX..n),
                    rng.random_range(1..=25usize),
                    3 * K_MAX,
                ),
            };
            let to = if rng.random::<bool>() {
                from.saturating_sub(nudge).max(floor)
            } else {
                (from + nudge).min(n - 1)
            };
            let row = mirror.order()[from];
            let score = score_landing_at(mirror, from, to);
            let sp = tr.begin(op, root, "rank.patch");
            mirror
                .update_score(row, score)
                .expect("finite score of a known row");
            tr.end(sp);
            edits.push(RankingEdit::ScoreUpdate { row, score });
        }
        self.batches += 1;
        if self.batches.is_multiple_of(INSERT_EVERY) {
            let template = self.rng.random_range(0..ds.n_rows());
            let at = self.rng.random_range(0..K_MAX + 30);
            let score = mirror.score(mirror.order()[at]);
            let cells = row_cells(ds, template, score);
            let sp = tr.begin(op, root, "rank.patch");
            mirror.insert(score).expect("finite score");
            tr.end(sp);
            edits.push(RankingEdit::Insert { cells });
        }
        edits
    }
}

/// A score that moves the row at `from` to about position `to`: between
/// the scores of the two rows that will flank it there.
fn score_landing_at(mirror: &ScoredRanking, from: usize, to: usize) -> f64 {
    let order = mirror.order();
    let s = |p: usize| mirror.score(order[p]);
    if to < from {
        if to == 0 {
            s(0) + 1.0
        } else {
            (s(to - 1) + s(to)) / 2.0
        }
    } else if to > from {
        if to + 1 == order.len() {
            s(to) - 1.0
        } else {
            (s(to) + s(to + 1)) / 2.0
        }
    } else {
        s(from)
    }
}

/// A new tuple copying row `template`, with its own score.
fn row_cells(ds: &Dataset, template: usize, score: f64) -> Vec<RowValue> {
    ds.columns()
        .iter()
        .map(|c: &Column| {
            if c.name() == SCORE {
                RowValue::Number(score)
            } else if c.is_categorical() {
                let label = c.label_of(c.code(template)).expect("code of a stored row");
                RowValue::Label(label.to_string())
            } else {
                RowValue::Number(c.value(template))
            }
        })
        .collect()
}

struct Setup {
    monitor: MonitorAudit,
    mirror: ScoredRanking,
    stream: Stream,
    attrs: Vec<String>,
}

fn setup(seed: u64) -> Setup {
    let w = compas_workload(0, DATA_SEED);
    let n = w.detection.n_rows();
    let attrs: Vec<String> = w.attr_names().into_iter().take(ATTRS).collect();
    // The workload's ranking as a score column: position-derived, so a
    // score names a rank position and edits move rows by a known distance.
    let scores: Vec<f64> = (0..n)
        .map(|row| {
            (n - w
                .ranking
                .position(u32::try_from(row).expect("row fits u32"))) as f64
        })
        .collect();
    let mut ds = (*w.detection).clone();
    ds.push_column(Column::numeric(SCORE, scores.clone()))
        .expect("fresh column name");
    let mut monitor = MonitorAudit::builder(ds, SCORE)
        .attributes(attrs.iter().cloned())
        .build(cfg(), task(), Engine::Optimized)
        .expect("monitor over categorical COMPAS attributes");
    let mut mirror = ScoredRanking::new(scores).expect("finite scores");
    let mut stream = Stream::new(seed);
    let mut off = Tracer::new(false);
    for _ in 0..WARMUP_BATCHES {
        let edits = stream.next(&mut mirror, monitor.dataset(), &mut off, 0, SpanId::NONE);
        monitor.apply(&edits).expect("generated edits are valid");
    }
    Setup {
        monitor,
        mirror,
        stream,
        attrs,
    }
}

/// The monitor's results equal a fresh audit of its current data, and the
/// mirror's order equals the monitor's ranking.
fn check(s: &Setup) -> Result<(), String> {
    if s.mirror.order() != s.monitor.ranking().order() {
        return Err("mirror order differs from monitor.ranking()".into());
    }
    let fresh = Audit::builder(Arc::new(s.monitor.dataset().clone()))
        .ranker(&AttributeRanker::by_desc(SCORE))
        .attributes(s.attrs.iter().cloned())
        .build()
        .map_err(|e| format!("fresh audit build: {e}"))?
        .run(&cfg(), &task(), Engine::Optimized)
        .map_err(|e| format!("fresh audit run: {e}"))?;
    if fresh.per_k != s.monitor.results() {
        return Err("monitor results differ from a fresh audit".into());
    }
    Ok(())
}

/// The figures of one `DeltaReport`; the reports themselves are not kept.
struct Delta {
    noop: bool,
    hull_k: f64,
    replayed_k: f64,
    changes: f64,
    nodes_evaluated: f64,
}

impl Delta {
    fn of(d: &DeltaReport) -> Delta {
        Delta {
            noop: d.recomputed.is_none(),
            hull_k: d.recomputed.map_or(0, |(lo, hi)| hi - lo + 1) as f64,
            replayed_k: d
                .segments
                .iter()
                .map(|&(lo, hi)| hi - lo + 1)
                .sum::<usize>() as f64,
            changes: d.total_changes() as f64,
            nodes_evaluated: d.stats.nodes_evaluated as f64,
        }
    }
}

struct Loop {
    latencies: Vec<f64>,
    active: f64,
    deltas: Vec<Delta>,
    before: CheckpointStats,
}

fn timed_loop(s: &mut Setup, budget: Duration, tr: &mut Tracer, r: &mut Report) -> Loop {
    let mut l = Loop {
        latencies: Vec::new(),
        active: 0.0,
        deltas: Vec::new(),
        before: s.monitor.checkpoint_stats().expect("optimized monitor"),
    };
    let mut op = 0u32;
    while l.active < budget.as_secs_f64() {
        let t = Instant::now();
        let root = tr.begin(op, SpanId::NONE, "op.batch");
        let edits = s
            .stream
            .next(&mut s.mirror, s.monitor.dataset(), tr, op, root);
        let sp = tr.begin(op, root, "monitor.apply");
        let ta = Instant::now();
        let delta = s.monitor.apply(&edits);
        let apply = ta.elapsed();
        tr.end(sp);
        tr.end(root);
        l.active += t.elapsed().as_secs_f64();
        l.latencies.push(apply.as_secs_f64());
        r.attempted += 1;
        match delta {
            Ok(d) => {
                // Deltas are kept only when tracing, so the untraced run's
                // memory does not grow with throughput.
                if tr.on() {
                    tr.reported(sp, "engine.replay", d.stats.elapsed);
                    l.deltas.push(Delta::of(&d));
                }
            }
            Err(e) => r.check(&format!("apply refused a generated batch: {e}"), false),
        }
        op += 1;
        if (op as usize).is_multiple_of(CHECK_EVERY) {
            if let Err(e) = check(s) {
                r.check(&format!("after batch {op}: {e}"), false);
            }
        }
    }
    if let Err(e) = check(s) {
        r.check(&format!("at the end: {e}"), false);
    }
    l
}

pub fn run(args: &Args) -> Report {
    let mut r = Report {
        threads: (1, 0, 0),
        ..Report::default()
    };
    let (mut s, setups) = repeat_setup(|| setup(args.seed));
    let untraced = timed_loop(&mut s, args.loop_budget(), &mut Tracer::new(false), &mut r);
    let e2e = EndToEnd {
        setups,
        latencies: untraced.latencies,
        active: untraced.active,
    };
    if !args.trace {
        e2e.report(&mut r);
        return r;
    }

    // The traced pass replays the same seeded stream from a fresh set-up.
    drop(s);
    let mut s = setup(args.seed);
    let mut tr = Tracer::new(true);
    let l = timed_loop(&mut s, args.loop_budget(), &mut tr, &mut r);
    let classes = match ledger(
        tr.spans(),
        &[("batch", &["monitor.apply", "engine.replay"])],
    ) {
        Ok(c) => c,
        Err(e) => {
            r.check(&format!("ledger: {e}"), false);
            return r;
        }
    };
    let c = &classes[0];
    let n = l.deltas.len();
    let hull_sum: f64 = l.deltas.iter().map(|d| d.hull_k).sum();
    let replayed_sum: f64 = l.deltas.iter().map(|d| d.replayed_k).sum();
    let changes: f64 = l.deltas.iter().map(|d| d.changes).sum();
    r.metric(
        "monitor.apply_us",
        "us",
        c.mean_us("monitor.apply") + c.mean_us("engine.replay"),
        n,
    );
    r.metric("rank.patch_us", "us", c.mean_us("rank.patch"), n);
    r.metric(
        "monitor.noop_share",
        "ratio",
        l.deltas.iter().filter(|d| d.noop).count() as f64 / n.max(1) as f64,
        n,
    );
    r.metric("monitor.hull_k", "count", hull_sum / n.max(1) as f64, n);
    r.metric(
        "monitor.replayed_k",
        "count",
        replayed_sum / n.max(1) as f64,
        n,
    );
    r.metric(
        "monitor.segment_ratio",
        "ratio",
        replayed_sum / hull_sum.max(1.0),
        n,
    );
    r.metric(
        "monitor.nodes_evaluated",
        "count",
        mean(
            &l.deltas
                .iter()
                .map(|d| d.nodes_evaluated)
                .collect::<Vec<_>>(),
        ),
        n,
    );
    r.metric(
        "monitor.changes_per_replayed_k",
        "ratio",
        changes / replayed_sum.max(1.0),
        n,
    );
    let after = s.monitor.checkpoint_stats().expect("optimized monitor");
    for ((name, a), b) in CHECKPOINT_COUNTERS
        .iter()
        .zip(counters(&after))
        .zip(counters(&l.before))
    {
        r.metric(
            &format!("checkpoint.{name}"),
            "count",
            (a - b) as f64 / n.max(1) as f64,
            n,
        );
    }
    r.metric(
        "checkpoint.stored_nodes",
        "count",
        after.stored_nodes as f64,
        1,
    );
    r.metric(
        "checkpoint.arena_nodes",
        "count",
        after.arena_nodes as f64,
        1,
    );

    // The count kernel at this size, probed on an audit of the final state.
    let probe_audit = Audit::builder(Arc::new(s.monitor.dataset().clone()))
        .ranking(s.monitor.ranking())
        .attributes(s.attrs.iter().cloned())
        .build()
        .expect("categorical attributes");
    let probe = kernel_probe(
        probe_audit.index(),
        s.monitor
            .results()
            .iter()
            .flat_map(|kr| kr.under.iter().chain(&kr.over).map(move |p| (kr.k, p))),
    );
    r.check(
        "kernel probe: prefix_count disagrees with counts",
        probe.consistent,
    );
    r.metric(
        "data.count_ns_per_word",
        "ns",
        probe.count_ns_per_word,
        probe.pairs,
    );
    r.metric(
        "data.prefix_ns_per_word",
        "ns",
        probe.prefix_ns_per_word,
        probe.pairs,
    );

    trace_summary(
        &mut r,
        e2e.ops_per_s(),
        l.latencies.len() as f64 / l.active,
        &classes,
    );
    r.spans = Some(tr.to_jsonl());
    r
}
