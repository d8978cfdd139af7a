//! `batch-audit`: the paper's own job, auditing a ranking over a range of
//! `k`, at about 7× the COMPAS size. Closed loop on one thread.
//!
//! One operation is one audit round: rank the raw data with a
//! `LinearScoreRanker` whose weights are drawn fresh for the round, build
//! the audit (pattern space and bitmap index), then run GlobalBounds,
//! PropBounds and the Combined task with the optimized engine. At 50,000
//! rows each bitmap is ~780 words, so the count kernel and the pattern
//! tree search carry the time; json, net, the cache and the monitor are
//! never touched.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rankfair::core::{
    Audit, AuditOutcome, AuditTask, BiasMeasure, Bounds, DetectConfig, Engine, SearchStats,
};
use rankfair::data::Dataset;
use rankfair::prelude::{compas_workload, LinearScoreRanker, Ranker, ScoreTerm};

use crate::stats::{mean, median};
use crate::trace::{ledger, SpanId, Tracer};
use crate::{kernel_probe, repeat_setup, trace_summary, Args, EndToEnd, Report, DATA_SEED};

const ROWS: usize = 50_000;
const ATTRS: usize = 11;
const TAU_S: usize = 50;
const K_MIN: usize = 10;
const K_MAX: usize = 249;

/// The three detection tasks of a round, in run order.
pub const TASK_NAMES: [&str; 3] = ["global", "prop", "combined"];
const SPAN_NAMES: [&str; 3] = ["engine.global", "engine.prop", "engine.combined"];

/// The columns of the paper's COMPAS ranking (`compas_workload`), with
/// `age` inverted. Each round redraws every weight from [0.75, 1.25]: no
/// two rounds share a ranking, yet every round does a similar amount of
/// work, so the per-round time depends little on the seed.
const SCORE_COLUMNS: [(&str, bool); 7] = [
    ("c_days_from_compas", false),
    ("juv_other_count", false),
    ("days_b_screening_arrest", false),
    ("start", false),
    ("end", false),
    ("age", true),
    ("priors_count", false),
];

fn tasks() -> [AuditTask; 3] {
    [
        AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::paper_default())),
        AuditTask::UnderRep(BiasMeasure::Proportional { alpha: 0.8 }),
        AuditTask::Combined {
            lower: Bounds::paper_default(),
            upper: Bounds::steps(vec![(10, 6), (20, 12), (30, 18), (40, 24)]),
        },
    ]
}

struct Setup {
    raw: Dataset,
    detection: Arc<Dataset>,
    attrs: Vec<String>,
}

fn setup(seed: u64) -> Setup {
    let w = compas_workload(ROWS, DATA_SEED);
    let attrs = w.attr_names().into_iter().take(ATTRS).collect();
    let s = Setup {
        raw: w.raw,
        detection: w.detection,
        attrs,
    };
    // Warm-up: one ranking, one build and the cheapest task.
    let ranking = round_ranker(&mut StdRng::seed_from_u64(seed)).rank(&s.raw);
    let audit = Audit::builder(Arc::clone(&s.detection))
        .ranking(ranking)
        .attributes(s.attrs.iter().cloned())
        .build()
        .expect("COMPAS attributes are categorical");
    let cfg = DetectConfig::new(TAU_S, K_MIN, K_MAX);
    let [global, ..] = tasks();
    audit
        .run(&cfg, &global, Engine::Optimized)
        .expect("paper-default task is valid");
    s
}

fn round_ranker(rng: &mut StdRng) -> LinearScoreRanker {
    LinearScoreRanker::new(
        SCORE_COLUMNS
            .iter()
            .map(|&(column, invert)| ScoreTerm {
                column: column.to_string(),
                weight: 0.75 + 0.5 * rng.random::<f64>(),
                invert,
            })
            .collect(),
    )
}

struct Round {
    audit: Audit,
    outs: Vec<AuditOutcome>,
}

/// One audit round, with spans around each layer call when tracing.
fn round(s: &Setup, rng: &mut StdRng, tr: &mut Tracer, op: u32) -> Round {
    let cfg = DetectConfig::new(TAU_S, K_MIN, K_MAX);
    let root = tr.begin(op, SpanId::NONE, "op.round");
    let ranker = round_ranker(rng);
    let sp = tr.begin(op, root, "rank.rank");
    let ranking = ranker.rank(&s.raw);
    tr.end(sp);
    let sp = tr.begin(op, root, "space.build");
    let audit = Audit::builder(Arc::clone(&s.detection))
        .ranking(ranking)
        .attributes(s.attrs.iter().cloned())
        .build()
        .expect("COMPAS attributes are categorical");
    tr.end(sp);
    let mut outs = Vec::with_capacity(3);
    for (task, name) in tasks().iter().zip(SPAN_NAMES) {
        let sp = tr.begin(op, root, name);
        outs.push(
            audit
                .run(&cfg, task, Engine::Optimized)
                .expect("tasks are valid"),
        );
        tr.end(sp);
    }
    tr.end(root);
    Round { audit, outs }
}

/// The independent counting path: the same ranking audited through a
/// 2-shard `ShardedIndex`, untimed. Every task must agree exactly.
fn check_round(s: &Setup, r: &Round) -> bool {
    let cfg = DetectConfig::new(TAU_S, K_MIN, K_MAX);
    let sharded = Audit::builder(Arc::clone(&s.detection))
        .ranking(r.audit.ranking().clone())
        .attributes(s.attrs.iter().cloned())
        .shards(2)
        .build()
        .expect("COMPAS attributes are categorical");
    tasks().iter().zip(&r.outs).all(|(task, out)| {
        sharded
            .run(&cfg, task, Engine::Optimized)
            .is_ok_and(|o| o.per_k == out.per_k)
    }) && r.outs.iter().all(|o| o.per_k.len() == K_MAX - K_MIN + 1)
}

struct Loop {
    latencies: Vec<f64>,
    active: f64,
    last: Option<Round>,
    stats: Vec<[SearchStats; 3]>,
}

/// Closed loop: rounds back to back until `budget` of round time has
/// passed. The 2-shard check after each round is not timed; the traced
/// and untraced loops both run it, so they differ only by the tracing.
fn timed_loop(s: &Setup, seed: u64, budget: Duration, tr: &mut Tracer, r: &mut Report) -> Loop {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xb47c_4a0d);
    let mut l = Loop {
        latencies: Vec::new(),
        active: 0.0,
        last: None,
        stats: Vec::new(),
    };
    let mut op = 0u32;
    while l.active < budget.as_secs_f64() {
        let t = Instant::now();
        let round = round(s, &mut rng, tr, op);
        let took = t.elapsed().as_secs_f64();
        l.active += took;
        l.latencies.push(took);
        r.attempted += 1;
        l.stats.push([0, 1, 2].map(|i| round.outs[i].stats.clone()));
        let ok = check_round(s, &round);
        r.check(&format!("round {op}: 2-shard audit disagrees"), ok);
        l.last = Some(round);
        op += 1;
    }
    l
}

pub fn run(args: &Args) -> Report {
    let mut r = Report {
        threads: (1, 0, 0),
        ..Report::default()
    };
    let (s, setups) = repeat_setup(|| setup(args.seed));
    let untraced = timed_loop(
        &s,
        args.seed,
        args.loop_budget(),
        &mut Tracer::new(false),
        &mut r,
    );
    for (i, name) in TASK_NAMES.iter().enumerate() {
        let times: Vec<f64> = untraced
            .stats
            .iter()
            .map(|st| st[i].elapsed.as_secs_f64())
            .collect();
        r.note(format!(
            "engine.{name} median {:.3} ms",
            median(&times) * 1e3
        ));
    }
    let e2e = EndToEnd {
        setups,
        latencies: untraced.latencies,
        active: untraced.active,
    };
    if !args.trace {
        e2e.report(&mut r);
        return r;
    }

    let mut tr = Tracer::new(true);
    let traced = timed_loop(&s, args.seed, args.loop_budget(), &mut tr, &mut r);
    let classes = match ledger(
        tr.spans(),
        &[(
            "round",
            &[
                "rank.rank",
                "space.build",
                SPAN_NAMES[0],
                SPAN_NAMES[1],
                SPAN_NAMES[2],
            ],
        )],
    ) {
        Ok(c) => c,
        Err(e) => {
            r.check(&format!("ledger: {e}"), false);
            return r;
        }
    };
    let c = &classes[0];
    let rounds = traced.latencies.len();
    r.metric("rank.rank_ms", "ms", c.mean_us("rank.rank") / 1e3, rounds);
    r.metric(
        "space.build_ms",
        "ms",
        c.mean_us("space.build") / 1e3,
        rounds,
    );
    let mut engine_ns = 0.0;
    let mut nodes_total = 0.0;
    for (i, (task, span)) in TASK_NAMES.iter().zip(SPAN_NAMES).enumerate() {
        let us = c.mean_us(span);
        let eval = mean(
            &traced
                .stats
                .iter()
                .map(|st| st[i].nodes_evaluated as f64)
                .collect::<Vec<_>>(),
        );
        let touched = mean(
            &traced
                .stats
                .iter()
                .map(|st| st[i].nodes_touched as f64)
                .collect::<Vec<_>>(),
        );
        r.metric(&format!("engine.{task}_ms"), "ms", us / 1e3, rounds);
        r.metric(
            &format!("engine.{task}.nodes_evaluated"),
            "count",
            eval,
            rounds,
        );
        r.metric(
            &format!("engine.{task}.nodes_touched"),
            "count",
            touched,
            rounds,
        );
        r.metric(
            &format!("engine.{task}.us_per_node"),
            "us",
            us / eval.max(1.0),
            rounds,
        );
        engine_ns += us * 1e3;
        nodes_total += eval;
    }
    let last = traced.last.as_ref().expect("at least one traced round");
    let probe = kernel_probe(
        last.audit.index(),
        last.outs
            .iter()
            .flat_map(|o| o.per_k.iter())
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
    r.metric(
        "engine.kernel_share_est",
        "ratio",
        nodes_total * probe.count_ns_per_call / engine_ns.max(1.0),
        rounds,
    );
    trace_summary(
        &mut r,
        e2e.ops_per_s(),
        rounds as f64 / traced.active,
        &classes,
    );
    r.spans = Some(tr.to_jsonl());
    r
}
