//! rankfair's benchmark: three workloads, end-to-end metrics from untraced
//! runs and per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --offline --manifest-path rfbench/Cargo.toml -- \
//!     --workload batch-audit --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The run prints every metric with its unit and sample count, then, as
//! its last line, one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`. It exits 1 when any correctness check failed. See
//! `README.md` in this directory for the workloads, the metric names and
//! how to read the trace.

mod batch;
mod live;
mod stats;
mod trace;
mod wire;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use rankfair::core::{AuditIndex, Pattern};

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// Seed kept out of every tuning run, for verifying later claims.
pub const HELD_OUT_SEED: u64 = 7919;
/// Seed of the populations the workloads audit: the COMPAS and Student
/// datasets are the same in every run, and `--seed` draws everything a run
/// sends to the program (rankings, edit batches, request streams). The
/// search work depends strongly on the population draw (a round of
/// `batch-audit` takes 0.6 s on one COMPAS draw and 0.9 s on another), so
/// seeding the data per run would make every cross-seed spread exceed the
/// bounds.
pub const DATA_SEED: u64 = 42;
/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 9;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time of the run.
    pub seconds: Duration,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl Args {
    /// Length of each timed loop. A traced run times two loops, untraced
    /// then traced, so each gets half of `--seconds`.
    pub fn loop_budget(&self) -> Duration {
        if self.trace {
            self.seconds / 2
        } else {
            self.seconds
        }
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Samples behind the value (operations, set-ups, probes).
    pub samples: usize,
}

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused or were wrong, plus failed
    /// correctness checks.
    pub failed: u64,
    /// The metrics of the result line: end-to-end untraced, per-layer
    /// traced.
    pub metrics: Vec<Metric>,
    /// Further human-readable lines (per-class tails, check results).
    pub notes: Vec<String>,
    /// Generator threads, client connections and server workers used.
    pub threads: (usize, usize, usize),
    /// The rendered ledger of a traced run.
    pub ledger: Option<String>,
    /// The spans of a traced run, one JSON object per line.
    pub spans: Option<String>,
}

impl Report {
    /// Adds a metric.
    pub fn metric(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
        });
    }

    /// Records a correctness check; a failure counts against `failed`.
    pub fn check(&mut self, what: &str, ok: bool) {
        if !ok {
            self.failed += 1;
            self.notes.push(format!("CHECK FAILED: {what}"));
        }
    }

    /// Adds a note line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// The end-to-end metrics every workload reports with tracing off.
pub struct EndToEnd {
    /// Set-up durations, one per repetition.
    pub setups: Vec<f64>,
    /// Operation latencies of the timed loop, seconds.
    pub latencies: Vec<f64>,
    /// Wall time of the timed loop, seconds.
    pub active: f64,
}

impl EndToEnd {
    /// Operations per second over the timed loop.
    pub fn ops_per_s(&self) -> f64 {
        self.latencies.len() as f64 / self.active
    }

    /// Pushes `setup_s`, `ops_per_s`, `p50_ms` and `peak_rss_mb`.
    pub fn report(&self, r: &mut Report) {
        let n = self.latencies.len();
        r.metric(
            "setup_s",
            "s",
            stats::median(&self.setups),
            self.setups.len(),
        );
        r.metric("ops_per_s", "ops/s", self.ops_per_s(), n);
        r.metric("p50_ms", "ms", stats::median(&self.latencies) * 1e3, n);
        r.metric("peak_rss_mb", "MB", peak_rss_mb(), 1);
        let s = stats::Summary::of(&self.latencies, 0.99);
        r.note(format!(
            "latency n={n} p50={:.4} ms {}",
            s.p50 * 1e3,
            s.describe_tail(1e3, "ms")
        ));
    }
}

/// Runs `f` [`SETUP_REPEATS`] times, returning the last result and every
/// duration. Earlier results are dropped before the next repetition so
/// the peak memory reflects one set-up.
pub fn repeat_setup<T>(mut f: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let t = Instant::now();
        last = Some(f());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}

/// VmHWM of this process in MB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cost of the bitmap count kernel, measured outside any operation span.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelProbe {
    /// Nanoseconds per bitmap word of a full `counts` scan.
    pub count_ns_per_word: f64,
    /// Nanoseconds per bitmap word of a `prefix_count` scan.
    pub prefix_ns_per_word: f64,
    /// Nanoseconds per `counts` call.
    pub count_ns_per_call: f64,
    /// (k, group) pairs re-counted per pass.
    pub pairs: usize,
    /// Whether every prefix count matched the fused count.
    pub consistent: bool,
}

/// Re-counts every reported `(k, group)` through `counts` and
/// `prefix_count`, repeating passes for at least 50 ms, and divides the
/// time by the bitmap words touched (`⌈n/64⌉·|p|` for a full scan,
/// `⌈k/64⌉·|p|` for a prefix).
pub fn kernel_probe<'a>(
    index: &AuditIndex,
    pairs: impl Iterator<Item = (usize, &'a Pattern)>,
) -> KernelProbe {
    use std::hint::black_box;
    let pairs: Vec<(usize, &Pattern)> = pairs.filter(|(_, p)| !p.is_empty()).collect();
    let n_words = index.n().div_ceil(64);
    let full_words: usize = pairs.iter().map(|(_, p)| n_words * p.len()).sum();
    let prefix_words: usize = pairs.iter().map(|(k, p)| k.div_ceil(64) * p.len()).sum();
    let consistent = pairs
        .iter()
        .all(|&(k, p)| index.counts(p, k).1 == index.prefix_count(p, k));
    if pairs.is_empty() {
        return KernelProbe {
            consistent,
            ..KernelProbe::default()
        };
    }
    let (mut full, mut prefix, mut passes) = (Duration::ZERO, Duration::ZERO, 0u32);
    while passes < 3 || full + prefix < Duration::from_millis(50) {
        let t = Instant::now();
        for &(k, p) in &pairs {
            black_box(index.counts(black_box(p), black_box(k)));
        }
        full += t.elapsed();
        let t = Instant::now();
        for &(k, p) in &pairs {
            black_box(index.prefix_count(black_box(p), black_box(k)));
        }
        prefix += t.elapsed();
        passes += 1;
    }
    let per = |d: Duration, units: usize| d.as_nanos() as f64 / (units as f64 * f64::from(passes));
    KernelProbe {
        count_ns_per_word: per(full, full_words),
        prefix_ns_per_word: per(prefix, prefix_words),
        count_ns_per_call: per(full, pairs.len()),
        pairs: pairs.len(),
        consistent,
    }
}

/// Every per-layer metric name with its unit, in the order of
/// `BENCHMARK.json`. A traced run reports all of them; a layer the
/// workload does not exercise reads 0.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |n: &str, u: &'static str| v.push((n.to_string(), u));
    add("rank.rank_ms", "ms");
    add("space.build_ms", "ms");
    for t in batch::TASK_NAMES {
        add(&format!("engine.{t}_ms"), "ms");
    }
    for t in batch::TASK_NAMES {
        add(&format!("engine.{t}.nodes_evaluated"), "count");
        add(&format!("engine.{t}.nodes_touched"), "count");
        add(&format!("engine.{t}.us_per_node"), "us");
    }
    add("data.count_ns_per_word", "ns");
    add("data.prefix_ns_per_word", "ns");
    add("engine.kernel_share_est", "ratio");
    add("monitor.apply_us", "us");
    add("rank.patch_us", "us");
    add("monitor.noop_share", "ratio");
    add("monitor.hull_k", "count");
    add("monitor.replayed_k", "count");
    add("monitor.segment_ratio", "ratio");
    add("monitor.nodes_evaluated", "count");
    add("monitor.changes_per_replayed_k", "ratio");
    for c in live::CHECKPOINT_COUNTERS {
        add(&format!("checkpoint.{c}"), "count");
    }
    add("checkpoint.stored_nodes", "count");
    add("checkpoint.arena_nodes", "count");
    for c in wire::CLASSES {
        add(&format!("wire.{c}.parse_us"), "us");
        add(&format!("wire.{c}.execute_us"), "us");
        add(&format!("service.{c}.handle_us"), "us");
        add(&format!("json.{c}.build_us"), "us");
        add(&format!("json.{c}.render_us"), "us");
        add(&format!("json.{c}.bytes"), "bytes");
        add(&format!("net.{c}.residual_us"), "us");
        add(&format!("net.{c}.rt_p50_us"), "us");
        add(&format!("engine.{c}.nodes_evaluated"), "count");
    }
    add("service.hit_rate.audit_warm", "ratio");
    add("service.hit_rate.audit_cold", "ratio");
    add("net.requests", "count");
    add("net.errors", "count");
    add("trace.overhead_share", "ratio");
    add("ledger.unattributed_share", "ratio");
    v
}

/// Tracing overhead and the ledger's unattributed share, reported by every
/// traced run.
pub fn trace_summary(
    r: &mut Report,
    untraced_ops_per_s: f64,
    traced_ops_per_s: f64,
    classes: &[trace::ClassLedger],
) {
    let root: u64 = classes.iter().map(|c| c.root_ns).sum();
    let residual: u64 = classes.iter().map(|c| c.residual_ns).sum();
    r.metric(
        "trace.overhead_share",
        "ratio",
        1.0 - traced_ops_per_s / untraced_ops_per_s,
        2,
    );
    r.metric(
        "ledger.unattributed_share",
        "ratio",
        residual as f64 / root.max(1) as f64,
        classes.iter().map(|c| c.ops).sum(),
    );
    r.note(format!(
        "tracing overhead: untraced {untraced_ops_per_s:.3} ops/s, traced {traced_ops_per_s:.3} ops/s"
    ));
    r.ledger = Some(trace::render_ledger(classes));
}

/// Fills every per-layer metric the workload did not report with 0.
fn complete_per_layer(r: &mut Report) {
    let names = per_layer_names();
    for (name, unit) in &names {
        if !r.metrics.iter().any(|m| &m.name == name) {
            r.metric(name, unit, 0.0, 0);
        }
    }
    let order = |m: &Metric| {
        names
            .iter()
            .position(|(n, _)| *n == m.name)
            .unwrap_or(usize::MAX)
    };
    r.metrics.sort_by_key(order);
    let stray: Vec<&str> = r
        .metrics
        .iter()
        .filter(|m| order(m) == usize::MAX)
        .map(|m| m.name.as_str())
        .collect();
    assert!(
        stray.is_empty(),
        "per-layer metrics missing from the name list: {stray:?}"
    );
}

fn usage(msg: &str) -> ! {
    eprintln!("rfbench: {msg}");
    eprintln!("usage: rfbench --workload batch-audit|live-monitor|wire-mixed [--seed N] [--seconds S] [--trace 0|1]");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: Duration::from_secs(10),
        trace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                let s: f64 = value.parse().unwrap_or_else(|_| usage("bad --seconds"));
                if !(s > 0.0 && s <= 600.0) {
                    usage("--seconds must be in (0, 600]");
                }
                args.seconds = Duration::from_secs_f64(s);
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    args
}

fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn json_str(s: &str) -> String {
    rankfair::json::Value::from(s).render()
}

fn main() {
    let args = parse_args();
    let mut report = match args.workload.as_str() {
        "batch-audit" => batch::run(&args),
        "live-monitor" => live::run(&args),
        "wire-mixed" => wire::run(&args),
        "" => usage("--workload is required"),
        other => usage(&format!("unknown workload {other}")),
    };
    if args.trace {
        complete_per_layer(&mut report);
    }
    let non_finite: Vec<String> = report
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name.clone())
        .collect();
    for name in non_finite {
        report.check(&format!("metric {name} is not a finite number"), false);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let command: Vec<String> = std::env::args().collect();
    let (generators, connections, workers) = report.threads;
    let host = format!(
        concat!(
            r#"{{"workload":{},"seed":{},"held_out_seed":{},"seconds":{},"trace":{},"#,
            r#""nproc":{},"generator_threads":{},"connections":{},"server_workers":{},"#,
            r#""setup_repeats":{},"command":{}}}"#
        ),
        json_str(&args.workload),
        args.seed,
        HELD_OUT_SEED,
        args.seconds.as_secs_f64(),
        u8::from(args.trace),
        nproc,
        generators,
        connections,
        workers,
        SETUP_REPEATS,
        json_str(&command.join(" ")),
    );

    let mut text = String::new();
    let _ = writeln!(text, "# host {host}");
    for m in &report.metrics {
        let _ = writeln!(
            text,
            "metric {:<36} {:>16.6} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let _ = writeln!(
        text,
        "error_rate {:.6} ({} failed of {} attempted)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    for n in &report.notes {
        let _ = writeln!(text, "note {n}");
    }
    if let Some(ledger) = &report.ledger {
        text.push_str(ledger);
    }

    let correct = report.failed == 0 && report.attempted > 0;
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                r#"{}:{{"value":{},"unit":{}}}"#,
                json_str(&m.name),
                rankfair::json::Value::from(m.value).render(),
                json_str(m.unit)
            )
        })
        .collect();
    let result = format!(
        r#"{{"correct":{correct},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        report.attempted.max(1),
        report.failed,
        metrics.join(",")
    );

    let dir = out_dir();
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::write(dir.join(format!("{stem}.txt")), format!("{text}{result}\n"))?;
        if let Some(spans) = &report.spans {
            std::fs::write(dir.join(format!("{stem}.spans.jsonl")), spans)?;
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!(
            "rfbench: could not write results under {}: {e}",
            dir.display()
        );
    }
    print!("{text}");
    println!("{result}");
    if !correct {
        std::process::exit(1);
    }
}
