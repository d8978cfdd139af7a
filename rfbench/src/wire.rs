//! `wire-mixed`: a closed loop against `serve_net` on loopback TCP.
//!
//! The server runs in this process with 2 workers; min(2, nproc)
//! connections each drive one request at a time from their own thread.
//! 16 monitors each watch their own 600-row synthetic Student dataset
//! (Combined task, lower 2, upper 8, τs = 10, k ∈ [5, 40], 6 attributes),
//! and the same 16 datasets are registered a second time as static
//! datasets. Each connection owns half of the monitors and half of the
//! static datasets. The mix, from shuffled decks of 20 requests:
//!
//! * 40% `update`: 1–4 score edits; republishes the dataset and evicts its
//!   cached audits;
//! * 25% `snapshot`;
//! * 25% `audit_warm`: an audit of a static dataset, always a cache hit;
//! * 10% `audit_cold`: an audit of a monitored dataset updated since its
//!   last audit, always a miss, so it pays for bucketize, pattern space
//!   and index build.
//!
//! 16 static plus at most 16 monitored keys stay under the cache's
//! default cap of 64, whose eviction order would otherwise make the hit
//! rate unsteady. Engine work per request is small, so JSON, lanes and
//! queueing, and socket I/O carry the time.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};
use rankfair::core::json::reports_json;
use rankfair::core::{Audit, AuditTask, Bounds, DetectConfig, Engine};
use rankfair::data::Dataset;
use rankfair::json::{parse, Value};
use rankfair::prelude::AttributeRanker;
use rankfair::service::net::{serve_net, NetListeners, NetOptions, NetSummary};
use rankfair::service::wire::{execute, parse_line, Request};
use rankfair::service::AuditService;
use rankfair::synth::{student, SynthConfig};

use crate::stats::{median, Summary};
use crate::trace::{ledger, render_ledger, ClassLedger, SpanId, Tracer};
use crate::{kernel_probe, repeat_setup, trace_summary, Args, EndToEnd, Report, DATA_SEED};

/// Request classes, in the order metrics are reported.
pub const CLASSES: [&str; 4] = ["update", "snapshot", "audit_warm", "audit_cold"];
const ROOTS: [&str; 4] = ["op.update", "op.snapshot", "op.audit_warm", "op.audit_cold"];
const UPDATE: usize = 0;
const SNAPSHOT: usize = 1;
const WARM: usize = 2;
const COLD: usize = 3;
/// Requests of each class per deck of 20.
const DECK: [usize; 4] = [8, 5, 5, 2];

const MONITORS: usize = 16;
const ROWS: usize = 600;
const WORKERS: usize = 2;
const MAX_CONNECTIONS: usize = 2;
const MONITOR_ATTRS: [&str; 6] = ["school", "sex", "address", "famsize", "Pstatus", "Medu"];
const AUDIT_ATTRS: [&str; 6] = ["school", "sex", "address", "famsize", "Pstatus", "age"];
const TASK: &str = r#"{"type":"combined","lower":2,"upper":8}"#;
const CONFIG: &str = r#"{"tau":10,"kmin":5,"kmax":40}"#;

fn attrs_json(attrs: &[&str]) -> String {
    let quoted: Vec<String> = attrs.iter().map(|a| format!("\"{a}\"")).collect();
    format!("[{}]", quoted.join(","))
}

fn audit_line(id: u64, dataset: &str) -> String {
    format!(
        r#"{{"id":{id},"dataset":"{dataset}","ranking":{{"rank_by":"G3"}},"task":{TASK},"config":{CONFIG},"attributes":{},"bucketize":{{"age":3}}}}"#,
        attrs_json(&AUDIT_ATTRS)
    )
}

fn register_monitor_line(m: usize) -> String {
    format!(
        r#"{{"op":"register_monitor","name":"m{m}","dataset":"mon{m}","rank_by":"G3","task":{TASK},"config":{CONFIG},"attributes":{}}}"#,
        attrs_json(&MONITOR_ATTRS)
    )
}

fn snapshot_line(id: u64, m: usize) -> String {
    format!(r#"{{"id":{id},"op":"snapshot","monitor":"m{m}"}}"#)
}

/// The seeded request stream of one connection. It tracks which of its
/// monitors were updated since their last audit, and mirrors every score
/// edit into its own copy of each dataset for the final check.
struct Stream {
    rng: StdRng,
    deck: Vec<usize>,
    next_id: u64,
    monitors: Vec<usize>,
    statics: Vec<usize>,
    dirty: Vec<bool>,
    mirrors: Vec<Dataset>,
}

impl Stream {
    fn new(seed: u64, conn: usize, conns: usize, datasets: &[Arc<Dataset>]) -> Stream {
        let mine: Vec<usize> = (0..MONITORS).filter(|m| m % conns == conn).collect();
        Stream {
            rng: StdRng::seed_from_u64(seed ^ 0x3e7d_0000 ^ conn as u64),
            deck: Vec::new(),
            next_id: 1 + conn as u64 * 1_000_000_000,
            dirty: vec![true; mine.len()],
            mirrors: mine.iter().map(|&m| (*datasets[m]).clone()).collect(),
            statics: mine.clone(),
            monitors: mine,
        }
    }

    fn next(&mut self) -> (usize, String) {
        if self.deck.is_empty() {
            self.deck = DECK
                .iter()
                .enumerate()
                .flat_map(|(class, &count)| std::iter::repeat_n(class, count))
                .collect();
            self.deck.shuffle(&mut self.rng);
        }
        let mut class = self.deck.pop().expect("refilled deck");
        let dirty: Vec<usize> = (0..self.monitors.len())
            .filter(|&i| self.dirty[i])
            .collect();
        if class == COLD && dirty.is_empty() {
            class = UPDATE;
        }
        let id = self.next_id;
        self.next_id += 1;
        let line = match class {
            UPDATE => {
                let i = self.rng.random_range(0..self.monitors.len());
                let g3 = self.mirrors[i].column_index("G3").expect("Student has G3");
                let edits: Vec<String> = (0..self.rng.random_range(1..=4usize))
                    .map(|_| {
                        let row = self.rng.random_range(0..ROWS);
                        let score = self.rng.random_range(0..=200usize) as f64 / 10.0;
                        self.mirrors[i]
                            .set_number(row, g3, score)
                            .expect("numeric G3 cell");
                        format!(r#"{{"edit":"score","row":{row},"score":{score}}}"#)
                    })
                    .collect();
                self.dirty[i] = true;
                format!(
                    r#"{{"id":{id},"op":"update","monitor":"m{}","edits":[{}]}}"#,
                    self.monitors[i],
                    edits.join(",")
                )
            }
            SNAPSHOT => {
                let i = self.rng.random_range(0..self.monitors.len());
                snapshot_line(id, self.monitors[i])
            }
            WARM => {
                let i = self.rng.random_range(0..self.statics.len());
                audit_line(id, &format!("sta{}", self.statics[i]))
            }
            _ => {
                let i = dirty[self.rng.random_range(0..dirty.len())];
                self.dirty[i] = false;
                audit_line(id, &format!("mon{}", self.monitors[i]))
            }
        };
        (class, line)
    }
}

/// Whether a response line is what its class must return: `"ok":true`,
/// and for audits the cache flag of the class.
fn response_ok(class: usize, line: &str) -> bool {
    line.contains(r#""ok":true"#)
        && match class {
            WARM => line.contains(r#""hit":true"#),
            COLD => line.contains(r#""hit":false"#),
            _ => true,
        }
}

/// The server-side `wall_ms` of an audit response, in seconds.
fn wall_s(line: &str) -> Option<f64> {
    let rest = &line[line.find(r#""wall_ms":"#)? + 10..];
    let end = rest.find([',', '}'])?;
    rest[..end].parse::<f64>().ok().map(|ms| ms / 1e3)
}

struct Instance {
    service: AuditService,
    datasets: Vec<Arc<Dataset>>,
}

/// Data generation, registration, monitor builds and cache warm-up.
fn setup() -> Instance {
    let service = AuditService::new();
    let datasets: Vec<Arc<Dataset>> = (0..MONITORS)
        .map(|m| {
            Arc::new(student(SynthConfig::new(
                ROWS,
                DATA_SEED * 1_000_003 + m as u64,
            )))
        })
        .collect();
    for (m, ds) in datasets.iter().enumerate() {
        service.register_dataset(&format!("mon{m}"), Arc::clone(ds));
        service.register_dataset(&format!("sta{m}"), Arc::clone(ds));
    }
    for m in 0..MONITORS {
        for line in [register_monitor_line(m), audit_line(0, &format!("sta{m}"))] {
            let request = parse_line(&line).expect("well-formed set-up request");
            let response = execute(&service, &request, true).render();
            assert!(
                response.contains(r#""ok":true"#),
                "set-up request failed: {response}"
            );
        }
    }
    Instance { service, datasets }
}

fn connections() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(MAX_CONNECTIONS)
}

/// One connection's log of the timed loop.
#[derive(Default)]
struct ClientLog {
    /// Per request: class, round trip (s), server `wall_ms` (s) if any.
    samples: Vec<(usize, f64, Option<f64>)>,
    /// The exact lines sent, in order; kept only for the traced run's
    /// replay, so the untraced run's memory does not grow with throughput.
    lines: Vec<String>,
    failures: Vec<String>,
    /// Every request line sent on this connection, checks included.
    sent: usize,
    finished: Option<Instant>,
}

struct SocketRun {
    logs: Vec<ClientLog>,
    elapsed: f64,
    summary: NetSummary,
}

/// Runs the closed loop against a fresh server for `budget`, then checks
/// the final snapshots against fresh audits of each connection's mirror.
/// The traced run keeps server timing and the request lines.
fn socket_phase(inst: &Instance, seed: u64, budget: Duration, strip_timing: bool) -> SocketRun {
    let conns = connections();
    let listeners = NetListeners::bind(&["tcp:127.0.0.1:0".to_string()]).expect("bind loopback");
    let addr = listeners.local_addrs()[0]
        .strip_prefix("tcp:")
        .expect("tcp listener")
        .to_string();
    let handle = listeners.handle();
    let opts = NetOptions {
        workers: WORKERS,
        strip_timing,
        idle_timeout: Duration::from_secs(120),
        ..NetOptions::default()
    };
    let start_line = Barrier::new(conns + 1);
    let end_line = Barrier::new(conns);
    std::thread::scope(|scope| {
        let server = scope.spawn(|| serve_net(&inst.service, listeners, &opts));
        let clients: Vec<_> = (0..conns)
            .map(|c| {
                let (addr, start_line, end_line) = (&addr, &start_line, &end_line);
                let stream = Stream::new(seed, c, conns, &inst.datasets);
                scope.spawn(move || {
                    client(addr, stream, budget, !strip_timing, start_line, end_line)
                })
            })
            .collect();
        start_line.wait();
        let t0 = Instant::now();
        let logs: Vec<ClientLog> = clients
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        let elapsed = logs
            .iter()
            .filter_map(|l| l.finished)
            .map(|f| f.duration_since(t0).as_secs_f64())
            .fold(0.0, f64::max);
        handle.shutdown();
        let summary = server.join().expect("server thread");
        SocketRun {
            logs,
            elapsed,
            summary,
        }
    })
}

fn client(
    addr: &str,
    mut stream: Stream,
    budget: Duration,
    keep_lines: bool,
    start_line: &Barrier,
    end_line: &Barrier,
) -> ClientLog {
    let mut log = ClientLog::default();
    let conn = TcpStream::connect(addr).expect("connect to the in-process server");
    conn.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(conn.try_clone().expect("clone socket"));
    let mut writer = conn;
    let mut response = String::new();
    let mut roundtrip = |line: &str, response: &mut String, log: &mut ClientLog| -> f64 {
        let t = Instant::now();
        // One write per request, newline included, so Nagle never holds
        // back a trailing fragment.
        writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send request");
        response.clear();
        reader.read_line(response).expect("read response");
        log.sent += 1;
        t.elapsed().as_secs_f64()
    };
    start_line.wait();
    let deadline = Instant::now() + budget;
    while Instant::now() < deadline {
        let (class, line) = stream.next();
        let rt = roundtrip(&line, &mut response, &mut log);
        if !response_ok(class, &response) {
            log.failures
                .push(format!("{}: {}", CLASSES[class], truncate(&response)));
        }
        log.samples.push((class, rt, wall_s(&response)));
        if keep_lines {
            log.lines.push(line);
        }
    }
    log.finished = Some(Instant::now());
    end_line.wait();

    // Final state: each owned monitor's snapshot must equal a fresh audit
    // of the connection's mirror of its data.
    let task = AuditTask::Combined {
        lower: Bounds::constant(2),
        upper: Bounds::constant(8),
    };
    let cfg = DetectConfig::new(10, 5, 40);
    for (i, &m) in stream.monitors.iter().enumerate() {
        roundtrip(&snapshot_line(0, m), &mut response, &mut log);
        let got = parse(&response).ok().and_then(|v| v.get("per_k").cloned());
        let audit = Audit::builder(Arc::new(stream.mirrors[i].clone()))
            .ranker(&AttributeRanker::by_desc("G3"))
            .attributes(MONITOR_ATTRS)
            .build()
            .expect("categorical attributes");
        let out = audit
            .run(&cfg, &task, Engine::Optimized)
            .expect("valid task");
        let want = reports_json(&audit.report(&out, &task), audit.space());
        if got.as_ref() != Some(&want) {
            log.failures
                .push(format!("final snapshot of m{m} differs from a fresh audit"));
        }
    }
    log
}

fn truncate(s: &str) -> &str {
    let end = s.char_indices().nth(200).map_or(s.len(), |(i, _)| i);
    s[..end].trim_end()
}

/// Checks a socket run and counts its operations.
fn account(run: &SocketRun, r: &mut Report) {
    let timed: usize = run.logs.iter().map(|l| l.samples.len()).sum();
    let sent: usize = run.logs.iter().map(|l| l.sent).sum();
    r.attempted += timed as u64;
    for l in &run.logs {
        for f in &l.failures {
            r.check(f, false);
        }
    }
    r.check(
        &format!(
            "server answered {} requests, clients sent {sent}",
            run.summary.requests
        ),
        run.summary.requests == sent,
    );
    r.check(
        &format!("server counted {} error responses", run.summary.errors),
        run.summary.errors == 0,
    );
}

fn class_samples(run: &SocketRun, class: usize) -> Vec<f64> {
    run.logs
        .iter()
        .flat_map(|l| &l.samples)
        .filter(|s| s.0 == class)
        .map(|s| s.1)
        .collect()
}

pub fn run(args: &Args) -> Report {
    let conns = connections();
    let mut r = Report {
        threads: (conns, conns, WORKERS),
        ..Report::default()
    };
    let (inst, setups) = repeat_setup(setup);
    let untraced = socket_phase(&inst, args.seed, args.loop_budget(), true);
    drop(inst);
    account(&untraced, &mut r);
    let latencies: Vec<f64> = untraced
        .logs
        .iter()
        .flat_map(|l| &l.samples)
        .map(|s| s.1)
        .collect();
    let e2e = EndToEnd {
        setups,
        latencies,
        active: untraced.elapsed,
    };
    for (class, name) in CLASSES.iter().enumerate() {
        let s = Summary::of(&class_samples(&untraced, class), 0.99);
        r.note(format!(
            "{name}.p50_ms={:.4} {} n={}",
            s.p50 * 1e3,
            s.describe_tail(1e3, "ms"),
            s.n
        ));
    }
    if !args.trace {
        e2e.report(&mut r);
        return r;
    }
    traced(args, &mut r, e2e.ops_per_s());
    r
}

/// Phase 1: the socket loop with server timing kept. Phase 2: the exact
/// same request sequence replayed in process through `parse_line`,
/// `execute` and `render` on a fresh service.
fn traced(args: &Args, r: &mut Report, untraced_ops: f64) {
    let inst = setup();
    let socket = socket_phase(&inst, args.seed, args.loop_budget(), false);
    drop(inst);
    account(&socket, r);
    let timed: usize = socket.logs.iter().map(|l| l.samples.len()).sum();

    // Round trips laid end to end, one connection after the other.
    let mut t1 = Tracer::new(true);
    let mut at = 0u64;
    for (op, s) in socket.logs.iter().flat_map(|l| &l.samples).enumerate() {
        let op = u32::try_from(op).expect("fewer than 2^32 requests");
        let end = at + (s.1 * 1e9) as u64;
        let root = t1.placed(op, SpanId::NONE, ROOTS[s.0], at, end);
        at = end;
        if let Some(wall) = s.2 {
            t1.reported(root, "service.handle", Duration::from_secs_f64(wall));
        }
    }
    let socket_ledger = ledger(t1.spans(), &[]);

    // The replay service runs the requests; the shadow service receives
    // the same updates through the typed API, so the service layer's share
    // of an update or snapshot can be timed without the wire around it.
    let replay = setup();
    let shadow = setup();
    let mut t2 = Tracer::new(true);
    let mut bytes = [0.0f64; 4];
    let mut nodes = [0.0f64; 4];
    let mut counts = [0usize; 4];
    let mut hits = [0usize; 4];
    let lines = socket.logs.iter().flat_map(|l| &l.lines);
    for (op, (line, s)) in lines
        .zip(socket.logs.iter().flat_map(|l| &l.samples))
        .enumerate()
    {
        let op = u32::try_from(op).expect("fewer than 2^32 requests");
        let class = s.0;
        let shadow_took = shadow_service_call(&shadow.service, line);
        let root = t2.begin(op, SpanId::NONE, ROOTS[class]);
        let sp = t2.begin(op, root, "wire.parse");
        let request = parse_line(line);
        t2.end(sp);
        let Ok(request) = request else {
            r.check(&format!("replay could not parse {}", truncate(line)), false);
            t2.end(root);
            continue;
        };
        // `execute` runs the service call and builds the response Value
        // around it; with the service's share recorded as a child, the
        // span's self time is the build.
        let sp = t2.begin(op, root, "json.build");
        let response = execute(&replay.service, &request, false);
        t2.end(sp);
        let handle = match class {
            WARM | COLD => response
                .get("wall_ms")
                .and_then(Value::as_f64)
                .map(|ms| Duration::from_secs_f64(ms / 1e3)),
            _ => shadow_took,
        };
        t2.reported(sp, "service.handle", handle.unwrap_or_default());
        let sp = t2.begin(op, root, "json.render");
        let text = response.render();
        t2.end(sp);
        t2.end(root);
        if !response_ok(class, &text) {
            r.check(
                &format!("replay {}: {}", CLASSES[class], truncate(&text)),
                false,
            );
        }
        counts[class] += 1;
        bytes[class] += text.len() as f64;
        hits[class] += usize::from(text.contains(r#""hit":true"#));
        let stats = match class {
            UPDATE => response.get("delta").and_then(|d| d.get("stats")),
            _ => response.get("stats"),
        };
        nodes[class] += stats
            .and_then(|s| s.get("nodes_evaluated"))
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
    }
    let required: Vec<(&str, &[&str])> = CLASSES
        .iter()
        .map(|c| {
            (
                *c,
                &["wire.parse", "json.build", "service.handle", "json.render"][..],
            )
        })
        .collect();
    let (socket_ledger, replay_ledger) = match (socket_ledger, ledger(t2.spans(), &required)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            r.check(&format!("ledger: {e}"), false);
            return;
        }
    };
    let find = |l: &[ClassLedger], class: &str| l.iter().find(|c| c.class == class).cloned();
    for (class, name) in CLASSES.iter().enumerate() {
        let (Some(c), Some(sock)) = (find(&replay_ledger, name), find(&socket_ledger, name)) else {
            r.check(&format!("no {name} requests were traced"), false);
            continue;
        };
        let n = counts[class].max(1) as f64;
        let parse_us = c.mean_us("wire.parse");
        let handle_us = c.mean_us("service.handle");
        let build_us = c.mean_us("json.build");
        let render_us = c.mean_us("json.render");
        r.metric(&format!("wire.{name}.parse_us"), "us", parse_us, c.ops);
        r.metric(
            &format!("wire.{name}.execute_us"),
            "us",
            build_us + handle_us,
            c.ops,
        );
        r.metric(&format!("service.{name}.handle_us"), "us", handle_us, c.ops);
        r.metric(&format!("json.{name}.build_us"), "us", build_us, c.ops);
        r.metric(&format!("json.{name}.render_us"), "us", render_us, c.ops);
        r.metric(
            &format!("json.{name}.bytes"),
            "bytes",
            bytes[class] / n,
            c.ops,
        );
        r.metric(
            &format!("net.{name}.residual_us"),
            "us",
            sock.root_mean_us() - (parse_us + build_us + handle_us + render_us),
            sock.ops,
        );
        let rts = class_samples(&socket, class);
        r.metric(
            &format!("net.{name}.rt_p50_us"),
            "us",
            median(&rts) * 1e6,
            rts.len(),
        );
        r.metric(
            &format!("engine.{name}.nodes_evaluated"),
            "count",
            nodes[class] / n,
            c.ops,
        );
        if class == WARM || class == COLD {
            r.metric(
                &format!("service.hit_rate.{name}"),
                "ratio",
                hits[class] as f64 / n,
                c.ops,
            );
        }
    }
    r.metric("net.requests", "count", socket.summary.requests as f64, 1);
    r.metric("net.errors", "count", socket.summary.errors as f64, 1);

    // The count kernel at this size: one static dataset's audit.
    let request = parse_line(&audit_line(0, "sta0")).expect("well-formed audit");
    if let Request::Audit { request, .. } = request {
        match replay.service.handle(&request) {
            Ok(resp) => {
                let probe = kernel_probe(
                    resp.audit.index(),
                    resp.outcome
                        .per_k
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
            }
            Err(e) => r.check(&format!("probe audit failed: {e}"), false),
        }
    }

    trace_summary(
        r,
        untraced_ops,
        timed as f64 / socket.elapsed,
        &replay_ledger,
    );
    let replay_text = r.ledger.take().unwrap_or_default();
    r.ledger = Some(format!(
        "socket phase (root = client round trip):\n{}in-process replay (root = parse + execute + render):\n{replay_text}",
        render_ledger(&socket_ledger)
    ));
    let mut spans = t1.to_jsonl();
    spans.push_str(&t2.to_jsonl());
    r.spans = Some(spans);
}

/// Runs an update or snapshot through the service's typed API on the
/// shadow service and returns how long the service call took; `None` for
/// audits, whose responses carry their own `wall_ms`.
fn shadow_service_call(shadow: &AuditService, line: &str) -> Option<Duration> {
    match parse_line(line).ok()? {
        Request::MonitorUpdate { monitor, edits, .. } => {
            let t = Instant::now();
            let parsed = shadow
                .with_monitor_dataset(&monitor, |ds| {
                    rankfair::core::json::edits_from_json(&edits, ds)
                })
                .ok()?
                .ok()?;
            shadow.monitor_update(&monitor, &parsed).ok()?;
            Some(t.elapsed())
        }
        Request::MonitorSnapshot { monitor, .. } => {
            let t = Instant::now();
            shadow.monitor_snapshot(&monitor).ok()?;
            Some(t.elapsed())
        }
        _ => None,
    }
}
