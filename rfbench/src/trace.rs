//! In-memory spans recorded around calls into each layer, and the ledger
//! that turns them into per-layer self times.
//!
//! A span has a name, a start, an end, a parent and the id of the
//! operation it belongs to. The layer of a span is its name up to the
//! first `.` (`engine.prop` belongs to `engine`). Each operation has one
//! root span named `op.<class>`; the root's self time is the part of the
//! operation no layer span covers, reported as the unattributed residual.
//!
//! With tracing off every call is a no-op, so the timed loops of the
//! untraced runs carry no tracing cost.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Handle of a recorded span (its index), or [`SpanId::NONE`] when
/// tracing is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    /// What a disabled tracer hands out.
    pub const NONE: SpanId = SpanId(u32::MAX);
}

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Operation the span belongs to.
    pub op: u32,
    /// Span name, `layer.detail`.
    pub name: &'static str,
    /// Parent span, `None` for the operation's root.
    pub parent: Option<u32>,
    /// Start, ns since the tracer's epoch.
    pub start: u64,
    /// End, ns since the tracer's epoch; `None` while open.
    pub end: Option<u64>,
}

/// Records spans in memory; written out once the run ends.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    fn push(&mut self, op: u32, parent: SpanId, name: &'static str, start: u64) -> SpanId {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            op,
            name,
            parent: (parent != SpanId::NONE).then_some(parent.0),
            start,
            end: None,
        });
        SpanId(id)
    }

    /// Opens a span now. `parent` is [`SpanId::NONE`] for a root.
    pub fn begin(&mut self, op: u32, parent: SpanId, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        let now = self.now();
        self.push(op, parent, name, now)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        if self.on {
            let now = self.now();
            self.spans[id.0 as usize].end = Some(now);
        }
    }

    /// Records a closed child of `parent` whose duration a layer reported
    /// itself (an engine's `elapsed`, a response's `wall_ms`) rather than
    /// one timed here. It is placed at the parent's start, clipped to the
    /// parent's end when the parent is already closed.
    pub fn reported(&mut self, parent: SpanId, name: &'static str, took: Duration) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        let p = &self.spans[parent.0 as usize];
        let (op, start) = (p.op, p.start);
        let mut end = start + u64::try_from(took.as_nanos()).expect("duration fits u64 ns");
        if let Some(parent_end) = p.end {
            end = end.min(parent_end);
        }
        let id = self.push(op, parent, name, start);
        self.spans[id.0 as usize].end = Some(end);
        id
    }

    /// Records a closed span laid out by the caller, for operations
    /// assembled from timings taken elsewhere.
    pub fn placed(
        &mut self,
        op: u32,
        parent: SpanId,
        name: &'static str,
        start: u64,
        end: u64,
    ) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        let id = self.push(op, parent, name, start);
        self.spans[id.0 as usize].end = Some(end);
        id
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let end = s.end.map_or("null".to_string(), |e| e.to_string());
            let _ = writeln!(
                out,
                r#"{{"id":{id},"op":{},"name":"{}","parent":{parent},"start_ns":{},"end_ns":{end}}}"#,
                s.op, s.name, s.start
            );
        }
        out
    }
}

/// Self times of one operation class, summed over its operations.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassLedger {
    /// Class, the root span's name without `op.`.
    pub class: String,
    /// Operations of this class.
    pub ops: usize,
    /// Total duration of the root spans, ns.
    pub root_ns: u64,
    /// Self time per layer, ns.
    pub layers: BTreeMap<&'static str, u64>,
    /// Self time per span name, ns (finer than `layers`).
    pub names: BTreeMap<&'static str, u64>,
    /// Root self time: the part no layer span covers, ns.
    pub residual_ns: u64,
}

impl ClassLedger {
    /// Mean self time of span `name` per operation, in microseconds.
    pub fn mean_us(&self, name: &str) -> f64 {
        let ns = self.names.get(name).copied().unwrap_or(0);
        ns as f64 / 1e3 / self.ops.max(1) as f64
    }

    /// Mean root duration per operation, in microseconds.
    pub fn root_mean_us(&self) -> f64 {
        self.root_ns as f64 / 1e3 / self.ops.max(1) as f64
    }
}

fn layer_of(name: &'static str) -> &'static str {
    name.split('.').next().unwrap_or(name)
}

/// Builds the ledger and checks that it reconciles.
///
/// `required` lists, per class, the span names every operation of that
/// class must contain. Fails loudly when an operation has no root or
/// more than one, a span is still open, a parent is missing or belongs to
/// another operation, a child leaves its parent's interval, siblings
/// overlap (their time would be counted twice), a required span is
/// missing, or the layer self times plus the residual do not add up to
/// the root duration.
pub fn ledger(spans: &[Span], required: &[(&str, &[&str])]) -> Result<Vec<ClassLedger>, String> {
    let mut by_op: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        by_op.entry(s.op).or_default().push(i);
    }
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            let parent = spans
                .get(p as usize)
                .ok_or_else(|| format!("span {i} `{}` has missing parent {p}", s.name))?;
            if parent.op != s.op {
                return Err(format!(
                    "span {i} `{}` of op {} has parent in op {}",
                    s.name, s.op, parent.op
                ));
            }
            children[p as usize].push(i);
        }
    }
    let interval = |i: usize| -> Result<(u64, u64), String> {
        let s = &spans[i];
        match s.end {
            Some(end) if end >= s.start => Ok((s.start, end)),
            Some(_) => Err(format!("span {i} `{}` ends before it starts", s.name)),
            None => Err(format!("span {i} `{}` was never closed", s.name)),
        }
    };

    let mut classes: BTreeMap<String, ClassLedger> = BTreeMap::new();
    for (op, members) in &by_op {
        let roots: Vec<usize> = members
            .iter()
            .copied()
            .filter(|&i| spans[i].parent.is_none())
            .collect();
        let [root] = roots[..] else {
            return Err(format!(
                "op {op} has {} root spans, expected 1",
                roots.len()
            ));
        };
        let Some(class) = spans[root].name.strip_prefix("op.") else {
            return Err(format!(
                "op {op} root `{}` is not named op.<class>",
                spans[root].name
            ));
        };
        let (root_start, root_end) = interval(root)?;
        let entry = classes
            .entry(class.to_string())
            .or_insert_with(|| ClassLedger {
                class: class.to_string(),
                ops: 0,
                root_ns: 0,
                layers: BTreeMap::new(),
                names: BTreeMap::new(),
                residual_ns: 0,
            });
        entry.ops += 1;
        entry.root_ns += root_end - root_start;

        let mut self_sum = 0u64;
        for &i in members {
            let (start, end) = interval(i)?;
            let mut kids: Vec<(u64, u64)> = Vec::with_capacity(children[i].len());
            for &c in &children[i] {
                let (cs, ce) = interval(c)?;
                if cs < start || ce > end {
                    return Err(format!(
                        "op {op}: span `{}` [{cs}, {ce}] leaves its parent `{}` [{start}, {end}]",
                        spans[c].name, spans[i].name
                    ));
                }
                kids.push((cs, ce));
            }
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut last_end = start;
            for (cs, ce) in kids {
                if cs < last_end {
                    return Err(format!(
                        "op {op}: children of `{}` overlap; their time would count twice",
                        spans[i].name
                    ));
                }
                covered += ce - cs;
                last_end = ce;
            }
            let own = end - start - covered;
            self_sum += own;
            if i == root {
                entry.residual_ns += own;
            } else {
                *entry.layers.entry(layer_of(spans[i].name)).or_default() += own;
                *entry.names.entry(spans[i].name).or_default() += own;
            }
        }
        if self_sum != root_end - root_start {
            return Err(format!(
                "op {op}: self times sum to {self_sum} ns but the root lasted {} ns",
                root_end - root_start
            ));
        }
        if let Some((_, names)) = required.iter().find(|(c, _)| *c == class) {
            for name in names.iter() {
                if !members.iter().any(|&i| spans[i].name == *name) {
                    return Err(format!("op {op} of class {class} is missing span `{name}`"));
                }
            }
        }
    }
    for (class, _) in required {
        if !classes.contains_key(*class) {
            return Err(format!("no operation of class {class} was traced"));
        }
    }
    for c in classes.values() {
        let total: u64 = c.layers.values().sum::<u64>() + c.residual_ns;
        if total != c.root_ns {
            return Err(format!(
                "class {}: layers {} ns + residual {} ns != root {} ns",
                c.class,
                total - c.residual_ns,
                c.residual_ns,
                c.root_ns
            ));
        }
    }
    Ok(classes.into_values().collect())
}

/// The ledger as aligned text: per class the root, each layer's share and
/// the residual.
pub fn render_ledger(classes: &[ClassLedger]) -> String {
    let mut out = String::new();
    for c in classes {
        let root = c.root_ns.max(1) as f64;
        let _ = writeln!(
            out,
            "ledger {:<12} ops={:<6} root={:>10.1} us/op",
            c.class,
            c.ops,
            c.root_mean_us()
        );
        for (layer, ns) in &c.layers {
            let _ = writeln!(
                out,
                "  {:<10} self={:>10.1} us/op  {:>5.1}%",
                layer,
                *ns as f64 / 1e3 / c.ops.max(1) as f64,
                *ns as f64 * 100.0 / root
            );
        }
        let _ = writeln!(
            out,
            "  {:<10} self={:>10.1} us/op  {:>5.1}%",
            "(residual)",
            c.residual_ns as f64 / 1e3 / c.ops.max(1) as f64,
            c.residual_ns as f64 * 100.0 / root
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(op: u32, name: &'static str, parent: Option<u32>, start: u64, end: u64) -> Span {
        Span {
            op,
            name,
            parent,
            start,
            end: Some(end),
        }
    }

    #[test]
    fn self_times_and_residual_reconcile() {
        let spans = vec![
            span(0, "op.round", None, 0, 100),
            span(0, "engine.prop", Some(0), 10, 60),
            span(0, "data.count", Some(1), 20, 30),
            span(0, "space.build", Some(0), 60, 90),
            span(1, "op.round", None, 200, 250),
            span(1, "engine.prop", Some(4), 200, 240),
            span(1, "space.build", Some(4), 240, 250),
        ];
        let l = ledger(&spans, &[("round", &["engine.prop", "space.build"])]).unwrap();
        assert_eq!(l.len(), 1);
        let c = &l[0];
        assert_eq!((c.class.as_str(), c.ops, c.root_ns), ("round", 2, 150));
        assert_eq!(c.layers["engine"], 40 + 40);
        assert_eq!(c.layers["data"], 10);
        assert_eq!(c.layers["space"], 40);
        assert_eq!(c.residual_ns, 20);
        assert_eq!(c.mean_us("engine.prop"), 0.04);
        assert!(render_ledger(&l).contains("(residual)"));
    }

    #[test]
    fn missing_spans_fail_loudly() {
        let spans = vec![
            span(0, "op.round", None, 0, 100),
            span(0, "engine.prop", Some(0), 0, 50),
        ];
        let err = ledger(&spans, &[("round", &["engine.prop", "space.build"])]).unwrap_err();
        assert!(err.contains("missing span `space.build`"), "{err}");
        let err = ledger(&spans, &[("batch", &[])]).unwrap_err();
        assert!(err.contains("no operation of class batch"), "{err}");
        let orphan = vec![
            span(0, "op.round", None, 0, 10),
            span(0, "x.y", Some(9), 0, 1),
        ];
        assert!(ledger(&orphan, &[]).unwrap_err().contains("missing parent"));
        let rootless = vec![
            span(0, "engine.prop", None, 0, 1),
            span(0, "op.a", None, 0, 1),
        ];
        assert!(ledger(&rootless, &[]).unwrap_err().contains("2 root spans"));
    }

    #[test]
    fn broken_nesting_is_rejected() {
        let escaping = vec![span(0, "op.a", None, 0, 10), span(0, "x.y", Some(0), 5, 11)];
        assert!(ledger(&escaping, &[])
            .unwrap_err()
            .contains("leaves its parent"));
        let overlapping = vec![
            span(0, "op.a", None, 0, 10),
            span(0, "x.y", Some(0), 0, 6),
            span(0, "x.z", Some(0), 5, 8),
        ];
        assert!(ledger(&overlapping, &[]).unwrap_err().contains("overlap"));
        let mut open = vec![span(0, "op.a", None, 0, 10)];
        open[0].end = None;
        assert!(ledger(&open, &[]).unwrap_err().contains("never closed"));
    }

    #[test]
    fn tracer_records_nested_and_reported_spans() {
        let mut t = Tracer::new(true);
        let root = t.begin(3, SpanId::NONE, "op.apply");
        let child = t.begin(3, root, "monitor.apply");
        t.end(child);
        t.end(root);
        // A reported duration longer than its closed parent is clipped.
        t.reported(root, "engine.replay", Duration::from_secs(1));
        let l = ledger(t.spans(), &[("apply", &["monitor.apply"])]);
        // The clipped engine span now overlaps monitor.apply: loud failure.
        assert!(l.is_err());
        assert_eq!(t.spans().len(), 3);
        assert!(t.to_jsonl().lines().count() == 3);

        let mut off = Tracer::new(false);
        let r = off.begin(0, SpanId::NONE, "op.x");
        off.end(r);
        assert_eq!(r, SpanId::NONE);
        assert!(off.spans().is_empty());
    }
}
