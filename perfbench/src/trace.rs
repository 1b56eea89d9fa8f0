//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed around calls into a layer's public API,
//! stamped with wall time since the recorder's origin, the span that
//! was open when they began (their parent) and the op they belong to.
//! Nothing is written until the run ends: then [`Tracer::chrome_json`]
//! gives Chrome trace-event JSON (Perfetto opens it) and
//! [`Tracer::per_op`] folds the spans into per-op totals and self times.
//!
//! A disabled recorder keeps nothing: `begin` returns a dummy id and
//! `end`, `credit` and `value` return at once.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Identifies an open span; `None` when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
    /// Time covered by child spans and by credited inner work.
    covered_ns: u64,
}

/// Per-op totals of one span name, or one recorded value.
#[derive(Debug, Default, Clone, Copy)]
pub struct OpTotal {
    /// Summed span durations (ms) or the recorded value.
    pub total: f64,
    /// Summed self time (ms): duration minus covered time. Zero for values.
    pub self_ms: f64,
    /// Spans of this name in the op (0 for values).
    pub count: u64,
}

/// The span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    /// `(op, name, value)` records: counts and layer-reported timings.
    values: Vec<(u64, &'static str, f64)>,
}

impl Tracer {
    /// A recorder; `enabled == false` records nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            values: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tag the spans and values that follow with op id `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
            covered_ns: 0,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Close span `id` (and any span opened inside it and left open).
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            let dur = now - self.spans[top].start_ns;
            if let Some(p) = self.spans[top].parent {
                self.spans[p].covered_ns += dur;
            }
            if top == id {
                break;
            }
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// Credit `ms` of work measured inside closed span `id` (for example
    /// summed `decide` calls) to a child named `name`: it is recorded as
    /// a value and no longer counts as `id`'s self time.
    pub fn credit(&mut self, id: SpanId, name: &'static str, ms: f64) {
        let Some(id) = id.0 else { return };
        self.spans[id].covered_ns += (ms * 1e6) as u64;
        self.value(name, ms);
    }

    /// Record a per-op value (a count, or a time a layer reports itself).
    pub fn value(&mut self, name: &'static str, v: f64) {
        if self.enabled {
            self.values.push((self.op, name, v));
        }
    }

    /// Per op, per span name (and per value name): totals and self times.
    pub fn per_op(&self) -> BTreeMap<u64, BTreeMap<&'static str, OpTotal>> {
        let mut out: BTreeMap<u64, BTreeMap<&'static str, OpTotal>> = BTreeMap::new();
        for s in &self.spans {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let t = out.entry(s.op).or_default().entry(s.name).or_default();
            t.total += dur as f64 / 1e6;
            t.self_ms += dur.saturating_sub(s.covered_ns) as f64 / 1e6;
            t.count += 1;
        }
        for &(op, name, v) in &self.values {
            out.entry(op).or_default().entry(name).or_default().total += v;
        }
        out
    }

    /// Chrome trace-event JSON: one complete ("X") event per span, with
    /// its op id and parent span index in `args`.
    pub fn chrome_json(&self) -> String {
        let mut s = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{parent},\"op\":{}}}}}",
                sp.name,
                sp.name.split('.').next().unwrap_or(sp.name),
                sp.start_ns as f64 / 1e3,
                sp.end_ns.saturating_sub(sp.start_ns) as f64 / 1e3,
                sp.op,
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_credits() {
        let mut t = Tracer::new(true);
        t.set_op(3);
        let outer = t.begin("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.end(outer);
        t.credit(outer, "credited", 0.0);
        let ops = t.per_op();
        let op = &ops[&3];
        assert!(op["outer"].total >= op["inner"].total);
        assert!(op["outer"].self_ms < op["outer"].total - 4.0);
        assert_eq!(op["inner"].count, 1);
        assert!(t.chrome_json().contains("\"parent\":0"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x");
        t.end(id);
        t.value("v", 1.0);
        assert!(t.per_op().is_empty());
    }
}
