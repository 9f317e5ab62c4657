//! The benchmark's own span recorder.
//!
//! Spans are taken in the benchmark's files, around each public call the
//! benchmark makes into a crate, and named `<crate>.<fn>`. Each client thread
//! owns one [`Tracer`], so recording takes no lock; spans stay in memory and
//! are written out once, when the run ends. A traced operation is the root
//! span `bench.op`. Every span's self time is its duration minus its
//! children's. The root's self time is the benchmark's own share of the
//! operation, reported as the residual.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Name of the root span of every operation.
pub const OP: &str = "bench.op";

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Operation id; 0 for direct calls made outside any operation.
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Handle of an open span; `None` when tracing is off.
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens the root span of operation `op`.
    pub fn begin_op(&mut self, op: u64) -> Open {
        self.op = op;
        self.begin(OP)
    }

    /// Closes an operation's root span.
    pub fn end_op(&mut self, open: Open) {
        self.end(open);
        self.op = 0;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(index);
        Open(Some(index))
    }

    pub fn end(&mut self, open: Open) {
        let Some(index) = open.0 else { return };
        let now = self.now_ns();
        self.spans[index].end_ns = now;
        // Spans close in LIFO order; anything left open above this one was
        // abandoned by an early return and closes with it.
        while let Some(top) = self.open.pop() {
            if self.spans[top].end_ns == 0 {
                self.spans[top].end_ns = now;
            }
            if top == index {
                break;
            }
        }
    }

    /// Records `f` as one leaf span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }
}

/// Durations in µs of every span called `name`, across `tracers`.
pub fn durations_us(tracers: &[&[Span]], name: &str) -> Vec<f64> {
    tracers
        .iter()
        .flat_map(|spans| spans.iter())
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect()
}

/// Self time of each layer summed over every traced operation, plus the
/// total wall time of those operations. The root spans' self time is the
/// residual, keyed `bench`.
#[derive(Default, Debug)]
pub struct Breakdown {
    pub wall_ns: u64,
    pub self_ns: BTreeMap<&'static str, u64>,
}

impl Breakdown {
    pub fn add(&mut self, spans: &[Span]) {
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.dur_ns();
            }
        }
        for (i, span) in spans.iter().enumerate() {
            // Direct calls made outside an operation are not part of any
            // operation's wall time.
            if span.op == 0 {
                continue;
            }
            if span.name == OP {
                self.wall_ns += span.dur_ns();
            }
            *self.self_ns.entry(span.layer()).or_default() +=
                span.dur_ns().saturating_sub(child_ns[i]);
        }
    }

    /// `layer`'s share of operation wall time, in percent.
    pub fn pct(&self, layer: &str) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.self_ns.get(layer).copied().unwrap_or(0) as f64 * 100.0 / self.wall_ns as f64
    }

    /// Sum of every layer's share including the residual: 100 whenever
    /// children lie inside their parents.
    pub fn total_pct(&self) -> f64 {
        self.self_ns.keys().map(|layer| self.pct(layer)).sum()
    }
}

/// Chrome `trace_event` JSON of every span, one thread row per tracer.
pub fn chrome_json(tracers: &[&[Span]]) -> String {
    let mut out = String::from("[");
    let mut first = true;
    for (tid, spans) in tracers.iter().enumerate() {
        for (i, s) in spans.iter().enumerate() {
            if !first {
                out.push(',');
            }
            first = false;
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.op
            );
        }
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_and_residual_cover_the_operation() {
        let span = |name, start_ns, end_ns, parent, op| Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        };
        let spans = vec![
            span(OP, 0, 100, None, 1),
            span("core.launch_with", 10, 30, Some(0), 1),
            span("shell.execute_line", 30, 90, Some(0), 1),
            span("awt.inject_action", 40, 50, Some(2), 1),
            span("vfs.read", 0, 500, None, 0),
        ];
        let mut b = Breakdown::default();
        b.add(&spans);
        assert_eq!(b.wall_ns, 100);
        assert_eq!(b.pct("bench"), 20.0);
        assert_eq!(b.pct("core"), 20.0);
        assert_eq!(b.pct("shell"), 50.0);
        assert_eq!(b.pct("awt"), 10.0);
        assert_eq!(b.pct("vfs"), 0.0, "direct calls are outside operations");
        assert!((b.total_pct() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn a_span_left_open_closes_with_its_parent() {
        let mut t = Tracer::new(true, Instant::now());
        let op = t.begin_op(1);
        let _inner = t.begin("core.wait_for");
        t.end_op(op);
        assert!(t
            .spans
            .iter()
            .all(|s| s.end_ns >= s.start_ns && s.end_ns > 0));
        let mut off = Tracer::new(false, Instant::now());
        let op = off.begin_op(1);
        off.end_op(op);
        assert!(off.spans.is_empty());
    }
}
