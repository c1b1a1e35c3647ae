//! Spans around the benchmark's own calls into each layer. A span has
//! a layer name, an optional detail (a kernel grid point, an
//! experiment), the op it belongs to, its parent span, and start and
//! end times. Spans stay in memory and are written out once, at exit.
//! A disabled tracer records nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Op id of spans recorded before the first `set_op`.
const NO_OP: u32 = u32::MAX;

/// Op id of the first set-up repetition; repetition `r` uses
/// `SETUP_OP + r`, so set-up spans group per repetition like op spans
/// group per op. Timed ops count up from 0.
pub const SETUP_OP: u32 = 1 << 31;

/// Op id of the first pass of the `repro` layer probe.
pub const PROBE_OP: u32 = 1 << 30;

/// One recorded span.
struct Span {
    /// Layer name, e.g. `sim.machine.run`.
    name: &'static str,
    /// Detail within the layer (grid point, experiment), or `""`.
    detail: &'static str,
    /// Op this span belongs to.
    op: u32,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    end_ns: u64,
}

/// In-memory span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    op: u32,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; `on = false` makes every call a no-op.
    pub fn new(on: bool) -> Self {
        Tracer { on, epoch: Instant::now(), op: NO_OP, open: Vec::new(), spans: Vec::new() }
    }

    /// Switches recording on or off for the spans that follow (the
    /// traced run alternates traced and untraced ops).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Sets the op id that subsequent spans carry.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        detail: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            detail,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(index);
        let out = f();
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Total duration (ns) of the spans named `name` (and, unless
    /// `detail` is `None`, with that detail), summed per op id.
    pub fn totals_by_op(&self, name: &str, detail: Option<&str>) -> BTreeMap<u32, f64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            if s.name == name && detail.is_none_or(|d| s.detail == d) {
                *out.entry(s.op).or_insert(0.0) += (s.end_ns - s.start_ns) as f64;
            }
        }
        out
    }

    /// Median over ops of [`Tracer::totals_by_op`], in nanoseconds
    /// (0 when no such span was recorded).
    pub fn median_per_op(&self, name: &str, detail: Option<&str>) -> f64 {
        let totals: Vec<f64> = self.totals_by_op(name, detail).into_values().collect();
        crate::median(&totals)
    }

    /// Median duration (ns) of the individual spans named `name`.
    pub fn median_span(&self, name: &str) -> f64 {
        let durations: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect();
        crate::median(&durations)
    }

    /// Renders the spans as JSON lines.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let op = if s.op == NO_OP { "null".to_string() } else { s.op.to_string() };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"detail\":\"{}\",\"op\":{op},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.detail, s.start_ns, s.end_ns
            );
        }
        out
    }
}
