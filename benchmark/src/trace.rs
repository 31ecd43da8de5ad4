//! The harness-side span list of the traced run.
//!
//! Spans are recorded around calls *into* the layers, from the benchmark's
//! own code; nothing inside the program is instrumented. Each driver thread
//! owns one [`Tracer`], so recording is a `Vec::push` with no sharing;
//! the lists are merged when the repetition ends and written out as Chrome
//! trace events when the process exits. A disabled tracer costs one branch
//! per call, which is what lets the untraced and traced runs share one
//! code path.

use std::collections::BTreeMap;
use std::time::Instant;

/// The layers are the crates; `Harness` is the benchmark's own code (input
/// hand-off, output checks), i.e. a root span's self time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Harness,
    Core,
    Pagestore,
    Exec,
    Net,
    Remote,
    Server,
}

impl Layer {
    pub const ALL: [Layer; 7] = [
        Layer::Harness,
        Layer::Core,
        Layer::Pagestore,
        Layer::Exec,
        Layer::Net,
        Layer::Remote,
        Layer::Server,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            Layer::Harness => "harness",
            Layer::Core => "core",
            Layer::Pagestore => "pagestore",
            Layer::Exec => "exec",
            Layer::Net => "net",
            Layer::Remote => "remote",
            Layer::Server => "server",
        }
    }
}

/// One recorded interval. `id` is 1-based within its tracer; `parent` is 0
/// for the root span of an op.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    /// The op (round) this span belongs to: every span of one op shares it.
    pub op: u64,
    pub id: u32,
    pub parent: u32,
    pub tid: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::begin`]; give it back to [`Tracer::end`].
#[must_use]
pub struct Open(u32);

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    tid: u32,
    op: u64,
    /// Ids (1-based indexes into `spans`) of the spans still open,
    /// innermost last.
    stack: Vec<u32>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            tid: 0,
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A recording tracer for driver thread `tid`; all tracers of one run
    /// share `epoch` so their timestamps line up.
    pub fn enabled(epoch: Instant, tid: u32) -> Tracer {
        Tracer {
            enabled: true,
            epoch,
            tid,
            ..Tracer::disabled()
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open the root span of op number `op` (layer `Harness`: whatever the
    /// child spans do not cover is the benchmark's own time).
    pub fn begin_op(&mut self, name: &'static str, op: u64) -> Open {
        self.op = op;
        self.begin(name, Layer::Harness)
    }

    /// Open a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str, layer: Layer) -> Open {
        if !self.enabled {
            return Open(0);
        }
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            op: self.op,
            id,
            parent: self.stack.last().copied().unwrap_or(0),
            tid: self.tid,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        Open(id)
    }

    pub fn end(&mut self, open: Open) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(open.0), "spans close innermost first");
        self.spans[open.0 as usize - 1].end_ns = now;
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (overlapping children are not counted twice).
/// Returned in the order of `spans`. Parent links are resolved per `tid`.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<(u32, u32), Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry((s.tid, s.parent))
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&(s.tid, s.id)) else {
                return s.dur_ns();
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Totals per `(layer, span name)`.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<(Layer, &'static str), SpanTotals> {
    let mut out: BTreeMap<(Layer, &'static str), SpanTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let t = out.entry((s.layer, s.name)).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += self_ns;
    }
    out
}

/// Self time summed per layer; the values add up to the total duration of
/// the root spans.
pub fn self_ns_by_layer(spans: &[Span]) -> BTreeMap<Layer, u64> {
    let mut out = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.layer).or_insert(0) += self_ns;
    }
    out
}

/// Root spans only: `(count, total duration ns)`.
pub fn root_totals(spans: &[Span]) -> (u64, u64) {
    spans
        .iter()
        .filter(|s| s.parent == 0)
        .fold((0, 0), |(n, ns), s| (n + 1, ns + s.dur_ns()))
}

/// The span list as a Chrome trace-event document (`chrome://tracing`,
/// Perfetto): one complete (`"ph":"X"`) event per span, timestamps in µs.
pub fn chrome_trace_json(workload: &str, spans: &[Span]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 160);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"otherData\":{\"workload\":\"");
    out.push_str(workload);
    out.push_str("\"},\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"id\":{},\"parent\":{}}}}}",
            s.name,
            s.layer.as_str(),
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.op,
            s.id,
            s.parent
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, layer: Layer, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            layer,
            op: 1,
            id,
            parent,
            tid: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span(1, 0, Layer::Harness, 0, 100),
            span(2, 1, Layer::Core, 10, 40),
            // Overlaps span 2 by 10 ns: the union covers 10..60, not 80 ns.
            span(3, 1, Layer::Pagestore, 30, 60),
            // A grandchild takes from span 2, not from the root.
            span(4, 2, Layer::Exec, 15, 25),
            // Sticks out past the parent: only the inside part counts.
            span(5, 1, Layer::Net, 90, 120),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 30, 10, 30]);
        let by_layer = self_ns_by_layer(&spans);
        assert_eq!(by_layer[&Layer::Harness], 40);
        assert_eq!(by_layer[&Layer::Core], 20);
        assert_eq!(root_totals(&spans), (1, 100));
    }

    #[test]
    fn same_ids_on_other_threads_do_not_mix() {
        let mut other = span(2, 1, Layer::Core, 0, 50);
        other.tid = 1;
        let spans = vec![span(1, 0, Layer::Harness, 0, 100), other];
        assert_eq!(self_times_ns(&spans)[0], 100);
    }

    #[test]
    fn tracer_nests_spans_under_the_op_root() {
        let mut tr = Tracer::enabled(Instant::now(), 3);
        let root = tr.begin_op("round", 7);
        let a = tr.begin("fork_world", Layer::Pagestore);
        tr.end(a);
        let b = tr.begin("run", Layer::Core);
        let c = tr.begin("scope", Layer::Exec);
        tr.end(c);
        tr.end(b);
        tr.end(root);
        let spans = tr.into_spans();
        let parents: Vec<u32> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![0, 1, 1, 3]);
        assert!(spans.iter().all(|s| s.op == 7 && s.tid == 3));
        assert!(spans[0].end_ns >= spans[3].end_ns);
        let by_name = totals_by_name(&spans);
        assert_eq!(by_name[&(Layer::Pagestore, "fork_world")].count, 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::disabled();
        let root = tr.begin_op("round", 1);
        let a = tr.begin("x", Layer::Core);
        tr.end(a);
        tr.end(root);
        assert!(tr.into_spans().is_empty());
    }

    #[test]
    fn chrome_trace_output_parses_as_json() {
        let spans = vec![
            span(1, 0, Layer::Harness, 1_000, 9_500),
            span(2, 1, Layer::Server, 2_000, 3_250),
        ];
        let doc = chrome_trace_json("session_tcp", &spans);
        worlds_obs::validate_json(&doc).expect("well-formed JSON");
        let parsed = crate::json::parse(&doc).expect("parses");
        let events = parsed
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1].get("cat").and_then(|c| c.as_str()),
            Some("server")
        );
        assert_eq!(events[1].get("dur").and_then(|d| d.as_f64()), Some(1.25));
        worlds_obs::validate_json(&chrome_trace_json("empty", &[])).expect("empty list too");
    }
}
