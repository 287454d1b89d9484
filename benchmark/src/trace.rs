//! Harness-side spans around the calls into each layer. Spans are kept in
//! memory and written once, at exit, as Chrome/Perfetto trace events with one
//! track per layer.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::common::{metric, Metric};

/// The repository module a span or a metric belongs to; one trace track each.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    Harness,
    Serving,
    Router,
    Engine,
    Collectives,
    KvCache,
    Reference,
    Tensor,
}

impl Layer {
    const ALL: [Layer; 8] = [
        Layer::Harness,
        Layer::Serving,
        Layer::Router,
        Layer::Engine,
        Layer::Collectives,
        Layer::KvCache,
        Layer::Reference,
        Layer::Tensor,
    ];

    fn name(self) -> &'static str {
        match self {
            Layer::Harness => "harness",
            Layer::Serving => "runtime.serving",
            Layer::Router => "runtime.router",
            Layer::Engine => "runtime.engine",
            Layer::Collectives => "collectives",
            Layer::KvCache => "model.kvcache",
            Layer::Reference => "model.reference",
            Layer::Tensor => "tensor",
        }
    }
}

pub type SpanId = usize;

/// Empty spans recorded to price one.
const PER_SPAN_REPS: usize = 20_000;

struct Span {
    parent: Option<SpanId>,
    layer: Layer,
    name: &'static str,
    request: Option<usize>,
    start_us: f64,
    end_us: f64,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer { on, t0: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Runs `f` inside a span (a child of whichever span is open) and
    /// returns its result, the elapsed milliseconds and the span's id. The
    /// call is timed either way; with tracing off nothing is stored and the
    /// id is `None`.
    pub fn span<T>(
        &mut self,
        layer: Layer,
        name: &'static str,
        request: Option<usize>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, f64, Option<SpanId>) {
        let start = Instant::now();
        let id = self.on.then(|| {
            self.spans.push(Span {
                parent: self.open.last().copied(),
                layer,
                name,
                request,
                start_us: (start - self.t0).as_secs_f64() * 1e6,
                end_us: f64::NAN,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let out = f(self);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if let Some(id) = id {
            self.spans[id].end_us = self.spans[id].start_us + ms * 1e3;
            self.open.pop();
        }
        (out, ms, id)
    }

    /// Stores a span that was timed elsewhere (on another thread), as a
    /// child of whichever span is open.
    pub fn record(&mut self, layer: Layer, name: &'static str, start: Instant, us: f64) {
        if self.on {
            let start_us = start.saturating_duration_since(self.t0).as_secs_f64() * 1e6;
            self.spans.push(Span {
                parent: self.open.last().copied(),
                layer,
                name,
                request: None,
                start_us,
                end_us: start_us + us,
            });
        }
    }

    /// The harness's own two metrics for the section under span `root`:
    /// the share of its duration inside its direct children, and the share
    /// the tracer itself cost — spans recorded under `root` times the
    /// measured cost of recording one, over the section's duration.
    pub fn section_metrics(&self, root: Option<SpanId>) -> Vec<Metric> {
        let Some(root) = root else { return Vec::new() };
        let (start, end) = (self.spans[root].start_us, self.spans[root].end_us);
        let covered: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(root))
            .map(|s| s.end_us - s.start_us)
            .sum();
        let inside = self.spans[root + 1..].iter().take_while(|s| s.start_us < end).count();

        let mut scratch = Tracer::new(true);
        let t = Instant::now();
        for _ in 0..PER_SPAN_REPS {
            scratch.span(Layer::Harness, "empty", None, |_| ());
        }
        let per_span_us = t.elapsed().as_secs_f64() * 1e6 / PER_SPAN_REPS as f64;
        vec![
            metric("span_coverage_frac", covered / (end - start)),
            metric("trace_overhead_frac", inside as f64 * per_span_us / (end - start)),
        ]
    }

    /// Writes every span as a complete (`"ph":"X"`) trace event; `tid` is
    /// the layer's track and `args` carries id, parent id and request id.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut events: Vec<String> = Layer::ALL
            .iter()
            .enumerate()
            .map(|(tid, layer)| {
                format!(
                    "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
                    layer.name()
                )
            })
            .collect();
        for (id, s) in self.spans.iter().enumerate() {
            let tid = Layer::ALL.iter().position(|l| *l == s.layer).unwrap_or(0);
            let mut e = format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"cat\":\"{}\",\"name\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id}",
                s.layer.name(),
                s.name,
                s.start_us,
                s.end_us - s.start_us
            );
            if let Some(p) = s.parent {
                let _ = write!(e, ",\"parent\":{p}");
            }
            if let Some(r) = s.request {
                let _ = write!(e, ",\"request\":{r}");
            }
            e.push_str("}}");
            events.push(e);
        }
        let out = format!(
            "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\"}}\n",
            events.join(",\n")
        );
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
