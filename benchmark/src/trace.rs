//! Spans around the benchmark's calls into each workspace crate.
//!
//! Every span records its name, the layer (crate) it calls into, start
//! and end in nanoseconds since the tracer was made, its parent span and
//! the request it belongs to.  Spans stay in memory until the run ends
//! and are then written out as JSON lines.  With tracing off a span is a
//! plain call, so the untraced run that yields the end-to-end numbers
//! carries no tracing cost.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// A layer of the system: a workspace crate (the `bench` crate split into
/// its `json` and `queries` modules), or the benchmark's own code inside
/// a request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    /// The benchmark's own code between the layer calls of a request.
    Harness,
    Topology,
    Traffic,
    Core,
    Sim,
    BenchJson,
    BenchQueries,
}

impl Layer {
    /// Every layer, in reporting order.
    pub const ALL: [Layer; 7] = [
        Layer::Sim,
        Layer::Core,
        Layer::Topology,
        Layer::Traffic,
        Layer::BenchJson,
        Layer::BenchQueries,
        Layer::Harness,
    ];

    /// The metric-name prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Harness => "harness",
            Layer::Topology => "topology",
            Layer::Traffic => "traffic",
            Layer::Core => "core",
            Layer::Sim => "sim",
            Layer::BenchJson => "bench.json",
            Layer::BenchQueries => "bench.queries",
        }
    }
}

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request the span belongs to; `None` outside requests (the
    /// attribution replays of `faulty_sweep`).
    pub request: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The in-memory span recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: Option<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: None,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, layer: Layer, name: &'static str) -> usize {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(index);
        index
    }

    fn end(&mut self, index: usize) {
        let closed = self.open.pop();
        debug_assert_eq!(closed, Some(index), "spans must close innermost first");
        self.spans[index].end_ns = self.now_ns();
    }

    /// Open the root span of request `index`; every span until
    /// [`Tracer::end_request`] belongs to it.
    pub fn begin_request(&mut self, index: usize) {
        if self.enabled {
            self.request = Some(index);
            self.begin(Layer::Harness, "request");
        }
    }

    /// Close the root span opened by [`Tracer::begin_request`].
    pub fn end_request(&mut self) {
        if self.enabled {
            let root = *self.open.last().expect("a request span is open");
            self.end(root);
            self.request = None;
        }
    }

    /// Call `f` inside a span named `name` attributed to `layer`.
    pub fn span<T>(&mut self, layer: Layer, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let index = self.begin(layer, name);
        let out = f();
        self.end(index);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span called `name`, in call
    /// order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-6)
            .collect()
    }

    /// Duration in milliseconds of the latest span called `name`.
    pub fn last_ms(&self, name: &str) -> Option<f64> {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-6)
    }

    /// Durations in milliseconds of the request root spans, in order.
    pub fn request_ms(&self) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.request.is_some())
            .map(|s| s.duration_ns() as f64 * 1e-6)
            .collect()
    }

    /// Self time in milliseconds per layer, summed over the spans inside
    /// requests: a span's duration minus the part its child spans cover.
    /// Indexed like [`Layer::ALL`].
    pub fn self_ms_by_layer(&self) -> [f64; 7] {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut out = [0.0; 7];
        for (span, covered) in self.spans.iter().zip(&child_ns) {
            if span.request.is_some() {
                let slot = Layer::ALL
                    .iter()
                    .position(|l| *l == span.layer)
                    .expect("every layer is listed");
                out[slot] += (span.duration_ns() - covered) as f64 * 1e-6;
            }
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |x: Option<usize>| x.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{},\"request\":{}}}",
                s.name,
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.request)
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < ms as u128 {
            std::hint::black_box(0u64);
        }
    }

    #[test]
    fn self_time_excludes_children_and_replays() {
        let mut t = Tracer::new(true);
        t.begin_request(0);
        t.span(Layer::Core, "outer", || spin(2));
        t.end_request();
        t.span(Layer::Topology, "replay", || spin(2));
        assert_eq!(t.spans().len(), 3);
        let by_layer = t.self_ms_by_layer();
        assert!(by_layer[1] >= 2.0, "core self time {}", by_layer[1]);
        assert_eq!(by_layer[2], 0.0, "replays lie outside requests");
        assert_eq!(t.request_ms().len(), 1);
        assert!(t.request_ms()[0] >= by_layer[1]);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[2].request, None);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.begin_request(0);
        assert_eq!(t.span(Layer::Sim, "x", || 5), 5);
        t.end_request();
        assert!(t.spans().is_empty());
    }
}
