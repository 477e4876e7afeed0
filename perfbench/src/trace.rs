//! The traced run's span recorder and stage ledger.
//!
//! Spans are recorded by the benchmark around each public layer call it
//! makes (name, start, end, parent) and kept in memory until the run
//! ends. A span's parent is explicit: stages re-driven after an opaque call (`Session::build`,
//! `PlanService::admit_with`, `Session::run_rounds`) are attributed to
//! that call, so its self time is the part the staged re-drive does not
//! explain. A layer is the module a span name starts with.

use std::collections::BTreeMap;
use std::time::Instant;

/// Layers in pipeline order, named after the modules they time.
pub const LAYERS: [(&str, &str); 14] = [
    ("network", "netsim::network"),
    ("routing", "netsim::routing"),
    ("topo", "core::topo"),
    ("edge_opt", "core::edge_opt"),
    ("memo", "core::memo"),
    ("plan", "core::plan"),
    ("schedule", "core::schedule"),
    ("exec", "core::exec"),
    ("slots", "core::slots"),
    ("faults", "core::faults"),
    ("sim", "core::sim"),
    ("dynamics", "core::dynamics"),
    ("service", "core::service"),
    ("session", "core::session"),
];

/// Spans kept at most; later ones are counted but not stored.
const MAX_SPANS: usize = 1 << 20;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// The operation kind (or "setup") the span was recorded in.
    pub tag: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Rounds the span ran (1 unless set with `Tracer::set_rows`).
    pub rows: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of a recorded span (`None` while tracing is off).
pub type SpanId = Option<usize>;

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    /// Tag of the spans recorded from now on.
    pub tag: &'static str,
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
    /// Deterministic work counts, one sample per observation.
    counts: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: false,
            tag: "setup",
            epoch: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
            counts: BTreeMap::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Runs `f` inside a span attributed to `parent`; returns the span.
    pub fn span_under<R>(
        &mut self,
        parent: SpanId,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, SpanId) {
        if !self.on {
            return (f(), None);
        }
        let id = if self.spans.len() < MAX_SPANS {
            self.spans.push(Span {
                name,
                tag: self.tag,
                start_ns: 0,
                end_ns: 0,
                parent,
                rows: 1,
            });
            Some(self.spans.len() - 1)
        } else {
            self.dropped += 1;
            None
        };
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        if let Some(i) = id {
            self.spans[i].start_ns = start;
            self.spans[i].end_ns = end;
        }
        (out, id)
    }

    /// Sets the rounds a recorded span ran.
    pub fn set_rows(&mut self, id: SpanId, rows: usize) {
        if let Some(i) = id {
            self.spans[i].rows = rows as u64;
        }
    }

    /// Records one observation of a deterministic count.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.on {
            self.counts.entry(name).or_default().push(value);
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    pub fn counts(&self, name: &str) -> &[f64] {
        self.counts.get(name).map_or(&[], Vec::as_slice)
    }

    /// Total and per-call milliseconds of every span named `name`.
    pub fn total_ms(&self, name: &str) -> (f64, usize) {
        let mut ns = 0u64;
        let mut calls = 0;
        for s in self.spans.iter().filter(|s| s.name == name) {
            ns += s.ns();
            calls += 1;
        }
        (ns as f64 / 1e6, calls)
    }

    /// Mean milliseconds per call of `name` (0 when never called).
    pub fn mean_ms(&self, name: &str) -> f64 {
        let (ms, calls) = self.total_ms(name);
        if calls == 0 {
            0.0
        } else {
            ms / calls as f64
        }
    }

    /// Total milliseconds and calls of `name` among spans tagged `tag`.
    pub fn tagged_ms(&self, name: &str, tag: &str) -> (f64, usize) {
        let mut ns = 0u64;
        let mut calls = 0;
        for s in self.spans.iter().filter(|s| s.name == name && s.tag == tag) {
            ns += s.ns();
            calls += 1;
        }
        (ns as f64 / 1e6, calls)
    }

    /// Microseconds per round of the spans named `name` tagged `tag`:
    /// their total time over the rounds they ran (0 when none).
    pub fn per_row_us(&self, name: &str, tag: &str) -> f64 {
        let (mut ns, mut rows) = (0u64, 0u64);
        for s in self.spans.iter().filter(|s| s.name == name && s.tag == tag) {
            ns += s.ns();
            rows += s.rows;
        }
        if rows == 0 {
            0.0
        } else {
            ns as f64 / 1e3 / rows as f64
        }
    }

    /// Per layer: total self time (ms) and share of all root-span time,
    /// over the spans whose tag is in `tags`. A re-driven stage can run
    /// slower than inside the opaque call it decomposes; a span's self
    /// time is clamped at zero.
    pub fn ledger(&self, tags: &[&str]) -> Vec<(&'static str, &'static str, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut root_ns = 0u64;
        let keep = |s: &Span| tags.contains(&s.tag);
        for s in self.spans.iter().filter(|s| keep(s)) {
            match s.parent {
                Some(p) => child_ns[p] += s.ns(),
                None => root_ns += s.ns(),
            }
        }
        let mut self_ns: BTreeMap<&str, i128> = BTreeMap::new();
        for (s, &c) in self.spans.iter().zip(&child_ns).filter(|(s, _)| keep(s)) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *self_ns.entry(layer).or_default() += (i128::from(s.ns()) - i128::from(c)).max(0);
        }
        LAYERS
            .iter()
            .map(|&(layer, module)| {
                let ns = self_ns.get(layer).copied().unwrap_or(0) as f64;
                (layer, module, ns / 1e6, ns / (root_ns.max(1) as f64))
            })
            .collect()
    }

    /// The spans as Chrome `trace_event` JSON (complete events, µs).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
                s.name,
                s.tag,
                s.start_ns as f64 / 1e3,
                s.ns() as f64 / 1e3,
                i,
                s.parent.map_or("null".to_string(), |p| p.to_string())
            ));
        }
        out.push_str("]}");
        out
    }
}
