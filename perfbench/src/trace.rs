//! In-memory spans for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! Spans of one request share its request id, and a span names the span
//! that caused it. They stay in memory until the run ends and are then
//! written out together with each layer's self time: a span's duration
//! minus the durations of its child spans.

use crate::util::Samples;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// The causing span (0 for a root).
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// A fresh id, for a root span recorded once its children are known.
    pub fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span under a pre-allocated id.
    pub fn record_as(
        &self,
        id: u64,
        request: u64,
        parent: u64,
        name: &'static str,
        start: Instant,
        dur: Duration,
    ) {
        let span = Span {
            id,
            parent,
            request,
            name,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
        };
        self.spans.lock().expect("span buffer").push(span);
    }

    /// Records a finished span; returns its id.
    pub fn record(
        &self,
        request: u64,
        parent: u64,
        name: &'static str,
        start: Instant,
        dur: Duration,
    ) -> u64 {
        let id = self.new_id();
        self.record_as(id, request, parent, name, start, dur);
        id
    }

    /// Times `f` as one span; returns its output and the span's id, for
    /// parenting the spans it causes.
    pub fn span<T>(
        &self,
        request: u64,
        parent: u64,
        name: &'static str,
        f: impl FnOnce(u64) -> T,
    ) -> (T, u64) {
        let id = self.new_id();
        let start = Instant::now();
        let out = f(id);
        self.record_as(id, request, parent, name, start, start.elapsed());
        (out, id)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer").clone()
    }
}

/// Per layer (span name): every span's duration and self time, in µs.
#[derive(Debug, Default)]
pub struct LayerTimes {
    pub total: BTreeMap<&'static str, Samples>,
    pub self_time: BTreeMap<&'static str, Samples>,
}

impl LayerTimes {
    pub fn of(spans: &[Span]) -> Self {
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for span in spans {
            if span.parent != 0 {
                *child_ns.entry(span.parent).or_default() += span.dur_ns;
            }
        }
        let mut out = LayerTimes::default();
        for span in spans {
            let children = child_ns.get(&span.id).copied().unwrap_or(0);
            out.total
                .entry(span.name)
                .or_default()
                .push(span.dur_ns as f64 / 1e3);
            out.self_time
                .entry(span.name)
                .or_default()
                .push((span.dur_ns as f64 - children as f64) / 1e3);
        }
        out
    }

    /// Median duration of a layer's spans (0 when it has none).
    pub fn median_total(&self, name: &str) -> f64 {
        self.total.get(name).map(Samples::median).unwrap_or(0.0)
    }

    /// Median self time of a layer's spans (0 when it has none).
    pub fn median_self(&self, name: &str) -> f64 {
        self.self_time.get(name).map(Samples::median).unwrap_or(0.0)
    }

    /// Human-readable per-layer table: spans, median duration, median and
    /// summed self time.
    pub fn lines(&self) -> Vec<String> {
        self.total
            .iter()
            .map(|(name, total)| {
                let own = &self.self_time[name];
                format!(
                    "  layer {name:<22} spans={:<6} median={:>10.1}us self_median={:>10.1}us self_sum={:>12.1}us",
                    total.len(),
                    total.median(),
                    own.median(),
                    own.sum()
                )
            })
            .collect()
    }
}

/// Writes the span dump and per-layer self times as one JSON document.
pub fn dump(path: &Path, spans: &[Span], layers: &LayerTimes) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let spans: Vec<Value> = spans
        .iter()
        .map(|s| {
            json!({
                "id": (s.id),
                "parent": (s.parent),
                "request": (s.request),
                "name": (s.name),
                "start_ns": (s.start_ns),
                "dur_ns": (s.dur_ns),
            })
        })
        .collect();
    let layers: serde_json::Map = layers
        .total
        .iter()
        .map(|(name, total)| {
            let own = &layers.self_time[name];
            (
                (*name).to_owned(),
                json!({
                    "spans": (total.len()),
                    "median_us": (total.median()),
                    "self_median_us": (own.median()),
                    "self_sum_us": (own.sum()),
                }),
            )
        })
        .collect();
    let doc = json!({"layers": (Value::Object(layers)), "spans": (Value::Array(spans))});
    std::fs::write(path, doc.to_string())
}
