//! What a run measures, and how it is printed: one human-readable line per
//! metric (with its unit and sample count), then the result object as the
//! last line of standard output.

use crate::replay::ReplayCounts;
use crate::trace::LayerTimes;
use crate::util::{peak_rss_mb, Samples};
use bdi_core::system::{BdiSystem, PlanCacheStats};
use serde_json::{json, Map, Value};

/// The open-loop generator counts as keeping its schedule while its
/// lateness p99 stays under this.
pub const LATENESS_LIMIT_MS: f64 = 1.0;

/// `hot_cached`'s latency limit on its tail percentile (`query_p99_ms`).
pub const HOT_LATENCY_LIMIT_MS: f64 = 5.0;

/// Latency medians and tail percentiles are taken per window of
/// consecutive samples (a third of the run each), and the median of the
/// windows is reported, so a slow spell confined to one window does not set
/// the run's figure.
pub const TAIL_WINDOWS: usize = 3;

/// End-to-end measurements, gathered over every pass of a run.
#[derive(Debug, Default)]
pub struct Measured {
    pub setup_s: Samples,
    /// Query latency (ms) in the workload's main phase.
    pub query_ms: Samples,
    pub queries_done: u64,
    /// Queries per second, one value per window (a pass of the HTTP load,
    /// a round of the ingest).
    pub query_rate: Samples,
    /// Durable write latency (µs), call to fsync-backed return.
    pub write_us: Samples,
    pub writes_done: u64,
    /// Writes per second, one value per window (a round of the ingest, or
    /// `WRITE_WINDOW` writes of a tail).
    pub write_rate: Samples,
    pub release_ms: Samples,
    pub post_release_ms: Samples,
    pub recovery_ms: Samples,
    pub stored_per_user_byte: Samples,
    /// Open loop: send time minus due time. Closed loop: the gap between a
    /// client's previous answer and its next send. In ms.
    pub lateness_ms: Samples,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Traced run only: query (or write) latency with and without spans
    /// being recorded, for the trace overhead.
    pub untraced_ms: Samples,
    pub traced_ms: Samples,
}

impl Measured {
    /// Counts one checked operation; a failure keeps its reason (the
    /// first few are printed).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 20 {
                self.errors.push(what());
            }
        }
    }

    pub fn merge(&mut self, other: Measured) {
        self.setup_s.extend(&other.setup_s);
        self.query_ms.extend(&other.query_ms);
        self.queries_done += other.queries_done;
        self.query_rate.extend(&other.query_rate);
        self.write_us.extend(&other.write_us);
        self.writes_done += other.writes_done;
        self.write_rate.extend(&other.write_rate);
        self.release_ms.extend(&other.release_ms);
        self.post_release_ms.extend(&other.post_release_ms);
        self.recovery_ms.extend(&other.recovery_ms);
        self.stored_per_user_byte
            .extend(&other.stored_per_user_byte);
        self.lateness_ms.extend(&other.lateness_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 20 {
                self.errors.push(e);
            }
        }
        self.untraced_ms.extend(&other.untraced_ms);
        self.traced_ms.extend(&other.traced_ms);
    }
}

/// Per-layer counters. Counts that depend only on the op sequence are taken
/// from the first pass, so they repeat exactly for one seed.
#[derive(Debug, Default)]
pub struct Layers {
    pub http_connections: u64,
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub plan_entries: u64,
    pub cost_based_plans: u64,
    pub ctx_bytes: u64,
    pub ctx_cached_scans: u64,
    pub ctx_peak_bytes: u64,
    /// Replay counts of the workload's distinct requests (first pass).
    pub counts: ReplayCounts,
    pub source_triples_added: u64,
    pub mapping_triples_added: u64,
    pub wal_records: u64,
    pub wal_fsyncs: u64,
    pub wal_bytes: u64,
    pub durable_writes: u64,
    pub write_user_bytes: u64,
    pub checkpoint_ms: Samples,
    pub checkpoints: u64,
    pub snapshot_bytes: u64,
    pub replayed: u64,
}

impl Layers {
    /// Records the plan-cache, planner and pooled-context counters of
    /// `system`, plan-cache lookups counted from `before`.
    pub fn record_caches(&mut self, system: &BdiSystem, before: PlanCacheStats) {
        let after = system.plan_cache_stats();
        self.plan_hits = after.hits - before.hits;
        self.plan_misses = after.misses - before.misses;
        self.plan_entries = after.entries as u64;
        self.cost_based_plans = system.planner_stats().cost_based_plans;
        let ctx = system.context_stats();
        self.ctx_bytes = ctx.approx_bytes as u64;
        self.ctx_cached_scans = ctx.cached_scans as u64;
        self.ctx_peak_bytes = ctx.peak_bytes as u64;
    }
}

/// The pooled contexts' working set against their value cap (2²⁰ values).
pub fn working_set_note(system: &BdiSystem) -> String {
    let values = system.context_stats().pooled_values;
    format!(
        "  working set: {values} interned values in the pooled contexts ({:.3}% of the 2^20 cap)",
        100.0 * values as f64 / f64::from(1u32 << 20)
    )
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub note: String,
}

fn metric(name: &'static str, unit: &'static str, value: f64, note: impl Into<String>) -> Metric {
    Metric {
        name,
        unit,
        value,
        note: note.into(),
    }
}

/// The end-to-end metrics `BENCHMARK.json` gates on. The other end-to-end
/// metrics are printed with their units and sample counts but not gated:
/// over ten seeds on a 2-CPU container their run-to-run spread came within
/// reach of, or passed, the largest bound a gate may have (see
/// `WORKLOADS.md`).
pub const GATED: [&str; 5] = [
    "setup_s",
    "query_p50_ms",
    "recovery_ms",
    "peak_rss_mb",
    "bytes_stored_per_user_byte",
];

/// Every end-to-end metric of the run.
pub fn end_to_end(m: &Measured) -> Vec<Metric> {
    let n = |s: &Samples| format!("n={}", s.len());
    let windows = |s: &Samples| format!("median of {TAIL_WINDOWS} window medians, n={}", s.len());
    let (q_tail, q_tail_v) = m.query_ms.windowed_tail(TAIL_WINDOWS);
    let (w_tail, w_tail_v) = m.write_us.windowed_tail(TAIL_WINDOWS);
    let tail_note = |q: f64, s: &Samples| {
        format!(
            "p{q} per window, median of {TAIL_WINDOWS} windows, n={}",
            s.len()
        )
    };
    vec![
        metric(
            "setup_s",
            "s",
            m.setup_s.median(),
            format!("median of {} set-ups", m.setup_s.len()),
        ),
        metric(
            "query_p50_ms",
            "ms",
            m.query_ms.windowed_median(TAIL_WINDOWS),
            windows(&m.query_ms),
        ),
        metric(
            "query_p99_ms",
            "ms",
            q_tail_v,
            tail_note(q_tail, &m.query_ms),
        ),
        metric(
            "query_qps",
            "1/s",
            m.query_rate.median(),
            format!(
                "median of {} windows, {} queries",
                m.query_rate.len(),
                m.queries_done
            ),
        ),
        metric(
            "write_p50_us",
            "us",
            m.write_us.windowed_median(TAIL_WINDOWS),
            format!("{}, one fsync per call", windows(&m.write_us)),
        ),
        metric(
            "write_p99_us",
            "us",
            w_tail_v,
            tail_note(w_tail, &m.write_us),
        ),
        metric(
            "writes_per_s",
            "1/s",
            m.write_rate.median(),
            format!(
                "median of {} windows, {} writes",
                m.write_rate.len(),
                m.writes_done
            ),
        ),
        metric(
            "release_p50_ms",
            "ms",
            m.release_ms.windowed_median(TAIL_WINDOWS),
            windows(&m.release_ms),
        ),
        metric(
            "post_release_query_ms",
            "ms",
            m.post_release_ms.windowed_median(TAIL_WINDOWS),
            windows(&m.post_release_ms),
        ),
        metric(
            "recovery_ms",
            "ms",
            m.recovery_ms.windowed_median(TAIL_WINDOWS),
            windows(&m.recovery_ms),
        ),
        metric("peak_rss_mb", "MiB", peak_rss_mb(), "VmHWM"),
        metric(
            "bytes_stored_per_user_byte",
            "ratio",
            m.stored_per_user_byte.median(),
            format!("median, {}", n(&m.stored_per_user_byte)),
        ),
    ]
}

/// The per-layer metrics of the traced run.
pub fn per_layer(m: &Measured, l: &Layers, t: &LayerTimes) -> Vec<Metric> {
    let c = &l.counts;
    let lookups = (l.plan_hits + l.plan_misses) as f64;
    let overhead = 100.0 * (ratio(m.traced_ms.median(), m.untraced_ms.median()) - 1.0);
    vec![
        metric(
            "http.self_us",
            "us",
            t.median_self("http"),
            "round trip minus ops::query",
        ),
        metric(
            "http.connections",
            "count",
            l.http_connections as f64,
            "connections opened",
        ),
        metric(
            "ops.render_us",
            "us",
            t.median_self("ops"),
            "ops::query minus serve",
        ),
        metric(
            "ops.response_bytes",
            "bytes",
            c.response_bytes as f64,
            "distinct requests, first pass",
        ),
        metric(
            "omq.parse_us",
            "us",
            t.median_total("omq.parse"),
            "Omq::parse",
        ),
        metric(
            "plan_cache.hit_ratio",
            "ratio",
            ratio(l.plan_hits as f64, lookups),
            format!("{} hits, {} misses", l.plan_hits, l.plan_misses),
        ),
        metric("plan_cache.entries", "count", l.plan_entries as f64, ""),
        metric(
            "serve.hit_self_us",
            "us",
            t.median_self("serve.hit"),
            "serve hit minus execute_compiled_with",
        ),
        metric(
            "rewrite.expand_us",
            "us",
            t.median_total("rewrite.expand"),
            "query_expansion",
        ),
        metric(
            "rewrite.intra_us",
            "us",
            t.median_total("rewrite.intra"),
            "intra_concept_generation",
        ),
        metric(
            "rewrite.inter_us",
            "us",
            t.median_total("rewrite.inter"),
            "inter_concept_generation",
        ),
        metric(
            "rewrite.walks",
            "count",
            c.walks as f64,
            "distinct requests, first pass",
        ),
        metric(
            "exec.compile_us",
            "us",
            t.median_total("exec.compile"),
            "compile_query",
        ),
        metric(
            "exec.cost_based_plans",
            "count",
            l.cost_based_plans as f64,
            "planner_stats",
        ),
        metric(
            "exec.execute_us",
            "us",
            t.median_total("exec.execute"),
            "persistent ExecContext",
        ),
        metric(
            "exec.execute_fresh_us",
            "us",
            t.median_total("exec.execute_fresh"),
            "no context",
        ),
        metric(
            "exec.rows_out",
            "count",
            c.rows_out as f64,
            "distinct requests, first pass",
        ),
        metric(
            "exec.ctx_bytes",
            "bytes",
            l.ctx_bytes as f64,
            "context_stats",
        ),
        metric(
            "exec.ctx_cached_scans",
            "count",
            l.ctx_cached_scans as f64,
            "context_stats",
        ),
        metric(
            "exec.ctx_peak_bytes",
            "bytes",
            l.ctx_peak_bytes as f64,
            "context_stats",
        ),
        metric(
            "wrappers.scan_us",
            "us",
            t.median_total("wrappers.scan"),
            "Wrapper::scan per touched wrapper",
        ),
        metric(
            "wrappers.rows_scanned",
            "count",
            c.rows_scanned as f64,
            "distinct requests, first pass",
        ),
        metric(
            "release.validate_us",
            "us",
            t.median_total("release.validate"),
            "validate_release",
        ),
        metric(
            "release.apply_us",
            "us",
            t.median_total("release.apply"),
            "register_release on a volatile twin",
        ),
        metric(
            "release.source_triples_added",
            "count",
            l.source_triples_added as f64,
            "first pass",
        ),
        metric(
            "release.mapping_triples_added",
            "count",
            l.mapping_triples_added as f64,
            "first pass",
        ),
        metric(
            "durable.apply_us",
            "us",
            t.median_total("durable.apply"),
            "same op on a volatile twin",
        ),
        metric(
            "durable.log_us",
            "us",
            t.median_self("durable.write"),
            "durable call minus apply",
        ),
        metric("wal.records", "count", l.wal_records as f64, "first pass"),
        metric("wal.fsyncs", "count", l.wal_fsyncs as f64, "first pass"),
        metric(
            "wal.fsyncs_per_write",
            "ratio",
            ratio(l.wal_fsyncs as f64, l.durable_writes as f64),
            format!("{} durable writes", l.durable_writes),
        ),
        metric(
            "wal.bytes_per_user_byte",
            "ratio",
            ratio(l.wal_bytes as f64, l.write_user_bytes as f64),
            "first pass",
        ),
        metric(
            "checkpoint.ms",
            "ms",
            l.checkpoint_ms.median(),
            format!("n={}", l.checkpoint_ms.len()),
        ),
        metric(
            "checkpoint.count",
            "count",
            l.checkpoints as f64,
            "first pass",
        ),
        metric(
            "snapshot.encode_ms",
            "ms",
            t.median_total("snapshot.encode") / 1e3,
            "snapshot::snapshot + to_json",
        ),
        metric(
            "snapshot.bytes",
            "bytes",
            l.snapshot_bytes as f64,
            "last image",
        ),
        metric(
            "recovery.load_ms",
            "ms",
            t.median_total("recovery.load") / 1e3,
            "Snapshotter::load",
        ),
        metric(
            "recovery.decode_ms",
            "ms",
            t.median_total("recovery.decode") / 1e3,
            "image JSON parse",
        ),
        metric(
            "recovery.restore_ms",
            "ms",
            t.median_total("recovery.restore") / 1e3,
            "snapshot::restore",
        ),
        metric(
            "recovery.replayed",
            "count",
            l.replayed as f64,
            "first pass",
        ),
        metric(
            "bench.gen_lateness_p99_ms",
            "ms",
            m.lateness_ms.percentile(99.0),
            format!("n={}", m.lateness_ms.len()),
        ),
        metric(
            "bench.trace_overhead_pct",
            "%",
            overhead,
            format!(
                "traced p50 {:.4} vs untraced p50 {:.4}",
                m.traced_ms.median(),
                m.untraced_ms.median()
            ),
        ),
    ]
}

/// Prints the report lines and, last, the result object, whose metrics are
/// those of `metrics` that `gated` names (all of them when `gated` is
/// `None`); the rest are printed as reported only.
pub fn print(
    workload: &str,
    metrics: &[Metric],
    gated: Option<&[&str]>,
    m: &Measured,
    extra: &[String],
) {
    for line in extra {
        println!("{line}");
    }
    for e in &m.errors {
        println!("  FAILED: {e}");
    }
    println!(
        "  failed_ops_ratio = {:.6} ({} of {} operations failed or wrong)",
        ratio(m.failed as f64, m.attempted as f64),
        m.failed,
        m.attempted
    );
    let is_gated = |x: &&Metric| gated.is_none_or(|names| names.contains(&x.name));
    for x in metrics {
        println!(
            "  {workload} {:<30} = {:>14.4} {:<6} ({}){}",
            x.name,
            x.value,
            x.unit,
            x.note,
            if is_gated(&x) {
                ""
            } else {
                " [reported, not gated]"
            }
        );
    }
    let metrics: Map = metrics
        .iter()
        .filter(is_gated)
        .map(|x| {
            (
                x.name.to_owned(),
                json!({"value": (x.value), "unit": (x.unit)}),
            )
        })
        .collect();
    let out = json!({
        "correct": (m.failed == 0 && m.attempted > 0),
        "attempted": (m.attempted.max(1)),
        "failed": (m.failed),
        "metrics": (Value::Object(metrics)),
    });
    println!("{out}");
}
