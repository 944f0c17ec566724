//! The durable path every workload shares: journaled writes, API releases
//! (Algorithm 1 plus the synchronous checkpoint), checkpoints, and the
//! restart that recovers the data directory and checks every acknowledged
//! write.
//!
//! In the traced run each durable call is also replayed on a volatile twin
//! of the deployment, so its span splits into the in-memory apply and the
//! journaling around it.

use crate::deploy::{body_sum, data_bytes, Acks, Deployment, Write, WriteGen, HISTORICAL, LATEST};
use crate::report::{Layers, Measured};
use crate::trace::Tracer;
use crate::util::{dir_bytes, Rng, Samples};
use bdi_core::durable::{DurableImage, DurableSystem, SNAPSHOT_FILE};
use bdi_core::release::validate_release;
use bdi_core::snapshot;
use bdi_core::system::BdiSystem;
use bdi_docstore::DocStore;
use bdi_durability::{Snapshotter, StdVfs};
use bdi_server::ServerConfig;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Reopens per restart, for a steadier `recovery_ms`.
const RESTARTS: usize = 3;

/// A volatile copy of a deployment, restored from its snapshot.
pub struct Twin {
    pub system: BdiSystem,
    pub store: DocStore,
}

impl Twin {
    pub fn of(durable: &DurableSystem) -> Twin {
        let image = snapshot::snapshot(durable.system(), durable.store()).expect("snapshot");
        let (system, store) = snapshot::restore(&image).expect("restore");
        Twin { system, store }
    }
}

/// The traced run's tools: the span buffer and the volatile twin.
pub struct Tracing<'a> {
    pub tracer: &'a Tracer,
    pub twin: Twin,
}

/// One durable write: timed from the call to its fsync-backed return,
/// acknowledged into `acks` on success.
pub fn write(
    durable: &DurableSystem,
    w: &Write,
    tracing: Option<&Tracing>,
    acks: &mut Acks,
    lat_us: &mut Samples,
    m: &mut Measured,
) {
    let start = Instant::now();
    let result = w.apply_durable(durable);
    let dur = start.elapsed();
    if let Some(t) = tracing {
        let request = t.tracer.new_id();
        let root = t.tracer.new_id();
        t.tracer.span(request, root, "durable.apply", |_| {
            w.apply_volatile(&t.twin.system, &t.twin.store)
        });
        t.tracer
            .record_as(root, request, 0, "durable.write", start, dur);
    }
    lat_us.push_duration_us(dur);
    let ok = result.is_ok();
    if ok {
        acks.ack(w);
    }
    m.check(ok, || format!("durable write failed: {:?}", result.err()));
}

/// A checkpoint, timed; the traced run also times the image encode on its
/// own.
pub fn checkpoint(
    durable: &DurableSystem,
    tracing: Option<&Tracing>,
    checkpoint_ms: &mut Samples,
    m: &mut Measured,
) {
    let start = Instant::now();
    let result = durable.checkpoint();
    let dur = start.elapsed();
    checkpoint_ms.push_duration_ms(dur);
    if let Some(t) = tracing {
        let request = t.tracer.new_id();
        let root = t.tracer.new_id();
        let (encoded, _) = t.tracer.span(request, root, "snapshot.encode", |_| {
            snapshot::snapshot(durable.system(), durable.store())
                .and_then(|image| snapshot::to_json(&image))
                .map(|text| text.len())
        });
        t.tracer
            .record_as(root, request, 0, "checkpoint", start, dur);
        m.check(encoded.is_ok(), || {
            format!("snapshot encode failed: {:?}", encoded.err())
        });
    }
    m.check(result.is_ok(), || {
        format!("checkpoint failed: {:?}", result.err())
    });
}

/// Registers release `k` through the durable path, then times the first
/// query after it (at `latest`) and checks its answer.
pub fn release(
    dep: &mut Deployment,
    k: usize,
    tracing: Option<&mut Tracing>,
    layers: &mut Layers,
    first_pass: bool,
    m: &mut Measured,
) {
    let rel = dep.releases.release(k, dep.durable.store());
    let start = Instant::now();
    let result = Arc::get_mut(&mut dep.durable)
        .expect("no server shares the deployment during a release")
        .register_release(rel);
    let dur = start.elapsed();
    m.release_ms.push_duration_ms(dur);
    if let Some(t) = tracing {
        let request = t.tracer.new_id();
        let root = t.tracer.new_id();
        let twin_rel = dep.releases.release(k, &t.twin.store);
        let (valid, _) = t.tracer.span(request, root, "release.validate", |_| {
            validate_release(t.twin.system.ontology(), &twin_rel)
        });
        m.check(valid.is_ok(), || {
            format!("twin release {k} invalid: {:?}", valid.err())
        });
        let tracer = t.tracer;
        let (applied, _) = tracer.span(request, root, "release.apply", |_| {
            t.twin.system.register_release(twin_rel)
        });
        m.check(applied.is_ok(), || {
            format!("twin release {k} failed: {:?}", applied.err())
        });
        tracer.record_as(root, request, 0, "release", start, dur);
    }
    if let Ok(stats) = &result {
        if first_pass {
            layers.source_triples_added += stats.source_triples_added as u64;
            layers.mapping_triples_added += stats.mapping_triples_added as u64;
        }
        let rows = dep.releases.release_rows();
        if rows > 0 {
            dep.acks.rows.insert(dep.releases.wrapper_name(k), rows);
        }
    }
    m.check(result.is_ok(), || {
        format!("release {k} failed: {:?}", result.as_ref().err())
    });

    let query = &dep.queries[LATEST];
    let start = Instant::now();
    let (status, body) =
        bdi_server::ops::query(dep.durable.system(), &ServerConfig::default(), &query.body);
    m.post_release_ms.push_duration_ms(start.elapsed());
    let ok = status == 200 && body_sum(&body) == Some(dep.oracle[LATEST]);
    m.check(ok, || {
        format!("first query after release {k}: status {status} or wrong answer")
    });
}

/// Writes per throughput window of a burst.
const WRITE_WINDOW: usize = 100;

/// `n` single-threaded durable writes from `gen` (the ingest tail of every
/// workload). Latencies go to `m.write_us`; returns the throughput of each
/// `WRITE_WINDOW` consecutive writes.
#[allow(clippy::too_many_arguments)]
pub fn write_burst(
    dep: &mut Deployment,
    gen: &mut WriteGen,
    rng: &mut Rng,
    n: usize,
    tracing: Option<&Tracing>,
    layers: &mut Layers,
    first_pass: bool,
    m: &mut Measured,
) -> Samples {
    let mut lat = Samples::default();
    let mut rates = Samples::default();
    let mut window = Instant::now();
    for i in 1..=n {
        let w = gen.next(rng);
        if first_pass {
            layers.durable_writes += 1;
            layers.write_user_bytes += w.user_bytes();
        }
        write(&dep.durable, &w, tracing, &mut dep.acks, &mut lat, m);
        if i % WRITE_WINDOW == 0 {
            rates.push(WRITE_WINDOW as f64 / window.elapsed().as_secs_f64());
            window = Instant::now();
        }
    }
    m.write_us.extend(&lat);
    m.writes_done += n as u64;
    rates
}

/// Restarts the deployment: notes its storage footprint and WAL counters,
/// drops the handle, reopens the data directory (timed through the first
/// correct answer), and checks every acknowledged write and the recovered
/// answers at `latest` and the historical scope against the answers from
/// before the restart.
pub fn restart(
    dep: Deployment,
    dir: &Path,
    tracer: Option<&Tracer>,
    layers: &mut Layers,
    first_pass: bool,
    m: &mut Measured,
) -> Option<DurableSystem> {
    let config = ServerConfig::default();
    let Deployment {
        durable,
        queries,
        acks,
        ..
    } = dep;
    let before: Vec<_> = [LATEST, HISTORICAL]
        .iter()
        .map(|&i| body_sum(&bdi_server::ops::query(durable.system(), &config, &queries[i].body).1))
        .collect();
    let stats = durable.durability_stats();
    if first_pass {
        layers.wal_records = stats.wal.records_appended;
        layers.wal_fsyncs = stats.wal.fsyncs;
        layers.wal_bytes = stats.wal.bytes_appended;
        layers.checkpoints = stats.checkpoints;
    }
    let user = data_bytes(durable.system(), durable.store()) + acks.quad_bytes;
    let stored = dir_bytes(dir);
    layers.snapshot_bytes = std::fs::metadata(dir.join(SNAPSHOT_FILE))
        .map(|md| md.len())
        .unwrap_or(0);
    m.stored_per_user_byte
        .push(stored as f64 / user.max(1) as f64);
    drop(durable);

    // The restart is repeated (reopen, check, drop) and timed each time;
    // nothing is written in between, so each reopen does the same work.
    let mut recovered = None;
    for _ in 0..RESTARTS {
        drop(recovered.take());
        let start = Instant::now();
        let reopened = DurableSystem::open(dir);
        let first = reopened
            .as_ref()
            .ok()
            .map(|d| bdi_server::ops::query(d.system(), &config, &queries[LATEST].body).1);
        // The clock stops at the answer; checking it is the benchmark's work.
        let dur = start.elapsed();
        m.recovery_ms.push_duration_ms(dur);
        let first = first.map(|body| body_sum(&body));
        let durable = match reopened {
            Ok(d) => d,
            Err(e) => {
                m.check(false, || format!("reopen failed: {e}"));
                return None;
            }
        };
        m.check(first == Some(before[0]) && before[0].is_some(), || {
            "first answer after the restart differs from the one before".to_owned()
        });
        if let Some(tracer) = tracer {
            trace_recovery(tracer, dir, start, dur, m);
        }
        recovered = Some(durable);
    }
    let durable = recovered?;
    let historical =
        body_sum(bdi_server::ops::query(durable.system(), &config, &queries[HISTORICAL].body).1);
    m.check(historical == before[1] && historical.is_some(), || {
        "historical answer after the restart differs from the one before".to_owned()
    });
    for mismatch in acks.mismatches(&durable) {
        m.check(false, || format!("acknowledged write lost: {mismatch}"));
    }
    if first_pass {
        layers.replayed = durable.recovery().replayed;
    }
    Some(durable)
}

/// The traced run's breakdown of one recovery of `dir`: the image read, its
/// parse and the deployment restore, each repeated on its own under the
/// recovery's span.
fn trace_recovery(
    tracer: &Tracer,
    dir: &Path,
    start: Instant,
    dur: std::time::Duration,
    m: &mut Measured,
) {
    let request = tracer.new_id();
    let root = tracer.new_id();
    let (bytes, _) = tracer.span(request, root, "recovery.load", |_| {
        Snapshotter::new(Arc::new(StdVfs), dir.to_path_buf()).load()
    });
    let text = bytes
        .ok()
        .flatten()
        .and_then(|b| String::from_utf8(b).ok())
        .unwrap_or_default();
    let (image, _) = tracer.span(request, root, "recovery.decode", |_| {
        serde_json::from_str::<DurableImage>(&text)
    });
    let restored = image.map_err(|e| e.to_string()).and_then(|image| {
        tracer
            .span(request, root, "recovery.restore", |_| {
                snapshot::restore(&image.snapshot).map(|_| ())
            })
            .0
            .map_err(|e| e.to_string())
    });
    m.check(restored.is_ok(), || {
        format!("image decode or restore failed: {:?}", restored.err())
    });
    tracer.record_as(root, request, 0, "recovery", start, dur);
}
