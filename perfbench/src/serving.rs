//! `hot_cached` and `analytic_scan`: a durable deployment served over
//! loopback HTTP, then evolved, ingested into and restarted.
//!
//! One pass: set up (build, `DurableSystem::create`, `start_durable`,
//! warm-up; the eager oracle is computed after the timed set-up), the HTTP
//! load, then the ingest tail every workload shares (releases with the
//! first query after each, a checkpoint, single durable writes) and the
//! restart.

use crate::deploy::{self, body_sum, ChainShape, Deployment, WriteGen};
use crate::durable_phase::{self, Tracing, Twin};
use crate::http_load::{self, Loop, Target};
use crate::replay::Replayer;
use crate::report::{self, Layers, Measured};
use crate::trace::Tracer;
use crate::util::{self, Rng, Samples};
use bdi_server::ServerConfig;
use std::path::Path;
use std::time::{Duration, Instant};

/// Fixed-size parts of a serving pass.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub releases: usize,
    pub writes: usize,
}

pub enum Serving {
    /// SUPERSEDE running example, open loop.
    Hot { rate: f64 },
    /// Synthetic chain, closed loop.
    Scan { shape: ChainShape },
}

/// The traced run replays every `SAMPLE_EVERY`-th request, at most
/// `SAMPLE_CAP` per pass.
const SAMPLE_EVERY: u64 = 4;
const SAMPLE_CAP: usize = 16;

/// Set-ups per pass of `hot_cached`, whose set-up takes a few milliseconds.
const HOT_SETUPS: usize = 5;

#[allow(clippy::too_many_arguments)]
pub fn pass(
    serving: &Serving,
    dir: &Path,
    main_phase: Duration,
    tail: Tail,
    rng: &Rng,
    tracer: Option<&Tracer>,
    first_pass: bool,
    layers: &mut Layers,
    m: &mut Measured,
    notes: &mut Vec<String>,
) {
    // A set-up that takes milliseconds is repeated, each time in a fresh
    // directory that is then removed, so `setup_s` has more samples.
    if let Serving::Hot { .. } = serving {
        for k in 1..HOT_SETUPS {
            let spare = dir.with_extension(format!("setup-{k}"));
            let (dep, server, _) = set_up(serving, &spare, rng, m);
            server.shutdown();
            drop(dep);
            util::remove_dir(&spare);
        }
    }
    let (mut dep, server, verified) = set_up(serving, dir, rng, m);
    dep.compute_oracle();
    let verified: Vec<Vec<u8>> = verified
        .into_iter()
        .zip(&dep.queries)
        .zip(&dep.oracle)
        .map(|(((status, body), q), oracle)| {
            let ok = status == 200 && body_sum(&body) == Some(*oracle);
            m.check(ok, || {
                format!("warm-up {}: status {status} or wrong answer", q.label)
            });
            body.into_bytes()
        })
        .collect();
    if first_pass {
        notes.push(format!(
            "{}, {} rows per answer at `all`",
            report::working_set_note(dep.durable.system()),
            dep.oracle[deploy::ALL].rows
        ));
    }

    // The request order: blocks that each hold every request of the mix
    // once, in a seeded order, so every request keeps an exact share.
    let mut schedule_rng = rng.fork(2);
    let mut schedule = Vec::new();
    while schedule.len() < 4096 {
        let mut block: Vec<usize> = (0..dep.queries.len()).collect();
        for i in (1..block.len()).rev() {
            block.swap(i, schedule_rng.below(i as u64 + 1) as usize);
        }
        schedule.extend(block);
    }
    let target = Target {
        addr: server.addr(),
        queries: &dep.queries,
        oracle: &dep.oracle,
        verified: &verified,
        schedule: &schedule,
    };
    let mode = match serving {
        Serving::Hot { rate } => Loop::Open { rate: *rate },
        Serving::Scan { .. } => Loop::Closed,
    };
    let before = dep.durable.system().plan_cache_stats();
    let mut sampled = Vec::new();
    match tracer {
        None => {
            let out = http_load::run(&target, mode, main_phase, None, 1, 0, m);
            m.query_ms.extend(&out.latency_ms);
            m.lateness_ms.extend(&out.lateness_ms);
            m.queries_done += out.done;
            m.query_rate.push(out.done as f64 / out.elapsed_s);
        }
        Some(tracer) => {
            // Same load with and without spans, for the trace overhead.
            let plain = http_load::run(&target, mode, main_phase / 2, None, 1, 0, m);
            let traced = http_load::run(
                &target,
                mode,
                main_phase / 2,
                Some(tracer),
                SAMPLE_EVERY,
                SAMPLE_CAP,
                m,
            );
            m.untraced_ms.extend(&plain.latency_ms);
            m.traced_ms.extend(&traced.latency_ms);
            m.lateness_ms.extend(&plain.lateness_ms);
            m.lateness_ms.extend(&traced.lateness_ms);
            sampled = traced.sampled;
        }
    }
    let system = dep.durable.system();
    if first_pass {
        layers.record_caches(system, before);
    }
    if let Some(tracer) = tracer {
        let mut replayer = Replayer::default();
        for (request, span, q) in sampled {
            let ok = replayer
                .replay(tracer, system, &dep.queries[q], request, span)
                .is_some();
            m.check(ok, || format!("replay of {} failed", dep.queries[q].label));
        }
        if first_pass {
            for q in &dep.queries {
                let counts = replayer.replay(tracer, system, q, tracer.new_id(), 0);
                m.check(counts.is_some(), || format!("replay of {} failed", q.label));
                layers.counts.add(counts.unwrap_or_default());
            }
        }
    }
    server.shutdown();

    ingest_tail(&mut dep, tail, rng, tracer, first_pass, layers, m);
    durable_phase::restart(dep, dir, tracer, layers, first_pass, m);
}

/// Builds the deployment in `dir`, starts the server and warms it up,
/// timed as one `setup_s` sample. Returns the warm-up answers.
fn set_up(
    serving: &Serving,
    dir: &Path,
    rng: &Rng,
    m: &mut Measured,
) -> (Deployment, bdi_server::ServerHandle, Vec<(u16, String)>) {
    let setup_start = Instant::now();
    let dep: Deployment = match serving {
        Serving::Hot { .. } => deploy::supersede_deployment(dir),
        Serving::Scan { shape } => deploy::chain_deployment(dir, *shape, rng),
    };
    let server =
        bdi_server::start_durable(dep.durable.clone(), "127.0.0.1:0", ServerConfig::default())
            .expect("start the server");
    // Warm-up: every request of the mix twice through the query op the
    // server runs, so plans are cached and the pooled contexts hold the
    // scans. The answers are kept for the load's byte-compare fast path.
    let config = ServerConfig::default();
    let mut verified = vec![(0, String::new()); dep.queries.len()];
    for _ in 0..2 {
        for (i, q) in dep.queries.iter().enumerate() {
            verified[i] = bdi_server::ops::query(dep.durable.system(), &config, &q.body);
        }
    }
    m.setup_s.push(setup_start.elapsed().as_secs_f64());
    (dep, server, verified)
}

/// The ingest tail of a serving pass: releases (each followed by the first
/// query after it), a checkpoint, then single-threaded durable writes.
fn ingest_tail(
    dep: &mut Deployment,
    tail: Tail,
    rng: &Rng,
    tracer: Option<&Tracer>,
    first_pass: bool,
    layers: &mut Layers,
    m: &mut Measured,
) {
    let mut tracing = tracer.map(|tracer| Tracing {
        tracer,
        twin: Twin::of(&dep.durable),
    });
    for k in 1..=tail.releases {
        durable_phase::release(dep, k, tracing.as_mut(), layers, first_pass, m);
    }
    let mut checkpoint_ms = Samples::default();
    durable_phase::checkpoint(&dep.durable, tracing.as_ref(), &mut checkpoint_ms, m);
    layers.checkpoint_ms.extend(&checkpoint_ms);
    let mut gen = WriteGen::new(0, 1, &dep.tables);
    let mut write_rng = rng.fork(3);
    let rates = durable_phase::write_burst(
        dep,
        &mut gen,
        &mut write_rng,
        tail.writes,
        tracing.as_ref(),
        layers,
        first_pass,
        m,
    );
    m.write_rate.extend(&rates);
}
