//! `evolve_ingest`: a durable chain deployment driven in-process, where
//! writes, queries, checkpoints and API releases run side by side.
//!
//! Each round, two client threads run closed loops over a seeded order of a
//! fixed mix: about 80% durable writes (one of them a 100-item batch) and
//! 20% `ops::query` calls (OMQ JSON and SPARQL, at `latest` and the
//! historical scope); one of them checkpoints once, mid-round. Between
//! rounds the main thread registers one release: a new version of the
//! terminal concept's source, so walks under `latest` stay flat while `all`
//! grows.
//! After the last round a fixed tail of single writes lands after the last
//! checkpoint, and the restart replays exactly those.
//!
//! The op script depends only on the seed, so every count that depends only
//! on the op sequence (WAL records, fsyncs, checkpoints, replayed records,
//! release triples) repeats exactly; which client's write lands first does
//! not.

use crate::deploy::{self, body_sum, ChainShape, Deployment, WriteGen, HISTORICAL, LATEST};
use crate::durable_phase::{self, Tracing, Twin};
use crate::replay::Replayer;
use crate::report::{self, Layers, Measured};
use crate::trace::Tracer;
use crate::util::{Rng, Samples};
use crate::CLIENTS;
use bdi_server::ServerConfig;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct IngestShape {
    pub chain: ChainShape,
    pub rounds: usize,
    /// Ops per client per round.
    pub ops: usize,
    pub query_pct: usize,
    /// Single writes after the last release.
    pub tail_writes: usize,
}

/// One client's share of a round.
#[derive(Default)]
struct ClientOut {
    m: Measured,
    acks: deploy::Acks,
    write_us: Samples,
    query_ms: Samples,
    checkpoint_ms: Samples,
    writes: u64,
    write_user_bytes: u64,
    queries: u64,
    /// The client's first query of the round, replayed in the traced run.
    first_query: Option<usize>,
}

#[allow(clippy::too_many_arguments)]
pub fn pass(
    shape: &IngestShape,
    dir: &Path,
    rng: &Rng,
    tracer: Option<&Tracer>,
    first_pass: bool,
    layers: &mut Layers,
    m: &mut Measured,
    notes: &mut Vec<String>,
) {
    let config = ServerConfig::default();
    let setup_start = Instant::now();
    let mut dep: Deployment = deploy::chain_deployment(dir, shape.chain, rng);
    let warm: Vec<_> = dep
        .queries
        .iter()
        .map(|q| bdi_server::ops::query(dep.durable.system(), &config, &q.body))
        .collect();
    m.setup_s.push(setup_start.elapsed().as_secs_f64());
    dep.compute_oracle();
    for ((status, body), (q, oracle)) in warm.iter().zip(dep.queries.iter().zip(&dep.oracle)) {
        let ok = *status == 200 && body_sum(body) == Some(*oracle);
        m.check(ok, || {
            format!("warm-up {}: status {status} or wrong answer", q.label)
        });
    }
    if first_pass {
        notes.push(report::working_set_note(dep.durable.system()));
    }
    let before = dep.durable.system().plan_cache_stats();

    let mut tracing = tracer.map(|tracer| Tracing {
        tracer,
        twin: Twin::of(&dep.durable),
    });
    let mut replayer = Replayer::default();
    let mut gens: Vec<WriteGen> = (0..CLIENTS)
        .map(|c| WriteGen::new(c, CLIENTS, &dep.tables))
        .collect();
    let phase_start = Instant::now();
    let mut phase_s = 0.0;
    for round in 0..shape.rounds {
        // In the traced run, odd rounds record spans and even ones do not,
        // for the trace overhead on write latency.
        let traced_round = round % 2 == 1;
        let round_tracing = tracing.as_ref().filter(|_| traced_round);
        let round_start = Instant::now();
        let outs: Vec<ClientOut> = std::thread::scope(|scope| {
            let dep = &dep;
            let handles: Vec<_> = gens
                .iter_mut()
                .enumerate()
                .map(|(c, gen)| {
                    let mut crng = rng.fork(1000 + (round * CLIENTS + c) as u64);
                    scope.spawn(move || client_round(dep, c, gen, &mut crng, shape, round_tracing))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("ingest client panicked"))
                .collect()
        });
        let round_s = round_start.elapsed().as_secs_f64();
        phase_s += round_s;
        let (queries, writes): (u64, u64) = outs
            .iter()
            .fold((0, 0), |(q, w), o| (q + o.queries, w + o.writes));
        m.query_rate.push(queries as f64 / round_s);
        m.write_rate.push(writes as f64 / round_s);
        for out in outs {
            m.merge(out.m);
            dep.acks.merge(&out.acks);
            m.query_ms.extend(&out.query_ms);
            m.queries_done += out.queries;
            m.write_us.extend(&out.write_us);
            m.writes_done += out.writes;
            layers.checkpoint_ms.extend(&out.checkpoint_ms);
            if tracing.is_some() {
                if traced_round {
                    m.traced_ms.extend(&out.write_us);
                } else {
                    m.untraced_ms.extend(&out.write_us);
                }
            }
            if first_pass {
                layers.durable_writes += out.writes;
                layers.write_user_bytes += out.write_user_bytes;
            }
            if let (Some(t), Some(q)) = (tracer, out.first_query) {
                let counts =
                    replayer.replay(t, dep.durable.system(), &dep.queries[q], t.new_id(), 0);
                m.check(counts.is_some(), || {
                    format!("replay of {} failed", dep.queries[q].label)
                });
                if first_pass {
                    layers.counts.add(counts.unwrap_or_default());
                }
            }
        }
        durable_phase::release(&mut dep, round + 1, tracing.as_mut(), layers, first_pass, m);
    }
    if first_pass {
        layers.record_caches(dep.durable.system(), before);
        notes.push(format!(
            "  {} rounds in {:.2}s of {:.2}s pass time",
            shape.rounds,
            phase_s,
            phase_start.elapsed().as_secs_f64()
        ));
    }

    let mut gen = WriteGen::new(0, 1, &dep.tables);
    let mut tail_rng = rng.fork(3);
    // The tail's writes are timed, but `writes_per_s` stays the rounds'
    // mixed-phase rate.
    durable_phase::write_burst(
        &mut dep,
        &mut gen,
        &mut tail_rng,
        shape.tail_writes,
        tracing.as_ref(),
        layers,
        first_pass,
        m,
    );
    let probe: Vec<usize> = vec![LATEST, HISTORICAL, LATEST + 3, HISTORICAL + 3];
    let queries = dep.queries.clone();
    let oracle = dep.oracle.clone();
    let recovered = durable_phase::restart(dep, dir, tracer, layers, first_pass, m);
    if let (Some(tracer), Some(durable)) = (tracer, recovered) {
        http_probe(tracer, durable, &queries, &oracle, &probe, &mut replayer, m);
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Query(usize),
    Batch,
    Single,
}

fn client_round(
    dep: &Deployment,
    client: usize,
    gen: &mut WriteGen,
    rng: &mut Rng,
    shape: &IngestShape,
    tracing: Option<&Tracing>,
) -> ClientOut {
    let config = ServerConfig::default();
    let mut out = ClientOut::default();
    // The mix: OMQ JSON and SPARQL text, each at `latest` and historical.
    let mix = [LATEST, HISTORICAL, LATEST + 3, HISTORICAL + 3];
    // Exact shares, seeded order: `query_pct` of the ops are queries, one
    // is a 100-item batch, the rest single writes.
    let queries = shape.ops * shape.query_pct / 100;
    let mut script: Vec<Op> = (0..shape.ops)
        .map(|i| match i {
            i if i < queries => Op::Query(mix[i % mix.len()]),
            i if i == queries => Op::Batch,
            _ => Op::Single,
        })
        .collect();
    for i in (1..script.len()).rev() {
        script.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut previous = Instant::now();
    for (op, step) in script.into_iter().enumerate() {
        out.m.lateness_ms.push_duration_ms(previous.elapsed());
        if client == 0 && op == shape.ops / 2 {
            durable_phase::checkpoint(&dep.durable, tracing, &mut out.checkpoint_ms, &mut out.m);
        }
        if let Op::Query(q) = step {
            let start = Instant::now();
            let (status, body) =
                bdi_server::ops::query(dep.durable.system(), &config, &dep.queries[q].body);
            out.query_ms.push_duration_ms(start.elapsed());
            out.queries += 1;
            let ok = status == 200 && body_sum(&body) == Some(dep.oracle[q]);
            out.m.check(ok, || {
                format!("{}: status {status} or wrong answer", dep.queries[q].label)
            });
            if client == 0 && out.first_query.is_none() {
                out.first_query = Some(q);
            }
        } else {
            let w = match step {
                Op::Batch => gen.batch(rng),
                _ => gen.single(rng),
            };
            out.writes += 1;
            out.write_user_bytes += w.user_bytes();
            durable_phase::write(
                &dep.durable,
                &w,
                tracing,
                &mut out.acks,
                &mut out.write_us,
                &mut out.m,
            );
        }
        previous = Instant::now();
    }
    out
}

/// The traced run's HTTP layer for this in-process workload: the recovered
/// deployment is served over loopback and the probe queries are sent over
/// one keep-alive connection, each replayed through the layers under its
/// `http` span.
fn http_probe(
    tracer: &Tracer,
    durable: bdi_core::durable::DurableSystem,
    queries: &[deploy::QuerySpec],
    oracle: &[crate::util::AnswerSum],
    probe: &[usize],
    replayer: &mut Replayer,
    m: &mut Measured,
) {
    let durable = Arc::new(durable);
    let server =
        match bdi_server::start_durable(durable.clone(), "127.0.0.1:0", ServerConfig::default()) {
            Ok(s) => s,
            Err(e) => {
                m.check(false, || format!("probe server: {e}"));
                return;
            }
        };
    let mut conn = match crate::client::Conn::connect(server.addr()) {
        Ok(c) => c,
        Err(e) => {
            m.check(false, || format!("probe connect: {e}"));
            return;
        }
    };
    for _ in 0..8 {
        for &q in probe {
            let sent = Instant::now();
            let result = conn.post("/query", &queries[q].body);
            let finished = Instant::now();
            let request = tracer.new_id();
            let span = tracer.record(request, 0, "http", sent, finished - sent);
            let ok = matches!(&result, Ok((200, body)) if body_sum(body) == Some(oracle[q]));
            m.check(ok, || format!("probe {}: wrong answer", queries[q].label));
            let replayed = replayer.replay(tracer, durable.system(), &queries[q], request, span);
            m.check(replayed.is_some(), || {
                format!("replay of {} failed", queries[q].label)
            });
        }
    }
    drop(conn);
    server.shutdown();
}
