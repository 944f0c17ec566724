//! End-to-end and per-layer benchmark of the BDI mediator.
//!
//! Three seeded workloads run against the mediator's public entry points
//! (`bdi_server::start_durable` over loopback HTTP, `bdi_server::ops::query`,
//! `BdiSystem::serve` and the `DurableSystem` write, release, checkpoint and
//! open calls) and check every answer and every acknowledged write:
//!
//! * `hot_cached` — the SUPERSEDE running example served open-loop over two
//!   keep-alive connections; after warm-up every request is a plan-cache
//!   hit, so the HTTP wire, parsing, cache lookup and rendering dominate.
//! * `analytic_scan` — the synthetic chain (C=3, W=4, 8 noise columns)
//!   served closed-loop by two clients; scans, joins, union and rendering
//!   of large answers dominate.
//! * `evolve_ingest` — a durable chain (C=3, W=2) driven in-process by two
//!   clients mixing durable writes and queries, one checkpoint per round and
//!   one API release between rounds.
//!
//! Every workload ends the same way: releases, a checkpoint and durable
//! writes against its deployment, then a restart that reopens the data
//! directory and checks what it recovered.

pub mod client;
pub mod deploy;
pub mod durable_phase;
pub mod http_load;
pub mod ingest;
pub mod replay;
pub mod report;
pub mod serving;
pub mod trace;
pub mod util;

use deploy::ChainShape;
use report::{Layers, Measured};
use serving::{Serving, Tail};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::{LayerTimes, Tracer};
use util::Rng;

/// Open-loop rate of `hot_cached`, in requests per second: about half the
/// closed-loop capacity measured over two keep-alive connections on a
/// 2-CPU container (see `perfbench/WORKLOADS.md`).
pub const HOT_RATE: f64 = 24.0;

pub const WORKLOADS: [&str; 3] = ["hot_cached", "analytic_scan", "evolve_ingest"];

/// Client threads of every workload: the machine has two CPUs, so each
/// workload is generated from one process with at most two client threads
/// (and, over HTTP, one connection each).
pub const CLIENTS: usize = 2;

/// Passes per run. Each sets up a fresh deployment (so `setup_s` has at
/// least this many samples) and runs the durable tail and restart, so those are
/// sampled at this many points spread over the run rather than in one
/// stretch a slow spell of the machine could cover.
const PASSES: usize = 6;

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Small deployments and few ops, for the benchmark's own tests.
    pub tiny: bool,
    /// Where data directories and span dumps go.
    pub work_dir: PathBuf,
}

pub struct RunOutput {
    pub measured: Measured,
    pub layers: Layers,
    pub times: LayerTimes,
    pub notes: Vec<String>,
    pub spans_path: Option<PathBuf>,
}

fn scan_shape(tiny: bool) -> ChainShape {
    ChainShape {
        concepts: 3,
        wrappers: 4,
        noise: 8,
        rows: if tiny { 60 } else { 2000 },
    }
}

fn ingest_shape(tiny: bool) -> ingest::IngestShape {
    ingest::IngestShape {
        chain: ChainShape {
            concepts: 3,
            wrappers: 2,
            noise: 0,
            rows: if tiny { 60 } else { 2000 },
        },
        rounds: if tiny { 4 } else { 15 },
        ops: if tiny { 10 } else { 32 },
        query_pct: 20,
        tail_writes: if tiny { 10 } else { 100 },
    }
}

fn tail(tiny: bool) -> Tail {
    Tail {
        releases: if tiny { 2 } else { 5 },
        writes: if tiny { 30 } else { 750 },
    }
}

/// Runs one workload. Panics on an unknown workload name.
pub fn run(opts: &Options) -> RunOutput {
    let rng = Rng::new(opts.seed);
    let tracer = opts.trace.then(Tracer::default);
    let data_root =
        opts.work_dir
            .join(".bench_data")
            .join(format!("{}-{}", opts.workload, std::process::id()));
    util::remove_dir(&data_root);
    let mut measured = Measured::default();
    let mut layers = Layers::default();
    let mut notes = Vec::new();
    let start = Instant::now();
    let serving = match opts.workload.as_str() {
        "hot_cached" => Some(Serving::Hot {
            rate: if opts.tiny { 300.0 } else { HOT_RATE },
        }),
        "analytic_scan" => Some(Serving::Scan {
            shape: scan_shape(opts.tiny),
        }),
        "evolve_ingest" => None,
        other => panic!("unknown workload {other:?}; expected one of {WORKLOADS:?}"),
    };
    let mut passes = 0;
    match &serving {
        Some(serving) => {
            let main_phase = Duration::from_secs_f64(opts.seconds / PASSES as f64);
            for pass in 0..PASSES {
                let dir = data_root.join(format!("pass-{pass}"));
                serving::pass(
                    serving,
                    &dir,
                    main_phase,
                    tail(opts.tiny),
                    &rng,
                    tracer.as_ref(),
                    pass == 0,
                    &mut layers,
                    &mut measured,
                    &mut notes,
                );
                util::remove_dir(&dir);
                passes += 1;
            }
        }
        None => {
            // A fixed script: its length is set by the op count, not by
            // `--seconds`, so the counts it reports repeat exactly.
            let shape = ingest_shape(opts.tiny);
            while passes < PASSES {
                let dir = data_root.join(format!("pass-{passes}"));
                ingest::pass(
                    &shape,
                    &dir,
                    &rng,
                    tracer.as_ref(),
                    passes == 0,
                    &mut layers,
                    &mut measured,
                    &mut notes,
                );
                util::remove_dir(&dir);
                passes += 1;
            }
        }
    }
    util::remove_dir(&data_root);
    // Removes `.bench_data` itself only when no other run is using it.
    let _ = std::fs::remove_dir(opts.work_dir.join(".bench_data"));
    layers.http_connections = client::CONNECTIONS.load(std::sync::atomic::Ordering::Relaxed);
    notes.insert(
        0,
        format!(
            "workload {} seed {} trace {} passes {passes} wall {:.2}s",
            opts.workload,
            opts.seed,
            u8::from(opts.trace),
            start.elapsed().as_secs_f64()
        ),
    );
    let (times, spans_path) = match &tracer {
        Some(tracer) => {
            let spans = tracer.spans();
            let times = LayerTimes::of(&spans);
            let path = opts
                .work_dir
                .join(".bench_out")
                .join(format!("{}-seed{}-spans.json", opts.workload, opts.seed));
            let written = trace::dump(&path, &spans, &times).map(|()| path);
            (times, written.ok())
        }
        None => (LayerTimes::default(), None),
    };
    RunOutput {
        measured,
        layers,
        times,
        notes,
        spans_path,
    }
}
