//! Concurrency stress for the shared-read answer path: many threads
//! hammering [`BdiSystem::serve`] through one shared system must produce
//! exactly the rows serial execution produces, share compiled plans
//! (cache hits), and never poison or panic a worker.

use bdi::core::exec::ExecOptions;
use bdi::core::system::{AnswerRequest, VersionScope};
use bdi::relational::Value;
use bdi_bench::synthetic;
use std::sync::Arc;

fn rows(n: usize, with_next: bool) -> Vec<Vec<Value>> {
    (0..n)
        .map(|r| {
            let mut row = vec![Value::Int(r as i64)];
            if with_next {
                row.push(Value::Int(r as i64));
            }
            row.push(Value::Float(r as f64 / 10.0));
            row
        })
        .collect()
}

fn system(concepts: usize, wrappers: usize) -> bdi::core::system::BdiSystem {
    synthetic::build_chain_system_with(concepts, wrappers, 0, |_, _, schema| {
        rows(50, schema.index_of("next_id").is_some())
    })
}

#[test]
fn concurrent_serve_matches_serial_and_shares_plans() {
    let system = Arc::new(system(3, 2));
    // The workload: a mix of identical and distinct OMQs (different chain
    // lengths and scopes), each thread running every variant several times.
    let variants: Vec<AnswerRequest> = vec![
        AnswerRequest::omq(synthetic::chain_query(3)),
        AnswerRequest::omq(synthetic::chain_query(2)),
        AnswerRequest::omq(synthetic::chain_query(3)).scope(VersionScope::Latest),
        AnswerRequest::omq(synthetic::chain_query(1)).max_rows(10),
    ];
    // Serial reference, on a fresh identical system (its own plan cache).
    let reference: Vec<_> = {
        let serial = system.clone();
        variants
            .iter()
            .map(|request| serial.serve(request.clone()).expect("serial answers"))
            .collect()
    };

    const THREADS: usize = 8;
    const ROUNDS: usize = 5;
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let system = system.clone();
            let variants = variants.clone();
            std::thread::spawn(move || {
                for round in 0..ROUNDS {
                    // Stagger which variant each thread starts with, so the
                    // same OMQ is hammered from many threads at once.
                    for v in 0..variants.len() {
                        let i = (t + round + v) % variants.len();
                        let answer = system
                            .serve(variants[i].clone())
                            .expect("concurrent serve answers");
                        // Return what we saw; the main thread compares.
                        assert!(!answer.relation.schema().is_empty());
                    }
                }
                // One final answer per variant for row comparison.
                variants
                    .iter()
                    .map(|request| system.serve(request.clone()).expect("final serve"))
                    .collect::<Vec<_>>()
            })
        })
        .collect();

    for worker in workers {
        let answers = worker.join().expect("no worker panicked");
        for (answer, expected) in answers.iter().zip(&reference) {
            assert_eq!(answer.relation.rows(), expected.relation.rows());
            assert_eq!(answer.truncated, expected.truncated);
        }
    }

    let stats = system.plan_cache_stats();
    assert!(
        stats.hits > 0,
        "concurrent callers should share compiled plans: {stats:?}"
    );
    // Every variant compiled at least once; nothing poisoned the stats
    // surfaces either.
    assert!(stats.misses >= variants.len() as u64);
    let _ = system.context_stats();
    let _ = system.planner_stats();
}

#[test]
fn concurrent_serve_under_row_limits_and_uncached_plans() {
    let system = Arc::new(system(2, 2));
    let full = system
        .serve(AnswerRequest::omq(synthetic::chain_query(2)))
        .expect("baseline");
    let total = full.relation.len();
    assert!(total > 1);

    const THREADS: usize = 6;
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let system = system.clone();
            std::thread::spawn(move || {
                for limit in [1usize, total / 2 + 1, total + 7] {
                    let options = ExecOptions {
                        // Odd threads bypass the plan cache: uncached and
                        // cached compilation paths race side by side.
                        cache_plans: t % 2 == 0,
                        ..ExecOptions::default()
                    };
                    let answer = system
                        .serve(
                            AnswerRequest::omq(synthetic::chain_query(2))
                                .options(options)
                                .max_rows(limit),
                        )
                        .expect("limited serve");
                    assert_eq!(answer.relation.len(), total.min(limit));
                    assert_eq!(answer.truncated, limit < total);
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("no worker panicked");
    }
}

#[test]
fn pool_retires_contexts_after_release_between_concurrent_batches() {
    let mut sys = system(2, 2);
    let shared = |sys: &bdi::core::system::BdiSystem| {
        let stats_before = sys.plan_cache_stats();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    sys.serve(AnswerRequest::omq(synthetic::chain_query(2)))
                        .expect("answers");
                });
            }
        });
        sys.plan_cache_stats().misses - stats_before.misses
    };
    let first_misses = shared(&sys);
    assert!(first_misses >= 1);
    // A release between batches: plans flush, pooled contexts retire, and
    // the next batch recompiles exactly once more.
    synthetic::register_extra_chain_wrapper(&mut sys, 1, 3, rows(20, false));
    assert_eq!(sys.plan_cache_stats().entries, 0);
    let second_misses = shared(&sys);
    assert!(second_misses >= 1);
}

/// Readers interleaved with writers: one writer appends rows to a table
/// wrapper one at a time and, between appends, edits the ontology with a
/// count-neutral insert+remove of a probe quad; four readers serve the
/// chain query in a loop. A reader that saw `n` appends published before
/// its `serve` must get at least those `n` rows back — no cached plan or
/// scan from before an append may answer after it.
#[test]
fn readers_interleaved_with_writers_never_miss_a_published_row() {
    use bdi::core::exec::Engine;
    use bdi::rdf::model::{GraphName, Iri, Quad};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Barrier;

    const PUSHES: usize = 200;
    const FIRST_PUSHED: f64 = 1000.0;
    let mut sys = system(1, 1);
    let table = synthetic::register_extra_chain_wrapper_handle(&mut sys, 1, 2, Vec::new());
    let pushed_rows = |answer: &bdi::core::system::Answer| {
        answer
            .relation
            .rows()
            .iter()
            .filter(|row| matches!(row[0], Value::Float(f) if f >= FIRST_PUSHED))
            .count()
    };
    let probe = Quad::new(
        Iri::new("http://example.org/interleave-probe"),
        Iri::new("http://example.org/p"),
        Iri::new("http://example.org/o"),
        GraphName::Default,
    );
    let published = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let reads = AtomicUsize::new(0);
    let start = Barrier::new(5);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                start.wait();
                while !done.load(Ordering::Acquire) {
                    let seen = published.load(Ordering::Acquire);
                    let answer = sys
                        .serve(AnswerRequest::omq(synthetic::chain_query(1)))
                        .expect("reader answers");
                    let got = pushed_rows(&answer);
                    assert!(got >= seen, "published {seen} rows, answer has {got}");
                    reads.fetch_add(1, Ordering::Release);
                }
            });
        }
        start.wait();
        // Bounds the writer's waits below, in case a reader died.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        for n in 0..PUSHES {
            table
                .push(vec![
                    Value::Int(1000 + n as i64),
                    Value::Float(FIRST_PUSHED + n as f64),
                ])
                .expect("push");
            assert!(sys.ontology().store().insert(&probe));
            assert!(sys.ontology().store().remove(&probe));
            // Release pairs with the readers' Acquire load: a reader that
            // sees `n + 1` also sees this push and its data_version bump.
            published.store(n + 1, Ordering::Release);
            // Let at least one read finish before the next write, so reads
            // and writes interleave throughout.
            let before = reads.load(Ordering::Acquire);
            while reads.load(Ordering::Acquire) == before && std::time::Instant::now() < deadline {
                std::thread::yield_now();
            }
        }
        done.store(true, Ordering::Release);
    });

    let eager = sys
        .serve(
            AnswerRequest::omq(synthetic::chain_query(1)).options(ExecOptions {
                engine: Engine::Eager,
                ..ExecOptions::default()
            }),
        )
        .expect("eager answers");
    let mut expected = eager.relation.rows().to_vec();
    expected.sort();
    for _ in 0..2 {
        let answer = sys
            .serve(AnswerRequest::omq(synthetic::chain_query(1)))
            .expect("final answer");
        assert_eq!(pushed_rows(&answer), PUSHES);
        let mut rows = answer.relation.rows().to_vec();
        rows.sort();
        assert_eq!(rows, expected);
    }
    let stats = sys.plan_cache_stats();
    assert!(stats.hits > 0, "{stats:?}");
    assert!(
        reads.into_inner() >= PUSHES,
        "reads did not overlap the writer"
    );
}
