//! The cross-query plan cache: repeated analyst queries skip the
//! rewriting-to-plan pipeline (hits), `register_release` invalidates both
//! the cached plans and the persistent scan context, and answers are
//! identical cached or not — with and without `reuse_scans`.

use bdi::core::exec::{Engine, ExecOptions, FeatureFilter, SourceFailurePolicy};
use bdi::core::system::{AnswerRequest, VersionScope};
use bdi::relational::{Predicate, ScanCache, Value};
use bdi_bench::synthetic;
use std::time::Duration;

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
fn repeated_queries_hit_the_plan_cache() {
    let system = system(2, 2);
    let options = ExecOptions::default();
    let first = system
        .serve(AnswerRequest::omq(synthetic::chain_query(2)).options(options.clone()))
        .unwrap();
    let stats = system.plan_cache_stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits, 0);
    assert_eq!(stats.entries, 1);

    let second = system
        .serve(AnswerRequest::omq(synthetic::chain_query(2)).options(options.clone()))
        .unwrap();
    let stats = system.plan_cache_stats();
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.entries, 1);
    assert_eq!(first.relation, second.relation);
    assert_eq!(first.walk_exprs, second.walk_exprs);
    assert_eq!(first.rewriting.walks.len(), second.rewriting.walks.len());

    // A different scope, query or value of any PlanOptions field is a
    // different entry.
    system
        .serve(
            AnswerRequest::omq(synthetic::chain_query(2))
                .scope(VersionScope::Latest)
                .options(options.clone()),
        )
        .unwrap();
    system
        .serve(AnswerRequest::omq(synthetic::chain_query(1)).options(options.clone()))
        .unwrap();
    assert_eq!(system.plan_cache_stats().entries, 3);
    let plan_variants = [
        ExecOptions {
            engine: Engine::Eager,
            ..options.clone()
        },
        ExecOptions {
            pushdown: false,
            ..options.clone()
        },
        ExecOptions {
            parallel: false,
            ..options.clone()
        },
        ExecOptions {
            filters: vec![FeatureFilter::new(
                synthetic::chain_data_feature(1),
                Predicate::between(0.0, 5.0),
            )],
            ..options.clone()
        },
        ExecOptions {
            cost_based_joins: false,
            ..options.clone()
        },
    ];
    for (i, variant) in plan_variants.into_iter().enumerate() {
        system
            .serve(AnswerRequest::omq(synthetic::chain_query(2)).options(variant))
            .unwrap();
        assert_eq!(system.plan_cache_stats().entries, 4 + i);
    }

    // Opting out compiles fresh every time and caches nothing new.
    let opt_out = ExecOptions {
        cache_plans: false,
        ..ExecOptions::default()
    };
    let before = system.plan_cache_stats();
    let uncached = system
        .serve(AnswerRequest::omq(synthetic::chain_query(2)).options(opt_out.clone()))
        .unwrap();
    assert_eq!(uncached.relation, first.relation);
    let after = system.plan_cache_stats();
    assert_eq!(after.entries, before.entries);
    assert_eq!(after.misses, before.misses);
}

#[test]
fn register_release_invalidates_plans_and_scans() {
    // Start with one wrapper per concept; the cached plan must not survive
    // the arrival of a second wrapper (the rewriting itself changes).
    let data = |_: usize, _: usize, schema: &bdi::relational::Schema| {
        rows(20, schema.index_of("next_id").is_some())
    };
    let mut sys = synthetic::build_chain_system_with(1, 2, 0, data);
    let reuse = ExecOptions {
        reuse_scans: true,
        ..ExecOptions::default()
    };
    let before = sys
        .serve(AnswerRequest::omq(synthetic::chain_query(1)).options(reuse.clone()))
        .unwrap();
    assert_eq!(sys.plan_cache_stats().entries, 1);
    assert_eq!(before.rewriting.walks.len(), 2);

    // Registering a fresh release flushes everything…
    synthetic::register_extra_chain_wrapper(&mut sys, 1, 3, rows(20, false));
    let stats = sys.plan_cache_stats();
    assert_eq!(stats.entries, 0);

    // …and the next answer sees the new wrapper's rows (a fresh context —
    // no stale interned scans) under a recompiled three-walk rewriting.
    let after = sys
        .serve(AnswerRequest::omq(synthetic::chain_query(1)).options(reuse.clone()))
        .unwrap();
    assert_eq!(after.rewriting.walks.len(), 3);
    assert!(after.relation.len() >= before.relation.len());
}

#[test]
fn wrapper_pushes_flush_plans_but_keep_the_scan_context() {
    let data = |_: usize, _: usize, schema: &bdi::relational::Schema| {
        rows(20, schema.index_of("next_id").is_some())
    };
    let mut sys = synthetic::build_chain_system_with(1, 1, 0, data);
    let wrapper = synthetic::register_extra_chain_wrapper_handle(&mut sys, 1, 2, rows(5, false));
    let options = ExecOptions::default(); // reuse_scans: true
    let before = sys
        .serve(AnswerRequest::omq(synthetic::chain_query(1)).options(options.clone()))
        .unwrap();
    let baseline = sys.plan_cache_stats();
    assert_eq!(baseline.entries, 1);
    let scans_before = sys.context_stats().cached_scans;
    assert_eq!(scans_before, 2); // one interned scan per wrapper

    // A wrapper push moves the wrappers' data_version sum, half of the plan
    // stamp: cached plans were priced against the old sketches, so the
    // next answer must recompile…
    wrapper
        .push(vec![Value::Int(99), Value::Float(9.9)])
        .unwrap();
    let after = sys
        .serve(AnswerRequest::omq(synthetic::chain_query(1)).options(options.clone()))
        .unwrap();
    let stats = sys.plan_cache_stats();
    assert_eq!(stats.misses, baseline.misses + 1);
    assert_eq!(stats.hits, baseline.hits);
    assert_eq!(stats.entries, 1);
    assert_eq!(after.relation.len(), before.relation.len() + 1);

    // …but the persistent scan context survives (unlike ontology/release
    // invalidation, which replaces it): the untouched sibling's interned
    // scan is still resident, and only the mutated wrapper re-scanned under
    // its bumped data_version — 2 old entries + 1 fresh one.
    assert_eq!(sys.context_stats().cached_scans, scans_before + 1);

    // Repeats without further mutation hit the recompiled plan again.
    sys.serve(AnswerRequest::omq(synthetic::chain_query(1)).options(options.clone()))
        .unwrap();
    assert_eq!(sys.plan_cache_stats().hits, baseline.hits + 1);
}

#[test]
fn count_neutral_ontology_mutations_invalidate_the_cache() {
    use bdi::rdf::model::{GraphName, Iri, Quad};
    let sys = system(1, 1);
    let options = ExecOptions::default();
    sys.serve(AnswerRequest::omq(synthetic::chain_query(1)).options(options.clone()))
        .unwrap();
    sys.serve(AnswerRequest::omq(synthetic::chain_query(1)).options(options.clone()))
        .unwrap();
    assert_eq!(sys.plan_cache_stats().hits, 1);

    // Insert then remove a quad: the quad *count* ends where it started,
    // but the store's mutation stamp advanced — the cache must not serve
    // plans compiled against the pre-mutation ontology.
    let quad = Quad::new(
        Iri::new("http://example.org/mutation-probe"),
        Iri::new("http://example.org/p"),
        Iri::new("http://example.org/o"),
        GraphName::Default,
    );
    let len_before = sys.ontology().store().len();
    assert!(sys.ontology().store().insert(&quad));
    assert!(sys.ontology().store().remove(&quad));
    assert_eq!(sys.ontology().store().len(), len_before);

    let misses_before = sys.plan_cache_stats().misses;
    sys.serve(AnswerRequest::omq(synthetic::chain_query(1)).options(options.clone()))
        .unwrap();
    assert_eq!(sys.plan_cache_stats().misses, misses_before + 1); // recompiled
}

#[test]
fn execution_only_options_share_one_cache_entry() {
    let sys = system(1, 2);
    let base = ExecOptions::default();
    // Each run-time field (every ExecOptions field outside PlanOptions
    // except cache_plans, which bypasses the cache) moved off its default.
    let variants = [
        base.clone(),
        ExecOptions {
            deadline: Some(Duration::from_secs(60)),
            ..base.clone()
        },
        ExecOptions {
            max_rows: Some(1),
            ..base.clone()
        },
        ExecOptions {
            on_source_failure: SourceFailurePolicy::Degrade,
            ..base.clone()
        },
        ExecOptions {
            semijoin_max_keys: 0,
            ..base.clone()
        },
        ExecOptions {
            bloom_semijoins: false,
            ..base.clone()
        },
        ExecOptions {
            scan_cache: ScanCache::Never,
            ..base.clone()
        },
        ExecOptions {
            reuse_scans: false,
            ..base.clone()
        },
    ];
    for options in &variants {
        sys.serve(AnswerRequest::omq(synthetic::chain_query(1)).options(options.clone()))
            .unwrap();
    }
    // None of them shapes the plan: one entry, compiled once.
    let stats = sys.plan_cache_stats();
    assert_eq!(stats.entries, 1);
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits, variants.len() as u64 - 1);
}

#[test]
fn cached_and_uncached_answers_agree_on_filtered_queries() {
    let sys = system(2, 2);
    let filters = vec![
        FeatureFilter::eq(synthetic::chain_id_feature(1), Value::Int(7)),
        FeatureFilter::new(
            synthetic::chain_data_feature(1),
            Predicate::between(0.0, 5.0),
        ),
    ];
    let eager = ExecOptions {
        engine: Engine::Eager,
        filters: filters.clone(),
        ..ExecOptions::default()
    };
    let reference = sys
        .serve(AnswerRequest::omq(synthetic::chain_query_with_id(2)).options(eager.clone()))
        .unwrap();
    for reuse_scans in [false, true] {
        let options = ExecOptions {
            filters: filters.clone(),
            reuse_scans,
            ..ExecOptions::default()
        };
        // Twice: the second run executes the cached plan (and, with
        // reuse_scans, the cached interned scans).
        for _ in 0..2 {
            let answer = sys
                .serve(
                    AnswerRequest::omq(synthetic::chain_query_with_id(2)).options(options.clone()),
                )
                .unwrap();
            assert_eq!(answer.relation.rows(), reference.relation.rows());
        }
    }
    // Each reuse_scans value is its own cache entry; the second run of each
    // pair is a hit.
    assert!(sys.plan_cache_stats().hits >= 2);
}
