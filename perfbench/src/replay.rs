//! The traced run's step-by-step replay of one query through the public
//! function of every read-path layer, on the same inputs the load sent.
//!
//! Span tree of one replayed request (all under the request's id):
//!
//! ```text
//! http (client round trip, recorded by the load loop)
//! └─ ops          bdi_server::ops::query
//!    └─ serve     BdiSystem::serve of the same request
//!       ├─ omq.parse    Omq::parse            (SPARQL requests)
//!       └─ serve.hit    BdiSystem::serve of the parsed OMQ (a plan-cache hit)
//!          └─ exec.execute   execute_compiled_with, persistent ExecContext
//! cold (root)
//! ├─ rewrite.expand  query_expansion
//! ├─ rewrite.intra   intra_concept_generation
//! ├─ rewrite.inter   inter_concept_generation
//! ├─ exec.compile    compile_query
//! ├─ exec.execute_fresh  execute_compiled_with, no context
//! └─ wrappers.scan   Wrapper::scan, once per wrapper the query touches
//! ```

use crate::deploy::QuerySpec;
use crate::trace::Tracer;
use bdi_core::exec::{self, CompiledQuery, ExecOptions};
use bdi_core::omq::Omq;
use bdi_core::rewrite::{self, expand, inter, intra};
use bdi_core::system::{AnswerRequest, BdiSystem, VersionScope};
use bdi_core::{vocab, wellformed};
use bdi_relational::plan::ExecContext;
use bdi_server::ServerConfig;
use std::collections::BTreeSet;

/// Work counts of one replay; they depend only on the query and the
/// deployment's state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayCounts {
    pub walks: u64,
    pub rows_out: u64,
    pub response_bytes: u64,
    /// Sum of the answers' order-independent checksums: unlike the body's
    /// bytes, it depends on nothing but the answers' values.
    pub answer_checksum: u64,
    pub rows_scanned: u64,
}

impl ReplayCounts {
    pub fn add(&mut self, other: ReplayCounts) {
        self.walks += other.walks;
        self.rows_out += other.rows_out;
        self.response_bytes += other.response_bytes;
        self.answer_checksum = self.answer_checksum.wrapping_add(other.answer_checksum);
        self.rows_scanned += other.rows_scanned;
    }
}

pub struct Replayer {
    ctx: ExecContext,
    config: ServerConfig,
}

impl Default for Replayer {
    fn default() -> Self {
        Replayer {
            ctx: ExecContext::new(),
            config: ServerConfig::default(),
        }
    }
}

/// The rewriting `serve` would compile: every walk, cut to the scope.
fn scoped_rewriting(
    system: &BdiSystem,
    omq: &Omq,
    scope: &VersionScope,
) -> Option<rewrite::Rewriting> {
    let mut rewriting = rewrite::rewrite(system.ontology(), omq.clone()).ok()?;
    if !matches!(scope, VersionScope::All) {
        let allowed = system.wrappers_in_scope(scope);
        rewriting.walks.retain(|walk| {
            walk.wrappers()
                .iter()
                .all(|uri| vocab::wrapper_name_of(uri).is_some_and(|name| allowed.contains(name)))
        });
    }
    Some(rewriting)
}

impl Replayer {
    /// Replays `query` under request `request`, parenting the read path on
    /// the `http` span `http_span` (0 when the request was not sent over
    /// HTTP). Returns `None` if a layer failed.
    pub fn replay(
        &mut self,
        tracer: &Tracer,
        system: &BdiSystem,
        query: &QuerySpec,
        request: u64,
        http_span: u64,
    ) -> Option<ReplayCounts> {
        let ontology = system.ontology();
        let registry = system.registry();
        let mut counts = ReplayCounts::default();

        // Cold path: each rewriting phase, compile, a context-free execute
        // and a full scan of every wrapper the walks touch.
        let cold = tracer.new_id();
        let cold_start = std::time::Instant::now();
        let wf = wellformed::well_formed_query(ontology, query.omq.clone()).ok()?;
        let (expanded, _) = tracer.span(request, cold, "rewrite.expand", |_| {
            expand::query_expansion(ontology, &wf.omq)
        });
        let expanded = expanded.ok()?;
        let (partial, _) = tracer.span(request, cold, "rewrite.intra", |_| {
            intra::intra_concept_generation(ontology, &expanded.concepts, &expanded.query)
        });
        tracer.span(request, cold, "rewrite.inter", |_| {
            inter::inter_concept_generation(ontology, &partial).len()
        });
        let rewriting = scoped_rewriting(system, &query.omq, &query.scope)?;
        counts.walks = rewriting.walks.len() as u64;
        let touched: BTreeSet<String> = rewriting
            .walks
            .iter()
            .flat_map(|w| w.wrappers().into_iter().cloned().collect::<Vec<_>>())
            .filter_map(|uri| vocab::wrapper_name_of(&uri).map(str::to_owned))
            .collect();
        let options = ExecOptions::default();
        let (compiled, _) = tracer.span(request, cold, "exec.compile", |_| {
            exec::compile_query(ontology, registry, rewriting, &options)
        });
        let compiled: CompiledQuery = compiled.ok()?;
        let (fresh, _) = tracer.span(request, cold, "exec.execute_fresh", |_| {
            exec::execute_compiled_with(ontology, registry, &compiled, None, options.runtime())
        });
        counts.rows_out = fresh.ok()?.relation.len() as u64;
        for name in &touched {
            let wrapper = registry.get(name)?;
            let (scan, _) = tracer.span(request, cold, "wrappers.scan", |_| wrapper.scan());
            counts.rows_scanned += scan.ok()?.len() as u64;
        }
        tracer.record_as(cold, request, 0, "cold", cold_start, cold_start.elapsed());

        // Warm path, under the request's http span. Each span times one
        // call, made one after another; a parent's self time is its call
        // minus its children's calls. One untimed serve first, so every
        // timed call below is a plan-cache hit even after a write
        // invalidated the cache.
        system.serve(query.request()).ok()?;
        let ((status, body), ops_id) = tracer.span(request, http_span, "ops", |_| {
            bdi_server::ops::query(system, &self.config, &query.body)
        });
        let (_, serve_id) =
            tracer.span(request, ops_id, "serve", |_| system.serve(query.request()));
        let omq = match &query.sparql {
            Some(text) => tracer
                .span(request, serve_id, "omq.parse", |_| {
                    Omq::parse(text, system.ontology().prefixes())
                })
                .0
                .ok()?,
            None => query.omq.clone(),
        };
        let hit = AnswerRequest::omq(omq).scope(query.scope.clone());
        let (_, hit_id) = tracer.span(request, serve_id, "serve.hit", |_| system.serve(hit));
        let runtime = options.runtime();
        // Warm the persistent context, then time one execution on it.
        exec::execute_compiled_with(ontology, registry, &compiled, Some(&self.ctx), runtime)
            .ok()?;
        tracer
            .span(request, hit_id, "exec.execute", |_| {
                exec::execute_compiled_with(ontology, registry, &compiled, Some(&self.ctx), runtime)
            })
            .0
            .ok()?;
        if status != 200 {
            return None;
        }
        counts.response_bytes = body.len() as u64;
        counts.answer_checksum = crate::deploy::body_sum(&body)?.checksum;
        Some(counts)
    }
}
