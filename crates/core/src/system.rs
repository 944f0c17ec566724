//! The assembled BDI system: ontology + wrapper registry + query answering.
//!
//! This corresponds to the paper's Metadata Management System (MDM, §6.1):
//! the data steward registers releases; analysts pose OMQs which are
//! rewritten (Algorithms 2–5) and executed over the wrappers.
//!
//! Query answering is **shared-read**: [`BdiSystem::serve`] takes `&self`,
//! and concurrent callers do not convoy behind a single lock. The compiled
//! plan cache is sharded by key hash (each shard its own mutex, held only
//! for a lookup or insert), and each query that reuses scans checks a
//! persistent [`ExecContext`] out of a pool instead of sharing one context.
//! Every cached plan carries the stamp it was compiled under (the
//! ontology's mutation count and the wrappers' data-version sum) and is
//! served only while the system's current stamp still equals it, the
//! version-stamped read discipline of the NVRAM tree literature (see
//! PAPERS.md). A plan compiled while the system changed can therefore
//! never answer a later query, and no flush ordering is left to reason
//! about.

use crate::exec::{
    self, CompiledQuery, ExecError, ExecOptions, PlanNote, PlanOptions, QueryAnswer, SourceFailure,
};
use crate::omq::{Omq, OmqError};
use crate::ontology::BdiOntology;
use crate::release::{self, Release, ReleaseError, ReleaseStats};
use crate::rewrite::{self, RewriteError, Rewriting};
use crate::vocab;
use bdi_relational::ExecContext;
use bdi_wrappers::WrapperRegistry;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::Duration;

/// Errors surfaced by the system facade.
#[derive(Debug, Clone, PartialEq, Eq, thiserror::Error)]
pub enum SystemError {
    #[error(transparent)]
    Omq(#[from] OmqError),
    #[error(transparent)]
    Rewrite(#[from] RewriteError),
    #[error(transparent)]
    Exec(#[from] ExecError),
    #[error(transparent)]
    Release(#[from] ReleaseError),
}

/// One entry of the system's release log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReleaseLogEntry {
    /// Monotonic sequence number (0-based registration order).
    pub seq: usize,
    pub wrapper: String,
    pub source: String,
}

/// Which schema versions a query should range over.
///
/// The rewriting always *finds* every wrapper that can answer; the scope
/// then filters the union — this is how the paper's "correctness in
/// historical queries" (§1) and most-recent-version queries coexist.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub enum VersionScope {
    /// All registered versions (the paper's default union semantics).
    #[default]
    All,
    /// Only each source's most recently registered wrapper.
    Latest,
    /// Only wrappers registered with `seq <= n` — the system as it existed
    /// after the `n`-th release (historical point-in-time queries).
    UpToRelease(usize),
    /// An explicit wrapper allow-list (by wrapper name).
    Only(BTreeSet<String>),
}

/// Upper bound on cached compiled queries across all shards; beyond it each
/// shard evicts its least-recently-hit entry.
const PLAN_CACHE_ENTRIES: usize = 64;

/// Shards of the plan-cache map. Each shard is its own mutex, held only for
/// the duration of one lookup or insert, so concurrent callers of distinct
/// queries proceed in parallel and callers of the *same* query contend only
/// with each other.
const PLAN_SHARDS: usize = 8;

/// Per-shard entry cap (the global cap split evenly).
const PLAN_SHARD_ENTRIES: usize = PLAN_CACHE_ENTRIES / PLAN_SHARDS;

/// Idle contexts the pool keeps warm; a context returning to a full pool is
/// retired instead (its peaks fold into the lifetime counters).
const CTX_POOL_IDLE: usize = 16;

/// What a cached plan was compiled against: the ontology store's
/// [`mutation_count`](bdi_rdf::QuadStore::mutation_count) (catching every
/// ontology edit, count-neutral remove+insert pairs included) and
/// [`WrapperRegistry::data_version_sum`]. Both are monotonic, so an
/// unchanged pair means nothing a plan depends on moved: the rewriting
/// reads the ontology, and cost-based join ordering compiles
/// sketch-derived estimates — keyed by each wrapper's `data_version` —
/// into the plan shape. Wrapper claims cannot move under a plan: they are
/// fixed for a wrapper's lifetime (the
/// [`claims_filter`](bdi_wrappers::Wrapper::claims_filter) contract), and
/// the registry and release log change only through `&mut self` methods
/// ([`BdiSystem::register_release`], [`BdiSystem::set_release_log`]),
/// which clear the cache outright.
///
/// The stamp is read before a plan is rewritten and stored with it;
/// [`ExecCache::lookup`] hits only when the stored stamp equals the current
/// one. A wrapper-data change therefore recompiles plans but keeps the
/// pooled contexts: every cached scan is keyed by its wrapper's live
/// `data_version` at scan time, so only the mutated wrapper re-scans and
/// sibling wrappers' (and sibling docstore collections') cached scans
/// survive. An ontology edit also retires the pooled contexts
/// ([`CtxPool::checkout`]). The counters are not persisted: every cache
/// starts empty when a deployment opens, so no stamp outlives a process.
type Stamp = (u64, u64);

/// Default watermark on each pooled context's interned-value pool; past it
/// the context is retired when checked back in (see
/// [`BdiSystem::set_context_value_cap`]).
const DEFAULT_CTX_VALUE_CAP: usize = 1 << 20;

/// Cache key: the query identity — OMQ, version scope and the options that
/// shape the compiled plan. Run-time knobs are not in [`PlanOptions`], so
/// queries differing only in them share one entry.
type PlanKey = (Omq, VersionScope, PlanOptions);

const POISONED: &str = "plan cache poisoned";

fn shard_of(key: &PlanKey) -> usize {
    let mut hasher = DefaultHasher::new();
    key.hash(&mut hasher);
    (hasher.finish() as usize) % PLAN_SHARDS
}

/// One shard of the compiled-plan map, with its own LRU clock.
#[derive(Default)]
struct PlanShard {
    tick: u64,
    plans: HashMap<PlanKey, CachedPlan>,
}

/// A compiled query, the [`Stamp`] it was compiled under and its LRU tick.
struct CachedPlan {
    compiled: Arc<CompiledQuery>,
    stamp: Stamp,
    last_used: u64,
}

/// The pool of persistent execution contexts. A query that reuses scans
/// checks a context out ([`ExecCache::checkout`]) and its guard checks it
/// back in on drop; sequential queries therefore keep hitting the same
/// warm context (interned scans, join build sides), while concurrent
/// queries each get their own and none serializes behind another's
/// execution.
struct CtxPool {
    /// Pool watermark handed to every fresh context (see
    /// [`BdiSystem::set_context_value_cap`]).
    value_cap: usize,
    /// Bumped by [`CtxPool::retire_all`]; a context checked out under an
    /// older generation is retired when it returns instead of rejoining the
    /// idle list.
    generation: u64,
    /// The highest ontology mutation count a checkout has seen; a checkout
    /// under a later one retires every context first.
    ontology_count: u64,
    idle: Vec<Arc<ExecContext>>,
    /// Every non-retired context (idle or checked out), for stats
    /// aggregation. Dead weaks are pruned opportunistically.
    live: Vec<Weak<ExecContext>>,
    /// High-water marks carried across retired contexts, so
    /// [`BdiSystem::context_stats`] reports lifetime streaming peaks even
    /// after the watermark (or a release) retired the context they occurred
    /// in.
    retired_peak_values: usize,
    retired_peak_bytes: usize,
    /// Semi-join pass counters folded out of retired contexts, so
    /// [`BdiSystem::planner_stats`] reports lifetime totals.
    retired_semijoin_insets: u64,
    retired_semijoin_blooms: u64,
}

impl Default for CtxPool {
    fn default() -> Self {
        Self {
            value_cap: DEFAULT_CTX_VALUE_CAP,
            generation: 0,
            ontology_count: 0,
            idle: Vec::new(),
            live: Vec::new(),
            retired_peak_values: 0,
            retired_peak_bytes: 0,
            retired_semijoin_insets: 0,
            retired_semijoin_blooms: 0,
        }
    }
}

impl CtxPool {
    /// Folds a retiring context's peaks and counters into the lifetime
    /// totals and forgets it.
    fn retire(&mut self, ctx: &Arc<ExecContext>) {
        self.retired_peak_values = self.retired_peak_values.max(ctx.pooled_values());
        self.retired_peak_bytes = self.retired_peak_bytes.max(ctx.peak_bytes());
        self.retired_semijoin_insets += ctx.semijoin_insets();
        self.retired_semijoin_blooms += ctx.semijoin_blooms();
        let ptr = Arc::as_ptr(ctx);
        self.live.retain(|weak| weak.as_ptr() != ptr);
    }

    /// Retires every idle context now and marks checked-out ones (if any)
    /// for retirement on return, by bumping the pool generation.
    fn retire_all(&mut self) {
        self.generation += 1;
        let idle = std::mem::take(&mut self.idle);
        for ctx in &idle {
            self.retire(ctx);
        }
    }

    /// Hands out an idle context, or a fresh one. A checkout under a
    /// later `ontology_count` than any before retires every context first:
    /// an ontology edit may reshape what the walks scan, so the interned
    /// scans and build sides of the old ontology are dropped with it.
    fn checkout(&mut self, ontology_count: u64) -> (Arc<ExecContext>, u64) {
        if ontology_count > self.ontology_count {
            self.ontology_count = ontology_count;
            self.retire_all();
        }
        let ctx = self.idle.pop().unwrap_or_else(|| {
            let ctx = Arc::new(ExecContext::new().with_value_cap(self.value_cap));
            self.live.push(Arc::downgrade(&ctx));
            ctx
        });
        (ctx, self.generation)
    }

    /// Returns a context to the idle list — unless the pool moved on
    /// (generation bump, watermark change) or the context outgrew its
    /// value-cap watermark, in which case it is retired: queries in flight
    /// elsewhere keep their own contexts, and the next checkout starts
    /// fresh. This is the per-handle successor of the old shared-context
    /// `recycle_if_over_cap`.
    fn check_in(&mut self, ctx: Arc<ExecContext>, generation: u64) {
        let stale = generation != self.generation
            || ctx.value_cap() != Some(self.value_cap)
            || ctx.over_value_cap()
            || self.idle.len() >= CTX_POOL_IDLE;
        if stale {
            self.retire(&ctx);
        } else {
            self.idle.push(ctx);
        }
    }

    /// Upgraded handles to every live (non-retired) context.
    fn contexts(&mut self) -> Vec<Arc<ExecContext>> {
        self.live.retain(|weak| weak.strong_count() > 0);
        self.live.iter().filter_map(Weak::upgrade).collect()
    }
}

/// A checked-out pooled context; checks itself back in on drop.
struct PooledCtx<'a> {
    pool: &'a Mutex<CtxPool>,
    generation: u64,
    ctx: Option<Arc<ExecContext>>,
}

impl PooledCtx<'_> {
    fn get(&self) -> &ExecContext {
        self.ctx
            .as_deref()
            .expect("pooled context already returned")
    }
}

impl Drop for PooledCtx<'_> {
    fn drop(&mut self) {
        if let Some(ctx) = self.ctx.take() {
            if let Ok(mut pool) = self.pool.lock() {
                pool.check_in(ctx, self.generation);
            }
        }
    }
}

/// Cross-query compiled-plan cache + pooled persistent execution contexts.
///
/// Concurrency shape: the plan map is sharded ([`PLAN_SHARDS`] mutexes,
/// each held only for one lookup/insert, never during rewriting,
/// compilation or execution), counters are atomics, and contexts come from
/// a pool ([`CtxPool`]) so no two in-flight queries share mutable state.
/// Validity needs no coordination of its own: each entry carries its
/// [`Stamp`], and a lookup compares it with the caller's.
#[derive(Default)]
struct ExecCache {
    hits: AtomicU64,
    misses: AtomicU64,
    /// Fresh compiles by planning kind (cache hits don't recount).
    cost_based_plans: AtomicU64,
    syntactic_plans: AtomicU64,
    shards: [Mutex<PlanShard>; PLAN_SHARDS],
    pool: Mutex<CtxPool>,
}

impl std::fmt::Debug for ExecCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let entries: usize = self
            .shards
            .iter()
            .map(|shard| shard.lock().expect(POISONED).plans.len())
            .sum();
        f.debug_struct("ExecCache")
            .field("entries", &entries)
            .field("hits", &self.hits.load(Ordering::Relaxed))
            .field("misses", &self.misses.load(Ordering::Relaxed))
            .finish()
    }
}

impl ExecCache {
    /// The cached compiled query for `key`, if one was compiled under
    /// `stamp` (the system's current [`Stamp`]).
    fn lookup(&self, key: &PlanKey, stamp: Stamp) -> Option<Arc<CompiledQuery>> {
        let hit = {
            let mut shard = self.shards[shard_of(key)].lock().expect(POISONED);
            shard.tick += 1;
            let tick = shard.tick;
            shard
                .plans
                .get_mut(key)
                .filter(|entry| entry.stamp == stamp)
                .map(|entry| {
                    entry.last_used = tick;
                    entry.compiled.clone()
                })
        };
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Inserts a query compiled under `stamp`, evicting the shard's
    /// least-recently-hit entry at capacity. Racing compilers of the same
    /// key both insert; the later insert replaces the earlier one, and
    /// whichever stamp it carries decides which callers it serves.
    fn insert(&self, key: PlanKey, compiled: Arc<CompiledQuery>, stamp: Stamp) {
        let mut shard = self.shards[shard_of(&key)].lock().expect(POISONED);
        if shard.plans.len() >= PLAN_SHARD_ENTRIES && !shard.plans.contains_key(&key) {
            if let Some(oldest) = shard
                .plans
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(k, _)| k.clone())
            {
                shard.plans.remove(&oldest);
            }
        }
        shard.tick += 1;
        let last_used = shard.tick;
        shard.plans.insert(
            key,
            CachedPlan {
                compiled,
                stamp,
                last_used,
            },
        );
    }

    /// Entries compiled under `stamp`.
    fn entries(&self, stamp: Stamp) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                let shard = shard.lock().expect(POISONED);
                shard.plans.values().filter(|e| e.stamp == stamp).count()
            })
            .sum()
    }

    /// Drops every plan and retires every pooled context — for the
    /// `&mut self` mutations that change the registry or the release log.
    fn clear(&mut self) {
        for shard in &mut self.shards {
            shard.get_mut().expect(POISONED).plans.clear();
        }
        self.pool.get_mut().expect(POISONED).retire_all();
    }

    /// Checks a persistent context out of the pool under the ontology
    /// mutation count `ontology_count`; the guard returns it on drop.
    fn checkout(&self, ontology_count: u64) -> PooledCtx<'_> {
        let (ctx, generation) = self.pool.lock().expect(POISONED).checkout(ontology_count);
        PooledCtx {
            pool: &self.pool,
            generation,
            ctx: Some(ctx),
        }
    }

    /// Tallies a fresh compile's planning kinds (one count per walk) for
    /// [`BdiSystem::planner_stats`].
    fn record_compile(&self, notes: &[PlanNote]) {
        for note in notes {
            if note.cost_based {
                self.cost_based_plans.fetch_add(1, Ordering::Relaxed);
            } else {
                self.syntactic_plans.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Plan-cache observability (tests, benches, ops dashboards).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCacheStats {
    pub entries: usize,
    pub hits: u64,
    pub misses: u64,
}

/// Planner observability (see [`BdiSystem::planner_stats`]): how walks were
/// planned and how often the semi-join pass fired, lifetime totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlannerStats {
    /// Walks whose join order was chosen by estimated cardinality
    /// (fresh compiles only — plan-cache hits don't recount).
    pub cost_based_plans: u64,
    /// Walks planned in syntactic join order (knob off, single unfiltered
    /// walk, or a wrapper without estimates).
    pub syntactic_plans: u64,
    /// Semi-join reductions shipped as exact IN-set filters, through the
    /// pooled persistent contexts (queries run with
    /// [`ExecOptions::reuse_scans`]` = false` execute against a private
    /// context and don't register).
    pub semijoin_insets: u64,
    /// Semi-join reductions shipped as Bloom filters (build side too large
    /// for an IN-set), same caveat.
    pub semijoin_blooms: u64,
}

/// Pooled-context size observability (see [`BdiSystem::context_stats`]).
/// Current figures sum over every live pooled context (idle or serving a
/// query right now); peaks fold retired contexts in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContextStats {
    /// Distinct values interned, summed across live pooled contexts.
    pub pooled_values: usize,
    /// Rough resident bytes: pools + cached interned scans + cached join
    /// build sides, summed across live pooled contexts.
    pub approx_bytes: usize,
    /// Cached interned-scan entries currently held (semi-join-reduced probe
    /// scans and cursor-only scans never appear here).
    pub cached_scans: usize,
    /// Batch-granular high-water mark of a single context's resident
    /// estimate, across retired contexts too — cursor-only streaming peaks
    /// register here even though nothing of them remains cached after the
    /// query.
    pub peak_bytes: usize,
    /// High-water mark of a single context's `pooled_values`, across
    /// retired contexts too.
    pub peak_pooled_values: usize,
}

/// A complete, queryable BDI deployment.
#[derive(Debug, Default)]
pub struct BdiSystem {
    ontology: BdiOntology,
    registry: WrapperRegistry,
    release_log: Vec<ReleaseLogEntry>,
    cache: ExecCache,
}

/// A query answer together with the rewriting that produced it.
#[derive(Debug, Clone)]
pub struct Answer {
    /// The result relation (feature-named columns, π order).
    pub relation: bdi_relational::Relation,
    /// The rewriting artefacts (walks, expansion, candidates). Shared with
    /// the plan cache, so repeated queries don't deep-clone the walks.
    pub rewriting: Arc<Rewriting>,
    /// Rendered relational algebra per executed walk.
    pub walk_exprs: Vec<String>,
    /// Sources degraded around under
    /// [`crate::exec::SourceFailurePolicy::Degrade`], one report per failed
    /// wrapper. Non-empty means [`Answer::relation`] is a partial answer —
    /// exactly the surviving walks' rows (see
    /// [`crate::exec::QueryAnswer::source_failures`]).
    pub source_failures: Vec<SourceFailure>,
    /// One planner note per walk — chosen join order, whether it was
    /// cost-based, estimated vs. actual rows (see
    /// [`crate::exec::QueryAnswer::plan_notes`]).
    pub plan_notes: Vec<PlanNote>,
    /// Whether [`Answer::relation`] was cut down to the request's
    /// [`ExecOptions::max_rows`] row limit. `false` means the relation is
    /// the complete answer (of the surviving walks, under a degraded
    /// answer).
    pub truncated: bool,
}

/// One query, fully described: what to ask (SPARQL text or a built
/// [`Omq`]), which schema versions to range over, and how to execute it.
/// Built fluently and executed by [`BdiSystem::serve`]:
///
/// ```ignore
/// let answer = system.serve(
///     AnswerRequest::sparql("SELECT ?lagRatio WHERE { ... }")
///         .scope(VersionScope::Latest)
///         .deadline(Duration::from_millis(250))
///         .max_rows(1_000),
/// )?;
/// ```
///
/// [`BdiSystem::serve`] is the one read entry point; the HTTP front end
/// funnels through it too.
#[derive(Debug, Clone)]
pub struct AnswerRequest {
    query: QueryText,
    scope: VersionScope,
    options: ExecOptions,
}

#[derive(Debug, Clone)]
enum QueryText {
    /// SPARQL in the paper's Code 3 template, parsed against the system's
    /// registered prefixes at serve time.
    Sparql(String),
    Omq(Omq),
}

impl AnswerRequest {
    /// A request from SPARQL text (the paper's Code 3 template); parsing
    /// happens in [`BdiSystem::serve`], against the system's prefixes.
    pub fn sparql(query: impl Into<String>) -> Self {
        Self {
            query: QueryText::Sparql(query.into()),
            scope: VersionScope::All,
            options: ExecOptions::default(),
        }
    }

    /// A request from an already-built OMQ.
    pub fn omq(query: Omq) -> Self {
        Self {
            query: QueryText::Omq(query),
            scope: VersionScope::All,
            options: ExecOptions::default(),
        }
    }

    /// Restricts the answer to walks whose wrappers all fall inside
    /// `scope` (default: [`VersionScope::All`]).
    pub fn scope(mut self, scope: VersionScope) -> Self {
        self.scope = scope;
        self
    }

    /// Replaces the execution options wholesale (engine, pushdown,
    /// filters, …). Compose with the knob shortcuts below by calling this
    /// first.
    pub fn options(mut self, options: ExecOptions) -> Self {
        self.options = options;
        self
    }

    /// Per-query wall-clock budget, measured from when execution starts
    /// (sets [`ExecOptions::deadline`]).
    pub fn deadline(mut self, budget: Duration) -> Self {
        self.options.deadline = Some(budget);
        self
    }

    /// Per-query row limit (sets [`ExecOptions::max_rows`]): answers larger
    /// than this come back truncated, flagged [`Answer::truncated`].
    pub fn max_rows(mut self, limit: usize) -> Self {
        self.options.max_rows = Some(limit);
        self
    }
}

impl BdiSystem {
    /// An empty system (metamodel preloaded, no sources).
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens (or cold-starts) a *durable* deployment persisted at `dir` —
    /// a convenience for [`crate::durable::DurableSystem::open`], which
    /// recovers the snapshot image and replays the WAL.
    pub fn open(
        dir: impl AsRef<std::path::Path>,
    ) -> Result<crate::durable::DurableSystem, crate::durable::DurableError> {
        crate::durable::DurableSystem::open(dir)
    }

    /// Builds from an existing ontology and registry. Wrappers already in
    /// the registry are entered into the release log in name order.
    pub fn from_parts(ontology: BdiOntology, registry: WrapperRegistry) -> Self {
        let release_log = registry
            .iter()
            .enumerate()
            .map(|(seq, w)| ReleaseLogEntry {
                seq,
                wrapper: w.name().to_owned(),
                source: w.source().to_owned(),
            })
            .collect();
        Self {
            ontology,
            registry,
            release_log,
            cache: ExecCache::default(),
        }
    }

    /// The system's current [`Stamp`].
    fn stamp(&self) -> Stamp {
        (
            self.ontology.store().mutation_count(),
            self.registry.data_version_sum(),
        )
    }

    pub fn ontology(&self) -> &BdiOntology {
        &self.ontology
    }

    pub fn ontology_mut(&mut self) -> &mut BdiOntology {
        &mut self.ontology
    }

    pub fn registry(&self) -> &WrapperRegistry {
        &self.registry
    }

    /// Applies Algorithm 1 for a new release and registers its wrapper.
    /// Every registration clears the cross-query plan cache and retires the
    /// pooled execution contexts — the new wrapper changes what queries
    /// rewrite to, and its data was never scanned.
    pub fn register_release(&mut self, release: Release) -> Result<ReleaseStats, SystemError> {
        let stats = release::apply_release(&self.ontology, &mut self.registry, release)?;
        self.release_log.push(ReleaseLogEntry {
            seq: self.release_log.len(),
            wrapper: stats.wrapper.clone(),
            source: stats.source.clone(),
        });
        self.cache.clear();
        Ok(stats)
    }

    /// The registration-ordered release log.
    pub fn release_log(&self) -> &[ReleaseLogEntry] {
        &self.release_log
    }

    /// Replaces the release log — used when restoring a persisted
    /// deployment whose log must survive verbatim.
    pub fn set_release_log(&mut self, log: Vec<ReleaseLogEntry>) {
        self.release_log = log;
        self.cache.clear();
    }

    /// Plan-cache counters (entries counts the plans valid at the system's
    /// current ontology mutation count and wrapper data versions;
    /// hits/misses accumulate over the system's lifetime).
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            entries: self.cache.entries(self.stamp()),
            hits: self.cache.hits.load(Ordering::Relaxed),
            misses: self.cache.misses.load(Ordering::Relaxed),
        }
    }

    /// Sets the watermark on each pooled execution context's
    /// interned-value pool (default 2²⁰ distinct values). When a query
    /// leaves its context's pool above the watermark the context is retired
    /// at check-in and the next query starts against a fresh one, so a
    /// long-lived system's memory stays bounded however much distinct data
    /// flows through it. Takes effect immediately: idle contexts are
    /// retired now, checked-out ones when their query finishes (cached
    /// scans flush; compiled plans survive).
    pub fn set_context_value_cap(&self, cap: usize) {
        let mut pool = self.cache.pool.lock().expect(POISONED);
        pool.value_cap = cap.max(1);
        pool.retire_all();
    }

    /// Size diagnostics of the pooled execution contexts (pools +
    /// scan/build caches) — what [`BdiSystem::set_context_value_cap`]
    /// bounds — plus lifetime high-water marks that survive context
    /// retirement, so streaming (cursor-only) peaks are observable after
    /// the fact.
    pub fn context_stats(&self) -> ContextStats {
        let (contexts, retired_peak_values, retired_peak_bytes) = {
            let mut pool = self.cache.pool.lock().expect(POISONED);
            (
                pool.contexts(),
                pool.retired_peak_values,
                pool.retired_peak_bytes,
            )
        };
        let mut stats = ContextStats {
            pooled_values: 0,
            approx_bytes: 0,
            cached_scans: 0,
            peak_bytes: retired_peak_bytes,
            peak_pooled_values: retired_peak_values,
        };
        for ctx in &contexts {
            stats.pooled_values += ctx.pooled_values();
            stats.approx_bytes += ctx.memory_estimate();
            stats.cached_scans += ctx.cached_scans();
            stats.peak_bytes = stats.peak_bytes.max(ctx.peak_bytes());
            stats.peak_pooled_values = stats.peak_pooled_values.max(ctx.pooled_values());
        }
        stats
    }

    /// The wrapper names admitted by a scope.
    pub fn wrappers_in_scope(&self, scope: &VersionScope) -> BTreeSet<String> {
        match scope {
            VersionScope::All => self.release_log.iter().map(|e| e.wrapper.clone()).collect(),
            VersionScope::UpToRelease(n) => self
                .release_log
                .iter()
                .filter(|e| e.seq <= *n)
                .map(|e| e.wrapper.clone())
                .collect(),
            VersionScope::Latest => {
                let mut latest: std::collections::BTreeMap<&str, &str> =
                    std::collections::BTreeMap::new();
                for entry in &self.release_log {
                    latest.insert(&entry.source, &entry.wrapper); // later wins
                }
                latest.values().map(|w| (*w).to_owned()).collect()
            }
            VersionScope::Only(names) => names.clone(),
        }
    }

    /// Rewrites an OMQ without executing it.
    pub fn rewrite(&self, query: Omq) -> Result<Rewriting, SystemError> {
        Ok(rewrite::rewrite(&self.ontology, query)?)
    }

    /// Executes one [`AnswerRequest`] — the single entry point every query
    /// takes (the HTTP front end builds a request and calls this too).
    /// Takes `&self` and is safe to call from many threads at once:
    /// concurrent callers share compiled plans through the sharded cache
    /// but never an execution lock.
    ///
    /// Repeated queries skip the rewriting-to-plan pipeline entirely: the
    /// compiled form is cached under `(OMQ, scope, PlanOptions)` and is
    /// served while neither the ontology nor any wrapper's data has changed
    /// and no release has been registered since. With [`ExecOptions::reuse_scans`] the query
    /// also checks a persistent [`ExecContext`] out of the system's pool,
    /// carrying interned wrapper scans and join build sides across queries
    /// until the next ontology edit or release.
    pub fn serve(&self, request: AnswerRequest) -> Result<Answer, SystemError> {
        let AnswerRequest {
            query,
            scope,
            options,
        } = request;
        let omq = match query {
            QueryText::Sparql(text) => Omq::parse(&text, self.ontology.prefixes())?,
            QueryText::Omq(omq) => omq,
        };
        // Read before rewriting: a plan compiled while the system changes
        // carries the older stamp and can never be served afterwards.
        let stamp = self.stamp();
        let key = (omq, scope, PlanOptions::from(&options));
        let cached = if options.cache_plans {
            self.cache.lookup(&key, stamp)
        } else {
            None
        };
        let compiled = match cached {
            Some(compiled) => compiled,
            None => {
                let (omq, scope, plan_options) = &key;
                let mut rewriting = rewrite::rewrite(&self.ontology, omq.clone())?;
                if !matches!(scope, VersionScope::All) {
                    let allowed = self.wrappers_in_scope(scope);
                    rewriting.walks.retain(|walk| {
                        walk.wrappers().iter().all(|uri| {
                            vocab::wrapper_name_of(uri)
                                .map(|name| allowed.contains(name))
                                .unwrap_or(false)
                        })
                    });
                }
                let compiled = Arc::new(exec::compile_query(
                    &self.ontology,
                    &self.registry,
                    rewriting,
                    plan_options.clone(),
                )?);
                self.cache.record_compile(compiled.plan_notes());
                if options.cache_plans {
                    self.cache.insert(key.clone(), compiled.clone(), stamp);
                }
                compiled
            }
        };
        // A context from the pool (checked back in when `pooled` drops,
        // including on error), or none: `reuse_scans: false` executes
        // against a fresh private context inside the executor.
        let pooled = options.reuse_scans.then(|| self.cache.checkout(stamp.0));
        let QueryAnswer {
            relation,
            walk_exprs,
            source_failures,
            plan_notes,
            truncated,
        } = exec::execute_compiled_with(
            &self.ontology,
            &self.registry,
            &compiled,
            pooled.as_ref().map(|p| p.get()),
            options.runtime(),
        )?;
        drop(pooled);
        Ok(Answer {
            relation,
            rewriting: compiled.rewriting.clone(),
            walk_exprs,
            source_failures,
            plan_notes,
            truncated,
        })
    }

    /// Planner observability: walks compiled cost-based vs. syntactically
    /// (lifetime, fresh compiles only) and semi-join reductions shipped as
    /// IN-sets vs. Bloom filters through the pooled persistent contexts
    /// (retired contexts' counts are folded in; `reuse_scans: false`
    /// queries run on private contexts and don't register). Per-query
    /// detail — the chosen join order and estimated-vs-actual rows — rides
    /// on each answer as [`Answer::plan_notes`].
    pub fn planner_stats(&self) -> PlannerStats {
        let (contexts, retired_insets, retired_blooms) = {
            let mut pool = self.cache.pool.lock().expect(POISONED);
            (
                pool.contexts(),
                pool.retired_semijoin_insets,
                pool.retired_semijoin_blooms,
            )
        };
        let mut stats = PlannerStats {
            cost_based_plans: self.cache.cost_based_plans.load(Ordering::Relaxed),
            syntactic_plans: self.cache.syntactic_plans.load(Ordering::Relaxed),
            semijoin_insets: retired_insets,
            semijoin_blooms: retired_blooms,
        };
        for ctx in &contexts {
            stats.semijoin_insets += ctx.semijoin_insets();
            stats.semijoin_blooms += ctx.semijoin_blooms();
        }
        stats
    }

    /// Aggregated retry/fault counters across every registered wrapper that
    /// reports them (today the fault-tolerant
    /// [`bdi_wrappers::RemoteWrapper`]; wrappers without a retry loop
    /// contribute nothing) — the system-level observability for the
    /// fault-tolerance layer, alongside [`BdiSystem::context_stats`].
    pub fn retry_stats(&self) -> bdi_wrappers::RetryStats {
        self.registry.retry_stats()
    }
}
