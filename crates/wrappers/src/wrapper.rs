//! The wrapper abstraction.
//!
//! Following the mediator/wrapper architecture the paper adopts (§1, \[7\]),
//! a **wrapper** hides all source-side query complexity and exposes a flat
//! first-normal-form relation `w(a_ID, a_nID)`. Different wrappers over the
//! same data source represent different **schema versions** (§2); the
//! ontology layer never talks to a source directly.

use bdi_relational::plan::{
    batches_from_relation, BatchIter, ColumnFilter, PlanSource, ScanRequest,
};
use bdi_relational::{Relation, RelationError, Schema, SourceResolver, TableStats, Tuple};
use std::collections::BTreeMap;
use std::hash::Hash;
use std::sync::Arc;

/// Whether a source failure is worth retrying.
///
/// The retry loop in a fault-tolerant wrapper (see `RemoteWrapper`) retries
/// only [`FailureKind::Transient`] failures; a [`FailureKind::Permanent`]
/// failure aborts immediately. The mediator's
/// degrade policy (`ExecOptions::on_source_failure`) receives the
/// classification through [`bdi_relational::RelationError::SourceFailure`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureKind {
    /// Momentary: a timeout, a dropped connection, an overloaded endpoint.
    /// Retrying the same page may well succeed.
    Transient,
    /// Definitive: the source rejected the query or went away. Retrying
    /// cannot help.
    Permanent,
}

impl FailureKind {
    /// `true` for [`FailureKind::Transient`].
    pub fn is_transient(self) -> bool {
        matches!(self, FailureKind::Transient)
    }
}

/// Errors raised by wrapper execution.
#[derive(Debug, Clone, PartialEq, Eq, thiserror::Error)]
pub enum WrapperError {
    /// The wrapper's underlying source query failed. `kind` classifies the
    /// failure for retry/degrade decisions; the `Display` form is identical
    /// to the historical stringly variant this replaced.
    #[error("wrapper {source} failed to query its source: {cause}")]
    SourceQuery {
        /// The failing wrapper's name.
        source: String,
        /// Transient (retry may help) vs permanent (it cannot).
        kind: FailureKind,
        /// Human-readable failure cause.
        cause: String,
    },
    #[error(
        "wrapper {wrapper} produced a value of unsupported JSON shape for attribute {attribute}"
    )]
    UnsupportedShape { wrapper: String, attribute: String },
    #[error(transparent)]
    Relation(#[from] RelationError),
    #[error("unknown wrapper: {0}")]
    UnknownWrapper(String),
}

impl WrapperError {
    /// A transient [`WrapperError::SourceQuery`].
    pub fn transient(source: impl Into<String>, cause: impl Into<String>) -> Self {
        WrapperError::SourceQuery {
            source: source.into(),
            kind: FailureKind::Transient,
            cause: cause.into(),
        }
    }

    /// A permanent [`WrapperError::SourceQuery`].
    pub fn permanent(source: impl Into<String>, cause: impl Into<String>) -> Self {
        WrapperError::SourceQuery {
            source: source.into(),
            kind: FailureKind::Permanent,
            cause: cause.into(),
        }
    }
}

/// Counters over a fault-tolerant wrapper's retry loop, merged across
/// wrappers by [`WrapperRegistry::retry_stats`] and surfaced per system
/// through `BdiSystem::retry_stats`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RetryStats {
    /// Page fetches attempted (including retries).
    pub attempts: u64,
    /// Attempts that were retries of a previously failed fetch.
    pub retries: u64,
    /// Pages fetched successfully.
    pub pages: u64,
    /// Transient failures observed (each may have triggered a retry).
    pub transient_errors: u64,
    /// Permanent failures observed (each aborted its scan).
    pub permanent_failures: u64,
    /// Attempts abandoned for exceeding the per-attempt timeout.
    pub timeouts: u64,
}

impl RetryStats {
    /// Adds another wrapper's counters into this one.
    pub fn merge(&mut self, other: &RetryStats) {
        self.attempts += other.attempts;
        self.retries += other.retries;
        self.pages += other.pages;
        self.transient_errors += other.transient_errors;
        self.permanent_failures += other.permanent_failures;
        self.timeouts += other.timeouts;
    }
}

/// A stream of row batches from a wrapper's pushdown-aware scan — the
/// wrapper-level image of [`bdi_relational::plan::BatchIter`]. Every row
/// already has the originating request's output arity; batches respect the
/// consumer's `batch_rows` bound.
pub type RowBatches<'a> = Box<dyn Iterator<Item = Result<Vec<Tuple>, WrapperError>> + Send + 'a>;

/// Re-yields an already-materialized relation in `batch_rows`-sized
/// chunks: the batch stream of a wrapper that answers through
/// [`ScanRequest::apply`].
pub(crate) fn chunked(relation: Relation, batch_rows: usize) -> RowBatches<'static> {
    Box::new(batches_from_relation(relation, batch_rows).map(|r| r.map_err(WrapperError::from)))
}

/// Collects a wrapper's pushdown scan into one relation with the request's
/// output schema. The stream is pulled as one `usize::MAX` batch, which is
/// one lock hold for the table and JSON wrappers.
pub fn scan_request<W: Wrapper + ?Sized>(
    wrapper: &W,
    request: &ScanRequest,
) -> Result<Relation, WrapperError> {
    let mut rows = Vec::new();
    for batch in wrapper.scan_request_batches(request, usize::MAX)? {
        rows.extend(batch?);
    }
    Ok(Relation::new(request.output().clone(), rows)?)
}

/// A queryable view over one schema version of one data source.
pub trait Wrapper: Send + Sync {
    /// The wrapper's unique name (`w1`, `w4`, …).
    fn name(&self) -> &str;

    /// The data source this wrapper belongs to — the paper's `source(w)`.
    /// Walks never join two wrappers with the same source.
    fn source(&self) -> &str;

    /// The exposed relational schema, partitioned into ID / non-ID
    /// attributes. Attribute names are *local* (e.g. `VoDmonitorId`); the
    /// ontology layer prefixes them with the source when building `S` URIs.
    fn schema(&self) -> &Schema;

    /// Executes the wrapper's underlying query, producing the current rows.
    fn scan(&self) -> Result<Relation, WrapperError>;

    /// Pushdown-aware streaming scan — the one pushdown entry point a
    /// wrapper implements: surfaces only the columns the mediator's plan
    /// requests (renamed to the request's output attributes) and, when the
    /// request carries filters, only the rows satisfying every predicate —
    /// in the same stable order [`Wrapper::scan`] would produce them,
    /// yielded as batches of at most `batch_rows` rows so the mediator's
    /// interning layer never holds the whole value-space relation.
    ///
    /// The default scans everything and chunks [`ScanRequest::apply`]'s
    /// answer (the reference semantics). Wrapper kinds that can do better
    /// override it: [`crate::TableWrapper`] clones only the projected cells
    /// of one batch at a time under short read-lock holds,
    /// [`crate::JsonWrapper`] narrows its aggregation pipeline, pushes
    /// translatable predicates into a `$match` stage and pulls document
    /// chunks through a batch-aware pipeline cursor, and
    /// [`crate::RemoteWrapper`] pages its endpoint on a read-ahead thread.
    /// [`scan_request`] collects any of them into one relation.
    fn scan_request_batches<'a>(
        &'a self,
        request: &ScanRequest,
        batch_rows: usize,
    ) -> Result<RowBatches<'a>, WrapperError> {
        Ok(chunked(request.apply(&self.scan()?)?, batch_rows))
    }

    /// Monotonic counter over the wrapper's *source data*: bumped by every
    /// mutation visible to [`Wrapper::scan`] (row appends, document
    /// inserts). The mediator folds it into its scan-cache keys and the
    /// system's plan-cache stamp (through
    /// [`WrapperRegistry::data_version_sum`]), so persistent execution
    /// contexts (`reuse_scans`-style reuse) can never serve rows scanned
    /// before a mutation. It must never decrease. The default (`0`,
    /// constant) declares the data immutable between releases — only
    /// correct for wrapper kinds whose data genuinely cannot change outside
    /// [`crate::spec::WrapperSpec`]-level re-registration.
    fn data_version(&self) -> u64 {
        0
    }

    /// Whether the wrapper natively honours `filter` inside
    /// [`Wrapper::scan_request_batches`]. Plan compilers push only claimed
    /// filters into the scan request; unclaimed predicates are re-applied
    /// in the mediator as a residual selection, so declining never changes
    /// answers — only where the work happens. The default claims
    /// everything, which is correct for any wrapper whose
    /// `scan_request_batches` falls back to [`ScanRequest::apply`].
    ///
    /// Contract: the answer is a function of the filter and the wrapper's
    /// schema, fixed for the wrapper's lifetime. Compiled plans bake the
    /// pushed-vs-residual split in and are cached across queries, so a
    /// wrapper whose capabilities change is a new wrapper: register it as
    /// a new release.
    fn claims_filter(&self, _filter: &ColumnFilter) -> bool {
        true
    }

    /// A cheap estimate of how many rows [`Wrapper::scan_request_batches`]
    /// would yield, or `None` when the wrapper cannot produce one. The mediator
    /// uses it for execution-time scheduling only (hash-join build-side
    /// choice for semi-join sideways passing, cursor-only gating) — never
    /// for correctness. Return the exact count for unfiltered requests or
    /// `None` rather than guess; filtered requests may be estimated by
    /// their unfiltered count.
    fn scan_hint(&self, _request: &ScanRequest) -> Option<u64> {
        None
    }

    /// The wrapper's current per-column statistics snapshot, or `None`
    /// for wrapper kinds that do not maintain sketches (the default).
    ///
    /// The contract mirrors [`bdi_relational::plan::PlanSource::stats`]:
    /// the snapshot's [`TableStats::data_version`] must equal
    /// [`Wrapper::data_version`] at the time of the call — wrapper kinds
    /// maintain sketches under the same lock that admits writes (or
    /// rebuild lazily keyed by the version), so the planner can never
    /// price a plan against sketches of rows that no longer exist.
    /// Statistics steer plan choices only, never row membership, so a
    /// wrong snapshot degrades speed, not answers.
    fn column_stats(&self) -> Option<Arc<TableStats>> {
        None
    }

    /// The wrapper's serializable definition, when it has one (used by
    /// deployment snapshots). Defaults to `None` for wrapper kinds that
    /// cannot be persisted.
    fn to_spec(&self) -> Option<crate::spec::WrapperSpec> {
        None
    }

    /// Retry-loop counters for wrapper kinds that talk to fallible sources
    /// (see [`crate::RemoteWrapper`]). `None` — the default — for wrapper
    /// kinds without a retry loop.
    fn retry_stats(&self) -> Option<RetryStats> {
        None
    }

    /// Downcast to [`crate::TableWrapper`], when that is what this is.
    /// The durability layer journals table-row pushes, a
    /// `TableWrapper`-specific operation it must reach through a registry
    /// of `dyn Wrapper`.
    /// `None` — the default — for every other wrapper kind.
    fn as_table(&self) -> Option<&crate::TableWrapper> {
        None
    }
}

/// A shared, name-indexed set of wrappers. Implements
/// [`SourceResolver`] so rewritten walks evaluate directly against it.
#[derive(Default, Clone)]
pub struct WrapperRegistry {
    wrappers: BTreeMap<String, Arc<dyn Wrapper>>,
}

impl WrapperRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a wrapper under its own name. Re-registering a name
    /// replaces the previous wrapper (a new release supersedes).
    pub fn register(&mut self, wrapper: Arc<dyn Wrapper>) {
        self.wrappers.insert(wrapper.name().to_owned(), wrapper);
    }

    pub fn get(&self, name: &str) -> Option<&Arc<dyn Wrapper>> {
        self.wrappers.get(name)
    }

    pub fn contains(&self, name: &str) -> bool {
        self.wrappers.contains_key(name)
    }

    pub fn len(&self) -> usize {
        self.wrappers.len()
    }

    pub fn is_empty(&self) -> bool {
        self.wrappers.is_empty()
    }

    /// All wrappers, in name order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<dyn Wrapper>> {
        self.wrappers.values()
    }

    /// All wrappers belonging to `source` — the set `{w : source(w) = D}`.
    pub fn by_source(&self, source: &str) -> Vec<&Arc<dyn Wrapper>> {
        self.wrappers
            .values()
            .filter(|w| w.source() == source)
            .collect()
    }

    /// Aggregated [`RetryStats`] across every registered wrapper that
    /// reports them (wrappers without a retry loop contribute nothing).
    pub fn retry_stats(&self) -> RetryStats {
        let mut total = RetryStats::default();
        for wrapper in self.wrappers.values() {
            if let Some(stats) = wrapper.retry_stats() {
                total.merge(&stats);
            }
        }
        total
    }

    /// The sum of every wrapper's [`Wrapper::data_version`]. Each term is
    /// monotonic, so the sum moves whenever any wrapper's data does (and
    /// the wrapper set itself changes only through `&mut self`). The system
    /// stamps cached plans with it: cost-based plans are priced against the
    /// wrappers' [`Wrapper::column_stats`] sketches, which are keyed by
    /// those same versions.
    pub fn data_version_sum(&self) -> u64 {
        self.wrappers
            .values()
            .fold(0, |sum, w| sum.wrapping_add(w.data_version()))
    }
}

impl std::fmt::Debug for WrapperRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WrapperRegistry")
            .field("wrappers", &self.wrappers.keys().collect::<Vec<_>>())
            .finish()
    }
}

/// Lowers a wrapper failure into the mediator's relational error space,
/// preserving structure where the mediator acts on it: a structured
/// relational error (e.g. an arity violation from a misbehaving stream)
/// passes through *unchanged*, so every operator path surfaces the same
/// [`RelationError::Arity`] the first-batch precheck produces; a
/// [`WrapperError::SourceQuery`] keeps its transient/permanent
/// classification in [`RelationError::SourceFailure`], so the degrade
/// policy can tell a retryable outage from a gone source. Every mapping
/// renders exactly the message the historical stringly form produced.
fn relation_error(name: &str, error: WrapperError) -> RelationError {
    match error {
        WrapperError::Relation(inner) => inner,
        WrapperError::SourceQuery {
            source,
            kind,
            cause,
        } => {
            let transient = kind.is_transient();
            let cause = WrapperError::SourceQuery {
                source,
                kind,
                cause,
            }
            .to_string();
            RelationError::SourceFailure {
                source: name.to_owned(),
                transient,
                cause,
            }
        }
        other => RelationError::Source(format!("wrapper {name} failed: {other}")),
    }
}

/// The registry is the plan executor's pushdown-aware source catalog: each
/// [`bdi_relational::plan::PhysicalPlan`] scan resolves a wrapper by name
/// and hands it the requested projection/filter.
impl PlanSource for WrapperRegistry {
    fn scan(&self, name: &str, request: &ScanRequest) -> Result<Relation, RelationError> {
        let wrapper = self
            .wrappers
            .get(name)
            .ok_or_else(|| RelationError::Source(format!("unknown wrapper {name}")))?;
        scan_request(wrapper.as_ref(), request).map_err(|e| relation_error(name, e))
    }

    /// Streams through the wrapper's own [`Wrapper::scan_request_batches`]
    /// (native for table, JSON and remote wrappers, the chunked reference
    /// answer otherwise).
    fn scan_batches<'a>(
        &'a self,
        name: &str,
        request: &ScanRequest,
        batch_rows: usize,
    ) -> Result<BatchIter<'a>, RelationError> {
        let wrapper = self
            .wrappers
            .get(name)
            .ok_or_else(|| RelationError::Source(format!("unknown wrapper {name}")))?;
        let name = name.to_owned();
        let batches = wrapper
            .scan_request_batches(request, batch_rows)
            .map_err(|e| relation_error(&name, e))?;
        Ok(Box::new(
            batches.map(move |r| r.map_err(|e| relation_error(&name, e))),
        ))
    }

    /// The wrapper's own data-generation counter (unknown wrappers report a
    /// constant — the error surfaces at scan time either way).
    fn data_version(&self, name: &str) -> u64 {
        self.wrappers
            .get(name)
            .map(|w| w.data_version())
            .unwrap_or(0)
    }

    /// Delegates to the wrapper's own capability declaration. Unknown
    /// wrappers claim everything — the error surfaces at scan time either
    /// way.
    fn claims(&self, name: &str, filter: &ColumnFilter) -> bool {
        self.wrappers
            .get(name)
            .map(|w| w.claims_filter(filter))
            .unwrap_or(true)
    }

    /// The wrapper's own scan-size estimate (`None` for unknown wrappers —
    /// the error surfaces at scan time).
    ///
    /// Unfiltered requests keep the wrapper's raw answer — the
    /// exact-or-`None` contract that keeps hint-driven build-side choice
    /// identical to the eager smaller-side rule. Requests carrying claimed
    /// filters route through the wrapper's [`Wrapper::column_stats`]
    /// sketches when it maintains them, so build-side choice and the
    /// semi-join selectivity gate see the *post-filter* cardinality
    /// instead of the raw table size; wrappers without sketches keep the
    /// historical raw-count fallback.
    fn scan_hint(&self, name: &str, request: &ScanRequest) -> Option<u64> {
        let wrapper = self.wrappers.get(name)?;
        let raw = wrapper.scan_hint(request);
        if request.filters().is_empty() {
            return raw;
        }
        match wrapper.column_stats() {
            Some(stats) => Some(
                stats
                    .estimate_rows(request.filters())
                    .min(raw.unwrap_or(u64::MAX)),
            ),
            None => raw,
        }
    }

    /// The wrapper's own statistics snapshot (`None` for unknown wrappers
    /// or wrapper kinds without sketches).
    fn stats(&self, name: &str) -> Option<Arc<TableStats>> {
        self.wrappers.get(name)?.column_stats()
    }
}

impl SourceResolver for WrapperRegistry {
    fn resolve(&self, name: &str) -> Result<Relation, RelationError> {
        let wrapper = self.wrappers.get(name).ok_or_else(|| {
            RelationError::Schema(bdi_relational::SchemaError::UnknownAttribute(format!(
                "unknown wrapper {name}"
            )))
        })?;
        wrapper.scan().map_err(|e| {
            RelationError::Schema(bdi_relational::SchemaError::UnknownAttribute(format!(
                "wrapper {name} failed: {e}"
            )))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table_wrapper::TableWrapper;
    use bdi_relational::Value;

    fn sample() -> Arc<dyn Wrapper> {
        Arc::new(
            TableWrapper::new(
                "w1",
                "D1",
                Schema::from_parts(&["id"], &["x"]).unwrap(),
                vec![vec![Value::Int(1), Value::Str("a".into())]],
            )
            .unwrap(),
        )
    }

    #[test]
    fn registry_registers_and_resolves() {
        let mut reg = WrapperRegistry::new();
        reg.register(sample());
        assert!(reg.contains("w1"));
        assert_eq!(reg.len(), 1);
        let rel = reg.resolve("w1").unwrap();
        assert_eq!(rel.len(), 1);
    }

    #[test]
    fn unknown_wrapper_resolution_fails() {
        let reg = WrapperRegistry::new();
        assert!(reg.resolve("zz").is_err());
    }

    #[test]
    fn by_source_filters() {
        let mut reg = WrapperRegistry::new();
        reg.register(sample());
        reg.register(Arc::new(
            TableWrapper::new(
                "w2",
                "D2",
                Schema::from_parts::<&str>(&["id"], &[]).unwrap(),
                vec![],
            )
            .unwrap(),
        ));
        assert_eq!(reg.by_source("D1").len(), 1);
        assert_eq!(reg.by_source("D2").len(), 1);
        assert_eq!(reg.by_source("D3").len(), 0);
    }

    /// A wrapper whose `scan` answers with an empty relation of the wrong
    /// shape (a misconfiguration): the default batch scan must reject it
    /// even though no row exists to fail the consumer's per-row check.
    #[test]
    fn misshapen_empty_scan_errors_through_the_batch_adapter() {
        struct Misshapen(Schema);

        impl Wrapper for Misshapen {
            fn name(&self) -> &str {
                "bad"
            }

            fn source(&self) -> &str {
                "D"
            }

            fn schema(&self) -> &Schema {
                &self.0
            }

            fn scan(&self) -> Result<Relation, WrapperError> {
                // Always one column, whatever the schema says.
                Ok(Relation::empty(
                    Schema::from_parts::<&str>(&[], &["only"]).unwrap(),
                ))
            }
        }

        let wrapper = Misshapen(Schema::from_parts(&["id"], &["x"]).unwrap());
        let request = ScanRequest::full(wrapper.schema()); // two columns
        assert!(wrapper.scan_request_batches(&request, 64).is_err());
        let mut reg = WrapperRegistry::new();
        reg.register(Arc::new(Misshapen(
            Schema::from_parts(&["id"], &["x"]).unwrap(),
        )));
        assert!(reg.scan_batches("bad", &request, 64).is_err());
    }

    #[test]
    fn reregistering_replaces() {
        let mut reg = WrapperRegistry::new();
        reg.register(sample());
        reg.register(Arc::new(
            TableWrapper::new(
                "w1",
                "D1",
                Schema::from_parts(&["id"], &["y"]).unwrap(),
                vec![],
            )
            .unwrap(),
        ));
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.get("w1").unwrap().schema().non_id_names(), vec!["y"]);
    }
}
