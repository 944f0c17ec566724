//! Wrappers over JSON collections — the paper's Code 2 made executable.
//!
//! A [`JsonWrapper`] runs an aggregation pipeline against a [`DocStore`]
//! collection and flattens the resulting JSON objects into the flat 1NF
//! relation the ontology layer expects.

use crate::wrapper::{chunked, RowBatches, Wrapper, WrapperError};
use bdi_docstore::{DocPredicate, DocStore, Pipeline, Projection};
use bdi_relational::plan::{Bound, ColumnFilter, Predicate, ScanRequest};
use bdi_relational::{Relation, RelationError, Schema, StatsBuilder, TableStats, Tuple, Value};
use std::sync::{Arc, Mutex};

/// Converts a relational [`Value`] to its JSON image, or `None` when JSON
/// cannot represent it faithfully (NaN and infinite floats — JSON numbers
/// are finite). Predicates containing unrepresentable values are simply not
/// claimed, so they fall back to the mediator's residual filter.
fn to_json(value: &Value) -> Option<serde_json::Value> {
    Some(match value {
        Value::Null => serde_json::Value::Null,
        Value::Bool(b) => serde_json::Value::Bool(*b),
        Value::Int(i) => serde_json::Value::Number((*i).into()),
        Value::Float(f) => serde_json::Value::Number(serde_json::Number::from_f64(*f)?),
        Value::Str(s) => serde_json::Value::String(s.clone()),
    })
}

/// Whether a filter column can be addressed by a `$match` stage appended
/// after the wrapper's `$project`: the projected output holds the column
/// name as a *literal* key, but `$match` resolves fields through dotted
/// path traversal — a dot in the name would make the stage read `Null`
/// instead of the projected value, so such columns stay residual.
fn match_addressable(column: &str) -> bool {
    !column.contains('.')
}

/// Translates a relational predicate into its docstore `$match` form, or
/// `None` when some constituent value has no JSON image. The docstore's
/// [`bdi_docstore::json_cmp`] mirrors the relational total order, so the
/// translation preserves [`Predicate::matches`] semantics exactly for every
/// value a JSON document can hold.
fn to_doc_predicate(predicate: &Predicate) -> Option<DocPredicate> {
    let bound = |b: &Bound| to_json(&b.value).map(|v| (v, b.inclusive));
    Some(match predicate {
        // Bloom filters probe hashed Values, not JSON documents — no
        // `$match` translation exists. Claimed blooms are evaluated in the
        // wrapper's residual path instead (see `claims_filter`).
        Predicate::Bloom(_) => return None,
        Predicate::Eq(v) => DocPredicate::Eq(to_json(v)?),
        Predicate::In(vs) => DocPredicate::In(vs.iter().map(to_json).collect::<Option<_>>()?),
        Predicate::Range { min, max } => DocPredicate::Range {
            min: match min {
                Some(b) => Some(bound(b)?),
                None => None,
            },
            max: match max {
                Some(b) => Some(bound(b)?),
                None => None,
            },
        },
    })
}

/// A wrapper backed by a document-store aggregation query.
pub struct JsonWrapper {
    name: String,
    source: String,
    schema: Schema,
    store: DocStore,
    collection: String,
    pipeline: Pipeline,
    /// Memoized column sketches, keyed by the [`Wrapper::data_version`]
    /// they were built at. Unlike [`crate::TableWrapper`], this wrapper
    /// does not own its write path (the [`DocStore`] does), so sketches
    /// are rebuilt lazily on first demand after a version bump.
    stats: Mutex<JsonStatsState>,
}

/// Memoization state behind [`JsonWrapper::column_stats`]. The lock guards
/// only this bookkeeping — the O(collection) rebuild aggregate runs
/// *outside* it (single-flighted by `rebuilding`), so concurrent planners
/// consulting a stale sketch fall back to raw hints instead of serializing
/// behind a full collection scan.
#[derive(Default)]
struct JsonStatsState {
    /// The last published snapshot and the data version it describes.
    cached: Option<(u64, Arc<TableStats>)>,
    /// Set while some thread is rebuilding; cleared when it publishes or
    /// gives up.
    rebuilding: bool,
}

impl JsonWrapper {
    /// Builds the wrapper. The pipeline's final `$project` field names must
    /// cover every attribute of `schema` (extra projected fields are
    /// ignored); this is checked at construction so a mis-wired wrapper
    /// fails at registration time, not at query time.
    pub fn new(
        name: impl Into<String>,
        source: impl Into<String>,
        schema: Schema,
        store: DocStore,
        collection: impl Into<String>,
        pipeline: Pipeline,
    ) -> Result<Self, WrapperError> {
        let name = name.into();
        if let Some(fields) = pipeline.output_fields() {
            for attr in schema.names() {
                if !fields.contains(&attr) {
                    return Err(WrapperError::permanent(
                        name,
                        format!("pipeline does not project attribute {attr}"),
                    ));
                }
            }
        }
        Ok(Self {
            name,
            source: source.into(),
            schema,
            store,
            collection: collection.into(),
            pipeline,
            stats: Mutex::new(JsonStatsState::default()),
        })
    }

    /// The backing collection's name.
    pub fn collection(&self) -> &str {
        &self.collection
    }

    /// The wrapper's aggregation pipeline.
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// One full aggregate into a sketch snapshot for `version`, abandoned
    /// (`None`) when the scan fails or the collection mutates under it —
    /// the snapshot must describe exactly the rows of its version. Runs
    /// lock-free; [`Wrapper::column_stats`] owns the memoization.
    fn rebuild_stats(&self, version: u64) -> Option<Arc<TableStats>> {
        let relation = self.scan().ok()?;
        if self.data_version() != version {
            return None;
        }
        let mut builder = StatsBuilder::new(self.schema.names());
        for row in relation.rows() {
            builder.observe_row(row);
        }
        Some(Arc::new(builder.snapshot(version)))
    }

    /// The narrowed pipeline for a request: the fetch list (requested
    /// columns plus ride-along filter columns), the residual predicates
    /// (indexed into the fetch list) and the wrapper pipeline with the
    /// trailing `$project` / `$match` stages appended. `None` when a dotted
    /// column forces the wholesale reference path (see
    /// [`JsonWrapper::scan_request_batches`]).
    #[allow(clippy::type_complexity)]
    fn narrowed_pipeline(
        &self,
        request: &ScanRequest,
    ) -> Result<Option<(Vec<String>, Vec<(usize, Predicate)>, Pipeline)>, WrapperError> {
        if request.columns().iter().any(|c| !match_addressable(c))
            || request
                .filters()
                .iter()
                .any(|f| !match_addressable(&f.column))
        {
            return Ok(None);
        }
        for column in request.columns() {
            self.schema.require(column).map_err(RelationError::Schema)?;
        }
        // Filter columns ride along when not among the requested columns,
        // and are dropped from the output rows afterwards.
        let mut fetch: Vec<String> = request.columns().to_vec();
        // (ride-along index, residual predicate) pairs evaluated post-
        // conversion; translatable predicates go into the `$match` stage.
        let mut residual: Vec<(usize, Predicate)> = Vec::new();
        let mut matched: Vec<(&str, DocPredicate)> = Vec::new();
        for f in request.filters() {
            self.schema
                .require(&f.column)
                .map_err(RelationError::Schema)?;
            let idx = match fetch.iter().position(|c| *c == f.column) {
                Some(idx) => idx,
                None => {
                    fetch.push(f.column.clone());
                    fetch.len() - 1
                }
            };
            match to_doc_predicate(&f.predicate) {
                Some(doc_predicate) => matched.push((&f.column, doc_predicate)),
                None => residual.push((idx, f.predicate.clone())),
            }
        }
        let mut pipeline = self.pipeline.clone().project(
            fetch
                .iter()
                .map(|c| Projection::field(c.clone(), c.clone()))
                .collect(),
        );
        for (column, doc_predicate) in matched {
            pipeline = pipeline.match_pred(column, doc_predicate);
        }
        Ok(Some((fetch, residual, pipeline)))
    }

    /// Converts one pipeline output document into a row of the request's
    /// arity, or `None` when a residual predicate rejects it.
    fn convert_row(
        &self,
        fetch: &[String],
        arity: usize,
        residual: &[(usize, Predicate)],
        doc: &serde_json::Value,
    ) -> Result<Option<Tuple>, WrapperError> {
        let mut row = Vec::with_capacity(fetch.len());
        for column in fetch {
            let json_value = doc.get(column).unwrap_or(&serde_json::Value::Null);
            row.push(self.convert(column, json_value)?);
        }
        if !residual.iter().all(|(idx, p)| p.matches(&row[*idx])) {
            return Ok(None);
        }
        row.truncate(arity);
        Ok(Some(row))
    }

    /// Converts a JSON scalar into a relational [`Value`].
    fn convert(&self, attribute: &str, v: &serde_json::Value) -> Result<Value, WrapperError> {
        Ok(match v {
            serde_json::Value::Null => Value::Null,
            serde_json::Value::Bool(b) => Value::Bool(*b),
            serde_json::Value::Number(n) => {
                if let Some(i) = n.as_i64() {
                    Value::Int(i)
                } else {
                    Value::Float(n.as_f64().unwrap_or(f64::NAN))
                }
            }
            serde_json::Value::String(s) => Value::Str(s.clone()),
            // Wrappers must deliver 1NF: nested structures are a wiring bug.
            serde_json::Value::Array(_) | serde_json::Value::Object(_) => {
                return Err(WrapperError::UnsupportedShape {
                    wrapper: self.name.clone(),
                    attribute: attribute.to_owned(),
                })
            }
        })
    }
}

impl Wrapper for JsonWrapper {
    fn name(&self) -> &str {
        &self.name
    }

    fn source(&self) -> &str {
        &self.source
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn to_spec(&self) -> Option<crate::spec::WrapperSpec> {
        Some(self.spec())
    }

    fn scan(&self) -> Result<Relation, WrapperError> {
        let docs = self
            .store
            .aggregate(&self.collection, &self.pipeline)
            .map_err(|e| WrapperError::permanent(self.name.clone(), e.to_string()))?;
        let mut rel = Relation::empty(self.schema.clone());
        for doc in docs {
            let mut row = Vec::with_capacity(self.schema.len());
            for attr in self.schema.attributes() {
                let json_value = doc.get(attr.name()).unwrap_or(&serde_json::Value::Null);
                row.push(self.convert(attr.name(), json_value)?);
            }
            rel.push(row)?;
        }
        Ok(rel)
    }

    /// The wrapper claims every filter it can translate into the docstore
    /// pipeline: the column must exist, be addressable by a `$match` stage
    /// (no dots in the name), and each predicate value must have a faithful
    /// JSON image (NaN range bounds, for instance, do not — those filters
    /// stay in the mediator as residues). Bloom filters have no pipeline
    /// translation but are still claimed: they ride the wrapper's residual
    /// path (`JsonWrapper::convert_row`), so filtered-out documents never
    /// cross the wrapper boundary.
    fn claims_filter(&self, filter: &ColumnFilter) -> bool {
        self.schema.index_of(&filter.column).is_some()
            && match_addressable(&filter.column)
            && (matches!(filter.predicate, Predicate::Bloom(_))
                || to_doc_predicate(&filter.predicate).is_some())
    }

    /// Native streaming pushdown: a trailing `$project` of only the
    /// requested fields is appended to the wrapper's pipeline, followed by
    /// a `$match` of every translatable predicate, so the document store
    /// never surfaces unused attributes or filtered-out documents. The
    /// docstore compares through [`bdi_docstore::json_cmp`], which mirrors
    /// relational [`Value`] ordering (cross-type numeric equality
    /// included) — the contract is relational. Untranslatable predicates
    /// are evaluated here after JSON→[`Value`] conversion, so the method
    /// honours *any* request whether or not its filters were claimed.
    ///
    /// Rows arrive in `batch_rows`-document chunks pulled from the backing
    /// collection (one short read-lock hold each, via
    /// [`DocStore::docs_chunk`]) and fed through a batch-aware pipeline
    /// cursor ([`Pipeline::start`]) whose `$limit` budgets span chunks — so
    /// neither the store's full document set nor the full result relation
    /// is ever materialized in one piece. A `$limit`-exhausted cursor stops
    /// pulling chunks early.
    ///
    /// This is a *cursor*, not a point snapshot: it is bounded to the
    /// documents present when it started and shrink-safe (a concurrent
    /// [`DocStore::clear`] ends it early), but a clear followed by
    /// re-inserts mid-scan can surface a mix of the two generations within
    /// one result — the same consistency any paging source gives. Every
    /// mutation bumps [`Wrapper::data_version`], so cached results of such
    /// a scan are invalidated either way. One `usize::MAX` batch is one
    /// lock hold.
    fn scan_request_batches<'a>(
        &'a self,
        request: &ScanRequest,
        batch_rows: usize,
    ) -> Result<RowBatches<'a>, WrapperError> {
        // The narrowing `$project` (and any `$match`) resolves fields by
        // dotted-path traversal, while this wrapper's own projection output
        // holds column names as literal keys — a dotted column name cannot
        // be re-addressed through the pipeline, so such requests chunk the
        // wholesale reference result instead.
        let Some((fetch, residual, pipeline)) = self.narrowed_pipeline(request)? else {
            return Ok(chunked(request.apply(&self.scan()?)?, batch_rows));
        };
        let total = self
            .store
            .collection_len(&self.collection)
            .map_err(|e| WrapperError::permanent(self.name.clone(), e.to_string()))?;
        let arity = request.columns().len();
        let batch_rows = batch_rows.max(1);
        let mut run = pipeline.start();
        let mut cursor = 0usize;
        let mut failed = false;
        Ok(Box::new(std::iter::from_fn(move || {
            loop {
                if failed || cursor >= total || run.exhausted() {
                    return None;
                }
                let docs = match self.store.docs_chunk(&self.collection, cursor, batch_rows) {
                    Ok(docs) => docs,
                    Err(e) => {
                        failed = true;
                        return Some(Err(WrapperError::permanent(
                            self.name.clone(),
                            e.to_string(),
                        )));
                    }
                };
                if docs.is_empty() {
                    return None; // the collection shrank mid-scan
                }
                cursor += docs.len();
                let outs = match run.push_batch(docs) {
                    Ok(outs) => outs,
                    Err(e) => {
                        failed = true;
                        return Some(Err(WrapperError::permanent(
                            self.name.clone(),
                            e.to_string(),
                        )));
                    }
                };
                let mut rows: Vec<Tuple> = Vec::with_capacity(outs.len());
                for doc in &outs {
                    match self.convert_row(&fetch, arity, &residual, doc) {
                        Ok(Some(row)) => rows.push(row),
                        Ok(None) => {}
                        Err(e) => {
                            failed = true;
                            return Some(Err(e));
                        }
                    }
                }
                if !rows.is_empty() {
                    return Some(Ok(rows));
                }
            }
        })))
    }

    /// The backing *collection*'s mutation counter
    /// ([`DocStore::collection_version`]): inserts into sibling collections
    /// of the same store never move it, so this wrapper's cached scans
    /// survive them.
    fn data_version(&self) -> u64 {
        self.store.collection_version(&self.collection)
    }

    /// Exact only when the wrapper's own pipeline cannot change the
    /// document count (`$project`-only): one output row per stored
    /// document. Pipelines with `$match`/`$limit` stages return `None` —
    /// an inexact hint could flip hint-driven join scheduling away from
    /// the eager build-side choice and perturb unfiltered row order.
    fn scan_hint(&self, _request: &ScanRequest) -> Option<u64> {
        if self.pipeline.preserves_doc_count() {
            self.store
                .collection_len(&self.collection)
                .ok()
                .map(|n| n as u64)
        } else {
            None
        }
    }

    /// Per-column sketches over the pipeline's *output* rows, rebuilt
    /// lazily (one full aggregate) whenever the backing collection's
    /// version has moved past the memoized snapshot. Returns `None` when
    /// the collection mutates mid-rebuild rather than publish a snapshot
    /// whose rows straddle two versions.
    ///
    /// The rebuild aggregate runs outside the memoization lock and is
    /// single-flighted: while one thread rebuilds, others return `None`
    /// immediately (callers fall back to raw hints) instead of queueing
    /// behind a full collection scan. On a hot write path that also
    /// bounds the rescan rate — at most one aggregate in flight, each
    /// abandoned early when the version moves under it.
    fn column_stats(&self) -> Option<Arc<TableStats>> {
        let version = self.data_version();
        {
            let mut state = self.stats.lock().expect("stats lock poisoned");
            if let Some((cached_version, snapshot)) = state.cached.as_ref() {
                if *cached_version == version {
                    return Some(Arc::clone(snapshot));
                }
            }
            if state.rebuilding {
                return None;
            }
            state.rebuilding = true;
        }
        let rebuilt = self.rebuild_stats(version);
        let mut state = self.stats.lock().expect("stats lock poisoned");
        state.rebuilding = false;
        let snapshot = rebuilt?;
        state.cached = Some((version, Arc::clone(&snapshot)));
        Some(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wrapper;
    use bdi_docstore::{AggExpr, Projection};
    use serde_json::json;

    fn vod_store() -> DocStore {
        let store = DocStore::new();
        store
            .insert_many(
                "vod",
                vec![
                    json!({"monitorId": 12, "timestamp": 1475010424i64, "bitrate": 6, "waitTime": 3, "watchTime": 4}),
                    json!({"monitorId": 12, "waitTime": 9, "watchTime": 10}),
                    json!({"monitorId": 18, "waitTime": 1, "watchTime": 10}),
                ],
            )
            .unwrap();
        store
    }

    fn code2_wrapper(store: DocStore) -> JsonWrapper {
        JsonWrapper::new(
            "w1",
            "D1",
            Schema::from_parts(&["VoDmonitorId"], &["lagRatio"]).unwrap(),
            store,
            "vod",
            Pipeline::new().project(vec![
                Projection::field("VoDmonitorId", "monitorId"),
                Projection::computed(
                    "lagRatio",
                    AggExpr::divide(AggExpr::field("waitTime"), AggExpr::field("watchTime")),
                ),
            ]),
        )
        .unwrap()
    }

    #[test]
    fn scan_flattens_json_into_relation() {
        let w = code2_wrapper(vod_store());
        let rel = w.scan().unwrap();
        assert_eq!(rel.len(), 3);
        assert_eq!(rel.value(0, "VoDmonitorId"), Some(&Value::Int(12)));
        assert_eq!(rel.value(0, "lagRatio"), Some(&Value::Float(0.75)));
        assert_eq!(rel.value(2, "lagRatio"), Some(&Value::Float(0.1)));
    }

    #[test]
    fn missing_schema_attribute_in_pipeline_is_rejected() {
        let err = JsonWrapper::new(
            "w",
            "D",
            Schema::from_parts(&["id"], &["zz"]).unwrap(),
            vod_store(),
            "vod",
            Pipeline::new().project(vec![Projection::field("id", "monitorId")]),
        );
        assert!(matches!(err, Err(WrapperError::SourceQuery { .. })));
    }

    #[test]
    fn nested_values_are_a_wiring_error() {
        let store = DocStore::new();
        store.insert("c", json!({"nested": {"a": 1}})).unwrap();
        let w = JsonWrapper::new(
            "w",
            "D",
            Schema::from_parts::<&str>(&[], &["nested"]).unwrap(),
            store,
            "c",
            Pipeline::new().project(vec![Projection::field("nested", "nested")]),
        )
        .unwrap();
        assert!(matches!(
            w.scan(),
            Err(WrapperError::UnsupportedShape { .. })
        ));
    }

    #[test]
    fn scan_request_narrows_pipeline_and_filters() {
        let w = code2_wrapper(vod_store());
        let request = ScanRequest::new(
            vec!["lagRatio".into()],
            Schema::from_parts::<&str>(&[], &["D1/lagRatio"]).unwrap(),
        )
        .unwrap()
        .with_filter("VoDmonitorId", Value::Int(12));
        let native = wrapper::scan_request(&w, &request).unwrap();
        let reference = request.apply(&w.scan().unwrap()).unwrap();
        assert_eq!(native, reference);
        assert_eq!(native.len(), 2);
        assert_eq!(native.schema().names(), vec!["D1/lagRatio"]);
        assert_eq!(native.value(0, "D1/lagRatio"), Some(&Value::Float(0.75)));
    }

    #[test]
    fn predicate_pushdown_matches_reference_and_reconciles_numerics() {
        let store = vod_store();
        // A float-typed monitor id: relational equality is cross-type, so a
        // pushed Int(12) filter must match it through the $match stage.
        store
            .insert(
                "vod",
                json!({"monitorId": 12.0, "waitTime": 1, "watchTime": 2}),
            )
            .unwrap();
        let w = code2_wrapper(store);
        let eq = ScanRequest::new(
            vec!["lagRatio".into()],
            Schema::from_parts::<&str>(&[], &["D1/lagRatio"]).unwrap(),
        )
        .unwrap()
        .with_filter("VoDmonitorId", Value::Int(12));
        let native = wrapper::scan_request(&w, &eq).unwrap();
        assert_eq!(native, eq.apply(&w.scan().unwrap()).unwrap());
        assert_eq!(native.len(), 3); // both Int(12) docs and the Float(12.0) doc

        let range = ScanRequest::full(w.schema())
            .with_predicate("lagRatio", Predicate::between(0.1, 0.8))
            .with_predicate(
                "VoDmonitorId",
                Predicate::in_set([Value::Int(12), Value::Int(18)]),
            );
        assert!(w.claims_filter(&range.filters()[0]));
        let native = wrapper::scan_request(&w, &range).unwrap();
        assert_eq!(native, range.apply(&w.scan().unwrap()).unwrap());
    }

    #[test]
    fn nan_bounds_are_not_claimed_but_still_honoured() {
        let w = code2_wrapper(vod_store());
        // NaN has no JSON image: the wrapper declines the claim…
        let filter = ColumnFilter::new("lagRatio", Predicate::at_most(f64::NAN));
        assert!(!w.claims_filter(&filter));
        assert!(!w.claims_filter(&ColumnFilter::new(
            "lagRatio",
            Predicate::in_set([Value::Float(f64::NAN)])
        )));
        // …and unknown columns are never claimed.
        assert!(!w.claims_filter(&ColumnFilter::new("zz", Predicate::eq(1))));
        // Dotted column names are not $match-addressable after $project (a
        // $match would traverse the path while the projected doc holds the
        // literal key): declined, evaluated residually — and the residual
        // answer equals the reference.
        let store = DocStore::new();
        store
            .insert_many(
                "c",
                vec![
                    serde_json::json!({"a": {"b": 1}}),
                    serde_json::json!({"a": {"b": 2}}),
                ],
            )
            .unwrap();
        let dotted = JsonWrapper::new(
            "wd",
            "D",
            Schema::from_parts::<&str>(&[], &["a.b"]).unwrap(),
            store,
            "c",
            Pipeline::new().project(vec![Projection::field("a.b", "a.b")]),
        )
        .unwrap();
        let dotted_filter = ColumnFilter::new("a.b", Predicate::eq(1));
        assert!(!dotted.claims_filter(&dotted_filter));
        let dotted_request = ScanRequest::full(dotted.schema()).with_column_filter(dotted_filter);
        let dotted_native = wrapper::scan_request(&dotted, &dotted_request).unwrap();
        assert_eq!(
            dotted_native,
            dotted_request.apply(&dotted.scan().unwrap()).unwrap()
        );
        assert_eq!(dotted_native.len(), 1);
        // …but a request carrying one anyway is evaluated residually, with
        // reference semantics (everything is ≤ NaN: it sorts greatest).
        let request = ScanRequest::full(w.schema()).with_column_filter(filter);
        let native = wrapper::scan_request(&w, &request).unwrap();
        assert_eq!(native, request.apply(&w.scan().unwrap()).unwrap());
        assert_eq!(native.len(), 3);
    }

    #[test]
    fn native_batches_match_reference_at_every_size() {
        let w = code2_wrapper(vod_store());
        // Projection + claimed filter + ride-along filter column.
        let request = ScanRequest::new(
            vec!["lagRatio".into()],
            Schema::from_parts::<&str>(&[], &["D1/lagRatio"]).unwrap(),
        )
        .unwrap()
        .with_filter("VoDmonitorId", Value::Int(12));
        let reference = request.apply(&w.scan().unwrap()).unwrap();
        assert_eq!(reference.len(), 2);
        for batch_rows in [1usize, 2, usize::MAX] {
            let mut rows = Vec::new();
            for batch in w.scan_request_batches(&request, batch_rows).unwrap() {
                let batch = batch.unwrap();
                assert!(!batch.is_empty());
                assert!(batch.len() <= batch_rows);
                rows.extend(batch);
            }
            assert_eq!(rows, reference.rows(), "batch_rows={batch_rows}");
        }
    }

    #[test]
    fn batched_scan_honours_limit_stages_across_chunks() {
        // A wrapper pipeline with $limit: the budget must span pulled
        // chunks (2 docs surface however small the batches are).
        let store = vod_store();
        let w = JsonWrapper::new(
            "w1",
            "D1",
            Schema::from_parts(&["VoDmonitorId"], &[]).unwrap(),
            store,
            "vod",
            Pipeline::new()
                .limit(2)
                .project(vec![Projection::field("VoDmonitorId", "monitorId")]),
        )
        .unwrap();
        let request = ScanRequest::full(w.schema());
        let reference = request.apply(&w.scan().unwrap()).unwrap();
        assert_eq!(reference.len(), 2);
        for batch_rows in [1usize, 3] {
            let rows: Vec<_> = w
                .scan_request_batches(&request, batch_rows)
                .unwrap()
                .flat_map(|b| b.unwrap())
                .collect();
            assert_eq!(rows, reference.rows());
        }
    }

    #[test]
    fn dotted_columns_fall_back_to_chunked_reference_path() {
        let store = DocStore::new();
        store
            .insert_many("c", vec![json!({"a": {"b": 1}}), json!({"a": {"b": 2}})])
            .unwrap();
        let w = JsonWrapper::new(
            "wd",
            "D",
            Schema::from_parts::<&str>(&[], &["a.b"]).unwrap(),
            store,
            "c",
            Pipeline::new().project(vec![Projection::field("a.b", "a.b")]),
        )
        .unwrap();
        let request = ScanRequest::full(w.schema());
        let reference = wrapper::scan_request(&w, &request).unwrap();
        let rows: Vec<_> = w
            .scan_request_batches(&request, 1)
            .unwrap()
            .flat_map(|b| b.unwrap())
            .collect();
        assert_eq!(rows, reference.rows());
    }

    #[test]
    fn store_mutations_bump_data_version() {
        let store = vod_store();
        let w = code2_wrapper(store.clone());
        let v0 = w.data_version();
        store
            .insert(
                "vod",
                json!({"monitorId": 7, "waitTime": 1, "watchTime": 2}),
            )
            .unwrap();
        assert!(w.data_version() > v0);
        let v1 = w.data_version();
        store.clear("vod");
        assert!(w.data_version() > v1);
    }

    #[test]
    fn new_source_documents_appear_on_next_scan() {
        let store = vod_store();
        let w = code2_wrapper(store.clone());
        assert_eq!(w.scan().unwrap().len(), 3);
        store
            .insert(
                "vod",
                json!({"monitorId": 20, "waitTime": 5, "watchTime": 8}),
            )
            .unwrap();
        assert_eq!(w.scan().unwrap().len(), 4);
    }
}
