//! The deployments under test, their query mixes and eager-engine
//! oracles, the API releases they evolve through, and the durable writes
//! they ingest.
//!
//! Everything here is generated from the workload seed; the program under
//! test only ever receives the generated deployments, requests and writes.

use crate::util::{answer_sum, AnswerSum, Rng};
use bdi_bench::synthetic;
use bdi_core::durable::DurableSystem;
use bdi_core::exec::{Engine, ExecOptions};
use bdi_core::omq::Omq;
use bdi_core::release::Release;
use bdi_core::supersede;
use bdi_core::system::{AnswerRequest, BdiSystem, VersionScope};
use bdi_core::vocab;
use bdi_docstore::pipeline::{Pipeline, Projection};
use bdi_docstore::DocStore;
use bdi_rdf::model::{GraphName, Iri, Quad, Triple};
use bdi_relational::{Schema, Value as Cell};
use bdi_wrappers::{JsonWrapper, TableWrapper, Wrapper};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// One distinct request of a workload's mix.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    pub label: String,
    pub omq: Omq,
    /// `Some` when the request is sent as SPARQL text, `None` for OMQ JSON.
    pub sparql: Option<String>,
    pub scope: VersionScope,
    /// The `POST /query` body.
    pub body: Vec<u8>,
}

impl QuerySpec {
    fn new(label: &str, omq: &Omq, sparql: Option<String>, scope: VersionScope) -> Self {
        let scope_json = match &scope {
            VersionScope::All => json!("all"),
            VersionScope::Latest => json!("latest"),
            VersionScope::UpToRelease(n) => json!({"up_to_release": (*n)}),
            VersionScope::Only(names) => {
                json!({"only": (names.iter().cloned().collect::<Vec<_>>())})
            }
        };
        let body = match &sparql {
            Some(text) => json!({"sparql": (text.clone()), "scope": scope_json}),
            None => json!({"omq": (omq_json(omq)), "scope": scope_json}),
        };
        QuerySpec {
            label: format!("{label}/{}", scope_label(&scope)),
            omq: omq.clone(),
            sparql,
            scope,
            body: body.to_string().into_bytes(),
        }
    }

    /// The same request for in-process [`BdiSystem::serve`].
    pub fn request(&self) -> AnswerRequest {
        match &self.sparql {
            Some(text) => AnswerRequest::sparql(text.clone()),
            None => AnswerRequest::omq(self.omq.clone()),
        }
        .scope(self.scope.clone())
    }
}

fn scope_label(scope: &VersionScope) -> String {
    match scope {
        VersionScope::All => "all".to_owned(),
        VersionScope::Latest => "latest".to_owned(),
        VersionScope::UpToRelease(n) => format!("up_to_release_{n}"),
        VersionScope::Only(names) => format!("only_{}", names.len()),
    }
}

fn iri_str(term: &bdi_rdf::model::Term) -> String {
    term.as_iri()
        .map(|i| i.as_str().to_owned())
        .unwrap_or_else(|| term.to_string())
}

fn omq_json(omq: &Omq) -> Value {
    let pi: Vec<Value> = omq.pi.iter().map(|i| json!(i.as_str())).collect();
    let phi: Vec<Value> = omq
        .phi
        .iter()
        .map(|t| {
            json!([
                (iri_str(&t.subject)),
                (t.predicate.as_str()),
                (iri_str(&t.object))
            ])
        })
        .collect();
    json!({"pi": pi, "phi": phi})
}

/// An OMQ as SPARQL text in the paper's Code 3 template (the shape of
/// `supersede::exemplary_query`).
pub fn sparql_of(omq: &Omq) -> String {
    let vars: Vec<String> = (0..omq.pi.len()).map(|i| format!("?v{i}")).collect();
    let values: Vec<String> = omq.pi.iter().map(|i| format!("<{}>", i.as_str())).collect();
    let triples: Vec<String> = omq
        .phi
        .iter()
        .map(|t| {
            format!(
                "<{}> <{}> <{}>",
                iri_str(&t.subject),
                t.predicate.as_str(),
                iri_str(&t.object)
            )
        })
        .collect();
    format!(
        "SELECT {vars} FROM <{graph}> WHERE {{ VALUES ({vars}) {{ ({values}) }} {triples} }}",
        vars = vars.join(" "),
        graph = vocab::graphs::GLOBAL.as_str(),
        values = values.join(" "),
        triples = triples.join(" . "),
    )
}

/// A relational cell as the server renders it into JSON.
fn cell_json(cell: &Cell) -> Value {
    match cell {
        Cell::Null => Value::Null,
        Cell::Bool(b) => Value::from(*b),
        Cell::Int(i) => Value::from(*i),
        Cell::Float(f) if f.is_finite() => Value::from(*f),
        Cell::Float(f) => Value::from(f.to_string()),
        Cell::Str(s) => Value::from(s.as_str()),
    }
}

/// The eager-engine (§2.2 reference) answer to a query, summed the same
/// way HTTP answers are: rendered to JSON text and read back.
pub fn eager_sum(system: &BdiSystem, query: &QuerySpec) -> AnswerSum {
    let options = ExecOptions {
        engine: Engine::Eager,
        cache_plans: false,
        reuse_scans: false,
        ..ExecOptions::default()
    };
    let answer = system
        .serve(
            AnswerRequest::omq(query.omq.clone())
                .scope(query.scope.clone())
                .options(options),
        )
        .unwrap_or_else(|e| panic!("oracle for {}: {e}", query.label));
    let rows: Vec<Value> = answer
        .relation
        .rows()
        .iter()
        .map(|row| Value::Array(row.iter().map(cell_json).collect()))
        .collect();
    let text = json!({"rows": (Value::Array(rows))}).to_string();
    let doc: Value = serde_json::from_str(&text).expect("rendered oracle is JSON");
    answer_sum(&doc).expect("rendered oracle has rows")
}

/// Reads an HTTP/ops answer body and sums it.
pub fn body_sum(body: impl AsRef<[u8]>) -> Option<AnswerSum> {
    let text = std::str::from_utf8(body.as_ref()).ok()?;
    let doc: Value = serde_json::from_str(text).ok()?;
    answer_sum(&doc)
}

/// A table wrapper the ingest writes may append rows to.
#[derive(Debug, Clone)]
pub struct Table {
    pub name: String,
    pub concept: usize,
    pub arity: usize,
    /// Whether the schema carries the `next_id` chain edge.
    pub has_next: bool,
}

/// How the deployment's sources release new API versions.
#[derive(Debug, Clone)]
pub enum Releases {
    /// New versions of the VoD API source `D1`, each a wrapper over the
    /// version-2 collection with `w4`'s mapping.
    Supersede,
    /// New versions of the terminal concept's source `D_C_1`, each carrying
    /// a copy of its original rows.
    Chain {
        concepts: usize,
        noise: usize,
        rows: Vec<Vec<Cell>>,
    },
}

impl Releases {
    /// The `k`-th (1-based) new version's wrapper name.
    pub fn wrapper_name(&self, k: usize) -> String {
        match self {
            Releases::Supersede => format!("w{}", 4 + k),
            Releases::Chain { concepts, .. } => format!("w_{concepts}_1_v{k}"),
        }
    }

    /// The `k`-th (1-based) release, over `store` (the JSON wrappers of the
    /// SUPERSEDE versions read it).
    pub fn release(&self, k: usize, store: &DocStore) -> Release {
        let name = self.wrapper_name(k);
        match self {
            Releases::Supersede => {
                use bdi_wrappers::supersede as data;
                let wrapper = JsonWrapper::new(
                    name,
                    data::D1,
                    Schema::from_parts(&["VoDmonitorId"], &["bufferingRatio"])
                        .expect("static schema"),
                    store.clone(),
                    data::VOD_V2_COLLECTION,
                    Pipeline::new().project(vec![
                        Projection::field("VoDmonitorId", "monitorId"),
                        Projection::field("bufferingRatio", "bufferingRatio"),
                    ]),
                )
                .expect("static wrapper definition");
                supersede::release_w4(Arc::new(wrapper))
            }
            Releases::Chain {
                concepts,
                noise,
                rows,
            } => {
                let c = *concepts;
                let id = synthetic::chain_id_feature(c);
                let data = synthetic::chain_data_feature(c);
                let concept = Iri::new(id.as_str().replace(&format!("id{c}"), &format!("C{c}")));
                let has = |f: &Iri| {
                    Triple::new(concept.clone(), (*vocab::g::HAS_FEATURE).clone(), f.clone())
                };
                let mut lav = vec![has(&id), has(&data)];
                let mut mappings =
                    BTreeMap::from([(format!("id{c}"), id), (format!("f{c}"), data)]);
                let mut non_ids = vec![format!("f{c}")];
                for k in 0..*noise {
                    let n = synthetic::noise_feature(c, k);
                    lav.push(has(&n));
                    mappings.insert(format!("n{k}"), n);
                    non_ids.push(format!("n{k}"));
                }
                let schema = Schema::from_parts(&[format!("id{c}")], &non_ids)
                    .expect("synthetic names are unique");
                let wrapper = TableWrapper::new(name, format!("D_{c}_1"), schema, rows.clone())
                    .expect("copied rows match the schema");
                Release::new(Arc::new(wrapper), lav, mappings)
            }
        }
    }

    /// Rows the `k`-th release's wrapper starts with (JSON wrappers read
    /// the shared store and are not counted as table rows).
    pub fn release_rows(&self) -> usize {
        match self {
            Releases::Supersede => 0,
            Releases::Chain { rows, .. } => rows.len(),
        }
    }
}

/// A built deployment: its durable handle plus what the benchmark needs
/// to drive and check it.
pub struct Deployment {
    /// Shared with the HTTP server while it runs; releases need it unshared.
    pub durable: Arc<DurableSystem>,
    /// The workload's distinct requests; the first three are the primary
    /// query at `all`, `latest` and the historical scope.
    pub queries: Vec<QuerySpec>,
    /// Eager-engine answers, parallel to `queries` (see
    /// [`Deployment::compute_oracle`]).
    pub oracle: Vec<AnswerSum>,
    pub tables: Vec<Table>,
    pub releases: Releases,
    pub acks: Acks,
}

pub const ALL: usize = 0;
pub const LATEST: usize = 1;
pub const HISTORICAL: usize = 2;

fn finish(
    dir: &Path,
    system: BdiSystem,
    store: DocStore,
    queries: Vec<QuerySpec>,
    tables: Vec<Table>,
    releases: Releases,
) -> Deployment {
    let mut acks = Acks::default();
    for t in &tables {
        let rows = system
            .registry()
            .get(&t.name)
            .and_then(|w| w.scan().ok())
            .map(|r| r.len())
            .unwrap_or(0);
        acks.rows.insert(t.name.clone(), rows);
    }
    let durable =
        Arc::new(DurableSystem::create(dir, system, store).expect("create the data directory"));
    Deployment {
        durable,
        queries,
        oracle: Vec::new(),
        tables,
        releases,
        acks,
    }
}

impl Deployment {
    /// Computes the eager-engine oracle for every request of the mix (not
    /// part of the timed set-up: it is the benchmark's check, not the
    /// deployment's work).
    pub fn compute_oracle(&mut self) {
        let system = self.durable.system();
        self.oracle = self.queries.iter().map(|q| eager_sum(system, q)).collect();
    }
}

/// The SUPERSEDE running example with `w4` registered through
/// `supersede::evolve_with_w4`; the mix is the exemplary query as SPARQL
/// text and as OMQ JSON at `all`, `latest` and `up_to_release 2`.
pub fn supersede_deployment(dir: &Path) -> Deployment {
    let (mut system, store) = supersede::build_running_example_with_store();
    supersede::evolve_with_w4(&mut system, &store);
    let omq = supersede::exemplary_omq();
    let scopes = [
        VersionScope::All,
        VersionScope::Latest,
        VersionScope::UpToRelease(2),
    ];
    let mut queries: Vec<QuerySpec> = scopes
        .iter()
        .map(|s| {
            QuerySpec::new(
                "exemplary-sparql",
                &omq,
                Some(supersede::exemplary_query()),
                s.clone(),
            )
        })
        .collect();
    queries.extend(
        scopes
            .iter()
            .map(|s| QuerySpec::new("exemplary-omq", &omq, None, s.clone())),
    );
    finish(dir, system, store, queries, Vec::new(), Releases::Supersede)
}

/// Shape of a synthetic chain deployment.
#[derive(Debug, Clone, Copy)]
pub struct ChainShape {
    pub concepts: usize,
    pub wrappers: usize,
    pub noise: usize,
    pub rows: usize,
}

/// The synthetic chain (`synthetic::build_chain_system_with`). Row `k` of
/// every wrapper of concept `i` carries `id_i = k` (and `next_id = k`), so
/// every walk joins row for row. Concepts before the last share their data
/// values across wrappers; the last concept's wrapper `j` offsets its
/// values by `j`, so the answer under `all` holds `W × rows` distinct rows.
/// The seed permutes which value each row carries, never how many there
/// are, so every seed costs the same.
pub fn chain_deployment(dir: &Path, shape: ChainShape, rng: &Rng) -> Deployment {
    let ChainShape {
        concepts,
        wrappers,
        noise,
        rows,
    } = shape;
    let mut perm_rng = rng.fork(1);
    // `k ↦ (a·k + b) mod rows` with `a` coprime to `rows` is a permutation.
    let perms: Vec<(u64, u64)> = (0..=concepts)
        .map(|_| {
            let r = rows as u64;
            let mut a = 1 + perm_rng.below(r.max(2) - 1);
            while gcd(a, r) != 1 {
                a += 1;
            }
            (a, perm_rng.below(r.max(1)))
        })
        .collect();
    let mut terminal_rows = Vec::new();
    let system = synthetic::build_chain_system_with(concepts, wrappers, noise, |i, j, schema| {
        let last = schema.index_of("next_id").is_none();
        let (a, b) = perms[i];
        let out: Vec<Vec<Cell>> = (0..rows)
            .map(|k| {
                let mut row = vec![Cell::Int(k as i64)];
                if !last {
                    row.push(Cell::Int(k as i64));
                }
                let v = ((a * k as u64 + b) % rows as u64) as f64 / 10.0;
                let offset = if last { j as f64 * 1000.0 } else { 0.0 };
                row.push(Cell::Float(v + offset));
                row.extend((0..noise).map(|m| Cell::Int((k * 31 + m) as i64)));
                row
            })
            .collect();
        if last && j == 1 {
            terminal_rows = out.clone();
        }
        out
    });
    let tables = system
        .registry()
        .iter()
        .filter_map(|w| {
            let t = w.as_table()?;
            let name = t.name().to_owned();
            let concept = name.split('_').nth(1)?.parse().ok()?;
            Some(Table {
                name,
                concept,
                arity: t.schema().len(),
                has_next: t.schema().index_of("next_id").is_some(),
            })
        })
        .collect();
    let plain = synthetic::chain_query(concepts);
    let with_id = synthetic::chain_query_with_id(concepts);
    // Releases are registered concept by concept, `wrappers` each, so
    // `up_to_release(n)` keeps the first `n + 1` wrappers: this keeps two
    // of the last concept's wrappers.
    let historical = VersionScope::UpToRelease((concepts - 1) * wrappers + 1);
    let scopes = [VersionScope::All, VersionScope::Latest, historical];
    let mut queries: Vec<QuerySpec> = scopes
        .iter()
        .map(|s| QuerySpec::new("chain-omq", &plain, None, s.clone()))
        .collect();
    queries.extend(scopes.iter().map(|s| {
        QuerySpec::new(
            "chain-id-sparql",
            &with_id,
            Some(sparql_of(&with_id)),
            s.clone(),
        )
    }));
    let releases = Releases::Chain {
        concepts,
        noise,
        rows: terminal_rows,
    };
    finish(dir, system, DocStore::new(), queries, tables, releases)
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Serialized bytes of the user data a deployment holds: every document
/// and every table-wrapper row, as compact JSON.
pub fn data_bytes(system: &BdiSystem, store: &DocStore) -> u64 {
    let docs: u64 = store
        .dump()
        .values()
        .flatten()
        .map(|d| d.to_string().len() as u64)
        .sum();
    let rows: u64 = system
        .registry()
        .iter()
        .filter(|w| w.as_table().is_some())
        .filter_map(|w| w.scan().ok())
        .map(|r| {
            r.rows()
                .iter()
                .map(|row| {
                    Value::Array(row.iter().map(cell_json).collect())
                        .to_string()
                        .len() as u64
                })
                .sum::<u64>()
        })
        .sum();
    docs + rows
}

/// One durable write of the ingest mix.
#[derive(Debug, Clone)]
pub enum Write {
    Row {
        wrapper: String,
        row: Vec<Cell>,
    },
    Doc {
        collection: String,
        doc: Value,
    },
    Docs {
        collection: String,
        docs: Vec<Value>,
    },
    Quad(Quad),
    Quads(Vec<Quad>),
}

const BATCH: usize = 100;

/// Generates one client's writes. Rows go to this client's own tables and
/// carry ids no other row joins with (and a `next_id` no row has), so
/// acknowledged writes grow every scan without changing any answer;
/// documents and quads go to this client's own collection and graph, so
/// per-wrapper, per-collection and per-graph orders are deterministic.
pub struct WriteGen {
    client: usize,
    n: u64,
    kinds: u64,
    batches: u64,
    tables: Vec<Table>,
}

/// Ids of generated rows start here; real rows use `0..rows`.
const FRESH_ID: i64 = 1_000_000;

impl WriteGen {
    pub fn new(client: usize, clients: usize, tables: &[Table]) -> Self {
        let mine = tables
            .iter()
            .enumerate()
            .filter(|(i, _)| i % clients == client)
            .map(|(_, t)| t.clone())
            .collect();
        WriteGen {
            client,
            n: 0,
            kinds: 0,
            batches: 0,
            tables: mine,
        }
    }

    pub fn collection(client: usize) -> String {
        format!("bench/events-{client}")
    }

    pub fn graph(client: usize) -> Iri {
        Iri::new(format!("urn:bench:audit-{client}"))
    }

    fn quad(&mut self, rng: &mut Rng) -> Quad {
        self.n += 1;
        Quad::new(
            Iri::new(format!("urn:bench:event/{}/{}", self.client, self.n)),
            Iri::new("urn:bench:observed"),
            Iri::new(format!("urn:bench:tick/{}", rng.below(1 << 20))),
            GraphName::Named(Self::graph(self.client)),
        )
    }

    fn doc(&mut self, rng: &mut Rng) -> Value {
        self.n += 1;
        json!({
            "client": (self.client),
            "n": (self.n),
            "value": (rng.unit()),
            "tag": (format!("t{:08x}", rng.next_u64() as u32)),
        })
    }

    fn row(&mut self, rng: &mut Rng) -> Option<Write> {
        if self.tables.is_empty() {
            return None;
        }
        self.n += 1;
        let t = &self.tables[rng.below(self.tables.len() as u64) as usize];
        let id = FRESH_ID * (t.concept as i64 + 1) + 100_000 * self.client as i64 + self.n as i64;
        let mut row = vec![Cell::Int(id)];
        if t.has_next {
            row.push(Cell::Int(id + 500_000_000));
        }
        row.push(Cell::Float(rng.unit()));
        while row.len() < t.arity {
            row.push(Cell::Int(rng.below(1000) as i64));
        }
        Some(Write::Row {
            wrapper: t.name.clone(),
            row,
        })
    }

    /// The next single write. Kinds cycle in fixed shares (rows 3/6,
    /// documents 2/6, quads 1/6; documents instead of rows when there are
    /// no tables), so every seed writes the same mix; the seed picks the
    /// payloads and the tables.
    pub fn single(&mut self, rng: &mut Rng) -> Write {
        let kind = self.kinds % 6;
        self.kinds += 1;
        if kind < 3 {
            if let Some(row) = self.row(rng) {
                return row;
            }
        }
        if kind < 5 {
            return Write::Doc {
                collection: Self::collection(self.client),
                doc: self.doc(rng),
            };
        }
        Write::Quad(self.quad(rng))
    }

    /// The next 100-item batch, alternating documents and quads.
    pub fn batch(&mut self, rng: &mut Rng) -> Write {
        self.batches += 1;
        if self.batches % 2 == 1 {
            let docs = (0..BATCH).map(|_| self.doc(rng)).collect();
            Write::Docs {
                collection: Self::collection(self.client),
                docs,
            }
        } else {
            Write::Quads((0..BATCH).map(|_| self.quad(rng)).collect())
        }
    }

    /// The next write of a burst: a batch every `BATCH_EVERY` writes,
    /// single writes otherwise.
    pub fn next(&mut self, rng: &mut Rng) -> Write {
        if (self.kinds + self.batches + 1).is_multiple_of(BATCH_EVERY) {
            self.batch(rng)
        } else {
            self.single(rng)
        }
    }
}

/// One write in this many is a 100-item batch.
pub const BATCH_EVERY: u64 = 25;

fn quad_text(q: &Quad) -> String {
    format!("{} {} {} {:?} .", q.subject, q.predicate, q.object, q.graph)
}

impl Write {
    /// Serialized bytes of the user data this write carries.
    pub fn user_bytes(&self) -> u64 {
        match self {
            Write::Row { row, .. } => Value::Array(row.iter().map(cell_json).collect())
                .to_string()
                .len() as u64,
            Write::Doc { doc, .. } => doc.to_string().len() as u64,
            Write::Docs { docs, .. } => docs.iter().map(|d| d.to_string().len() as u64).sum(),
            Write::Quad(q) => quad_text(q).len() as u64,
            Write::Quads(qs) => qs.iter().map(|q| quad_text(q).len() as u64).sum(),
        }
    }

    /// Applies the write through the durable path (`DurableSystem`), which
    /// returns only after the WAL fsync.
    pub fn apply_durable(&self, durable: &DurableSystem) -> Result<(), String> {
        let r = match self {
            Write::Row { wrapper, row } => durable.push_row(wrapper, row.clone()),
            Write::Doc { collection, doc } => durable.insert_doc(collection, doc.clone()),
            Write::Docs { collection, docs } => {
                durable.insert_docs(collection, docs.clone()).map(|_| ())
            }
            Write::Quad(q) => durable.insert_quad(q).map(|_| ()),
            Write::Quads(qs) => durable.extend_quads(qs).map(|_| ()),
        };
        r.map_err(|e| e.to_string())
    }

    /// Applies the same write to a volatile twin (no journal).
    pub fn apply_volatile(&self, system: &BdiSystem, store: &DocStore) {
        match self {
            Write::Row { wrapper, row } => {
                if let Some(t) = system.registry().get(wrapper).and_then(|w| w.as_table()) {
                    let _ = t.push(row.clone());
                }
            }
            Write::Doc { collection, doc } => {
                let _ = store.insert(collection, doc.clone());
            }
            Write::Docs { collection, docs } => {
                let _ = store.insert_many(collection, docs.clone());
            }
            Write::Quad(q) => {
                system.ontology().store().insert(q);
            }
            Write::Quads(qs) => {
                system.ontology().store().extend(qs.iter().cloned());
            }
        }
    }
}

/// What the deployment must hold after a restart: rows per table wrapper,
/// documents per benchmark collection and quads per benchmark graph, plus
/// the serialized bytes of the acknowledged quads (rows and documents are
/// counted from the stores themselves by [`data_bytes`]).
#[derive(Debug, Clone, Default)]
pub struct Acks {
    pub rows: BTreeMap<String, usize>,
    pub docs: BTreeMap<String, usize>,
    pub quads: BTreeMap<String, usize>,
    pub quad_bytes: u64,
}

impl Acks {
    /// Records an acknowledged write.
    pub fn ack(&mut self, write: &Write) {
        if matches!(write, Write::Quad(_) | Write::Quads(_)) {
            self.quad_bytes += write.user_bytes();
        }
        match write {
            Write::Row { wrapper, .. } => *self.rows.entry(wrapper.clone()).or_default() += 1,
            Write::Doc { collection, .. } => *self.docs.entry(collection.clone()).or_default() += 1,
            Write::Docs { collection, docs } => {
                *self.docs.entry(collection.clone()).or_default() += docs.len()
            }
            Write::Quad(q) => *self.quads.entry(graph_key(q)).or_default() += 1,
            Write::Quads(qs) => {
                for q in qs {
                    *self.quads.entry(graph_key(q)).or_default() += 1;
                }
            }
        }
    }

    pub fn merge(&mut self, other: &Acks) {
        for (k, v) in &other.rows {
            *self.rows.entry(k.clone()).or_default() += v;
        }
        for (k, v) in &other.docs {
            *self.docs.entry(k.clone()).or_default() += v;
        }
        for (k, v) in &other.quads {
            *self.quads.entry(k.clone()).or_default() += v;
        }
        self.quad_bytes += other.quad_bytes;
    }

    /// Every mismatch between what `durable` holds and what was
    /// acknowledged.
    pub fn mismatches(&self, durable: &DurableSystem) -> Vec<String> {
        let mut out = Vec::new();
        for (name, want) in &self.rows {
            let got = durable
                .system()
                .registry()
                .get(name)
                .and_then(|w| w.scan().ok())
                .map(|r| r.len());
            if got != Some(*want) {
                out.push(format!("wrapper {name}: {got:?} rows, acknowledged {want}"));
            }
        }
        for (name, want) in &self.docs {
            let got = durable.store().count(name);
            if got != *want {
                out.push(format!(
                    "collection {name}: {got} docs, acknowledged {want}"
                ));
            }
        }
        for (graph, want) in &self.quads {
            let got = durable
                .system()
                .ontology()
                .store()
                .graph_len(&GraphName::Named(Iri::new(graph)));
            if got != *want {
                out.push(format!("graph {graph}: {got} quads, acknowledged {want}"));
            }
        }
        out
    }
}

fn graph_key(q: &Quad) -> String {
    match &q.graph {
        GraphName::Named(iri) => iri.as_str().to_owned(),
        GraphName::Default => String::new(),
    }
}
