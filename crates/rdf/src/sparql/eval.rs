//! Evaluation of the SPARQL subset against an [`RdfStore`].
//!
//! SELECT queries are compiled to an explicit join plan (`sparql::plan`) —
//! triple patterns reordered by cardinality estimates from the store's real
//! per-predicate statistics, filters pushed down to the earliest step that
//! binds their variables — and executed by the streaming operator pipeline
//! in `sparql::stream`, which yields bindings one at a time so `LIMIT k`
//! queries stop scanning after k results; UPDATE WHERE runs on the same
//! pipeline. A loop-based materialised executor over the same plan is kept
//! only as the plain-SPARQL reference oracle
//! ([`evaluate_select_materialised`]). SPARQL-ML SELECTs compile into the
//! same [`PreparedQuery`] ([`prepare_select_inferring`]), so every solution
//! modifier is implemented once, here, for both kinds of query.
//!
//! Every execution ends in one answer type, [`Solutions`]: the projected
//! id rows, the output column names, and the execution's own terms
//! (aggregate values, inferred objects), lending each cell as a borrowed
//! [`Term`]. A caller that only reads or renders the answer
//! ([`answer_prepared`]) clones no term; [`Solutions::to_result`] is the
//! one place rows become an owned [`QueryResult`], for
//! [`evaluate_prepared`], [`evaluate_prepared_profiled`] and the reference
//! executor alike.

use std::borrow::Cow;
use std::sync::Arc;

use rustc_hash::{FxHashMap, FxHashSet};

use crate::dict::{TermDict, TermId};
use crate::error::SparqlError;
use crate::sparql::ast::*;
use crate::sparql::plan::{plan_group, plan_inferred, GroupPlan, InferredObjects};
use crate::sparql::stream::{
    build_group_stream, exec_group_materialised, ExecCtx, ExecState, ExecStats, OpTap,
};
use crate::store::RdfStore;
use crate::term::{xsd, Term};

/// A materialised query result.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Output column names (without `?`).
    pub vars: Vec<String>,
    /// Rows; `None` marks an unbound variable.
    pub rows: Vec<Vec<Option<Term>>>,
}

impl QueryResult {
    /// Index of a column by variable name.
    pub fn column(&self, var: &str) -> Option<usize> {
        self.vars.iter().position(|v| v == var)
    }

    /// Iterate the values of one column.
    pub fn column_values<'a>(&'a self, var: &str) -> impl Iterator<Item = Option<&'a Term>> + 'a {
        let idx = self.column(var);
        self.rows.iter().map(move |row| idx.and_then(|i| row[i].as_ref()))
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were produced.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as a simple aligned text table (for examples/demos).
    pub fn to_table(&self) -> String {
        let mut widths: Vec<usize> = self.vars.iter().map(|v| v.len() + 1).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .map(|(i, t)| {
                        let s = t.as_ref().map_or(String::new(), |t| t.to_string());
                        widths[i] = widths[i].max(s.len());
                        s
                    })
                    .collect()
            })
            .collect();
        let mut out = String::new();
        for (i, v) in self.vars.iter().enumerate() {
            out.push_str(&format!("{:w$}  ", format!("?{v}"), w = widths[i]));
        }
        out.push('\n');
        for row in rendered {
            for (i, cell) in row.iter().enumerate() {
                out.push_str(&format!("{:w$}  ", cell, w = widths[i]));
            }
            out.push('\n');
        }
        out
    }
}

/// The answer of one SELECT execution: the projected id rows, the output
/// column names, and the terms the execution made that the store's
/// dictionary lacks (aggregate values, inferred objects), whose ids
/// continue past the dictionary's end. It borrows the store and lends every
/// cell as `Option<&Term>`; [`Solutions::to_result`] is the one place rows
/// are cloned into an owned [`QueryResult`].
pub struct Solutions<'s> {
    store: &'s RdfStore,
    vars: Arc<[String]>,
    rows: Vec<IdRow>,
    side: TermDict,
}

impl Solutions<'_> {
    /// Output column names (without `?`).
    pub fn vars(&self) -> &[String] {
        &self.vars
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were produced.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The rows in answer order, each as its cells in column order; `None`
    /// marks an unbound variable.
    pub fn rows(
        &self,
    ) -> impl ExactSizeIterator<Item = impl ExactSizeIterator<Item = Option<&Term>>> {
        self.rows.iter().map(move |row| row.iter().map(move |id| id.map(|id| self.term(id))))
    }

    /// The term behind `id`: the store's, or one of this execution's.
    fn term(&self, id: TermId) -> &Term {
        let dict = self.store.dict();
        dict.try_resolve(id).unwrap_or_else(|| self.side.resolve(TermId(id.0 - dict.len() as u32)))
    }

    /// The answer with every cell cloned into an owned [`QueryResult`].
    pub fn to_result(&self) -> QueryResult {
        QueryResult {
            vars: self.vars.to_vec(),
            rows: self.rows().map(|row| row.map(|t| t.cloned()).collect()).collect(),
        }
    }
}

/// Counts produced by an update.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UpdateStats {
    /// Triples inserted (that were not already present).
    pub inserted: usize,
    /// Triples deleted (that were present).
    pub deleted: usize,
}

/// Outcome of [`execute`].
#[derive(Debug, Clone, PartialEq)]
pub enum ExecOutcome {
    /// A SELECT result.
    Rows(QueryResult),
    /// An update summary.
    Updated(UpdateStats),
}

/// Parse and run one operation against the store.
pub fn execute(store: &mut RdfStore, text: &str) -> Result<ExecOutcome, SparqlError> {
    match crate::sparql::parser::parse(text)? {
        Operation::Select(q) => Ok(ExecOutcome::Rows(evaluate_select(store, &q)?)),
        Operation::Update(u) => Ok(ExecOutcome::Updated(execute_update(store, &u)?)),
    }
}

/// Parse and run a SELECT query.
pub fn query(store: &RdfStore, text: &str) -> Result<QueryResult, SparqlError> {
    let q = crate::sparql::parser::parse_select(text)?;
    evaluate_select(store, &q)
}

/// Parse and run a SELECT query, also returning execution counters (index
/// triples scanned, bindings produced) — the observable proof that `LIMIT k`
/// short-circuits the scan.
pub fn query_with_stats(
    store: &RdfStore,
    text: &str,
) -> Result<(QueryResult, ExecStats), SparqlError> {
    let q = crate::sparql::parser::parse_select(text)?;
    evaluate_prepared(store, &prepare_select(store, q)?)
}

// ---------------------------------------------------------------------------
// Variable table and bindings
// ---------------------------------------------------------------------------

/// Interns variable names to dense slot indexes in the binding vector.
#[derive(Default)]
pub(crate) struct VarTable {
    names: Vec<String>,
    index: FxHashMap<String, usize>,
}

impl VarTable {
    pub(crate) fn slot(&mut self, name: &str) -> usize {
        if let Some(&i) = self.index.get(name) {
            return i;
        }
        let i = self.names.len();
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), i);
        i
    }

    pub(crate) fn get(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// The name registered for a slot (for diagnostics/profiling labels).
    pub(crate) fn name(&self, slot: usize) -> Option<&str> {
        self.names.get(slot).map(String::as_str)
    }

    /// Number of registered variables (the binding width).
    pub(crate) fn len(&self) -> usize {
        self.names.len()
    }
}

pub(crate) type Binding = Vec<Option<TermId>>;

/// One answer row as ids, one per output column; `None` is unbound.
pub(crate) type IdRow = Vec<Option<TermId>>;

// ---------------------------------------------------------------------------
// SELECT evaluation
// ---------------------------------------------------------------------------

/// Evaluate a parsed SELECT query on the streaming pipeline.
pub fn evaluate_select(store: &RdfStore, q: &SelectQuery) -> Result<QueryResult, SparqlError> {
    evaluate_prepared(store, &prepare_select(store, q.clone())?).map(|(result, _)| result)
}

/// Register every variable of the query and of its `inferred` patterns in a
/// fresh table and plan the group. Filters over an inferred variable are
/// returned instead of planned.
fn prepare(
    store: &RdfStore,
    q: &SelectQuery,
    inferred: &[(TermPattern, String)],
) -> Result<(VarTable, GroupPlan, Vec<Expr>), SparqlError> {
    let mut vars = VarTable::default();
    collect_vars(&q.pattern, &mut vars);
    for (subject, object) in inferred {
        if let TermPattern::Var(v) = subject {
            vars.slot(v);
        }
        vars.slot(object);
    }
    if let Projection::Items(items) = &q.projection {
        for item in items {
            match item {
                ProjectionItem::Var(v) => {
                    vars.slot(v);
                }
                ProjectionItem::Agg { alias, .. } => {
                    vars.slot(alias);
                }
            }
        }
    }
    let mut pattern = Cow::Borrowed(&q.pattern);
    let mut held = Vec::new();
    if !inferred.is_empty() {
        pattern.to_mut().filters.retain(|f| {
            let mut names = Vec::new();
            f.vars(&mut names);
            let keep = !names.iter().any(|v| inferred.iter().any(|(_, object)| object == v));
            if !keep {
                held.push(f.clone());
            }
            keep
        });
    }
    let plan = plan_group(store, &pattern, &vars, &FxHashSet::default())?;
    Ok((vars, plan, held))
}

fn has_agg(q: &SelectQuery) -> bool {
    matches!(&q.projection, Projection::Items(items)
        if items.iter().any(|i| matches!(i, ProjectionItem::Agg { .. })))
}

// ---------------------------------------------------------------------------
// Prepared queries
// ---------------------------------------------------------------------------

/// A SELECT compiled against one store snapshot: the parsed query, its
/// variable table, and the join plan (patterns resolved to dictionary ids,
/// each sub-SELECT prepared the same way, join order fixed by the
/// statistics of that snapshot). A plan holds no result rows: every
/// execution runs each sub-SELECT once.
///
/// A prepared query is only valid while the store's [`RdfStore::generation`]
/// equals [`PreparedQuery::generation`]: ids and the chosen join order
/// capture store state. [`evaluate_prepared`]
/// refuses stale plans, so caches (e.g. a server session's plan LRU) key by
/// `(query text, generation)` and re-prepare after any write. A SPARQL-ML
/// plan is no exception: its inference steps hold no answers, so it too
/// serves any number of executions at its generation.
pub struct PreparedQuery {
    query: SelectQuery,
    /// The output column names, shared by every execution's answer.
    output: Arc<[String]>,
    vars: VarTable,
    plan: GroupPlan,
    generation: u64,
    infers: bool,
}

impl PreparedQuery {
    /// The store generation this plan was compiled against.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether this plan was compiled from a SPARQL-ML SELECT (by
    /// [`prepare_select_inferring`] with at least one inferred pattern).
    pub fn infers(&self) -> bool {
        self.infers
    }

    /// Refuse to run against a store that has moved past this plan's
    /// generation (its ids and join order would be unsound).
    fn check_fresh(&self, store: &RdfStore) -> Result<(), SparqlError> {
        if store.generation() == self.generation {
            return Ok(());
        }
        Err(SparqlError::eval(format!(
            "stale prepared query: planned at generation {}, store is at {}",
            self.generation,
            store.generation()
        )))
    }

    /// The parsed query the plan executes.
    pub fn query(&self) -> &SelectQuery {
        &self.query
    }

    /// Number of join steps in the compiled plan (diagnostics).
    pub fn n_steps(&self) -> usize {
        self.plan.n_steps()
    }

    /// Render the compiled plan as EXPLAIN-style text: one line per
    /// operator in execution order, ending with the projection stage. The
    /// id dictionary of `store` resolves the plan's constants; when the
    /// store has moved past this plan's generation a leading comment line
    /// flags the rendering as historical.
    pub fn explain(&self, store: &RdfStore) -> String {
        let mut out = String::new();
        if store.generation() != self.generation {
            out.push_str(&format!(
                "-- plan compiled at generation {}, store now at {}\n",
                self.generation,
                store.generation()
            ));
        }
        self.render_into(store, 0, &mut out);
        out
    }

    /// Append the plan, `depth` levels in, and then its projection stage.
    pub(crate) fn render_into(&self, store: &RdfStore, depth: usize, out: &mut String) {
        self.plan.render_into(store, &self.vars, depth, out);
        let q = &self.query;
        out.push_str(&"  ".repeat(depth));
        out.push_str("project");
        if q.distinct {
            out.push_str(" DISTINCT");
        }
        for v in self.output.iter() {
            out.push_str(&format!(" ?{v}"));
        }
        for (v, order) in &q.order_by {
            let dir = if matches!(order, crate::sparql::ast::Order::Desc) { "DESC" } else { "ASC" };
            out.push_str(&format!(" ORDER-BY({dir} ?{v})"));
        }
        if let Some(offset) = q.offset {
            out.push_str(&format!(" OFFSET {offset}"));
        }
        if let Some(limit) = q.limit {
            out.push_str(&format!(" LIMIT {limit}"));
        }
        out.push('\n');
    }

    /// Run the plan on the streaming pipeline and drain it through the
    /// projection, aggregation and solution modifiers: the answer as id
    /// rows, and the bindings the pipeline emitted. A top-level SELECT and
    /// each sub-SELECT run here; an id past the store's dictionary is in
    /// `state`'s side dictionary.
    pub(crate) fn id_rows<'a>(
        &'a self,
        store: &'a RdfStore,
        state: &'a ExecState,
        taps: Option<&mut Vec<OpTap>>,
    ) -> (Vec<IdRow>, u64) {
        let (q, vars) = (&self.query, &self.vars);
        let ctx = ExecCtx { store, vars, state };
        let mut stream = build_group_stream(ctx, &self.plan, vec![None; vars.len()], taps);
        let mut emitted = 0u64;
        let mut bindings = std::iter::from_fn(|| stream.next_binding()).inspect(|_| emitted += 1);
        let rows = if has_agg(q) {
            // Aggregation consumes the stream but accumulates incrementally:
            // no binding table is materialised.
            aggregate(ctx, q, bindings)
        } else if !q.order_by.is_empty() {
            // ORDER BY is blocking: collect, sort on binding slots (so keys
            // need not be projected), then project.
            let mut all = bindings.collect();
            sort_bindings(ctx, &mut all, &q.order_by);
            project_all(q, &self.output_slots(), &all)
        } else {
            // Fully streaming path: DISTINCT/OFFSET/LIMIT applied per
            // binding, and LIMIT stops pulling (and therefore scanning) early.
            let slots = self.output_slots();
            let offset = q.offset.unwrap_or(0);
            let mut seen: FxHashSet<IdRow> = FxHashSet::default();
            let mut rows = Vec::new();
            let mut kept = 0usize;
            loop {
                if q.limit.is_some_and(|limit| rows.len() >= limit) {
                    break;
                }
                let Some(b) = bindings.next() else { break };
                let id_row: IdRow = slots.iter().map(|s| s.and_then(|i| b[i])).collect();
                if q.distinct && !seen.insert(id_row.clone()) {
                    continue;
                }
                kept += 1;
                if kept > offset {
                    rows.push(id_row);
                }
            }
            rows
        };
        (rows, emitted)
    }

    /// The answer [`Self::id_rows`] gives, from the materialised reference
    /// executor.
    #[allow(clippy::disallowed_methods)] // the oracle's own entry point
    pub(crate) fn materialised_id_rows(&self, store: &RdfStore, state: &ExecState) -> Vec<IdRow> {
        let (q, vars) = (&self.query, &self.vars);
        let ctx = ExecCtx { store, vars, state };
        let mut bindings = exec_group_materialised(ctx, &self.plan, vec![None; vars.len()]);
        if has_agg(q) {
            return aggregate(ctx, q, &bindings);
        }
        if !q.order_by.is_empty() {
            sort_bindings(ctx, &mut bindings, &q.order_by);
        }
        project_all(q, &self.output_slots(), &bindings)
    }

    /// The binding slot of each output column (`None`: never bound).
    fn output_slots(&self) -> Vec<Option<usize>> {
        self.output.iter().map(|v| self.vars.get(v)).collect()
    }

    /// The answer of one execution: `rows` under the output columns, with
    /// the terms `state` made.
    fn solutions<'s>(
        &self,
        store: &'s RdfStore,
        state: ExecState,
        rows: Vec<IdRow>,
    ) -> Solutions<'s> {
        Solutions { store, vars: Arc::clone(&self.output), rows, side: state.into_side() }
    }
}

/// Compile a parsed SELECT into a reusable [`PreparedQuery`] bound to the
/// store's current generation.
pub fn prepare_select(store: &RdfStore, query: SelectQuery) -> Result<PreparedQuery, SparqlError> {
    prepare_select_inferring(store, query, &[], Vec::new())
}

/// Compile a SPARQL-ML SELECT: the data `query` joined, in order, with the
/// `inferred` triple patterns `(subject, object variable)`, each a required
/// pattern run after the whole group (join steps, sub-SELECTs, OPTIONALs,
/// other filters). A FILTER mentioning an inferred variable runs after the
/// last step. `objects` holds one [`InferredObjects`] per pattern; each
/// step records the planner's estimate of the rows reaching it, for EXPLAIN.
pub fn prepare_select_inferring(
    store: &RdfStore,
    query: SelectQuery,
    inferred: &[(TermPattern, String)],
    objects: Vec<Box<dyn InferredObjects>>,
) -> Result<PreparedQuery, SparqlError> {
    let (vars, mut plan, held) = prepare(store, &query, inferred)?;
    // Sub-SELECTs, OPTIONALs and filters are taken to keep every row.
    let rows = if plan.impossible { 0.0 } else { plan.steps.iter().map(|s| s.est).product() };
    plan_inferred(store, &mut plan, inferred, objects, &vars, held, rows);
    let infers = !inferred.is_empty();
    let output = query.output_vars().into();
    Ok(PreparedQuery { query, output, vars, plan, generation: store.generation(), infers })
}

/// Execute a prepared SELECT, skipping parsing and planning. Errors when the
/// store has mutated since preparation (the plan would be unsound).
pub fn evaluate_prepared(
    store: &RdfStore,
    prepared: &PreparedQuery,
) -> Result<(QueryResult, ExecStats), SparqlError> {
    answer_prepared(store, prepared).map(|(answer, stats)| (answer.to_result(), stats))
}

/// [`evaluate_prepared`] without cloning a term: the answer borrows the
/// store and lends its cells.
pub fn answer_prepared<'s>(
    store: &'s RdfStore,
    prepared: &PreparedQuery,
) -> Result<(Solutions<'s>, ExecStats), SparqlError> {
    prepared.check_fresh(store)?;
    evaluate_with_plan(store, prepared, None)
}

/// One operator's share of a profiled execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpTiming {
    /// Operator description (`scan ?p <...> ?t`, `filter(late)`, …).
    pub label: String,
    /// Self time: nanoseconds spent in this operator excluding its input.
    pub nanos: u64,
    /// Bindings this operator emitted downstream.
    pub rows: u64,
}

/// Per-operator timing breakdown of one streaming execution, in pipeline
/// order (upstream first), ending with the projection/consumption stage.
/// Self times are derived from strictly nested inclusive measurements, so
/// they always sum to at most [`OpProfile::total_nanos`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpProfile {
    /// End-to-end execution time of the plan, in nanoseconds.
    pub total_nanos: u64,
    /// Per-operator self times and row counts, upstream first.
    pub ops: Vec<OpTiming>,
}

/// Execute a prepared SELECT with a per-operator profile: every top-level
/// pipeline operator is timed, and the residual (projection, DISTINCT,
/// LIMIT, aggregation) is reported as a final `project` entry — the raw
/// material for the serving layer's span-tree query profiles. Cloning the
/// answer into the [`QueryResult`] happens after the profile closes.
pub fn evaluate_prepared_profiled(
    store: &RdfStore,
    prepared: &PreparedQuery,
) -> Result<(QueryResult, ExecStats, OpProfile), SparqlError> {
    answer_prepared_profiled(store, prepared)
        .map(|(answer, stats, profile)| (answer.to_result(), stats, profile))
}

/// [`evaluate_prepared_profiled`] without cloning a term (see
/// [`answer_prepared`]).
pub fn answer_prepared_profiled<'s>(
    store: &'s RdfStore,
    prepared: &PreparedQuery,
) -> Result<(Solutions<'s>, ExecStats, OpProfile), SparqlError> {
    prepared.check_fresh(store)?;
    let mut taps = Vec::new();
    let t0 = std::time::Instant::now();
    let (result, stats) = evaluate_with_plan(store, prepared, Some(&mut taps))?;
    let total_nanos = t0.elapsed().as_nanos() as u64;

    // Taps record inclusive time and nest strictly (each wraps the one
    // before), so consecutive differences are per-operator self times and
    // the residual against the wall clock is the consumption stage.
    let mut ops = Vec::with_capacity(taps.len() + 1);
    let mut prev_incl = 0u64;
    for tap_point in &taps {
        let incl = tap_point.nanos.get();
        ops.push(OpTiming {
            label: tap_point.label.clone(),
            nanos: incl.saturating_sub(prev_incl),
            rows: tap_point.rows.get(),
        });
        prev_incl = incl;
    }
    ops.push(OpTiming {
        label: "project".to_owned(),
        nanos: total_nanos.saturating_sub(prev_incl),
        rows: result.len() as u64,
    });
    Ok((result, stats, OpProfile { total_nanos, ops }))
}

/// Run the streaming pipeline of a prepared query, tapping every top-level
/// operator into `taps` when profiling, and drain it through the
/// projection/aggregation/modifier stage into the answer.
fn evaluate_with_plan<'s>(
    store: &'s RdfStore,
    prepared: &PreparedQuery,
    taps: Option<&mut Vec<OpTap>>,
) -> Result<(Solutions<'s>, ExecStats), SparqlError> {
    let state = ExecState::default();
    let (rows, emitted) = prepared.id_rows(store, &state, taps);
    if let Some(failure) = state.failure.take() {
        return Err(failure);
    }
    let stats =
        ExecStats { triples_scanned: state.triples_scanned.get(), bindings_emitted: emitted };
    Ok((prepared.solutions(store, state, rows), stats))
}

/// Evaluate a parsed SELECT query on the materialised reference executor.
///
/// Runs the same plan as [`evaluate_select`] but with full binding tables
/// between operators, enumerating solutions in the same order. Kept only as
/// the correctness oracle for the streaming pipeline (see the equivalence
/// property test in the conformance suite): no production path calls it.
pub fn evaluate_select_materialised(
    store: &RdfStore,
    q: &SelectQuery,
) -> Result<QueryResult, SparqlError> {
    let prepared = prepare_select(store, q.clone())?;
    let state = ExecState::default();
    let rows = prepared.materialised_id_rows(store, &state);
    Ok(prepared.solutions(store, state, rows).to_result())
}

/// The one row of an aggregate query over `bindings`, under OFFSET and
/// LIMIT.
fn aggregate<B: std::borrow::Borrow<Binding>>(
    ctx: ExecCtx<'_>,
    q: &SelectQuery,
    bindings: impl IntoIterator<Item = B>,
) -> Vec<IdRow> {
    let Projection::Items(items) = &q.projection else { unreachable!() };
    let mut acc = AggAcc::new(items, ctx.vars);
    for b in bindings {
        acc.push(b.borrow());
    }
    let mut rows = vec![acc.finish(ctx)];
    apply_offset_limit(&mut rows, q);
    rows
}

/// Project bindings to id rows through the output columns' binding
/// `slots`, applying DISTINCT, OFFSET and LIMIT.
fn project_all(q: &SelectQuery, slots: &[Option<usize>], bindings: &[Binding]) -> Vec<IdRow> {
    let mut id_rows: Vec<IdRow> =
        bindings.iter().map(|b| slots.iter().map(|s| s.and_then(|i| b[i])).collect()).collect();
    if q.distinct {
        let mut seen: FxHashSet<IdRow> = FxHashSet::default();
        id_rows.retain(|row| seen.insert(row.clone()));
    }
    apply_offset_limit(&mut id_rows, q);
    id_rows
}

/// Apply the OFFSET/LIMIT solution modifiers (they follow aggregation and
/// projection per the SPARQL processing order).
fn apply_offset_limit<T>(rows: &mut Vec<T>, q: &SelectQuery) {
    let offset = q.offset.unwrap_or(0);
    if offset > 0 {
        rows.drain(..offset.min(rows.len()));
    }
    if let Some(limit) = q.limit {
        rows.truncate(limit);
    }
}

/// Sort bindings by ORDER BY keys resolved against variable slots, so keys
/// that are not projected still order the result. One [`OrderKey`] is built
/// per distinct term in the sort columns; the comparator only compares
/// borrowed keys.
fn sort_bindings(ctx: ExecCtx<'_>, bindings: &mut Vec<Binding>, order_by: &[(String, Order)]) {
    let (slots, orders): (Vec<usize>, Vec<Order>) =
        order_by.iter().filter_map(|(v, ord)| ctx.vars.get(v).map(|s| (s, *ord))).unzip();
    if slots.is_empty() {
        return;
    }
    let mut distinct: FxHashMap<TermId, OrderKey> = FxHashMap::default();
    for b in bindings.iter() {
        for id in slots.iter().filter_map(|&s| b[s]) {
            distinct.entry(id).or_insert_with(|| order_key(Some(&ctx.term(id))));
        }
    }
    let keys: Vec<&OrderKey> = bindings
        .iter()
        .flat_map(|b| slots.iter().map(|&s| b[s].map_or(&OrderKey::Unbound, |id| &distinct[&id])))
        .collect();
    sort_by_order_keys(bindings, &keys, &orders);
}

/// The ORDER BY key of an optional term. Keys are totally ordered by the
/// derived [`Ord`]:
///
/// - **unbound** sorts first;
/// - then **numbers** — literals whose lexical form parses as an `f64`
///   (whatever their datatype) — by value, with −0 equal to +0, `"1"`
///   equal to `"1.0"`, and NaN after every number (NaNs are equal);
/// - then **text** — every other term — by its N-Triples rendering
///   ([`Term::render`]), so IRIs, blanks and non-numeric literals compare
///   byte-wise as `<iri>`, `_:label` and `"lexical"…`.
///
/// Rows with equal keys keep their enumeration order (the sorts are stable).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum OrderKey {
    /// An unbound variable.
    Unbound,
    /// A numeric literal's value.
    Number(OrderedNumber),
    /// Any other term's N-Triples rendering.
    Text(String),
}

/// A numeric ORDER BY value, canonicalised so that the IEEE total order
/// is the documented one: −0 is stored as +0 and every NaN as the positive
/// quiet NaN, which sorts after +∞.
#[derive(Debug, Clone, Copy)]
pub struct OrderedNumber(f64);

impl OrderedNumber {
    /// Canonicalise `x` (see the type docs).
    pub fn new(x: f64) -> Self {
        // `-0.0 + 0.0` is `+0.0`; every other value is unchanged.
        OrderedNumber(if x.is_nan() { f64::NAN } else { x + 0.0 })
    }
}

impl PartialEq for OrderedNumber {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for OrderedNumber {}

impl PartialOrd for OrderedNumber {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedNumber {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// The [`OrderKey`] of an optional term.
pub fn order_key(t: Option<&Term>) -> OrderKey {
    match t {
        None => OrderKey::Unbound,
        Some(t) => match t.numeric() {
            Some(x) => OrderKey::Number(OrderedNumber::new(x)),
            None => OrderKey::Text(t.to_string()),
        },
    }
}

/// The ORDER BY comparison of two optional terms: the order of their
/// [`OrderKey`]s, by which every SELECT sorts; this pairwise form is the
/// reference the tests sort by.
pub fn cmp_terms(a: Option<&Term>, b: Option<&Term>) -> std::cmp::Ordering {
    order_key(a).cmp(&order_key(b))
}

/// Stable sort of `rows` by precomputed ORDER BY keys: `keys` holds
/// `orders.len()` keys per row, row-major, and `orders[k]` says whether
/// column `k` sorts descending. The permutation equals that of a stable
/// `sort_by` comparing the rows' terms with [`cmp_terms`] column by column.
pub fn sort_by_order_keys<R, K: std::borrow::Borrow<OrderKey>>(
    rows: &mut Vec<R>,
    keys: &[K],
    orders: &[Order],
) {
    let width = orders.len();
    assert_eq!(keys.len(), rows.len() * width, "one key per row and sort column");
    let mut tagged: Vec<(usize, R)> = rows.drain(..).enumerate().collect();
    tagged.sort_by(|(a, _), (b, _)| {
        let (ka, kb) = (&keys[a * width..][..width], &keys[b * width..][..width]);
        for ((x, y), ord) in ka.iter().zip(kb).zip(orders) {
            let c = x.borrow().cmp(y.borrow());
            let c = if *ord == Order::Desc { c.reverse() } else { c };
            if c.is_ne() {
                return c;
            }
        }
        std::cmp::Ordering::Equal
    });
    rows.extend(tagged.into_iter().map(|(_, row)| row));
}

pub(crate) fn collect_vars(group: &GroupPattern, vars: &mut VarTable) {
    for t in &group.triples {
        for v in t.vars() {
            vars.slot(v);
        }
    }
    for f in &group.filters {
        let mut names = Vec::new();
        f.vars(&mut names);
        for v in names {
            vars.slot(&v);
        }
    }
    for opt in &group.optionals {
        collect_vars(opt, vars);
    }
    for sub in &group.subselects {
        for v in sub.output_vars() {
            vars.slot(&v);
        }
    }
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

/// Incremental accumulator for the supported aggregates, fed one binding at
/// a time so the streaming path never stores the binding table.
struct AggAcc {
    slots: Vec<Option<usize>>,
    states: Vec<AggState>,
    first: Option<Binding>,
    total: usize,
}

enum AggState {
    /// A non-aggregated variable alongside aggregates: takes the first
    /// binding's value (no GROUP BY support).
    Var,
    CountAll,
    Count(usize),
    CountDistinct(FxHashSet<TermId>),
}

impl AggAcc {
    fn new(items: &[ProjectionItem], vars: &VarTable) -> Self {
        let slots = items
            .iter()
            .map(|i| match i {
                ProjectionItem::Var(v) => vars.get(v),
                ProjectionItem::Agg { agg: Aggregate::CountVar { var, .. }, .. } => vars.get(var),
                ProjectionItem::Agg { agg: Aggregate::CountAll, .. } => None,
            })
            .collect();
        let states = items
            .iter()
            .map(|i| match i {
                ProjectionItem::Var(_) => AggState::Var,
                ProjectionItem::Agg { agg: Aggregate::CountAll, .. } => AggState::CountAll,
                ProjectionItem::Agg { agg: Aggregate::CountVar { distinct: true, .. }, .. } => {
                    AggState::CountDistinct(FxHashSet::default())
                }
                ProjectionItem::Agg {
                    agg: Aggregate::CountVar { distinct: false, .. }, ..
                } => AggState::Count(0),
            })
            .collect();
        AggAcc { slots, states, first: None, total: 0 }
    }

    fn push(&mut self, b: &Binding) {
        self.total += 1;
        if self.first.is_none() {
            self.first = Some(b.clone());
        }
        for (state, slot) in self.states.iter_mut().zip(&self.slots) {
            let value = slot.and_then(|s| b[s]);
            match state {
                AggState::Count(n) => {
                    if value.is_some() {
                        *n += 1;
                    }
                }
                AggState::CountDistinct(set) => {
                    if let Some(id) = value {
                        set.insert(id);
                    }
                }
                AggState::Var | AggState::CountAll => {}
            }
        }
    }

    /// The aggregated row; a count gets its id from `ctx`'s dictionaries.
    fn finish(self, ctx: ExecCtx<'_>) -> IdRow {
        self.states
            .iter()
            .zip(&self.slots)
            .map(|(state, slot)| {
                let n = match state {
                    AggState::Var => {
                        return self.first.as_ref().and_then(|b| slot.and_then(|s| b[s]))
                    }
                    AggState::CountAll => self.total,
                    AggState::Count(n) => *n,
                    AggState::CountDistinct(set) => set.len(),
                };
                Some(ctx.intern(Term::int(n as i64)))
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Filter expressions
// ---------------------------------------------------------------------------

pub(crate) fn eval_expr(ctx: ExecCtx<'_>, expr: &Expr, b: &Binding) -> bool {
    eval_expr_term(ctx, expr, b).is_some_and(|v| v.truthy())
}

/// A FILTER operand: terms are borrowed from the store's dictionary or the
/// expression's constants; only a term an inference step met outside the
/// dictionary is cloned.
enum Value<'a> {
    Term(Cow<'a, Term>),
    Bool(bool),
    Unbound,
}

impl Value<'_> {
    /// SPARQL effective boolean value (spec §17.2.2): booleans by value,
    /// strings by non-emptiness, numerics by non-zero (and not NaN); IRIs,
    /// blank nodes and unknown datatypes are type errors, treated as false.
    fn truthy(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            Value::Term(t) => effective_boolean_value(t),
            Value::Unbound => false,
        }
    }
}

fn effective_boolean_value(t: &Term) -> bool {
    let Term::Literal { lexical, datatype, lang } = t else {
        // The EBV of an IRI or blank node is a type error.
        return false;
    };
    if lang.is_some() {
        return !lexical.is_empty();
    }
    match datatype.as_deref() {
        Some(xsd::BOOLEAN) => lexical == "true" || lexical == "1",
        Some(xsd::INTEGER) | Some(xsd::DOUBLE) => {
            lexical.parse::<f64>().is_ok_and(|v| v != 0.0 && !v.is_nan())
        }
        // Simple, xsd:string and language-tagged literals: non-emptiness.
        Some(xsd::STRING) | None => !lexical.is_empty(),
        // Any other datatype is a type error.
        Some(_) => false,
    }
}

fn eval_expr_term<'a>(ctx: ExecCtx<'a>, expr: &'a Expr, b: &Binding) -> Option<Value<'a>> {
    match expr {
        Expr::Var(v) => {
            let slot = ctx.vars.get(v)?;
            match b.get(slot).copied().flatten() {
                Some(id) => Some(Value::Term(ctx.term(id))),
                None => Some(Value::Unbound),
            }
        }
        Expr::Const(t) => Some(Value::Term(Cow::Borrowed(t))),
        Expr::Bound(v) => {
            let slot = ctx.vars.get(v)?;
            Some(Value::Bool(b.get(slot).copied().flatten().is_some()))
        }
        Expr::Not(e) => Some(Value::Bool(!eval_expr(ctx, e, b))),
        Expr::And(l, r) => Some(Value::Bool(eval_expr(ctx, l, b) && eval_expr(ctx, r, b))),
        Expr::Or(l, r) => Some(Value::Bool(eval_expr(ctx, l, b) || eval_expr(ctx, r, b))),
        Expr::Contains(e, needle) => {
            let v = eval_expr_term(ctx, e, b)?;
            match v {
                Value::Term(t) => {
                    let hay = match t.as_ref() {
                        Term::Iri(i) => i.as_str(),
                        Term::Literal { lexical, .. } => lexical.as_str(),
                        Term::Blank(l) => l.as_str(),
                    };
                    Some(Value::Bool(hay.contains(needle.as_str())))
                }
                _ => Some(Value::Bool(false)),
            }
        }
        Expr::Eq(l, r) => compare(ctx, l, r, b, CmpOp::Eq),
        Expr::Ne(l, r) => compare(ctx, l, r, b, CmpOp::Ne),
        Expr::Lt(l, r) => compare(ctx, l, r, b, CmpOp::Lt),
        Expr::Le(l, r) => compare(ctx, l, r, b, CmpOp::Le),
        Expr::Gt(l, r) => compare(ctx, l, r, b, CmpOp::Gt),
        Expr::Ge(l, r) => compare(ctx, l, r, b, CmpOp::Ge),
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

fn compare<'a>(
    ctx: ExecCtx<'a>,
    l: &'a Expr,
    r: &'a Expr,
    b: &Binding,
    op: CmpOp,
) -> Option<Value<'a>> {
    use std::cmp::Ordering;
    let lv = eval_expr_term(ctx, l, b)?;
    let rv = eval_expr_term(ctx, r, b)?;
    let (Value::Term(lt), Value::Term(rt)) = (lv, rv) else {
        // Comparison with an unbound/boolean operand is a type error.
        return Some(Value::Bool(false));
    };
    let (lt, rt) = (lt.as_ref(), rt.as_ref());
    match op {
        CmpOp::Eq | CmpOp::Ne => {
            // Term (in)equality: numerically when both sides are numeric
            // literals, otherwise exact term identity — so `?lit != <iri>`
            // holds across term kinds.
            let equal = match (lt.numeric(), rt.numeric()) {
                (Some(a), Some(c)) => a == c,
                _ => lt == rt,
            };
            Some(Value::Bool((op == CmpOp::Eq) == equal))
        }
        _ => {
            let ord = match (lt.numeric(), rt.numeric()) {
                (Some(a), Some(c)) => a.partial_cmp(&c)?,
                _ => {
                    // Ordering across different term kinds is a type error;
                    // same-kind terms compare textually.
                    if std::mem::discriminant(lt) != std::mem::discriminant(rt) {
                        return Some(Value::Bool(false));
                    }
                    term_text(lt).cmp(term_text(rt))
                }
            };
            Some(Value::Bool(match op {
                CmpOp::Lt => ord == Ordering::Less,
                CmpOp::Le => ord != Ordering::Greater,
                CmpOp::Gt => ord == Ordering::Greater,
                CmpOp::Ge => ord != Ordering::Less,
                CmpOp::Eq | CmpOp::Ne => unreachable!("handled above"),
            }))
        }
    }
}

fn term_text(t: &Term) -> &str {
    match t {
        Term::Iri(i) => i,
        Term::Literal { lexical, .. } => lexical,
        Term::Blank(l) => l,
    }
}

// ---------------------------------------------------------------------------
// Updates
// ---------------------------------------------------------------------------

/// Execute a parsed update.
pub fn execute_update(store: &mut RdfStore, update: &Update) -> Result<UpdateStats, SparqlError> {
    execute_update_checked(store, update, |_, _, _| Ok(()))
}

/// Execute a parsed update once `check` has accepted every triple it
/// deletes or inserts, as instantiated by the WHERE bindings: the first
/// refusal fails the whole update before anything is written. A caller
/// that reserves part of the graph passes its test here, where a
/// template's variables are already bound.
pub fn execute_update_checked(
    store: &mut RdfStore,
    update: &Update,
    check: impl Fn(&Term, &Term, &Term) -> Result<(), SparqlError>,
) -> Result<UpdateStats, SparqlError> {
    let (to_delete, to_insert) = match update {
        Update::InsertData(triples) => (Vec::new(), ground_triples(triples)?),
        Update::DeleteData(triples) => (ground_triples(triples)?, Vec::new()),
        Update::DeleteWhere(triples) => {
            let pattern = GroupPattern { triples: triples.clone(), ..Default::default() };
            instantiate_templates(store, &pattern, triples, &[])?
        }
        Update::Modify { delete, insert, pattern } => {
            instantiate_templates(store, pattern, delete, insert)?
        }
    };
    for (s, p, o) in to_delete.iter().chain(&to_insert) {
        check(s, p, o)?;
    }
    let mut stats = UpdateStats::default();
    for (s, p, o) in to_delete {
        if store.remove(&s, &p, &o) {
            stats.deleted += 1;
        }
    }
    for (s, p, o) in to_insert {
        if store.insert(s, p, o) {
            stats.inserted += 1;
        }
    }
    Ok(stats)
}

type TermTriple = (Term, Term, Term);

fn ground_triples(triples: &[TriplePattern]) -> Result<Vec<TermTriple>, SparqlError> {
    triples.iter().map(ground_triple).collect()
}

/// The `delete` and `insert` templates instantiated by every solution of
/// `pattern`, in solution order.
fn instantiate_templates(
    store: &RdfStore,
    pattern: &GroupPattern,
    delete: &[TriplePattern],
    insert: &[TriplePattern],
) -> Result<(Vec<TermTriple>, Vec<TermTriple>), SparqlError> {
    let mut vars = VarTable::default();
    collect_vars(pattern, &mut vars);
    for tp in delete.iter().chain(insert) {
        for v in tp.vars() {
            vars.slot(v);
        }
    }
    let plan = plan_group(store, pattern, &vars, &FxHashSet::default())?;
    let (mut to_delete, mut to_insert) = (Vec::new(), Vec::new());
    let state = ExecState::default();
    let ctx = ExecCtx { store, vars: &vars, state: &state };
    let mut stream = build_group_stream(ctx, &plan, vec![None; vars.len()], None);
    while let Some(b) = stream.next_binding() {
        to_delete.extend(delete.iter().filter_map(|tp| instantiate(ctx, tp, &b)));
        to_insert.extend(insert.iter().filter_map(|tp| instantiate(ctx, tp, &b)));
    }
    Ok((to_delete, to_insert))
}

fn ground_triple(tp: &TriplePattern) -> Result<TermTriple, SparqlError> {
    let get = |t: &TermPattern| -> Result<Term, SparqlError> {
        t.as_ground().cloned().ok_or_else(|| SparqlError::eval("variable in ground data template"))
    };
    Ok((get(&tp.s)?, get(&tp.p)?, get(&tp.o)?))
}

fn instantiate(ctx: ExecCtx<'_>, tp: &TriplePattern, b: &Binding) -> Option<TermTriple> {
    let get = |t: &TermPattern| -> Option<Term> {
        match t {
            TermPattern::Ground(term) => Some(term.clone()),
            TermPattern::Var(v) => {
                let slot = ctx.vars.get(v)?;
                b.get(slot).copied().flatten().map(|id| ctx.term(id).into_owned())
            }
        }
    };
    Some((get(&tp.s)?, get(&tp.p)?, get(&tp.o)?))
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // compares the streaming executor with its oracle
mod tests {
    use super::*;

    fn store_with_papers() -> RdfStore {
        let mut st = RdfStore::new();
        let run = |st: &mut RdfStore, q: &str| execute(st, q).unwrap();
        run(
            &mut st,
            r#"PREFIX x: <http://x/>
               INSERT DATA {
                 x:p1 a x:Publication . x:p1 x:title "P one" . x:p1 x:year 2020 .
                 x:p2 a x:Publication . x:p2 x:title "P two" . x:p2 x:year 2022 .
                 x:p3 a x:Publication . x:p3 x:title "P three" . x:p3 x:year 2023 .
                 x:p1 x:cites x:p2 . x:p2 x:cites x:p3 .
                 x:a1 a x:Author . x:a1 x:wrote x:p1 . x:a1 x:name "Ada" .
               }"#,
        );
        st
    }

    /// Run one query on both executors, asserting they agree exactly.
    fn query_both(st: &RdfStore, text: &str) -> QueryResult {
        let q = crate::sparql::parser::parse_select(text).unwrap();
        let streaming = evaluate_select(st, &q).unwrap();
        let materialised = evaluate_select_materialised(st, &q).unwrap();
        assert_eq!(streaming, materialised, "executors disagree on {text}");
        streaming
    }

    #[test]
    fn bgp_join_two_patterns() {
        let st = store_with_papers();
        let r = query_both(
            &st,
            "PREFIX x: <http://x/> SELECT ?t WHERE { ?p a x:Publication . ?p x:title ?t }",
        );
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn explain_renders_every_operator_in_execution_order() {
        let st = store_with_papers();
        let text = "PREFIX x: <http://x/> SELECT DISTINCT ?p ?t ?q WHERE {
            ?p a x:Publication . ?p x:title ?t .
            OPTIONAL { ?p x:cites ?q } .
            { SELECT ?p WHERE { ?p x:year ?y . FILTER(?y > 2019) } } .
            FILTER(CONTAINS(?t, \"P\")) } LIMIT 5";
        let q = crate::sparql::parser::parse_select(text).unwrap();
        let prepared = prepare_select(&st, q).unwrap();
        let explain = prepared.explain(&st);
        let lines: Vec<&str> = explain.lines().collect();
        // Two required scans with estimates, then subselect (its own plan
        // indented beneath it), optional (indented child scan), late filter,
        // and the projection footer.
        assert_eq!(lines.iter().filter(|l| l.trim_start().starts_with("scan ")).count(), 4);
        assert!(explain.contains("(est "), "estimates missing:\n{explain}");
        assert!(explain.contains("subselect join [?p]"), "{explain}");
        assert!(lines.contains(&"optional"), "{explain}");
        assert!(
            lines.iter().any(|l| l.starts_with("  scan ") && l.contains("<http://x/cites>")),
            "optional scan not indented:\n{explain}"
        );
        // The CONTAINS filter is pushed down to the scan binding ?t.
        assert!(explain.contains("  filter CONTAINS(?t, \"P\")"), "{explain}");
        assert_eq!(*lines.last().unwrap(), "project DISTINCT ?p ?t ?q LIMIT 5");
        // A fresh plan carries no staleness banner...
        assert!(!explain.contains("-- plan compiled"), "{explain}");
        // ...but a store that moved on renders one.
        let mut st = st;
        execute(&mut st, "INSERT DATA { <http://x/p9> <http://x/year> 2024 }").unwrap();
        assert!(prepared.explain(&st).starts_with("-- plan compiled at generation "));
    }

    #[test]
    fn prepared_query_reuses_plan_and_matches_fresh_evaluation() {
        let st = store_with_papers();
        let text = "PREFIX x: <http://x/> SELECT ?t WHERE { ?p a x:Publication . ?p x:title ?t }";
        let q = crate::sparql::parser::parse_select(text).unwrap();
        let prepared = prepare_select(&st, q.clone()).unwrap();
        assert_eq!(prepared.generation(), st.generation());
        assert_eq!(prepared.n_steps(), 2);
        let fresh = evaluate_select(&st, &q).unwrap();
        for _ in 0..3 {
            let (result, _) = evaluate_prepared(&st, &prepared).unwrap();
            assert_eq!(result, fresh);
        }
    }

    #[test]
    fn profiled_execution_matches_plain_and_times_nest() {
        let st = store_with_papers();
        let text = "PREFIX x: <http://x/> SELECT ?p ?q ?t WHERE {
            ?p a x:Publication . ?p x:title ?t .
            OPTIONAL { ?p x:cites ?q } . FILTER(CONTAINS(?t, \"P\")) }";
        let q = crate::sparql::parser::parse_select(text).unwrap();
        let prepared = prepare_select(&st, q.clone()).unwrap();
        let (plain, plain_stats) = evaluate_prepared(&st, &prepared).unwrap();
        let (profiled, stats, profile) = evaluate_prepared_profiled(&st, &prepared).unwrap();
        assert_eq!(profiled, plain, "profiling must not change results");
        assert_eq!(stats, plain_stats, "profiling must not change counters");

        // Two scans, one optional, one late filter, plus the project stage.
        let labels: Vec<&str> = profile.ops.iter().map(|o| o.label.as_str()).collect();
        assert_eq!(labels.iter().filter(|l| l.starts_with("scan ")).count(), 2, "{labels:?}");
        assert!(labels.contains(&"optional"), "{labels:?}");
        assert_eq!(labels.last(), Some(&"project"));
        assert!(labels.iter().any(|l| l.contains("?p")), "{labels:?}");

        // Self times nest: their sum never exceeds the end-to-end time.
        let self_sum: u64 = profile.ops.iter().map(|o| o.nanos).sum();
        assert!(
            self_sum <= profile.total_nanos,
            "self times {self_sum} exceed total {}",
            profile.total_nanos
        );
        // The last pipeline operator emitted exactly the consumed bindings,
        // and the project stage reports the result rows.
        let last_op = &profile.ops[profile.ops.len() - 2];
        assert_eq!(last_op.rows, stats.bindings_emitted);
        assert_eq!(profile.ops.last().unwrap().rows, plain.len() as u64);
    }

    #[test]
    fn profiled_execution_rejects_stale_generation() {
        let mut st = store_with_papers();
        let q = crate::sparql::parser::parse_select("SELECT ?s WHERE { ?s ?p ?o }").unwrap();
        let prepared = prepare_select(&st, q).unwrap();
        st.insert(Term::iri("http://x/new2"), Term::iri("http://x/p"), Term::iri("http://x/o"));
        assert!(evaluate_prepared_profiled(&st, &prepared).is_err());
    }

    #[test]
    fn prepared_query_rejects_stale_generation() {
        let mut st = store_with_papers();
        let q = crate::sparql::parser::parse_select("SELECT ?s WHERE { ?s ?p ?o }").unwrap();
        let prepared = prepare_select(&st, q).unwrap();
        st.insert(Term::iri("http://x/new"), Term::iri("http://x/p"), Term::iri("http://x/o"));
        let err = evaluate_prepared(&st, &prepared).unwrap_err();
        assert!(err.to_string().contains("stale"), "unexpected error: {err}");
    }

    #[test]
    fn filter_numeric() {
        let st = store_with_papers();
        let r = query_both(
            &st,
            "PREFIX x: <http://x/> SELECT ?p WHERE { ?p x:year ?y . FILTER(?y > 2021) }",
        );
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn filter_and_or_not() {
        let st = store_with_papers();
        let r = query_both(
            &st,
            "PREFIX x: <http://x/> SELECT ?p WHERE { ?p x:year ?y . FILTER(?y = 2020 || ?y = 2023) }",
        );
        assert_eq!(r.len(), 2);
        let r = query_both(
            &st,
            "PREFIX x: <http://x/> SELECT ?p WHERE { ?p x:year ?y . FILTER(!(?y = 2020)) }",
        );
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn join_chain_and_shared_vars() {
        let st = store_with_papers();
        let r = query_both(
            &st,
            "PREFIX x: <http://x/> SELECT ?a ?t WHERE {
               ?a x:wrote ?p . ?p x:title ?t . ?p x:cites ?q }",
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows[0][1].as_ref().unwrap().as_literal(), Some("P one"));
    }

    #[test]
    fn optional_left_join() {
        let st = store_with_papers();
        let r = query_both(
            &st,
            "PREFIX x: <http://x/> SELECT ?p ?q WHERE {
               ?p a x:Publication . OPTIONAL { ?p x:cites ?q } } ORDER BY ?p",
        );
        assert_eq!(r.len(), 3);
        // p3 cites nothing -> unbound ?q.
        let unbound = r.rows.iter().filter(|row| row[1].is_none()).count();
        assert_eq!(unbound, 1);
    }

    #[test]
    fn distinct_and_order_limit() {
        let st = store_with_papers();
        let r = query_both(
            &st,
            "PREFIX x: <http://x/> SELECT DISTINCT ?y WHERE { ?p x:year ?y } ORDER BY DESC(?y) LIMIT 2",
        );
        assert_eq!(r.len(), 2);
        assert_eq!(r.rows[0][0].as_ref().unwrap().as_int(), Some(2023));
    }

    #[test]
    fn count_aggregates() {
        let st = store_with_papers();
        let r = query_both(
            &st,
            "PREFIX x: <http://x/> SELECT (COUNT(*) AS ?n) WHERE { ?p a x:Publication }",
        );
        assert_eq!(r.rows[0][0].as_ref().unwrap().as_int(), Some(3));
        let r = query_both(
            &st,
            "PREFIX x: <http://x/> SELECT (COUNT(DISTINCT ?p) AS ?n) WHERE { ?p x:cites ?q }",
        );
        assert_eq!(r.rows[0][0].as_ref().unwrap().as_int(), Some(2));
    }

    #[test]
    fn subselect_joins_on_shared_vars() {
        let st = store_with_papers();
        let r = query_both(
            &st,
            "PREFIX x: <http://x/> SELECT ?p ?t WHERE {
               ?p x:title ?t .
               { SELECT ?p WHERE { ?p x:cites ?q } } }",
        );
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn contains_filter() {
        let st = store_with_papers();
        let r = query_both(
            &st,
            "PREFIX x: <http://x/> SELECT ?p WHERE { ?p x:title ?t . FILTER(CONTAINS(?t, \"two\")) }",
        );
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn modify_insert_where() {
        let mut st = store_with_papers();
        let out = execute(
            &mut st,
            "PREFIX x: <http://x/> INSERT { ?p x:flag \"old\" } WHERE { ?p x:year ?y . FILTER(?y < 2022) }",
        )
        .unwrap();
        assert_eq!(out, ExecOutcome::Updated(UpdateStats { inserted: 1, deleted: 0 }));
    }

    #[test]
    fn delete_where_removes_matching() {
        let mut st = store_with_papers();
        let before = st.len();
        let out = execute(&mut st, "PREFIX x: <http://x/> DELETE WHERE { x:p1 ?p ?o }").unwrap();
        match out {
            ExecOutcome::Updated(s) => assert_eq!(s.deleted, 4),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(st.len(), before - 4);
    }

    #[test]
    fn unknown_ground_term_yields_empty() {
        let st = store_with_papers();
        let r = query_both(&st, "SELECT ?s WHERE { ?s <http://nope/p> ?o }");
        assert!(r.is_empty());
    }

    #[test]
    fn cartesian_product_when_disjoint() {
        let st = store_with_papers();
        let r = query_both(
            &st,
            "PREFIX x: <http://x/> SELECT ?p ?a WHERE { ?p a x:Publication . ?a a x:Author }",
        );
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn result_table_rendering() {
        let st = store_with_papers();
        let r =
            query_both(&st, "PREFIX x: <http://x/> SELECT ?t WHERE { <http://x/p1> x:title ?t }");
        let table = r.to_table();
        assert!(table.contains("?t"));
        assert!(table.contains("P one"));
    }

    // -- regression tests for the SPARQL-semantics fixes --------------------

    #[test]
    fn ebv_follows_the_spec() {
        let mut st = RdfStore::new();
        execute(
            &mut st,
            r#"PREFIX x: <http://x/> PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
               INSERT DATA {
                 x:empty x:v "" . x:str x:v "yes" .
                 x:f x:v "false"^^xsd:boolean . x:t x:v "true"^^xsd:boolean .
                 x:zero x:v 0 . x:three x:v 3 . x:iri x:v x:other .
               }"#,
        )
        .unwrap();
        let r = query_both(&st, "PREFIX x: <http://x/> SELECT ?s WHERE { ?s x:v ?o . FILTER(?o) }");
        let mut names: Vec<String> =
            r.rows.iter().map(|row| row[0].as_ref().unwrap().to_string()).collect();
        names.sort();
        assert_eq!(names, vec!["<http://x/str>", "<http://x/t>", "<http://x/three>"]);
    }

    #[test]
    fn ne_holds_across_term_kinds() {
        let mut st = RdfStore::new();
        execute(&mut st, r#"PREFIX x: <http://x/> INSERT DATA { x:a x:p x:b . x:a x:p "lit" }"#)
            .unwrap();
        let r = query_both(
            &st,
            "PREFIX x: <http://x/> SELECT ?o WHERE { x:a x:p ?o . FILTER(?o != x:b) }",
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows[0][0].as_ref().unwrap().as_literal(), Some("lit"));
        let r = query_both(
            &st,
            "PREFIX x: <http://x/> SELECT ?o WHERE { x:a x:p ?o . FILTER(?o = x:b) }",
        );
        assert_eq!(r.len(), 1);
        assert!(r.rows[0][0].as_ref().unwrap().is_iri());
    }

    #[test]
    fn optional_subselect_is_evaluated() {
        let st = store_with_papers();
        let r = query_both(
            &st,
            "PREFIX x: <http://x/> SELECT ?p ?q WHERE {
               ?p a x:Publication .
               OPTIONAL { { SELECT ?p ?q WHERE { ?p x:cites ?q } } } } ORDER BY ?p",
        );
        assert_eq!(r.len(), 3);
        // p1 cites p2, p2 cites p3, p3 cites nothing.
        assert_eq!(r.rows[0][1].as_ref().unwrap().as_iri(), Some("http://x/p2"));
        assert_eq!(r.rows[1][1].as_ref().unwrap().as_iri(), Some("http://x/p3"));
        assert!(r.rows[2][1].is_none());
    }

    #[test]
    fn order_by_on_unprojected_var() {
        let st = store_with_papers();
        let r = query_both(
            &st,
            "PREFIX x: <http://x/> SELECT ?p WHERE { ?p x:year ?y } ORDER BY DESC(?y)",
        );
        assert_eq!(r.rows[0][0].as_ref().unwrap().as_iri(), Some("http://x/p3"));
        assert_eq!(r.rows[2][0].as_ref().unwrap().as_iri(), Some("http://x/p1"));
    }

    #[test]
    fn limit_short_circuits_the_scan() {
        let mut st = RdfStore::new();
        for i in 0..1000 {
            st.insert(Term::iri(format!("http://x/s{i}")), Term::iri("http://x/p"), Term::int(i));
        }
        let (r, stats) =
            query_with_stats(&st, "SELECT ?s ?o WHERE { ?s <http://x/p> ?o } LIMIT 5").unwrap();
        assert_eq!(r.len(), 5);
        assert!(
            stats.triples_scanned <= 5,
            "LIMIT 5 should scan at most 5 triples, scanned {}",
            stats.triples_scanned
        );
        // The same query without LIMIT walks the whole index.
        let (_, full) = query_with_stats(&st, "SELECT ?s ?o WHERE { ?s <http://x/p> ?o }").unwrap();
        assert_eq!(full.triples_scanned, 1000);
    }

    #[test]
    fn aggregates_respect_offset_and_limit() {
        let st = store_with_papers();
        let r = query_both(
            &st,
            "PREFIX x: <http://x/> SELECT (COUNT(*) AS ?n) WHERE { ?p a x:Publication } LIMIT 0",
        );
        assert!(r.is_empty());
        let r = query_both(
            &st,
            "PREFIX x: <http://x/> SELECT (COUNT(*) AS ?n) WHERE { ?p a x:Publication } OFFSET 1",
        );
        assert!(r.is_empty());
        let r = query_both(
            &st,
            "PREFIX x: <http://x/> SELECT (COUNT(*) AS ?n) WHERE { ?p a x:Publication } LIMIT 1",
        );
        assert_eq!(r.rows[0][0].as_ref().unwrap().as_int(), Some(3));
    }

    #[test]
    fn subselect_unbound_value_is_join_compatible() {
        let st = store_with_papers();
        // The sub-select projects ?q but never binds it (the OPTIONAL cannot
        // match); outer rows keep their own ?q bindings instead of being
        // dropped.
        let r = query_both(
            &st,
            "PREFIX x: <http://x/> SELECT ?p ?q WHERE {
               ?p x:cites ?q .
               { SELECT ?p ?q WHERE { ?p x:title ?t . OPTIONAL { ?p x:nope ?q } } } }",
        );
        assert_eq!(r.len(), 2);
        assert!(r.rows.iter().all(|row| row[1].is_some()));
    }

    #[test]
    fn subselect_count_reaches_the_outer_query() {
        let mut st = RdfStore::new();
        execute(
            &mut st,
            "PREFIX x: <http://x/> INSERT DATA { x:a x:p x:b . x:a x:p x:c . x:d x:q x:e }",
        )
        .unwrap();
        let r = query_both(
            &st,
            "PREFIX x: <http://x/> SELECT ?d ?n WHERE { ?d x:q ?e .
               { SELECT (COUNT(?o) AS ?n) WHERE { ?s x:p ?o } } }",
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows[0][0].as_ref().unwrap().as_iri(), Some("http://x/d"));
        assert_eq!(r.rows[0][1], Some(Term::int(2)));
    }

    #[test]
    fn subselect_scans_are_counted() {
        let st = store_with_papers();
        // Three `a x:Publication` triples outside, three `x:year` inside.
        let (r, stats) = query_with_stats(
            &st,
            "PREFIX x: <http://x/> SELECT ?p WHERE { ?p a x:Publication .
               { SELECT ?p WHERE { ?p x:year ?y } } }",
        )
        .unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(stats.triples_scanned, 6);
    }

    #[test]
    fn optional_subselect_runs_once_per_execution() {
        let st = store_with_papers();
        // Three outer bindings re-seed the OPTIONAL; the sub-SELECT's two
        // `x:cites` triples are scanned once, not once per binding.
        let (r, stats) = query_with_stats(
            &st,
            "PREFIX x: <http://x/> SELECT ?p ?q WHERE { ?p a x:Publication .
               OPTIONAL { { SELECT ?p ?q WHERE { ?p x:cites ?q } } } }",
        )
        .unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(stats.triples_scanned, 3 + 2);
    }

    #[test]
    fn update_template_takes_a_subselect_count() {
        let mut st = store_with_papers();
        execute(
            &mut st,
            "PREFIX x: <http://x/> INSERT { x:a1 x:papers ?n } WHERE {
               { SELECT (COUNT(*) AS ?n) WHERE { ?p a x:Publication } } }",
        )
        .unwrap();
        let r = query(&st, "PREFIX x: <http://x/> SELECT ?n WHERE { x:a1 x:papers ?n }").unwrap();
        assert_eq!(r.rows, vec![vec![Some(Term::int(3))]]);
    }

    #[test]
    fn order_keys_follow_the_documented_order() {
        let lang = Term::Literal { lexical: "b".into(), datatype: None, lang: Some("en".into()) };
        // Ascending, with equal keys in their input order.
        let expected = [
            None,
            Some(Term::str("-inf")),
            Some(Term::int(-1)),
            Some(Term::double(-0.0)),
            Some(Term::int(0)),
            Some(Term::str("1")),
            Some(Term::str("1.0")),
            Some(Term::int(9)),
            Some(Term::int(10)),
            Some(Term::str("inf")),
            Some(Term::str("NaN")),
            Some(Term::double(f64::NAN)),
            Some(Term::str("")),
            Some(Term::str("10x")),
            Some(Term::str("5x")),
            Some(lang),
            // `<http://x/a/b>` < `<http://x/a>`: '/' sorts before '>'.
            Some(Term::iri("http://x/a/b")),
            Some(Term::iri("http://x/a")),
            Some(Term::blank("b0")),
        ];
        // A shuffle that keeps each pair of equal keys (-0/0, "1"/"1.0",
        // the two NaNs) in the expected relative order.
        let shuffle = [18, 12, 3, 0, 10, 5, 16, 1, 13, 7, 11, 4, 17, 2, 14, 6, 9, 15, 8];
        let mut rows: Vec<Option<Term>> = shuffle.iter().map(|&i| expected[i].clone()).collect();
        let keys: Vec<OrderKey> = rows.iter().map(|t| order_key(t.as_ref())).collect();
        sort_by_order_keys(&mut rows, &keys, &[Order::Asc]);
        assert_eq!(rows, expected);
    }

    /// Rust's `sort_by` panics on a comparator that is not a total order;
    /// a column mixing numbers, text and NaN used to trip it.
    #[test]
    fn order_by_over_mixed_numbers_and_text_returns_every_row() {
        let mut st = RdfStore::new();
        for i in 0..5_000i64 {
            let o = match i % 4 {
                0 => Term::int(i),
                1 => Term::double(i as f64 / 7.0),
                2 => Term::str(format!("{i}x")),
                _ => Term::str("NaN"),
            };
            st.insert(Term::iri(format!("http://x/s{i}")), Term::iri("http://x/p"), o);
        }
        for dir in ["ASC", "DESC"] {
            let text = format!("SELECT ?s ?o WHERE {{ ?s <http://x/p> ?o }} ORDER BY {dir}(?o)");
            let r = query_both(&st, &text);
            assert_eq!(r.len(), 5_000);
            for pair in r.rows.windows(2) {
                let c = cmp_terms(pair[0][1].as_ref(), pair[1][1].as_ref());
                assert!(if dir == "ASC" { c.is_le() } else { c.is_ge() }, "{pair:?}");
            }
        }
    }

    mod sort_equivalence {
        use super::*;
        use crate::term::RDF_TYPE;
        use proptest::prelude::*;

        /// Sort-key material: unbound is drawn separately; these mix
        /// numbers (`"1"` vs `"1.0"`, ±0, NaN, ±∞) with IRIs, blanks and
        /// text, including text that starts with digits.
        fn pool() -> Vec<Term> {
            vec![
                Term::int(1),
                Term::str("1"),
                Term::str("1.0"),
                Term::double(-0.0),
                Term::int(0),
                Term::str("NaN"),
                Term::double(f64::NAN),
                Term::str("-inf"),
                Term::int(-7),
                Term::int(10),
                Term::int(9),
                Term::str("5x"),
                Term::str("abc"),
                Term::str(""),
                Term::Literal { lexical: "abc".into(), datatype: None, lang: Some("en".into()) },
                Term::Literal {
                    lexical: "abc".into(),
                    datatype: Some("http://x/dt".into()),
                    lang: None,
                },
                Term::iri("http://x/a"),
                Term::iri("http://x/a/b"),
                Term::blank("b1"),
                Term::blank("b10"),
            ]
        }

        fn naive_sort(rows: &mut [Vec<Option<Term>>], cols: &[usize], orders: &[Order]) {
            rows.sort_by(|a, b| {
                for (&c, ord) in cols.iter().zip(orders) {
                    let o = cmp_terms(a[c].as_ref(), b[c].as_ref());
                    let o = if *ord == Order::Desc { o.reverse() } else { o };
                    if o.is_ne() {
                        return o;
                    }
                }
                std::cmp::Ordering::Equal
            });
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Both keyed sorts (the evaluator's one key per distinct term,
            /// the ML path's one key per cell) give the permutation of a
            /// naive stable `sort_by(cmp_terms)`.
            #[test]
            fn keyed_sorts_match_naive_cmp_terms(
                cells in proptest::collection::vec(
                    (proptest::option::of(0..20usize), proptest::option::of(0..20usize)),
                    0..48,
                ),
                first_desc in any::<bool>(),
                second in proptest::option::of(any::<bool>()),
            ) {
                let pool = pool();
                let mut st = RdfStore::new();
                for (i, (a, b)) in cells.iter().enumerate() {
                    let s = Term::iri(format!("http://x/s{i}"));
                    st.insert(s.clone(), Term::iri(RDF_TYPE), Term::iri("http://x/Row"));
                    for (col, cell) in [("c0", a), ("c1", b)] {
                        if let Some(t) = cell {
                            st.insert(s.clone(), Term::iri(format!("http://x/{col}")), pool[*t].clone());
                        }
                    }
                }
                let dir = |desc: bool| if desc { Order::Desc } else { Order::Asc };
                let (mut cols, mut orders) = (vec![1], vec![dir(first_desc)]);
                if let Some(desc) = second {
                    cols.push(2);
                    orders.push(dir(desc));
                }
                let base = "SELECT ?s ?c0 ?c1 WHERE { ?s a <http://x/Row> \
                    OPTIONAL { ?s <http://x/c0> ?c0 } OPTIONAL { ?s <http://x/c1> ?c1 } }";
                let unsorted = query_both(&st, base);
                prop_assert_eq!(unsorted.len(), cells.len());
                let mut naive = unsorted.rows.clone();
                naive_sort(&mut naive, &cols, &orders);

                let order_by: Vec<String> = cols
                    .iter()
                    .zip(&orders)
                    .map(|(c, o)| format!("{}(?c{})", if *o == Order::Desc { "DESC" } else { "ASC" }, c - 1))
                    .collect();
                let sorted = query_both(&st, &format!("{base} ORDER BY {}", order_by.join(" ")));
                prop_assert_eq!(&sorted.rows, &naive);

                let mut per_cell = unsorted.rows.clone();
                let keys: Vec<OrderKey> = per_cell
                    .iter()
                    .flat_map(|row| cols.iter().map(|&c| order_key(row[c].as_ref())))
                    .collect();
                sort_by_order_keys(&mut per_cell, &keys, &orders);
                prop_assert_eq!(&per_cell, &naive);
            }
        }
    }

    #[test]
    fn limit_zero_yields_nothing() {
        let st = store_with_papers();
        let (r, stats) = query_with_stats(&st, "SELECT ?s WHERE { ?s ?p ?o } LIMIT 0").unwrap();
        assert!(r.is_empty());
        assert_eq!(stats.triples_scanned, 0);
    }
}
