//! Streaming (pull-based) execution of group plans.
//!
//! Operators implement [`BindingStream`] and yield one binding at a time, so
//! downstream short-circuiting (`LIMIT k`) stops the upstream index scans as
//! soon as enough solutions have been produced — nothing between join steps
//! is materialised. The pipeline for a [`GroupPlan`] is: seed → eager
//! filters → one `ScanStep` per join step (index nested-loop join with
//! pushed-down filters) → sub-SELECT joins → OPTIONAL left-joins → late
//! filters → one `InferJoin` per inferred triple pattern of a SPARQL-ML
//! SELECT, so LIMIT stops calling a model as early as it stops scanning. A
//! sub-SELECT runs on this same pipeline, once per execution, when its join
//! first sees a binding. Every SELECT and UPDATE WHERE runs here.
//!
//! `exec_group_materialised` is the loop-based reference implementation of
//! the same plan, used only as the test oracle; the streaming operators
//! must enumerate exactly the same bindings in the same order
//! (property-tested in the conformance suite).

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::rc::Rc;
use std::time::Instant;

use rustc_hash::FxHashMap;

use crate::dict::{TermDict, TermId};
use crate::error::SparqlError;
use crate::sparql::ast::Expr;
use crate::sparql::eval::{eval_expr, Binding, IdRow, VarTable};
use crate::sparql::plan::{GroupPlan, InferStep, ObjectsFn, PatternStep, Slot, SubPlan};
use crate::store::{RdfStore, ScanIter};
use crate::term::Term;

/// State one query execution accumulates.
#[derive(Default)]
pub(crate) struct ExecState {
    /// Triples pulled from store index scans.
    pub(crate) triples_scanned: Cell<u64>,
    /// The terms inference steps and aggregates made that the store's
    /// dictionary lacks; their ids continue past its end.
    side: RefCell<TermDict>,
    /// Each sub-SELECT's answer, by the address of its [`SubPlan`].
    subs: RefCell<FxHashMap<usize, Rc<Vec<IdRow>>>>,
    /// The inference failure that ended the pipeline early.
    pub(crate) failure: RefCell<Option<SparqlError>>,
}

impl ExecState {
    /// The terms the execution made, for its answer to resolve.
    pub(crate) fn into_side(self) -> TermDict {
        self.side.into_inner()
    }
}

/// A snapshot of an execution's counters, returned alongside query results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecStats {
    /// Triples pulled from store index scans, those of sub-SELECTs
    /// included (each runs once per execution).
    pub triples_scanned: u64,
    /// Bindings emitted by the root of the operator pipeline.
    pub bindings_emitted: u64,
}

/// A pull-based stream of bindings.
pub(crate) trait BindingStream {
    /// The next binding, or `None` when exhausted.
    fn next_binding(&mut self) -> Option<Binding>;
}

/// Shared execution context.
#[derive(Clone, Copy)]
pub(crate) struct ExecCtx<'a> {
    pub(crate) store: &'a RdfStore,
    pub(crate) vars: &'a VarTable,
    pub(crate) state: &'a ExecState,
}

impl<'a> ExecCtx<'a> {
    fn passes(&self, filters: &[Expr], b: &Binding) -> bool {
        filters.iter().all(|f| eval_expr(*self, f, b))
    }

    /// The term behind `id`: the store's, or, past the dictionary's end,
    /// one an inference step met.
    pub(crate) fn term(&self, id: TermId) -> Cow<'a, Term> {
        match self.store.dict().try_resolve(id) {
            Some(term) => Cow::Borrowed(term),
            None => {
                let side = TermId(id.0 - self.store.dict().len() as u32);
                Cow::Owned(self.state.side.borrow().resolve(side).clone())
            }
        }
    }

    /// The id of `term`: its dictionary id, or one past the dictionary's
    /// end that stays the same for the rest of the execution, so DISTINCT,
    /// joins and ORDER BY see one value.
    pub(crate) fn intern(&self, term: Term) -> TermId {
        let end = self.store.dict().len() as u32;
        self.store
            .lookup(&term)
            .unwrap_or_else(|| TermId(end + self.state.side.borrow_mut().intern(term).0))
    }

    /// The answer of `sub`: run on first use, then remembered for the rest
    /// of the execution, so an OPTIONAL that re-seeds its pipeline per
    /// binding does not run it again.
    fn sub_rows(&self, sub: &SubPlan) -> Rc<Vec<IdRow>> {
        let key = sub as *const SubPlan as usize;
        let known = self.state.subs.borrow().get(&key).cloned();
        known.unwrap_or_else(|| {
            let rows = Rc::new(sub.select.id_rows(self.store, self.state, None).0);
            self.state.subs.borrow_mut().insert(key, rows.clone());
            rows
        })
    }
}

/// Build the streaming pipeline for `plan`, starting from `seed`. With
/// `taps`, a [`TimedStep`] sits behind every top-level operator and its
/// [`OpTap`] is appended there; without, the operators are chained bare
/// and no label is built. Inner pipelines (the per-binding OPTIONAL
/// streams) are never tapped individually — their cost lands in the
/// optional operator's inclusive time, keeping tap accounting strictly
/// nested.
pub(crate) fn build_group_stream<'a>(
    ctx: ExecCtx<'a>,
    plan: &'a GroupPlan,
    seed: Binding,
    mut taps: Option<&mut Vec<OpTap>>,
) -> Box<dyn BindingStream + 'a> {
    if plan.impossible {
        return Box::new(Seed { binding: None });
    }
    let mut stream: Box<dyn BindingStream + 'a> = Box::new(Seed { binding: Some(seed) });
    if !plan.eager_filters.is_empty() {
        stream = Box::new(FilterStep { ctx, exprs: &plan.eager_filters, input: stream });
        stream = tap(stream, taps.as_deref_mut(), || "filter(eager)".to_owned());
    }
    for step in &plan.steps {
        stream = Box::new(ScanStep { ctx, step, input: stream, cur: None });
        stream = tap(stream, taps.as_deref_mut(), || scan_label(ctx, step));
    }
    for sub in &plan.subselects {
        stream = Box::new(SubJoin { ctx, sub, rows: None, input: stream, cur: None });
        stream = tap(stream, taps.as_deref_mut(), || "subselect join".to_owned());
    }
    for opt in &plan.optionals {
        stream = Box::new(OptionalStep { ctx, plan: opt, input: stream, cur: None });
        stream = tap(stream, taps.as_deref_mut(), || "optional".to_owned());
    }
    if !plan.late_filters.is_empty() {
        stream = Box::new(FilterStep { ctx, exprs: &plan.late_filters, input: stream });
        stream = tap(stream, taps.as_deref_mut(), || "filter(late)".to_owned());
    }
    for step in &plan.infer {
        // Sized by the estimate, so the memo does not grow row by row.
        let n = (step.est as usize).min(1 << 12);
        let memo = FxHashMap::with_capacity_and_hasher(n, Default::default());
        let objects = Vec::with_capacity(n);
        let answer = step.objects.execution();
        stream = Box::new(InferJoin { ctx, step, answer, memo, objects, input: stream, cur: None });
        stream = tap(stream, taps.as_deref_mut(), || step.label.clone());
    }
    stream
}

/// A tap on one pipeline operator left behind by a profiled
/// [`build_group_stream`]: the *inclusive* time spent inside the
/// operator's `next_binding` (its own work plus everything upstream of
/// it), and the bindings it emitted. Taps are listed in pipeline order, so
/// subtracting consecutive inclusive times yields per-operator self times.
pub(crate) struct OpTap {
    pub(crate) label: String,
    pub(crate) nanos: Rc<Cell<u64>>,
    pub(crate) rows: Rc<Cell<u64>>,
}

/// Wraps an operator to accumulate its inclusive `next_binding` time and
/// emitted-binding count into the shared tap cells.
struct TimedStep<'a> {
    inner: Box<dyn BindingStream + 'a>,
    nanos: Rc<Cell<u64>>,
    rows: Rc<Cell<u64>>,
}

impl BindingStream for TimedStep<'_> {
    fn next_binding(&mut self) -> Option<Binding> {
        let t = Instant::now();
        let b = self.inner.next_binding();
        self.nanos.set(self.nanos.get() + t.elapsed().as_nanos() as u64);
        if b.is_some() {
            self.rows.set(self.rows.get() + 1);
        }
        b
    }
}

/// Wrap `inner` in a [`TimedStep`] and record its tap when profiling;
/// return it untouched otherwise.
fn tap<'a>(
    inner: Box<dyn BindingStream + 'a>,
    taps: Option<&mut Vec<OpTap>>,
    label: impl FnOnce() -> String,
) -> Box<dyn BindingStream + 'a> {
    let Some(taps) = taps else { return inner };
    let nanos = Rc::new(Cell::new(0));
    let rows = Rc::new(Cell::new(0));
    taps.push(OpTap { label: label(), nanos: nanos.clone(), rows: rows.clone() });
    Box::new(TimedStep { inner, nanos, rows })
}

/// Render one scan step as `scan <s> <p> <o>` with constants resolved
/// through the dictionary and variables shown by name.
fn scan_label(ctx: ExecCtx<'_>, step: &PatternStep) -> String {
    let one = |slot: Slot| match slot {
        Slot::Const(id) => ctx.store.resolve(id).to_string(),
        Slot::Var(v) => match ctx.vars.name(v) {
            Some(name) => format!("?{name}"),
            None => format!("?_{v}"),
        },
    };
    format!("scan {} {} {}", one(step.s), one(step.p), one(step.o))
}

/// Yields the seed binding once (or nothing, for impossible groups).
struct Seed {
    binding: Option<Binding>,
}

impl BindingStream for Seed {
    fn next_binding(&mut self) -> Option<Binding> {
        self.binding.take()
    }
}

/// Drops bindings failing any of the given filters.
struct FilterStep<'a> {
    ctx: ExecCtx<'a>,
    exprs: &'a [Expr],
    input: Box<dyn BindingStream + 'a>,
}

impl BindingStream for FilterStep<'_> {
    fn next_binding(&mut self) -> Option<Binding> {
        loop {
            let b = self.input.next_binding()?;
            if self.ctx.passes(self.exprs, &b) {
                return Some(b);
            }
        }
    }
}

/// Index nested-loop join: for each input binding, lazily scan the index
/// range selected by the pattern's constants and bound variables.
struct ScanStep<'a> {
    ctx: ExecCtx<'a>,
    step: &'a PatternStep,
    input: Box<dyn BindingStream + 'a>,
    cur: Option<(Binding, ScanIter<'a>)>,
}

impl BindingStream for ScanStep<'_> {
    fn next_binding(&mut self) -> Option<Binding> {
        loop {
            if let Some((base, iter)) = &mut self.cur {
                for (s, p, o) in iter.by_ref() {
                    let counter = &self.ctx.state.triples_scanned;
                    counter.set(counter.get() + 1);
                    if let Some(nb) = bind_match(base, self.step, (s, p, o)) {
                        if self.ctx.passes(&self.step.filters, &nb) {
                            return Some(nb);
                        }
                    }
                }
                self.cur = None;
            }
            let b = self.input.next_binding()?;
            let iter = self.ctx.store.scan_iter(
                probe(self.step.s, &b),
                probe(self.step.p, &b),
                probe(self.step.o, &b),
            );
            self.cur = Some((b, iter));
        }
    }
}

/// The scan constraint for one pattern position under an input binding.
fn probe(slot: Slot, b: &Binding) -> Option<crate::dict::TermId> {
    match slot {
        Slot::Const(id) => Some(id),
        Slot::Var(v) => b[v],
    }
}

/// Extend `base` with one matched triple, rejecting a triple that disagrees
/// with `base` or repeats one variable with different values — before the
/// binding is cloned.
pub(crate) fn bind_match(
    base: &Binding,
    step: &PatternStep,
    (s, p, o): (crate::dict::TermId, crate::dict::TermId, crate::dict::TermId),
) -> Option<Binding> {
    let matched = [(step.s, s), (step.p, p), (step.o, o)];
    for (i, &(slot, value)) in matched.iter().enumerate() {
        if let Slot::Var(v) = slot {
            if base[v].is_some_and(|bound| bound != value)
                || matched[..i].iter().any(|&(other, seen)| other == slot && seen != value)
            {
                return None;
            }
        }
    }
    let mut nb = base.clone();
    for (slot, value) in matched {
        if let Slot::Var(v) = slot {
            nb[v] = Some(value);
        }
    }
    Some(nb)
}

/// Nested-loop join of input bindings against a sub-SELECT's answer, which
/// the first input binding fetches.
struct SubJoin<'a> {
    ctx: ExecCtx<'a>,
    sub: &'a SubPlan,
    rows: Option<Rc<Vec<IdRow>>>,
    input: Box<dyn BindingStream + 'a>,
    cur: Option<(Binding, usize)>,
}

impl BindingStream for SubJoin<'_> {
    fn next_binding(&mut self) -> Option<Binding> {
        loop {
            if let (Some((base, next_row)), Some(rows)) = (&mut self.cur, &self.rows) {
                while let Some(row) = rows.get(*next_row) {
                    *next_row += 1;
                    if let Some(nb) = merge_sub_row(base, self.sub, row) {
                        return Some(nb);
                    }
                }
                self.cur = None;
            }
            let b = self.input.next_binding()?;
            self.rows.get_or_insert_with(|| self.ctx.sub_rows(self.sub));
            self.cur = Some((b, 0));
        }
    }
}

/// Merge one sub-select row into a binding; `None` on a join mismatch,
/// rejected before the binding is cloned. A `None` value is unbound and
/// joins with anything: the outer binding keeps its value.
pub(crate) fn merge_sub_row(
    base: &Binding,
    sub: &SubPlan,
    row: &[Option<TermId>],
) -> Option<Binding> {
    for (&slot, &id) in sub.slots.iter().zip(row) {
        if base[slot].zip(id).is_some_and(|(x, y)| x != y) {
            return None;
        }
    }
    let mut nb = base.clone();
    for (&slot, &id) in sub.slots.iter().zip(row) {
        nb[slot] = nb[slot].or(id);
    }
    Some(nb)
}

/// Left join against an OPTIONAL group: each input binding seeds the inner
/// pipeline; if it yields nothing, the input binding passes through.
struct OptionalStep<'a> {
    ctx: ExecCtx<'a>,
    plan: &'a GroupPlan,
    input: Box<dyn BindingStream + 'a>,
    cur: Option<(Binding, Box<dyn BindingStream + 'a>, bool)>,
}

impl BindingStream for OptionalStep<'_> {
    fn next_binding(&mut self) -> Option<Binding> {
        loop {
            if let Some((_, inner, matched)) = &mut self.cur {
                if let Some(nb) = inner.next_binding() {
                    *matched = true;
                    return Some(nb);
                }
                let (seed, _, matched) = self.cur.take().expect("cur is present");
                if !matched {
                    return Some(seed);
                }
            }
            let b = self.input.next_binding()?;
            let inner = build_group_stream(self.ctx, self.plan, b.clone(), None);
            self.cur = Some((b, inner, false));
        }
    }
}

/// Joins each input binding with the objects an inference step gives its
/// subject: one call of this execution's
/// [`ObjectsFn`](crate::sparql::plan::ObjectsFn) per distinct subject,
/// remembered for the rest of the execution. An object variable the input
/// already binds keeps only the matching object. A failed call is recorded
/// in the execution state and ends the stream.
struct InferJoin<'a> {
    ctx: ExecCtx<'a>,
    step: &'a InferStep,
    /// The step's answerer, opened for this execution alone.
    answer: ObjectsFn<'a>,
    /// Each subject seen so far, with its objects' range in `objects`.
    memo: FxHashMap<TermId, Range<usize>>,
    objects: Vec<TermId>,
    input: Box<dyn BindingStream + 'a>,
    cur: Option<(Binding, Range<usize>)>,
}

impl InferJoin<'_> {
    /// Where the interned objects of `subject` lie in `objects`.
    fn objects(&mut self, subject: TermId) -> Result<Range<usize>, SparqlError> {
        if let Some(range) = self.memo.get(&subject) {
            return Ok(range.clone());
        }
        let start = self.objects.len();
        for term in (self.answer)(&self.ctx.term(subject))? {
            self.objects.push(self.ctx.intern(term));
        }
        self.memo.insert(subject, start..self.objects.len());
        Ok(start..self.objects.len())
    }
}

impl BindingStream for InferJoin<'_> {
    fn next_binding(&mut self) -> Option<Binding> {
        loop {
            if let Some((base, range)) = &mut self.cur {
                while let Some(i) = range.next() {
                    let o = self.objects[i];
                    if base[self.step.object].is_some_and(|bound| bound != o) {
                        continue;
                    }
                    // The last object takes the input binding itself.
                    let last = range.start == range.end;
                    let mut nb = if last { std::mem::take(base) } else { base.clone() };
                    nb[self.step.object] = Some(o);
                    if self.ctx.passes(&self.step.filters, &nb) {
                        return Some(nb);
                    }
                }
                self.cur = None;
            }
            let b = self.input.next_binding()?;
            let Some(subject) = probe(self.step.subject, &b) else { continue };
            match self.objects(subject) {
                Ok(range) => self.cur = Some((b, range)),
                Err(e) => {
                    self.ctx.state.failure.borrow_mut().get_or_insert(e);
                    return None;
                }
            }
        }
    }
}

/// Loop-based reference execution of the same plan: materialises the full
/// binding table between operators, and runs each sub-SELECT anew on its
/// own. Kept only as the correctness oracle for the streaming operators.
#[allow(clippy::disallowed_methods)] // recurses into itself for OPTIONAL groups
pub(crate) fn exec_group_materialised(
    ctx: ExecCtx<'_>,
    plan: &GroupPlan,
    seed: Binding,
) -> Vec<Binding> {
    debug_assert!(plan.infer.is_empty(), "the materialised executor runs plain SPARQL only");
    if plan.impossible {
        return Vec::new();
    }
    let mut bindings = vec![seed];
    bindings.retain(|b| ctx.passes(&plan.eager_filters, b));
    for step in &plan.steps {
        let mut next = Vec::new();
        for b in &bindings {
            for m in ctx.store.scan_iter(probe(step.s, b), probe(step.p, b), probe(step.o, b)) {
                let counter = &ctx.state.triples_scanned;
                counter.set(counter.get() + 1);
                if let Some(nb) = bind_match(b, step, m) {
                    if ctx.passes(&step.filters, &nb) {
                        next.push(nb);
                    }
                }
            }
        }
        bindings = next;
        if bindings.is_empty() {
            return bindings;
        }
    }
    for sub in &plan.subselects {
        let rows = sub.select.materialised_id_rows(ctx.store, ctx.state);
        let mut next = Vec::new();
        for b in &bindings {
            for row in &rows {
                if let Some(nb) = merge_sub_row(b, sub, row) {
                    next.push(nb);
                }
            }
        }
        bindings = next;
        if bindings.is_empty() {
            return bindings;
        }
    }
    for opt in &plan.optionals {
        let mut next = Vec::with_capacity(bindings.len());
        for b in &bindings {
            let inner = exec_group_materialised(ctx, opt, b.clone());
            if inner.is_empty() {
                next.push(b.clone());
            } else {
                next.extend(inner);
            }
        }
        bindings = next;
    }
    bindings.retain(|b| ctx.passes(&plan.late_filters, b));
    bindings
}
