//! Statistics-driven join planning for group graph patterns.
//!
//! `plan_group` translates a parsed [`GroupPattern`] into an explicit
//! [`GroupPlan`]: triple patterns resolved against the term dictionary and
//! variable table, greedily reordered by cardinality estimates fed by the
//! store's real per-predicate statistics ([`RdfStore::predicate_stats`]),
//! with each FILTER pushed down to the earliest join step that binds all of
//! its variables. A sub-SELECT is planned, not run: its [`SubPlan`] holds
//! its own prepared form, which the executor runs once per execution. The
//! streaming executor (`sparql::stream`) runs every plan in production; the
//! materialised executor runs the same plans only as its test oracle, and
//! the two enumerate solutions in the same order.
//!
//! A SPARQL-ML SELECT adds one `InferStep` per inferred triple pattern
//! `?s ?M ?o`, run after the top-level group; every FILTER over an inferred
//! variable runs behind the last of them.

use rustc_hash::FxHashSet;

use crate::dict::TermId;
use crate::error::SparqlError;
use crate::sparql::ast::{Expr, GroupPattern, TermPattern, TriplePattern};
use crate::sparql::eval::{prepare_select, PreparedQuery, VarTable};
use crate::store::RdfStore;
use crate::term::Term;

/// One resolved position of a planned triple pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Slot {
    /// A variable, identified by its slot in the binding vector.
    Var(usize),
    /// A ground term resolved to its dictionary id.
    Const(TermId),
}

/// One join step: a resolved triple pattern, the filters that become
/// evaluable once it binds its variables, and the planner's estimate.
#[derive(Debug, Clone)]
pub(crate) struct PatternStep {
    /// Subject position.
    pub(crate) s: Slot,
    /// Predicate position.
    pub(crate) p: Slot,
    /// Object position.
    pub(crate) o: Slot,
    /// Filters pushed down to run right after this step.
    pub(crate) filters: Vec<Expr>,
    /// Estimated matches when this step was chosen (diagnostics).
    pub(crate) est: f64,
}

/// A sub-SELECT, planned with its own variable table. The executor runs
/// it once per execution, on first use, and joins its answer like a step.
pub(crate) struct SubPlan {
    /// Binding slots of the sub-select's output columns.
    pub(crate) slots: Vec<usize>,
    /// The sub-SELECT's own prepared form: variables, plan and modifiers.
    pub(crate) select: PreparedQuery,
}

/// An executable plan for one group graph pattern.
#[derive(Default)]
pub(crate) struct GroupPlan {
    /// True when a ground term of a required pattern is absent from the
    /// dictionary: the group can match nothing.
    pub(crate) impossible: bool,
    /// Filters evaluable from the seed binding alone.
    pub(crate) eager_filters: Vec<Expr>,
    /// Ordered join steps.
    pub(crate) steps: Vec<PatternStep>,
    /// Sub-SELECTs, joined after the required steps.
    pub(crate) subselects: Vec<SubPlan>,
    /// OPTIONAL blocks, left-joined after the sub-SELECTs.
    pub(crate) optionals: Vec<GroupPlan>,
    /// Filters over variables only bound by optionals/sub-selects (or never
    /// bound), applied after the OPTIONALs.
    pub(crate) late_filters: Vec<Expr>,
    /// A SPARQL-ML SELECT's inferred patterns, joined last; only ever set
    /// on the top-level group.
    pub(crate) infer: Vec<InferStep>,
}

impl GroupPlan {
    /// Total number of join steps, including nested optionals.
    pub(crate) fn n_steps(&self) -> usize {
        self.steps.len() + self.optionals.iter().map(GroupPlan::n_steps).sum::<usize>()
    }

    /// Append the plan as indented EXPLAIN-style text, `depth` levels in:
    /// one line per operator in execution order, constants resolved
    /// through `store`'s dictionary, variables shown by name, planner
    /// estimates attached to every scan. Nested OPTIONAL plans and
    /// sub-SELECTs indent one level.
    pub(crate) fn render_into(
        &self,
        store: &RdfStore,
        vars: &VarTable,
        depth: usize,
        out: &mut String,
    ) {
        use std::fmt::Write;
        let pad = "  ".repeat(depth);
        if self.impossible {
            let _ = writeln!(out, "{pad}impossible (ground term not in dictionary)");
            return;
        }
        let slot = |s: Slot| match s {
            Slot::Const(id) => store.resolve(id).to_string(),
            Slot::Var(v) => match vars.name(v) {
                Some(name) => format!("?{name}"),
                None => format!("?_{v}"),
            },
        };
        for f in &self.eager_filters {
            let _ = writeln!(out, "{pad}filter(eager) {f}");
        }
        for step in &self.steps {
            let _ = writeln!(
                out,
                "{pad}scan {} {} {} (est {:.1})",
                slot(step.s),
                slot(step.p),
                slot(step.o),
                step.est
            );
            for f in &step.filters {
                let _ = writeln!(out, "{pad}  filter {f}");
            }
        }
        for sub in &self.subselects {
            let cols: Vec<String> = sub.slots.iter().map(|&s| slot(Slot::Var(s))).collect();
            let _ = writeln!(out, "{pad}subselect join [{}]", cols.join(" "));
            sub.select.render_into(store, depth + 1, out);
        }
        for opt in &self.optionals {
            let _ = writeln!(out, "{pad}optional");
            opt.render_into(store, vars, depth + 1, out);
        }
        for f in &self.late_filters {
            let _ = writeln!(out, "{pad}filter(late) {f}");
        }
        for step in &self.infer {
            let _ = writeln!(out, "{pad}{} (est {:.1})", step.label, step.est);
            for f in &step.filters {
                let _ = writeln!(out, "{pad}  filter {f}");
            }
        }
    }
}

/// The objects inferred for one subject, best first, or none when the
/// model has no prediction for it. An error aborts the query.
pub type ObjectsFn<'a> = Box<dyn FnMut(&Term) -> Result<Vec<Term>, SparqlError> + 'a>;

/// The objects an inferred triple pattern `?s ?M ?o` gives one subject:
/// what a model predicts for it. `kgnet-rdf` plans and runs the pattern;
/// the SPARQL-ML layer implements this over its inference service. A plan
/// serves many executions, so it holds no answers: whatever one execution
/// fetches lives in the [`ObjectsFn`] that execution opens.
pub trait InferredObjects: Send + Sync {
    /// The answerer for one execution of the plan, opened when its
    /// pipeline is built and dropped when the execution ends.
    fn execution(&self) -> ObjectsFn<'_>;

    /// One line naming the model and how it is called, for EXPLAIN and
    /// operator profiles.
    fn describe(&self) -> String;
}

/// One inferred triple pattern, planned after the top-level group: each
/// binding joins with the objects [`InferredObjects`] gives its subject.
/// A subject with no objects drops its binding, like any required pattern.
pub(crate) struct InferStep {
    pub(crate) subject: Slot,
    /// Slot of the object variable.
    pub(crate) object: usize,
    /// The filters over inferred variables, on the last step only.
    pub(crate) filters: Vec<Expr>,
    pub(crate) objects: Box<dyn InferredObjects>,
    /// `infer <subject> <model and plan> ?<object>`, for EXPLAIN and
    /// profiles.
    pub(crate) label: String,
    /// The planner's estimate of the bindings reaching the step.
    pub(crate) est: f64,
}

/// Append one [`InferStep`] per `(subject, object variable)` pattern to
/// the top-level `plan`, in order, each answered by the matching `objects`
/// entry; the `held` filters over inferred variables go on the last. A
/// ground subject absent from the dictionary makes the plan impossible, as
/// in any required pattern.
pub(crate) fn plan_inferred(
    store: &RdfStore,
    plan: &mut GroupPlan,
    patterns: &[(TermPattern, String)],
    objects: Vec<Box<dyn InferredObjects>>,
    vars: &VarTable,
    mut held: Vec<Expr>,
    est: f64,
) {
    for (i, ((subject, object), objects)) in patterns.iter().zip(objects).enumerate() {
        let label = format!("infer {subject} {} ?{object}", objects.describe());
        let object = vars.get(object).expect("inferred pattern vars are registered");
        let Some(subject) = resolve_slot(store, subject, vars) else {
            plan.impossible = true;
            return;
        };
        let filters = if i + 1 == patterns.len() { std::mem::take(&mut held) } else { Vec::new() };
        plan.infer.push(InferStep { subject, object, filters, objects, label, est });
    }
}

/// Build the plan for `group`, assuming the variable slots in `outer_bound`
/// are already bound by the enclosing scope (empty at the top level).
///
/// All variables of the group must already be registered in `vars` (see
/// `collect_vars` in the evaluator).
pub(crate) fn plan_group(
    store: &RdfStore,
    group: &GroupPattern,
    vars: &VarTable,
    outer_bound: &FxHashSet<usize>,
) -> Result<GroupPlan, SparqlError> {
    let mut plan = GroupPlan::default();

    // Resolve required patterns; a ground term missing from the dictionary
    // means the group matches nothing.
    let mut remaining = Vec::with_capacity(group.triples.len());
    for tp in &group.triples {
        match resolve_triple(store, tp, vars) {
            Some(resolved) => remaining.push(resolved),
            None => {
                plan.impossible = true;
                return Ok(plan);
            }
        }
    }

    // Pending filters with their variable slot sets.
    let mut pending: Vec<(Expr, FxHashSet<usize>)> = group
        .filters
        .iter()
        .map(|f| {
            let mut names = Vec::new();
            f.vars(&mut names);
            (f.clone(), names.iter().filter_map(|v| vars.get(v)).collect())
        })
        .collect();

    let mut bound = outer_bound.clone();
    take_ready_filters(&mut pending, &bound, &mut plan.eager_filters);

    // Greedy join ordering: repeatedly pick the remaining pattern with the
    // lowest estimated cardinality given the variables bound so far.
    while !remaining.is_empty() {
        let (best, est) = remaining
            .iter()
            .enumerate()
            .map(|(i, t)| (i, estimate(store, t, &bound)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .expect("remaining is non-empty");
        let (s, p, o) = remaining.swap_remove(best);
        for slot in [s, p, o] {
            if let Slot::Var(v) = slot {
                bound.insert(v);
            }
        }
        let mut step = PatternStep { s, p, o, filters: Vec::new(), est };
        take_ready_filters(&mut pending, &bound, &mut step.filters);
        plan.steps.push(step);
    }

    // Sub-selects: planned now, run by the executor once per execution.
    // An outer LIMIT does not stop one: it runs to completion on first use.
    for sub in &group.subselects {
        let slots: Vec<usize> = sub
            .output_vars()
            .iter()
            .map(|v| vars.get(v).expect("sub-select output vars are registered"))
            .collect();
        bound.extend(&slots);
        plan.subselects.push(SubPlan { slots, select: prepare_select(store, sub.clone())? });
    }

    // Optionals: planned with everything bound so far; their bindable vars
    // count as (possibly) bound for later optionals' estimates.
    for opt in &group.optionals {
        plan.optionals.push(plan_group(store, opt, vars, &bound)?);
        for v in opt.bindable_vars() {
            if let Some(slot) = vars.get(&v) {
                bound.insert(slot);
            }
        }
    }

    plan.late_filters.extend(pending.into_iter().map(|(f, _)| f));
    Ok(plan)
}

/// Move every pending filter whose variables are all in `bound` into `out`.
fn take_ready_filters(
    pending: &mut Vec<(Expr, FxHashSet<usize>)>,
    bound: &FxHashSet<usize>,
    out: &mut Vec<Expr>,
) {
    let mut i = 0;
    while i < pending.len() {
        if pending[i].1.iter().all(|s| bound.contains(s)) {
            out.push(pending.swap_remove(i).0);
        } else {
            i += 1;
        }
    }
}

/// Resolve one triple pattern; `None` when a ground term is not interned.
fn resolve_triple(
    store: &RdfStore,
    tp: &TriplePattern,
    vars: &VarTable,
) -> Option<(Slot, Slot, Slot)> {
    let slot = |t: &TermPattern| resolve_slot(store, t, vars);
    Some((slot(&tp.s)?, slot(&tp.p)?, slot(&tp.o)?))
}

/// Resolve one pattern position; `None` when a ground term is not interned.
fn resolve_slot(store: &RdfStore, t: &TermPattern, vars: &VarTable) -> Option<Slot> {
    match t {
        TermPattern::Var(v) => Some(Slot::Var(vars.get(v).expect("pattern vars are registered"))),
        TermPattern::Ground(term) => store.lookup(term).map(Slot::Const),
    }
}

/// Estimated number of matches for a pattern given already-bound variables.
///
/// The base is the store's exact count over the constant positions. Each
/// already-bound variable position then narrows the scan like a constant: by
/// the predicate's real distinct-subject/object count when the predicate is
/// ground (i.e. down to the average fan-out), or by a nominal factor of 16
/// when it is not.
fn estimate(store: &RdfStore, t: &(Slot, Slot, Slot), bound: &FxHashSet<usize>) -> f64 {
    const NOMINAL_FANOUT: f64 = 16.0;
    let (s, p, o) = *t;
    let constant = |slot: Slot| match slot {
        Slot::Const(id) => Some(id),
        Slot::Var(_) => None,
    };
    let is_bound_var = |slot: Slot| matches!(slot, Slot::Var(v) if bound.contains(&v));

    let stats = match p {
        Slot::Const(pid) => Some(store.predicate_stats(pid)),
        Slot::Var(_) => None,
    };
    // Base cardinality over the constant positions. The predicate-only shape
    // is the common case and comes from the cached statistics; the remaining
    // shapes bound by a subject/object constant walk one narrow index range.
    let mut est = match (constant(s), stats, constant(o)) {
        (None, Some(st), None) => st.triples as f64,
        (cs, _, co) => store.count(cs, constant(p), co) as f64,
    };
    if is_bound_var(s) {
        est /= stats.map_or(NOMINAL_FANOUT, |st| st.distinct_subjects.max(1) as f64);
    }
    if is_bound_var(o) {
        est /= stats.map_or(NOMINAL_FANOUT, |st| st.distinct_objects.max(1) as f64);
    }
    if is_bound_var(p) {
        est /= NOMINAL_FANOUT;
    }
    est
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparql::eval::collect_vars;
    use crate::sparql::parser::parse_select;
    use crate::term::Term;

    fn chain_store() -> RdfStore {
        // 100 `wide` triples from one hub, 2 `narrow` triples.
        let mut st = RdfStore::new();
        for i in 0..100 {
            st.insert(Term::iri("http://x/hub"), Term::iri("http://x/wide"), Term::int(i));
        }
        st.insert(Term::iri("http://x/hub"), Term::iri("http://x/narrow"), Term::int(0));
        st.insert(Term::iri("http://x/other"), Term::iri("http://x/narrow"), Term::int(1));
        st
    }

    fn plan_for(store: &RdfStore, text: &str) -> (GroupPlan, VarTable) {
        let q = parse_select(text).unwrap();
        let mut vars = VarTable::default();
        collect_vars(&q.pattern, &mut vars);
        let plan = plan_group(store, &q.pattern, &vars, &FxHashSet::default()).unwrap();
        (plan, vars)
    }

    #[test]
    fn selective_pattern_runs_first() {
        let st = chain_store();
        let (plan, vars) =
            plan_for(&st, "SELECT ?s WHERE { ?s <http://x/wide> ?w . ?s <http://x/narrow> ?n }");
        assert_eq!(plan.steps.len(), 2);
        // The narrow (2-triple) pattern must be chosen before the wide one.
        let narrow = st.lookup(&Term::iri("http://x/narrow")).unwrap();
        assert_eq!(plan.steps[0].p, Slot::Const(narrow));
        assert_eq!(plan.steps[0].est, 2.0);
        // The wide pattern's estimate is divided by the real distinct-subject
        // count of `wide` (1), not the nominal 16.
        assert_eq!(plan.steps[1].est, 100.0);
        assert!(vars.get("s").is_some());
    }

    #[test]
    fn missing_ground_term_is_impossible() {
        let st = chain_store();
        let (plan, _) = plan_for(&st, "SELECT ?s WHERE { ?s <http://nope/p> ?o }");
        assert!(plan.impossible);
    }

    #[test]
    fn filters_are_pushed_to_earliest_step() {
        let st = chain_store();
        let (plan, _) = plan_for(
            &st,
            "SELECT ?s WHERE { ?s <http://x/narrow> ?n . ?s <http://x/wide> ?w .
               FILTER(?n > 0) . FILTER(?w > 50) }",
        );
        // ?n filter lands on the first (narrow) step, ?w on the second.
        assert_eq!(plan.steps[0].filters.len(), 1);
        assert_eq!(plan.steps[1].filters.len(), 1);
        assert!(plan.late_filters.is_empty());
    }

    #[test]
    fn filter_on_optional_var_is_late() {
        let st = chain_store();
        let (plan, _) = plan_for(
            &st,
            "SELECT ?s WHERE { ?s <http://x/narrow> ?n .
               OPTIONAL { ?s <http://x/wide> ?w } FILTER(?w > 50) }",
        );
        assert!(plan.steps.iter().all(|s| s.filters.is_empty()));
        assert_eq!(plan.late_filters.len(), 1);
        assert_eq!(plan.optionals.len(), 1);
        assert_eq!(plan.n_steps(), 2);
    }
}
