//! SPARQL-ML query optimization (paper §IV.B.3).
//!
//! Two integer programs, both solved exactly with `kgnet-gmlaas`'s branch
//! and bound:
//!
//! 1. **Model selection** — for each user-defined predicate pick exactly one
//!    model from its KGMeta candidates, maximising total accuracy subject to
//!    an optional bound on summed inference time (the "near-optimal GML
//!    model that achieves high accuracy and low inference time").
//! 2. **Plan selection** — per predicate choose between the Fig. 11
//!    per-binding plan (`|bindings|` HTTP calls, no dictionary) and the
//!    Fig. 12 dictionary plan (1 HTTP call, a dictionary of `cardinality`
//!    entries), minimising total HTTP calls subject to an optional
//!    dictionary-memory cap.

use kgnet_gmlaas::ip::{solve, IntegerProgram};

use crate::kgmeta::ModelInfo;

/// Chosen execution plan for one user-defined predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RewritePlan {
    /// Fig. 11: one UDF/HTTP call per distinct binding.
    PerBinding,
    /// Fig. 12: one call building a dictionary, then local lookups.
    Dictionary,
}

/// Select one model per predicate. `candidates[p]` lists the KGMeta models
/// admissible for predicate `p` (already filtered). Returns indexes into
/// each candidate list, or `None` when a predicate has no candidate or the
/// inference-time bound is unsatisfiable.
pub fn select_models(
    candidates: &[Vec<ModelInfo>],
    max_total_inference_ms: Option<f64>,
) -> Option<Vec<usize>> {
    if candidates.iter().any(Vec::is_empty) {
        return None;
    }
    // Variables: one binary per (predicate, model).
    let layout: Vec<(usize, usize)> = candidates
        .iter()
        .enumerate()
        .flat_map(|(p, models)| (0..models.len()).map(move |m| (p, m)))
        .collect();
    let n = layout.len();
    let mut ip = IntegerProgram::new(n);
    for (i, &(p, m)) in layout.iter().enumerate() {
        ip.objective[i] = candidates[p][m].accuracy;
    }
    for (p, _) in candidates.iter().enumerate() {
        let row: Vec<f64> = layout.iter().map(|&(pp, _)| if pp == p { 1.0 } else { 0.0 }).collect();
        ip.add_eq(row, 1.0);
    }
    if let Some(cap) = max_total_inference_ms {
        let row: Vec<f64> =
            layout.iter().map(|&(p, m)| candidates[p][m].inference_time_ms).collect();
        ip.add_le(row, cap);
    }
    let sol = solve(&ip)?;
    let mut chosen = vec![0usize; candidates.len()];
    for (i, &(p, m)) in layout.iter().enumerate() {
        if sol.assignment[i] {
            chosen[p] = m;
        }
    }
    Some(chosen)
}

/// Inputs to plan selection for one predicate.
#[derive(Debug, Clone, Copy)]
pub struct PlanInputs {
    /// Bindings of the predicate's subject expected at its inference step
    /// (the `|?papers|` of the paper's example): the planner's row estimate.
    pub bindings: usize,
    /// The chosen model's prediction cardinality.
    pub model_cardinality: usize,
    /// Estimated bytes per dictionary entry.
    pub entry_bytes: usize,
}

/// Choose a plan per predicate, minimising total HTTP calls subject to an
/// optional cap on total dictionary bytes. Falls back to per-binding when
/// the dictionary does not fit.
pub fn select_plans(inputs: &[PlanInputs], dict_bytes_cap: Option<usize>) -> Vec<RewritePlan> {
    let n = inputs.len();
    if n == 0 {
        return vec![];
    }
    // One binary per predicate: x = 1 -> Dictionary, x = 0 -> PerBinding.
    // Calls = Σ (bindings - (bindings - 1) x); maximising saved calls
    // (bindings - 1 per dictionary choice) minimises total calls.
    let mut ip = IntegerProgram::new(n);
    for (i, inp) in inputs.iter().enumerate() {
        ip.objective[i] = inp.bindings.saturating_sub(1) as f64;
    }
    if let Some(cap) = dict_bytes_cap {
        ip.add_le(
            inputs.iter().map(|i| (i.model_cardinality * i.entry_bytes) as f64).collect(),
            cap as f64,
        );
    }
    match solve(&ip) {
        Some(sol) => sol
            .assignment
            .iter()
            .map(|&x| if x { RewritePlan::Dictionary } else { RewritePlan::PerBinding })
            .collect(),
        None => vec![RewritePlan::PerBinding; n],
    }
}

/// HTTP calls a plan will issue.
pub fn plan_calls(plan: RewritePlan, bindings: usize) -> usize {
    match plan {
        RewritePlan::PerBinding => bindings,
        RewritePlan::Dictionary => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(uri: &str, accuracy: f64, ms: f64) -> ModelInfo {
        ModelInfo {
            uri: uri.into(),
            accuracy,
            inference_time_ms: ms,
            cardinality: 100,
            method: "GCN".into(),
        }
    }

    #[test]
    fn picks_most_accurate_without_bound() {
        let candidates = vec![vec![model("a", 0.7, 1.0), model("b", 0.9, 5.0)]];
        let chosen = select_models(&candidates, None).unwrap();
        assert_eq!(chosen, vec![1]);
    }

    #[test]
    fn inference_bound_forces_faster_model() {
        let candidates =
            vec![vec![model("a", 0.7, 1.0), model("b", 0.9, 5.0)], vec![model("c", 0.8, 1.0)]];
        // Total budget 3 ms: b (5ms) + c (1ms) violates; must use a + c.
        let chosen = select_models(&candidates, Some(3.0)).unwrap();
        assert_eq!(chosen, vec![0, 0]);
    }

    #[test]
    fn empty_candidate_list_is_none() {
        assert!(select_models(&[vec![]], None).is_none());
        let candidates = vec![vec![model("a", 0.7, 10.0)]];
        assert!(select_models(&candidates, Some(1.0)).is_none());
    }

    #[test]
    fn dictionary_wins_for_many_bindings() {
        let plans = select_plans(
            &[PlanInputs { bindings: 1000, model_cardinality: 1000, entry_bytes: 64 }],
            None,
        );
        assert_eq!(plans, vec![RewritePlan::Dictionary]);
        assert_eq!(plan_calls(plans[0], 1000), 1);
    }

    #[test]
    fn per_binding_wins_for_single_binding() {
        let plans = select_plans(
            &[PlanInputs { bindings: 1, model_cardinality: 100_000, entry_bytes: 64 }],
            None,
        );
        // Saving is zero, so the solver is indifferent; calls must be 1
        // either way.
        assert_eq!(plan_calls(plans[0], 1), 1);
    }

    #[test]
    fn dictionary_cap_forces_per_binding() {
        let plans = select_plans(
            &[
                PlanInputs { bindings: 500, model_cardinality: 1_000, entry_bytes: 100 },
                PlanInputs { bindings: 400, model_cardinality: 2_000, entry_bytes: 100 },
            ],
            Some(150_000),
        );
        // Only one dictionary fits under the cap; the solver keeps the one
        // saving more calls (the first saves 499 < 399? no: 499 > 399, but
        // its dict is 100k <= 150k while both together are 300k).
        assert_eq!(plans[0], RewritePlan::Dictionary);
        assert_eq!(plans[1], RewritePlan::PerBinding);
    }
}
