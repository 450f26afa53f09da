//! SPARQL-ML query optimization (paper §IV.B.3).
//!
//! The paper states two choices as integer programs. Here each cap bounds
//! each user-defined predicate alone, so both programs separate by
//! predicate and are solved in closed form, one predicate at a time:
//!
//! 1. **Model selection** — pick exactly one model from the predicate's
//!    KGMeta candidates, maximising accuracy subject to an optional bound
//!    on its inference time (the "near-optimal GML model that achieves high
//!    accuracy and low inference time"): [`select_model`] takes the most
//!    accurate candidate within the bound.
//! 2. **Plan selection** — choose between the Fig. 11 per-binding plan
//!    (one HTTP call per binding, no dictionary) and the Fig. 12 dictionary
//!    plan (a dictionary of `cardinality` entries), minimising HTTP calls
//!    subject to an optional dictionary-memory cap. The dictionary is
//!    fetched on its first lookup, so it costs one call at most and never
//!    more than per-binding calls: [`select_plan`] picks it whenever it
//!    fits the cap, whatever the number of bindings.

use kgnet_gmlaas::TaskKind;

use crate::kgmeta::ModelInfo;

/// Chosen execution plan for one user-defined predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RewritePlan {
    /// Fig. 11: one UDF/HTTP call per distinct binding.
    PerBinding,
    /// Fig. 12: one call building a dictionary, then local lookups.
    Dictionary,
}

/// Estimated bytes per dictionary entry (one node URI and its prediction),
/// the plan choice's per-entry cost against a dictionary-bytes cap.
const DICT_ENTRY_BYTES: usize = 96;

/// Select one predicate's model from its admissible KGMeta `candidates`:
/// the most accurate one whose per-call inference time is within
/// `max_inference_ms`, the earliest among equals. `None` when no candidate
/// is within the bound.
pub fn select_model(candidates: &[ModelInfo], max_inference_ms: Option<f64>) -> Option<&ModelInfo> {
    candidates
        .iter()
        .filter(|m| max_inference_ms.is_none_or(|cap| m.inference_time_ms <= cap))
        .reduce(|best, next| if next.accuracy > best.accuracy { next } else { best })
}

/// Choose the plan of one predicate answered by a `kind` model that
/// predicts for `cardinality` nodes: [`RewritePlan::Dictionary`] when its
/// dictionary of `cardinality` × 96 bytes is within `dict_bytes_cap` (or
/// there is no cap), per-binding otherwise. A similarity model has no
/// dictionary and is always called per binding.
pub fn select_plan(
    kind: TaskKind,
    cardinality: usize,
    dict_bytes_cap: Option<usize>,
) -> RewritePlan {
    let fits = dict_bytes_cap.is_none_or(|cap| cardinality.saturating_mul(DICT_ENTRY_BYTES) <= cap);
    if fits && kind != TaskKind::NodeSimilarity {
        RewritePlan::Dictionary
    } else {
        RewritePlan::PerBinding
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

    fn chosen(candidates: &[ModelInfo], cap: Option<f64>) -> Option<&str> {
        select_model(candidates, cap).map(|m| m.uri.as_str())
    }

    #[test]
    fn picks_most_accurate_without_bound() {
        let candidates = [model("a", 0.7, 1.0), model("b", 0.9, 5.0)];
        assert_eq!(chosen(&candidates, None), Some("b"));
    }

    #[test]
    fn inference_bound_forces_faster_model() {
        let candidates = [model("a", 0.7, 1.0), model("b", 0.9, 5.0)];
        assert_eq!(chosen(&candidates, Some(3.0)), Some("a"));
        // A model exactly at the bound is within it.
        assert_eq!(chosen(&candidates, Some(5.0)), Some("b"));
    }

    #[test]
    fn equal_accuracy_goes_to_the_earlier_model() {
        let candidates = [model("a", 0.8, 2.0), model("b", 0.8, 1.0)];
        assert_eq!(chosen(&candidates, None), Some("a"));
    }

    #[test]
    fn empty_or_out_of_bound_candidates_are_none() {
        assert_eq!(chosen(&[], None), None);
        assert_eq!(chosen(&[model("a", 0.7, 10.0)], Some(1.0)), None);
    }

    #[test]
    fn dictionary_wins_without_a_cap() {
        for cardinality in [0, 1, 1000, 100_000] {
            let plan = select_plan(TaskKind::NodeClassifier, cardinality, None);
            assert_eq!(plan, RewritePlan::Dictionary);
            assert_eq!(select_plan(TaskKind::LinkPredictor, cardinality, None), plan);
        }
    }

    #[test]
    fn similarity_is_always_per_binding() {
        for cap in [None, Some(0), Some(usize::MAX)] {
            let plan = select_plan(TaskKind::NodeSimilarity, 10, cap);
            assert_eq!(plan, RewritePlan::PerBinding);
        }
    }

    #[test]
    fn dictionary_cap_forces_per_binding() {
        let kind = TaskKind::NodeClassifier;
        let cap = Some(150_000);
        // 1 000 entries are 96 kB, within the cap; 2 000 are 192 kB.
        assert_eq!(select_plan(kind, 1_000, cap), RewritePlan::Dictionary);
        assert_eq!(select_plan(kind, 2_000, cap), RewritePlan::PerBinding);
        // A dictionary exactly at the cap fits.
        assert_eq!(select_plan(kind, 1_000, Some(96_000)), RewritePlan::Dictionary);
        assert_eq!(select_plan(kind, 1_000, Some(95_999)), RewritePlan::PerBinding);
        assert_eq!(select_plan(kind, 1, Some(0)), RewritePlan::PerBinding);
    }

    /// Each cap bounds each predicate alone: two predicates that each fit
    /// keep their best model and their dictionary, although their sums
    /// exceed the caps.
    #[test]
    fn caps_bound_each_predicate_alone() {
        let predicates = [
            [model("a", 0.7, 1.0), model("b", 0.9, 3.0)],
            [model("c", 0.95, 3.0), model("d", 0.6, 0.5)],
        ];
        for candidates in &predicates {
            let best = chosen(candidates, None);
            assert_eq!(chosen(candidates, Some(3.0)), best, "3 + 3 ms exceeds the bound");
        }
        let entries = 1_000;
        let cap = Some(entries * DICT_ENTRY_BYTES);
        for kind in [TaskKind::NodeClassifier, TaskKind::LinkPredictor] {
            assert_eq!(select_plan(kind, entries, cap), RewritePlan::Dictionary);
        }
    }
}
