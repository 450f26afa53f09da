//! Optimal GML method selection under a task budget (Fig. 6, "Optimal GML
//! Method Selection").
//!
//! The paper states the choice as a 0/1 integer program: one binary per
//! method, exactly one chosen, memory/time rows bound by the budget,
//! objective set by the budget priority. With exactly one method chosen,
//! each row bounds that method alone, so the program's optimum is the
//! feasible method with the best priority key; [`select_method`] computes
//! it in that closed form.

use kgnet_gml::config::GmlMethodKind;
use kgnet_gml::estimate::{estimate, GraphDims, ResourceEstimate};
use kgnet_gml::GnnConfig;

use crate::budget::{Priority, TaskBudget};

/// Select the near-optimal method for a problem under a budget: among the
/// `methods` whose estimate fits every cap of `budget`, the one with the
/// most expected quality, the least time or the least memory, as its
/// priority asks. Ties go to the earlier entry of `methods`. `None` when
/// no method fits.
pub fn select_method(
    methods: &[GmlMethodKind],
    dims: &GraphDims,
    cfg: &GnnConfig,
    budget: &TaskBudget,
) -> Option<GmlMethodKind> {
    best_fit(methods.iter().map(|&method| (method, estimate(method, dims, cfg))), budget)
}

/// The feasible candidate with the best key on the budget's priority, the
/// earliest among equals.
fn best_fit(
    candidates: impl IntoIterator<Item = (GmlMethodKind, ResourceEstimate)>,
    budget: &TaskBudget,
) -> Option<GmlMethodKind> {
    let fits = |e: &ResourceEstimate| {
        budget.max_memory_bytes.is_none_or(|cap| e.memory_bytes <= cap)
            && budget.max_time_s.is_none_or(|cap| e.time_s <= cap)
    };
    let beats = |a: &ResourceEstimate, b: &ResourceEstimate| match budget.priority {
        Priority::ModelScore => a.expected_quality > b.expected_quality,
        Priority::TrainingTime => a.time_s < b.time_s,
        Priority::Memory => a.memory_bytes < b.memory_bytes,
    };
    let best = candidates.into_iter().filter(|(_, e)| fits(e)).reduce(|best, next| {
        if beats(&next.1, &best.1) {
            next
        } else {
            best
        }
    });
    best.map(|(method, _)| method)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dims() -> GraphDims {
        GraphDims {
            n_nodes: 20_000,
            n_edges: 120_000,
            n_relations: 48,
            n_targets: 6_000,
            n_classes: 50,
        }
    }

    #[test]
    fn unlimited_budget_prefers_highest_quality() {
        let chosen = select_method(
            &GmlMethodKind::NC_METHODS,
            &dims(),
            &GnnConfig::default(),
            &TaskBudget::unlimited(),
        );
        // ShadowSaint carries the highest quality prior.
        assert_eq!(chosen, Some(GmlMethodKind::ShadowSaint));
    }

    #[test]
    fn tight_memory_budget_excludes_full_batch() {
        let cfg = GnnConfig::default();
        let rgcn_mem = estimate(GmlMethodKind::Rgcn, &dims(), &cfg).memory_bytes;
        let budget = TaskBudget::with_memory(rgcn_mem / 2);
        let chosen = select_method(&GmlMethodKind::NC_METHODS, &dims(), &cfg, &budget);
        assert_ne!(chosen, Some(GmlMethodKind::Rgcn));
        assert!(chosen.is_some(), "a sampled method should fit");
        assert_eq!(select_method(&[GmlMethodKind::Rgcn], &dims(), &cfg, &budget), None);
    }

    #[test]
    fn impossible_budget_selects_nothing() {
        let budget = TaskBudget::with_memory(16);
        let chosen =
            select_method(&GmlMethodKind::NC_METHODS, &dims(), &GnnConfig::default(), &budget);
        assert_eq!(chosen, None);
    }

    #[test]
    fn time_priority_picks_fastest() {
        let cfg = GnnConfig::default();
        let budget = TaskBudget { priority: Priority::TrainingTime, ..Default::default() };
        let chosen = select_method(&GmlMethodKind::NC_METHODS, &dims(), &cfg, &budget).unwrap();
        let fastest = GmlMethodKind::NC_METHODS
            .into_iter()
            .min_by(|&a, &b| {
                let time = |m| estimate(m, &dims(), &cfg).time_s;
                time(a).partial_cmp(&time(b)).unwrap()
            })
            .unwrap();
        assert_eq!(chosen, fastest);
    }

    fn candidate(
        method: GmlMethodKind,
        memory_bytes: usize,
        time_s: f64,
        expected_quality: f64,
    ) -> (GmlMethodKind, ResourceEstimate) {
        (method, ResourceEstimate { memory_bytes, time_s, expected_quality })
    }

    #[test]
    fn ties_go_to_the_earlier_method() {
        let (a, b) = (GmlMethodKind::Gcn, GmlMethodKind::Rgcn);
        for priority in [Priority::ModelScore, Priority::TrainingTime, Priority::Memory] {
            let budget = TaskBudget { priority, ..Default::default() };
            let tied = [candidate(a, 100, 2.0, 0.8), candidate(b, 100, 2.0, 0.8)];
            assert_eq!(best_fit(tied, &budget), Some(a), "{priority:?}");
            let swapped = [tied[1], tied[0]];
            assert_eq!(best_fit(swapped, &budget), Some(b), "{priority:?}");
        }
    }

    #[test]
    fn an_estimate_exactly_at_a_cap_fits() {
        let (a, b) = (GmlMethodKind::Gcn, GmlMethodKind::Rgcn);
        // The more accurate method sits exactly on both caps.
        let candidates = [candidate(a, 100, 2.0, 0.7), candidate(b, 200, 4.0, 0.9)];
        let at_caps =
            TaskBudget { max_memory_bytes: Some(200), max_time_s: Some(4.0), ..Default::default() };
        assert_eq!(best_fit(candidates, &at_caps), Some(b));
        let memory_below = TaskBudget { max_memory_bytes: Some(199), ..at_caps };
        assert_eq!(best_fit(candidates, &memory_below), Some(a));
        let time_below = TaskBudget { max_time_s: Some(3.999), ..at_caps };
        assert_eq!(best_fit(candidates, &time_below), Some(a));
    }
}
