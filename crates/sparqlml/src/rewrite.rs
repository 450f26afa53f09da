//! The SPARQL-ML query re-writer (paper §IV.B.3, Figs. 11/12).
//!
//! Describes a SPARQL-ML SELECT as one inference step (model and plan) per
//! user-defined predicate, plus a candidate plain-SPARQL rendering with the
//! `sql:UDFS.*` call each step makes — the textual form the paper shows.

use kgnet_gmlaas::TaskKind;
use kgnet_rdf::sparql::{Projection, ProjectionItem};

use crate::opt::RewritePlan;
use crate::parser::{SparqlMlQuery, UdPredicate};

/// One inference step of the rewritten query.
#[derive(Debug, Clone)]
pub struct InferenceStep {
    /// The predicate being evaluated.
    pub ud: UdPredicate,
    /// The model chosen by the optimizer.
    pub model_uri: String,
    /// The chosen plan.
    pub plan: RewritePlan,
}

/// A rewritten SPARQL-ML query.
#[derive(Debug, Clone)]
pub struct RewrittenQuery {
    /// Inference steps, joined in order after the data query's patterns.
    pub steps: Vec<InferenceStep>,
    /// Candidate plain-SPARQL rendering (Figs. 11/12 style), for logging
    /// and endpoint submission.
    pub sparql: String,
}

/// Build the rewritten query from a parsed ML query, the chosen model per
/// predicate and the chosen plan per predicate.
pub fn rewrite(query: &SparqlMlQuery, models: &[String], plans: &[RewritePlan]) -> RewrittenQuery {
    assert_eq!(models.len(), query.ud_predicates.len(), "one model per predicate");
    assert_eq!(plans.len(), query.ud_predicates.len(), "one plan per predicate");
    let steps: Vec<InferenceStep> = query
        .ud_predicates
        .iter()
        .zip(models.iter().zip(plans))
        .map(|(ud, (m, &plan))| InferenceStep { ud: ud.clone(), model_uri: m.clone(), plan })
        .collect();
    let sparql = render(query, &steps);
    RewrittenQuery { steps, sparql }
}

/// Render the candidate SPARQL text (the Fig. 11 / Fig. 12 shapes).
fn render(query: &SparqlMlQuery, steps: &[InferenceStep]) -> String {
    let mut out = String::from("SELECT");
    let projected: Vec<String> = match &query.base.projection {
        Projection::All => query.base.output_vars(),
        Projection::Items(items) => items
            .iter()
            .map(|i| match i {
                ProjectionItem::Var(v) => v.clone(),
                ProjectionItem::Agg { alias, .. } => alias.clone(),
            })
            .collect(),
    };
    let inferred: Vec<&str> = steps.iter().map(|s| s.ud.object_var.as_str()).collect();
    for v in &projected {
        if inferred.contains(&v.as_str()) {
            continue; // rendered as a UDF projection below
        }
        out.push_str(&format!(" ?{v}"));
    }
    use {RewritePlan as P, TaskKind as T};
    for step in steps {
        let (model, subject, k) = (&step.model_uri, &step.ud.subject, step.ud.topk);
        let object = &step.ud.object_var;
        let call = match (step.ud.task_kind, step.plan) {
            (T::NodeClassifier | T::LinkPredictor, P::Dictionary) => {
                format!("getKeyValue(?{object}_dic, {subject})")
            }
            (T::NodeClassifier, P::PerBinding) => format!("getNodeClass(<{model}>, {subject})"),
            (T::LinkPredictor, P::PerBinding) => format!("getTopkLinks(<{model}>, {subject}, {k})"),
            (T::NodeSimilarity, _) => format!("getSimilarNodes(<{model}>, {subject}, {k})"),
        };
        out.push_str(&format!("\n  sql:UDFS.{call} as ?{object}"));
    }
    out.push_str("\nWHERE {\n");
    for tp in &query.base.pattern.triples {
        out.push_str(&format!("  {tp}\n"));
    }
    for step in steps {
        let (model, object, k) = (&step.model_uri, &step.ud.object_var, step.ud.topk);
        let dictionary = match (step.ud.task_kind, step.plan) {
            (T::NodeClassifier, P::Dictionary) => format!("getNodeClassDict(<{model}>)"),
            (T::LinkPredictor, P::Dictionary) => format!("getAllTopkLinks(<{model}>, {k})"),
            _ => continue,
        };
        out.push_str(&format!(
            "  {{ SELECT sql:UDFS.{dictionary} as ?{object}_dic WHERE {{ }} }}\n"
        ));
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse, SparqlMlOperation};

    fn fig2_query() -> SparqlMlQuery {
        let op = parse(
            r#"
            PREFIX dblp: <https://www.dblp.org/>
            PREFIX kgnet: <https://www.kgnet.com/>
            SELECT ?title ?venue WHERE {
              ?paper a dblp:Publication .
              ?paper dblp:title ?title .
              ?paper ?NodeClassifier ?venue .
              ?NodeClassifier a kgnet:NodeClassifier .
              ?NodeClassifier kgnet:TargetNode dblp:Publication .
              ?NodeClassifier kgnet:NodeLabel dblp:venue . }"#,
        )
        .unwrap();
        match op {
            SparqlMlOperation::Select(q) => q,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn per_binding_renders_fig11_shape() {
        let q = fig2_query();
        let rw =
            rewrite(&q, &["https://www.kgnet.com/model/nc/m1".into()], &[RewritePlan::PerBinding]);
        assert!(rw.sparql.contains(
            "sql:UDFS.getNodeClass(<https://www.kgnet.com/model/nc/m1>, ?paper) as ?venue"
        ));
        assert!(!rw.sparql.contains("getKeyValue"));
        assert_eq!(rw.steps.len(), 1);
    }

    #[test]
    fn dictionary_renders_fig12_shape() {
        let q = fig2_query();
        let rw =
            rewrite(&q, &["https://www.kgnet.com/model/nc/m1".into()], &[RewritePlan::Dictionary]);
        assert!(rw.sparql.contains("sql:UDFS.getKeyValue(?venue_dic, ?paper) as ?venue"));
        assert!(rw.sparql.contains("getNodeClassDict"));
        assert!(rw.sparql.contains("{ SELECT"));
    }
}
