//! The JSON encodings of this crate, on `kgnet_obs`'s one codec: the
//! model-artifact metadata that [`ModelStore::save_dir`] writes and
//! [`ModelStore::load_dir`] reads, and the pieces the inference boundary's
//! wire sizes share with it.
//!
//! Enum values are written by variant name and objects list their fields
//! in declaration order; a float is its `{:?}` form, or `null` when it is
//! not finite, and `null` reads back as NaN.
//!
//! [`ModelStore::save_dir`]: crate::ModelStore::save_dir
//! [`ModelStore::load_dir`]: crate::ModelStore::load_dir

use std::collections::HashMap;
use std::fmt::Debug;
use std::sync::Arc;

use kgnet_gml::config::{GmlMethodKind, TrainReport};
use kgnet_obs::json::{self, Value};
use kgnet_obs::{push_json_f64, push_json_string, JsonSink};

use crate::embedding_store::{EmbeddingStore, Metric};
use crate::model_store::{ArtifactPayload, ModelArtifact, TaskKind};

/// Start the next member of an object: `,"key":`.
pub(crate) fn push_key<S: JsonSink>(out: &mut S, key: &str) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
}

/// `{"<tag_key>":"<tag>"` — the start of an internally tagged object.
pub(crate) fn push_tag<S: JsonSink>(out: &mut S, tag_key: &str, tag: &str) {
    out.push_str("{\"");
    out.push_str(tag_key);
    out.push_str("\":");
    push_json_string(out, tag);
}

/// A JSON object with one member per entry, in iteration order.
pub(crate) fn push_map<'a, S: JsonSink, V: 'a>(
    out: &mut S,
    entries: impl Iterator<Item = (&'a String, V)>,
    mut value: impl FnMut(&mut S, V),
) {
    out.push_str("{");
    for (i, (key, v)) in entries.enumerate() {
        if i > 0 {
            out.push_str(",");
        }
        push_json_string(out, key);
        out.push_str(":");
        value(out, v);
    }
    out.push_str("}");
}

/// Ranked `(entity, score)` pairs as `[["entity",score],...]`.
pub(crate) fn push_links<S: JsonSink>(out: &mut S, links: &[(String, f32)]) {
    out.push_str("[");
    for (i, (entity, score)) in links.iter().enumerate() {
        out.push_str(if i > 0 { ",[" } else { "[" });
        push_json_string(out, entity);
        out.push_str(",");
        push_json_f64(out, f64::from(*score));
        out.push_str("]");
    }
    out.push_str("]");
}

fn push_name<S: JsonSink>(out: &mut S, variant: impl Debug) {
    out.push_fmt(format_args!("\"{variant:?}\""));
}

/// `map`'s entries in key order, so the written file is deterministic.
fn sorted<V>(map: &HashMap<String, V>) -> Vec<(&String, &V)> {
    let mut entries: Vec<_> = map.iter().collect();
    entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
    entries
}

/// The metadata JSON of `a`. A NodeSimilarity payload records only its
/// width, metric and vector count: the vectors live in the `.ann` sidecar.
pub(crate) fn write_artifact(a: &ModelArtifact) -> String {
    let mut out = String::from("{\"uri\":");
    push_json_string(&mut out, &a.uri);
    push_key(&mut out, "task_kind");
    push_name(&mut out, a.task_kind);
    for (key, text) in [("target_type", &a.target_type), ("label_predicate", &a.label_predicate)] {
        push_key(&mut out, key);
        push_json_string(&mut out, text);
    }
    push_key(&mut out, "destination_type");
    match &a.destination_type {
        Some(d) => push_json_string(&mut out, d),
        None => out.push_str("null"),
    }
    push_key(&mut out, "method");
    push_name(&mut out, a.method);
    push_key(&mut out, "report");
    let r = &a.report;
    out.push_str("{\"method\":");
    push_name(&mut out, r.method);
    push_key(&mut out, "train_time_s");
    push_json_f64(&mut out, r.train_time_s);
    push_key(&mut out, "peak_mem_bytes");
    out.push_fmt(format_args!("{}", r.peak_mem_bytes));
    for (key, v) in
        [("test_metric", r.test_metric), ("valid_metric", r.valid_metric), ("mrr", r.mrr)]
    {
        push_key(&mut out, key);
        push_json_f64(&mut out, v);
    }
    push_key(&mut out, "loss_curve");
    out.push('[');
    for (i, &loss) in r.loss_curve.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_f64(&mut out, f64::from(loss));
    }
    out.push_fmt(format_args!("],\"n_nodes\":{},\"n_edges\":{}", r.n_nodes, r.n_edges));
    push_key(&mut out, "inference_time_ms");
    push_json_f64(&mut out, r.inference_time_ms);
    out.push('}');
    push_key(&mut out, "sampler");
    push_json_string(&mut out, &a.sampler);
    out.push_fmt(format_args!(
        ",\"cardinality\":{},\"trained_generation\":{},\"payload\":",
        a.cardinality, a.trained_generation
    ));
    write_payload(&mut out, &a.payload);
    out.push('}');
    out
}

/// The payload as `{"<variant>":{...}}`.
fn write_payload(out: &mut String, payload: &ArtifactPayload) {
    match payload {
        ArtifactPayload::NodeClassifier { predictions } => {
            out.push_str("{\"NodeClassifier\":{\"predictions\":");
            push_map(out, sorted(predictions).into_iter(), |out, class| {
                push_json_string(out, class)
            });
        }
        ArtifactPayload::LinkPredictor { topk } => {
            out.push_str("{\"LinkPredictor\":{\"topk\":");
            push_map(out, sorted(topk).into_iter(), |out, links| push_links(out, links));
        }
        ArtifactPayload::NodeSimilarity { store } => {
            out.push_fmt(format_args!(
                "{{\"NodeSimilarity\":{{\"dim\":{},\"metric\":",
                store.dim()
            ));
            push_name(out, store.metric());
            out.push_fmt(format_args!(",\"vectors\":{}", store.len()));
        }
    }
    out.push_str("}}");
}

fn member<'v>(v: &'v Value, key: &str) -> Result<&'v Value, String> {
    v.get(key).ok_or_else(|| format!("missing `{key}`"))
}

fn string(v: &Value, key: &str) -> Result<String, String> {
    let s = member(v, key)?.as_str().ok_or_else(|| format!("`{key}` is not a string"))?;
    Ok(s.to_owned())
}

fn count(v: &Value, key: &str) -> Result<usize, String> {
    member(v, key)?
        .as_u64()
        .and_then(|n| usize::try_from(n).ok())
        .ok_or_else(|| format!("`{key}` is not a count"))
}

/// A float; `null` (how a non-finite one is written) reads as NaN.
fn float_of(v: &Value) -> Result<f64, String> {
    match v {
        Value::Null => Ok(f64::NAN),
        _ => v.as_f64().ok_or_else(|| format!("expected a float, got {v:?}")),
    }
}

fn float(v: &Value, key: &str) -> Result<f64, String> {
    float_of(member(v, key)?)
}

fn named<T: Debug + Copy>(v: &Value, key: &str, variants: &[T]) -> Result<T, String> {
    let name = member(v, key)?.as_str();
    let found = variants.iter().find(|t| name == Some(format!("{t:?}").as_str()));
    found.copied().ok_or_else(|| format!("`{key}` is not one of {variants:?}"))
}

fn method(v: &Value) -> Result<GmlMethodKind, String> {
    let all: Vec<_> =
        GmlMethodKind::NC_METHODS.into_iter().chain(GmlMethodKind::LP_METHODS).collect();
    named(v, "method", &all)
}

/// Read what [`write_artifact`] wrote. Returns the artifact and the number
/// of vectors its `.ann` sidecar must hold; a NodeSimilarity payload comes
/// back as an empty store of the recorded width and metric.
pub(crate) fn read_artifact(text: &str) -> Result<(ModelArtifact, usize), String> {
    let v = json::parse(text, |_| None)?;
    let r = member(&v, "report")?;
    let loss_curve = member(r, "loss_curve")?.as_array().ok_or("`loss_curve` is not an array")?;
    let loss_curve = loss_curve.iter().map(|x| float_of(x).map(|f| f as f32));
    let report = TrainReport {
        method: method(r)?,
        train_time_s: float(r, "train_time_s")?,
        peak_mem_bytes: count(r, "peak_mem_bytes")?,
        test_metric: float(r, "test_metric")?,
        valid_metric: float(r, "valid_metric")?,
        mrr: float(r, "mrr")?,
        loss_curve: loss_curve.collect::<Result<_, _>>()?,
        n_nodes: count(r, "n_nodes")?,
        n_edges: count(r, "n_edges")?,
        inference_time_ms: float(r, "inference_time_ms")?,
    };
    let destination_type = match member(&v, "destination_type")? {
        Value::Null => None,
        _ => Some(string(&v, "destination_type")?),
    };
    let (payload, vectors) = read_payload(member(&v, "payload")?)?;
    let artifact = ModelArtifact {
        uri: string(&v, "uri")?,
        task_kind: named(
            &v,
            "task_kind",
            &[TaskKind::NodeClassifier, TaskKind::LinkPredictor, TaskKind::NodeSimilarity],
        )?,
        target_type: string(&v, "target_type")?,
        label_predicate: string(&v, "label_predicate")?,
        destination_type,
        method: method(&v)?,
        report,
        sampler: string(&v, "sampler")?,
        cardinality: count(&v, "cardinality")?,
        trained_generation: count(&v, "trained_generation")? as u64,
        payload,
    };
    Ok((artifact, vectors))
}

fn read_payload(v: &Value) -> Result<(ArtifactPayload, usize), String> {
    let [(variant, body)] = v.as_object().unwrap_or_default() else {
        return Err("`payload` is not a one-variant object".into());
    };
    Ok(match variant.as_str() {
        "NodeClassifier" => {
            let entries = member(body, "predictions")?.as_object().ok_or("bad `predictions`")?;
            let predictions = entries
                .iter()
                .map(|(node, class)| Ok((node.clone(), class.as_str().ok_or("bad class")?.into())))
                .collect::<Result<_, String>>()?;
            (ArtifactPayload::NodeClassifier { predictions: Arc::new(predictions) }, 0)
        }
        "LinkPredictor" => {
            let entries = member(body, "topk")?.as_object().ok_or("bad `topk`")?;
            let topk = entries
                .iter()
                .map(|(source, links)| Ok((source.clone(), read_links(links)?)))
                .collect::<Result<_, String>>()?;
            (ArtifactPayload::LinkPredictor { topk }, 0)
        }
        "NodeSimilarity" => {
            let metric = named(body, "metric", &[Metric::L2, Metric::Cosine, Metric::Dot])?;
            let store = EmbeddingStore::new(count(body, "dim")?, metric);
            (ArtifactPayload::NodeSimilarity { store }, count(body, "vectors")?)
        }
        other => return Err(format!("unknown payload `{other}`")),
    })
}

fn read_links(v: &Value) -> Result<Vec<(String, f32)>, String> {
    let pairs = v.as_array().ok_or("links are not an array")?;
    pairs
        .iter()
        .map(|pair| match pair.as_array() {
            Some([Value::String(entity), score]) => Ok((entity.clone(), float_of(score)? as f32)),
            _ => Err(format!("expected an [entity, score] pair, got {pair:?}")),
        })
        .collect()
}
