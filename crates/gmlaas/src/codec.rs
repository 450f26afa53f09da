//! The JSON pieces the inference boundary's wire sizes share, on
//! `kgnet_obs`'s one codec: object members, tagged objects, maps and
//! ranked link lists, written into any [`JsonSink`] so `service.rs` can
//! count a response's length without building it.

use kgnet_obs::{push_json_f64, push_json_string, JsonSink};

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
