//! Structural validation of a Prometheus text exposition.
//!
//! One parser shared by every consumer that gates on the exposition
//! format: the `kgnet-http` integration tests validate the body scraped
//! over the frontend with it and check the metric catalog against the
//! kinds it returns. The checks are structural, not value-level: every
//! sample needs a preceding `# TYPE` of a known kind, histogram buckets
//! must be cumulative, and the `+Inf` bucket must agree with `_count`.

use std::collections::HashMap;

/// Parse and structurally validate a Prometheus text exposition. Returns
/// the declared `# TYPE` kinds by metric name, or every violation found.
pub fn validate_prometheus(text: &str) -> Result<HashMap<String, String>, Vec<String>> {
    let mut kinds: HashMap<String, String> = HashMap::new();
    let mut errors = Vec::new();
    // Histogram bookkeeping: cumulative bucket counts must be
    // non-decreasing and the +Inf bucket must equal `_count`.
    let mut last_bucket: HashMap<String, u64> = HashMap::new();
    let mut inf_bucket: HashMap<String, u64> = HashMap::new();
    let mut hist_count: HashMap<String, u64> = HashMap::new();

    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            match (it.next(), it.next()) {
                (Some(name), Some(kind)) if ["counter", "gauge", "histogram"].contains(&kind) => {
                    if kinds.insert(name.to_owned(), kind.to_owned()).is_some() {
                        errors.push(format!("line {lineno}: duplicate TYPE for {name}"));
                    }
                }
                _ => errors.push(format!("line {lineno}: malformed TYPE line: {line}")),
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        // Sample line: `name value` or `name{labels} value`.
        let Some((series, value)) = line.rsplit_once(' ') else {
            errors.push(format!("line {lineno}: sample without value: {line}"));
            continue;
        };
        if value.parse::<f64>().is_err() {
            errors.push(format!("line {lineno}: non-numeric value {value:?}"));
            continue;
        }
        let name = series.split('{').next().unwrap_or(series);
        let base = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|b| kinds.get(*b).map(String::as_str) == Some("histogram"));
        let declared = base.unwrap_or(name);
        if !kinds.contains_key(declared) {
            errors.push(format!("line {lineno}: sample {name} has no preceding TYPE"));
            continue;
        }
        if let Some(base) = base {
            if name.ends_with("_bucket") {
                let count: u64 = match value.parse() {
                    Ok(c) => c,
                    Err(_) => {
                        errors.push(format!("line {lineno}: non-integer bucket count {value:?}"));
                        continue;
                    }
                };
                let prev = last_bucket.insert(base.to_owned(), count).unwrap_or(0);
                if count < prev {
                    errors.push(format!(
                        "line {lineno}: {base} cumulative buckets decreased ({prev} -> {count})"
                    ));
                }
                if series.contains("le=\"+Inf\"") {
                    inf_bucket.insert(base.to_owned(), count);
                }
            } else if name.ends_with("_count") {
                hist_count.insert(base.to_owned(), value.parse().unwrap_or(u64::MAX));
            }
        }
    }
    for (name, kind) in &kinds {
        if kind == "histogram" {
            match (inf_bucket.get(name), hist_count.get(name)) {
                (Some(inf), Some(count)) if inf != count => errors
                    .push(format!("{name}: +Inf bucket {inf} disagrees with {name}_count {count}")),
                (None, _) => errors.push(format!("{name}: histogram without a +Inf bucket")),
                (_, None) => errors.push(format!("{name}: histogram without a _count sample")),
                _ => {}
            }
        }
    }
    if errors.is_empty() {
        Ok(kinds)
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn registry_render_passes_validation() {
        let r = Registry::new();
        r.counter("a_total", "a").add(3);
        r.gauge("depth", "d").set(-1);
        let h = r.histogram("lat_nanos", "l");
        h.record(5);
        h.record(500);
        let kinds = validate_prometheus(&r.render_prometheus()).expect("valid exposition");
        assert_eq!(kinds.get("a_total").map(String::as_str), Some("counter"));
        assert_eq!(kinds.get("lat_nanos").map(String::as_str), Some("histogram"));
    }

    #[test]
    fn violations_are_reported_line_by_line() {
        let bad = "# TYPE x counter\nx not-a-number\ny_orphan 3\n";
        let errors = validate_prometheus(bad).unwrap_err();
        assert_eq!(errors.len(), 2, "{errors:?}");
        assert!(errors[0].contains("non-numeric"));
        assert!(errors[1].contains("no preceding TYPE"));
    }

    #[test]
    fn histogram_invariants_are_enforced() {
        let decreasing = "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\n\
                          h_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 5\n";
        let errors = validate_prometheus(decreasing).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("cumulative buckets decreased")), "{errors:?}");

        let disagreeing = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 4\nh_sum 9\nh_count 5\n";
        let errors = validate_prometheus(disagreeing).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("disagrees")), "{errors:?}");

        let no_inf = "# TYPE h histogram\nh_sum 9\nh_count 5\n";
        let errors = validate_prometheus(no_inf).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("without a +Inf bucket")), "{errors:?}");
    }
}
