//! The metric [`Registry`]: a named catalog of counters, gauges and
//! histograms, with Prometheus-text and JSON exporters.
//!
//! Registration is get-or-create and happens once per metric at
//! subsystem construction time; the returned `Arc` handles are what hot
//! paths record through, so the registry's lock is never on a hot path.
//! Renders walk the catalog in registration order, which makes the output
//! stable across runs — the catalog checks in the server and HTTP
//! integration tests rely on that.

use kgnet_sync::{Arc, RwLock};

use crate::metrics::{Counter, Gauge, Histogram};

enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

struct Entry {
    name: String,
    help: String,
    instrument: Instrument,
}

/// A registry of named metrics. Cheap to share (`Arc<Registry>`), cheap to
/// read handles out of, and renderable as Prometheus text or JSON.
#[derive(Default)]
pub struct Registry {
    entries: RwLock<Vec<Entry>>,
}

impl Registry {
    /// New empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get or register the counter `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different kind.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.get_or_insert(
            name,
            help,
            || Instrument::Counter(Arc::new(Counter::new())),
            |e| match e {
                Instrument::Counter(c) => Some(c.clone()),
                _ => None,
            },
        )
    }

    /// Get or register the gauge `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.get_or_insert(
            name,
            help,
            || Instrument::Gauge(Arc::new(Gauge::new())),
            |e| match e {
                Instrument::Gauge(g) => Some(g.clone()),
                _ => None,
            },
        )
    }

    /// Get or register the histogram `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different kind.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.get_or_insert(
            name,
            help,
            || Instrument::Histogram(Arc::new(Histogram::new())),
            |e| match e {
                Instrument::Histogram(h) => Some(h.clone()),
                _ => None,
            },
        )
    }

    fn get_or_insert<T>(
        &self,
        name: &str,
        help: &str,
        make: impl FnOnce() -> Instrument,
        as_kind: impl Fn(&Instrument) -> Option<T>,
    ) -> T {
        let mut entries = self.entries.write();
        if let Some(e) = entries.iter().find(|e| e.name == name) {
            return as_kind(&e.instrument).unwrap_or_else(|| {
                panic!("metric `{name}` already registered as a {}", e.instrument.kind())
            });
        }
        let instrument = make();
        let out = as_kind(&instrument).expect("freshly made instrument matches its own kind");
        entries.push(Entry { name: name.to_owned(), help: help.to_owned(), instrument });
        out
    }

    /// Registered metric names, in registration order.
    pub fn names(&self) -> Vec<String> {
        self.entries.read().iter().map(|e| e.name.clone()).collect()
    }

    /// Render every metric in the Prometheus text exposition format:
    /// `# HELP` / `# TYPE` headers, cumulative `_bucket{le="..."}` series
    /// plus `_sum`/`_count` for histograms. Only non-empty buckets are
    /// emitted (plus the mandatory `+Inf`), keeping the output compact.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for e in self.entries.read().iter() {
            let (name, help) = (&e.name, &e.help);
            match &e.instrument {
                Instrument::Counter(c) => {
                    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n"));
                    out.push_str(&format!("{name} {}\n", c.get()));
                }
                Instrument::Gauge(g) => {
                    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n"));
                    out.push_str(&format!("{name} {}\n", g.get()));
                }
                Instrument::Histogram(h) => {
                    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
                    let s = h.snapshot();
                    let mut cumulative = 0u64;
                    for (le, count) in s.nonzero_buckets() {
                        cumulative += count;
                        out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
                    }
                    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", s.count));
                    out.push_str(&format!("{name}_sum {}\n", s.sum));
                    out.push_str(&format!("{name}_count {}\n", s.count));
                }
            }
        }
        out
    }

    /// Render every metric as one JSON object. Counters and gauges map to
    /// numbers; histograms to `{count, sum, max, p50, p90, p99, mean}`.
    pub fn render_json(&self) -> String {
        let mut parts = Vec::new();
        for e in self.entries.read().iter() {
            let mut name = String::new();
            push_json_string(&mut name, &e.name);
            match &e.instrument {
                Instrument::Counter(c) => parts.push(format!("{name}: {}", c.get())),
                Instrument::Gauge(g) => parts.push(format!("{name}: {}", g.get())),
                Instrument::Histogram(h) => {
                    let s = h.snapshot();
                    parts.push(format!(
                        "{name}: {{\"count\": {}, \"sum\": {}, \"max\": {}, \"p50\": {}, \
                         \"p90\": {}, \"p99\": {}, \"mean\": {:.3}}}",
                        s.count,
                        s.sum,
                        s.max,
                        s.quantile(0.50),
                        s.quantile(0.90),
                        s.quantile(0.99),
                        s.mean(),
                    ));
                }
            }
        }
        format!("{{{}}}", parts.join(", "))
    }
}

/// Append `s` to `out` as a JSON string literal, quotes included — the
/// one escaper behind every hand-written JSON body (this exporter and the
/// HTTP frontend's endpoints).
pub fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    push_json_escaped(out, s);
    out.push('"');
}

/// Append `s` to `out` escaped for the inside of a JSON string literal
/// (no quotes): `"`, `\`, `\n`, `\r` and `\t` get their short escapes,
/// the other C0 controls `\u00xx`, and every run between them is copied
/// whole. Escaping works char by char, so escaping a string's pieces in
/// turn equals escaping their concatenation — a writer can stream a value
/// in pieces between its own quotes.
pub fn push_json_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if short.is_empty() {
            out.push_str("\\u00");
            out.push(HEX[usize::from(b >> 4)] as char);
            out.push(HEX[usize::from(b & 0xf)] as char);
        } else {
            out.push_str(short);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_the_same_instrument() {
        let r = Registry::new();
        let a = r.counter("hits_total", "hits");
        let b = r.counter("hits_total", "hits");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(r.names(), vec!["hits_total"]);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x", "");
        r.gauge("x", "");
    }

    #[test]
    fn prometheus_render_has_headers_and_cumulative_buckets() {
        let r = Registry::new();
        r.counter("reqs_total", "requests served").add(7);
        r.gauge("depth", "queue depth").set(-2);
        let h = r.histogram("lat_nanos", "latency");
        h.record(3);
        h.record(3);
        h.record(100);
        let text = r.render_prometheus();
        assert!(text.contains("# HELP reqs_total requests served\n"));
        assert!(text.contains("# TYPE reqs_total counter\nreqs_total 7\n"));
        assert!(text.contains("# TYPE depth gauge\ndepth -2\n"));
        assert!(text.contains("# TYPE lat_nanos histogram\n"));
        assert!(text.contains("lat_nanos_bucket{le=\"3\"} 2\n"));
        // The 100 bucket is cumulative over the 3s.
        assert!(text.contains("} 3\n"));
        assert!(text.contains("lat_nanos_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("lat_nanos_sum 106\n"));
        assert!(text.contains("lat_nanos_count 3\n"));
    }

    #[test]
    fn json_render_is_one_object() {
        let r = Registry::new();
        r.counter("a_total", "").inc();
        r.histogram("h_nanos", "").record(5);
        let json = r.render_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"a_total\": 1"));
        assert!(json.contains("\"count\": 1"));
        assert!(json.contains("\"p99\": 5"));
    }

    #[test]
    fn json_strings_are_escaped() {
        let mut out = String::new();
        push_json_string(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    /// The run-based escaper against a char-by-char reference, whole and
    /// split at every char boundary (pieces escape like their concatenation).
    #[test]
    fn escaped_runs_match_char_by_char_escaping_at_every_split() {
        fn reference(s: &str) -> String {
            let mut out = String::new();
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        let controls: String = (0u8..0x20).map(char::from).collect();
        for s in ["", "plain", "é\"ü\\ß\u{1f}x\u{7f}日本", controls.as_str()] {
            let mut whole = String::new();
            push_json_escaped(&mut whole, s);
            assert_eq!(whole, reference(s), "{s:?}");
            for (cut, _) in s.char_indices() {
                let mut pieces = String::new();
                push_json_escaped(&mut pieces, &s[..cut]);
                push_json_escaped(&mut pieces, &s[cut..]);
                assert_eq!(pieces, whole, "{s:?} cut at {cut}");
            }
        }
    }
}
