//! RDF terms: IRIs, literals and blank nodes.

use std::fmt;

/// Common XSD datatype IRIs.
pub mod xsd {
    /// `xsd:integer`.
    pub const INTEGER: &str = "http://www.w3.org/2001/XMLSchema#integer";
    /// `xsd:double`.
    pub const DOUBLE: &str = "http://www.w3.org/2001/XMLSchema#double";
    /// `xsd:string`.
    pub const STRING: &str = "http://www.w3.org/2001/XMLSchema#string";
    /// `xsd:boolean`.
    pub const BOOLEAN: &str = "http://www.w3.org/2001/XMLSchema#boolean";
}

/// The `rdf:type` predicate IRI (`a` in SPARQL/Turtle).
pub const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";

/// An RDF term.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// An IRI reference.
    Iri(String),
    /// A literal with optional datatype and language tag.
    Literal {
        /// The lexical form.
        lexical: String,
        /// Datatype IRI, when typed.
        datatype: Option<String>,
        /// Language tag, when tagged.
        lang: Option<String>,
    },
    /// A blank node with a local label.
    Blank(String),
}

impl Term {
    /// IRI constructor.
    pub fn iri(value: impl Into<String>) -> Self {
        Term::Iri(value.into())
    }

    /// Plain string literal constructor.
    pub fn str(value: impl Into<String>) -> Self {
        Term::Literal { lexical: value.into(), datatype: None, lang: None }
    }

    /// `xsd:integer` literal constructor.
    pub fn int(value: i64) -> Self {
        Term::Literal {
            lexical: value.to_string(),
            datatype: Some(xsd::INTEGER.to_owned()),
            lang: None,
        }
    }

    /// `xsd:double` literal constructor.
    pub fn double(value: f64) -> Self {
        Term::Literal {
            lexical: value.to_string(),
            datatype: Some(xsd::DOUBLE.to_owned()),
            lang: None,
        }
    }

    /// Blank node constructor.
    pub fn blank(label: impl Into<String>) -> Self {
        Term::Blank(label.into())
    }

    /// The IRI string, when this term is an IRI.
    pub fn as_iri(&self) -> Option<&str> {
        match self {
            Term::Iri(v) => Some(v),
            _ => None,
        }
    }

    /// The lexical form, when this term is a literal.
    pub fn as_literal(&self) -> Option<&str> {
        match self {
            Term::Literal { lexical, .. } => Some(lexical),
            _ => None,
        }
    }

    /// Parse the literal as an integer, when possible.
    pub fn as_int(&self) -> Option<i64> {
        self.as_literal()?.parse().ok()
    }

    /// Parse the literal as a double, when possible.
    pub fn as_f64(&self) -> Option<f64> {
        self.as_literal()?.parse().ok()
    }

    /// True for IRI terms.
    pub fn is_iri(&self) -> bool {
        matches!(self, Term::Iri(_))
    }

    /// True for literal terms.
    pub fn is_literal(&self) -> bool {
        matches!(self, Term::Literal { .. })
    }

    /// True for blank nodes.
    pub fn is_blank(&self) -> bool {
        matches!(self, Term::Blank(_))
    }

    /// Numeric interpretation used by SPARQL comparison operators.
    pub fn numeric(&self) -> Option<f64> {
        match self {
            Term::Literal { lexical, .. } => lexical.parse().ok(),
            _ => None,
        }
    }

    /// The N-Triples rendering, emitted as `&str` pieces to `push`: `<`,
    /// the IRI and `>`; a literal's quotes around its escaped runs (`"`,
    /// `\`, newline, carriage return and tab are backslash-escaped), then
    /// its `@lang` or `^^<datatype>` suffix; `_:` and a blank label. The
    /// one rendering of terms: [`Display`](fmt::Display) writes these
    /// pieces to a formatter, and a JSON writer can escape them straight
    /// into its buffer without building the term's string.
    pub fn render(&self, mut push: impl FnMut(&str)) {
        match self {
            Term::Iri(v) => {
                push("<");
                push(v);
                push(">");
            }
            Term::Literal { lexical, datatype, lang } => {
                push("\"");
                let mut run = 0;
                for (i, b) in lexical.bytes().enumerate() {
                    let escaped = match b {
                        b'"' => "\\\"",
                        b'\\' => "\\\\",
                        b'\n' => "\\n",
                        b'\r' => "\\r",
                        b'\t' => "\\t",
                        _ => continue,
                    };
                    push(&lexical[run..i]);
                    push(escaped);
                    run = i + 1;
                }
                push(&lexical[run..]);
                push("\"");
                if let Some(l) = lang {
                    push("@");
                    push(l);
                } else if let Some(dt) = datatype {
                    push("^^<");
                    push(dt);
                    push(">");
                }
            }
            Term::Blank(label) => {
                push("_:");
                push(label);
            }
        }
    }
}

impl fmt::Display for Term {
    /// N-Triples rendering (see [`Term::render`]).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut result = Ok(());
        self.render(|piece| {
            if result.is_ok() {
                result = f.write_str(piece);
            }
        });
        result
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Undo the literal escaping of [`Term::render`] (the N-Triples parser's
/// half of the round trip).
pub fn unescape_literal(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(ch) = chars.next() {
        if ch == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some(other) => out.push(other),
                None => out.push('\\'),
            }
        } else {
            out.push(ch);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        assert_eq!(Term::iri("http://x/a").as_iri(), Some("http://x/a"));
        assert_eq!(Term::int(42).as_int(), Some(42));
        assert_eq!(Term::double(1.5).as_f64(), Some(1.5));
        assert_eq!(Term::str("hi").as_literal(), Some("hi"));
        assert!(Term::blank("b0").is_blank());
    }

    #[test]
    fn display_ntriples_forms() {
        assert_eq!(Term::iri("http://x/a").to_string(), "<http://x/a>");
        assert_eq!(Term::str("hi").to_string(), "\"hi\"");
        assert_eq!(Term::int(7).to_string(), "\"7\"^^<http://www.w3.org/2001/XMLSchema#integer>");
        assert_eq!(Term::blank("b1").to_string(), "_:b1");
    }

    #[test]
    fn escape_roundtrip() {
        let nasty = "line1\nline2\t\"quoted\" \\slash\r";
        let rendered = Term::str(nasty).to_string();
        assert_eq!(rendered, "\"line1\\nline2\\t\\\"quoted\\\" \\\\slash\\r\"");
        assert_eq!(unescape_literal(&rendered[1..rendered.len() - 1]), nasty);
    }

    #[test]
    fn numeric_comparisons() {
        assert_eq!(Term::int(3).numeric(), Some(3.0));
        assert_eq!(Term::str("2.5").numeric(), Some(2.5));
        assert_eq!(Term::iri("x").numeric(), None);
    }
}
