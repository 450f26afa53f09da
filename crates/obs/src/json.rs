//! The one JSON codec: [`parse`] into a small [`Value`] tree, and the
//! writers every hand-written body and wire-size count goes through.
//!
//! [`parse`] reads the relaxed dialect of the paper's
//! `kgnet.TrainGML({...})` (Fig. 8), a superset of JSON: besides plain
//! JSON it takes unquoted keys (inner single spaces allowed, as in
//! `Task Budget`), single-quoted strings, bare words (`ModelScore`;
//! `prefix:local` names are expanded through a prefix table the caller
//! passes in) and unit-suffixed values (`50GB`, `1h`), which stay strings.
//!
//! The writers append to any [`JsonSink`]: a `String`, or a [`ByteCount`]
//! that keeps only the length, so a wire size is counted by the same code
//! that would write the text, without building it.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number, kept as its source text so that integers of any
    /// width and floats read back exactly.
    Number(String),
    /// A string, escapes decoded.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object's members in source order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member `key` of an object (the last one, if the key repeats).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Any number as an `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        self.number()?.parse().ok()
    }

    /// The number as an `i64`, if it is written as an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        self.number()?.parse().ok()
    }

    /// The number as a `u64`, if it is written as a non-negative integer
    /// in range.
    pub fn as_u64(&self) -> Option<u64> {
        self.number()?.parse().ok()
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(members) => Some(members),
            _ => None,
        }
    }

    fn number(&self) -> Option<&str> {
        match self {
            Value::Number(text) => Some(text),
            _ => None,
        }
    }
}

/// Parse `input` in the relaxed dialect. `namespace` maps a prefix to
/// its namespace IRI, for expanding bare `prefix:local` words; a word
/// whose prefix it does not know stays verbatim (`|_| None` expands
/// nothing).
pub fn parse<'p>(
    input: &str,
    namespace: impl Fn(&str) -> Option<&'p str>,
) -> Result<Value, String> {
    let mut p = Parser { input, bytes: input.as_bytes(), pos: 0, depth: 0, namespace };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(v)
}

/// Containers nested deeper than this are rejected: the parser recurses
/// once per level, and a request body must not be able to exhaust the
/// stack of the thread serving it.
const MAX_DEPTH: usize = 128;

struct Parser<'a, F> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    namespace: F,
}

impl<'p, F: Fn(&str) -> Option<&'p str>> Parser<'_, F> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b'\t'..=b'\r' | b' ')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos));
                }
                self.depth += 1;
                let v = if open == b'{' { self.object() } else { self.array() };
                self.depth -= 1;
                v
            }
            Some(b'\'' | b'"') => Ok(Value::String(self.quoted()?)),
            Some(c) if c.is_ascii_digit() || c == b'-' => Ok(self.number_or_word()),
            Some(_) => self.bareword(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            let key = match self.peek() {
                Some(b'\'' | b'"') => self.quoted()?,
                _ => self.key_word()?,
            };
            self.skip_ws();
            self.expect(b':')?;
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    /// A `'...'` or `"..."` string. Runs between escapes are copied whole
    /// (the delimiters are ASCII, so a run ends on a char boundary), which
    /// keeps parsing linear in the input size.
    fn quoted(&mut self) -> Result<String, String> {
        let quote = self.bytes[self.pos];
        self.pos += 1;
        let mut out = String::new();
        loop {
            let run = self.pos;
            while self.peek().is_some_and(|b| b != quote && b != b'\\') {
                self.pos += 1;
            }
            out.push_str(&self.input[run..self.pos]);
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => {
                    self.pos += 1;
                    return Ok(out);
                }
            }
        }
    }

    /// The character of the escape after a `\`: JSON's `\" \\ \/ \b \f
    /// \n \r \t \uXXXX` (a surrogate pair as two `\u`s), plus the
    /// dialect's `\'`.
    fn escape(&mut self) -> Result<char, String> {
        let at = self.pos - 1;
        let b = self.peek().ok_or("unterminated string")?;
        self.pos += 1;
        Ok(match b {
            b'"' | b'\'' | b'\\' | b'/' => b as char,
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let unpaired = || format!("unpaired surrogate in the \\u escape at byte {at}");
                let high = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&high) {
                    if !self.bytes[self.pos..].starts_with(b"\\u") {
                        return Err(unpaired());
                    }
                    self.pos += 2;
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(unpaired());
                    }
                    0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
                } else {
                    high
                };
                // Only a lone low surrogate is not a scalar value here.
                char::from_u32(code).ok_or_else(unpaired)?
            }
            _ => return Err(format!("bad escape at byte {at}")),
        })
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .input
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| format!("expected 4 hex digits at byte {}", self.pos))?;
        self.pos += 4;
        Ok(u32::from_str_radix(hex, 16).expect("checked hex digits"))
    }

    /// A key: letters, digits, `_` and `-`, plus a single inner space when
    /// a word character follows (the paper writes `Task Budget`).
    fn key_word(&mut self) -> Result<String, String> {
        let start = self.pos;
        let word = |b: Option<u8>| b.is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_');
        loop {
            match self.peek() {
                Some(b'-') => self.pos += 1,
                Some(b' ') if word(self.bytes.get(self.pos + 1).copied()) => self.pos += 1,
                b if word(b) => self.pos += 1,
                _ => break,
            }
        }
        if self.pos == start {
            return Err(format!("expected key at byte {start}"));
        }
        Ok(self.input[start..self.pos].to_owned())
    }

    /// A number, possibly with a unit suffix (`50GB`, `1h`): a finite
    /// number is a number, anything else a string.
    fn number_or_word(&mut self) -> Value {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'-' | b'+'))
        {
            self.pos += 1;
        }
        let text = self.input[start..self.pos].to_owned();
        if text.parse::<f64>().is_ok_and(f64::is_finite) {
            Value::Number(text)
        } else {
            Value::String(text)
        }
    }

    /// Bare words: `true`/`false`/`null`, `prefix:local` (expanded), or a
    /// plain token kept as a string.
    fn bareword(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_alphanumeric() || b"_-:./#".contains(&b)) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("unexpected character at byte {start}"));
        }
        let word = &self.input[start..self.pos];
        Ok(match word {
            "true" => Value::Bool(true),
            "false" => Value::Bool(false),
            "null" => Value::Null,
            _ => match word
                .split_once(':')
                .and_then(|(p, local)| Some(((self.namespace)(p)?, local)))
            {
                Some((ns, local)) => Value::String(format!("{ns}{local}")),
                None => Value::String(word.to_owned()),
            },
        })
    }
}

/// Where the JSON writers put their text.
pub trait JsonSink {
    /// Append `s`.
    fn push_str(&mut self, s: &str);

    /// Append formatted text without an intermediate `String`.
    fn push_fmt(&mut self, args: fmt::Arguments<'_>) {
        struct Adapter<'a, S: ?Sized>(&'a mut S);
        impl<S: JsonSink + ?Sized> fmt::Write for Adapter<'_, S> {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                self.0.push_str(s);
                Ok(())
            }
        }
        // Neither sink can fail, so neither can the write.
        let _ = fmt::Write::write_fmt(&mut Adapter(self), args);
    }
}

impl JsonSink for String {
    fn push_str(&mut self, s: &str) {
        String::push_str(self, s);
    }
}

/// A [`JsonSink`] that keeps only the number of bytes written to it: how
/// a wire size is measured without building the text.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ByteCount(pub usize);

impl JsonSink for ByteCount {
    fn push_str(&mut self, s: &str) {
        self.0 += s.len();
    }
}

/// Append `s` to `out` as a JSON string literal, quotes included — the
/// one escaper behind every hand-written JSON body and wire size.
pub fn push_json_string<S: JsonSink + ?Sized>(out: &mut S, s: &str) {
    out.push_str("\"");
    push_json_escaped(out, s);
    out.push_str("\"");
}

/// Append `s` to `out` escaped for the inside of a JSON string literal
/// (no quotes): `"`, `\`, `\n`, `\r` and `\t` get their short escapes,
/// the other C0 controls `\u00xx`, and every run between them is copied
/// whole. Escaping works char by char, so escaping a string's pieces in
/// turn equals escaping their concatenation — a writer can stream a value
/// in pieces between its own quotes.
pub fn push_json_escaped<S: JsonSink + ?Sized>(out: &mut S, s: &str) {
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
            let code =
                [b'\\', b'u', b'0', b'0', HEX[usize::from(b >> 4)], HEX[usize::from(b & 0xf)]];
            out.push_str(std::str::from_utf8(&code).expect("ASCII"));
        } else {
            out.push_str(short);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// Append `v` as a JSON number: its `{:?}` form, which keeps a float's
/// `.0` and round-trips exactly, or `null` when `v` is not finite.
pub fn push_json_f64<S: JsonSink + ?Sized>(out: &mut S, v: f64) {
    if v.is_finite() {
        out.push_fmt(format_args!("{v:?}"));
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prefixes(prefix: &str) -> Option<&'static str> {
        match prefix {
            "kgnet" => Some("https://www.kgnet.com/"),
            "dblp" => Some("https://www.dblp.org/"),
            _ => None,
        }
    }

    fn strict(json: &str) -> Result<Value, String> {
        parse(json, |_| None)
    }

    fn string(json: &str) -> String {
        match strict(json) {
            Ok(Value::String(s)) => s,
            other => panic!("{json}: {other:?}"),
        }
    }

    /// `v`'s string at the path of object keys / array indices `path`.
    fn str_at<'v>(v: &'v Value, path: &[&str]) -> Option<&'v str> {
        path.iter()
            .try_fold(v, |v, step| match step.parse::<usize>() {
                Ok(i) => v.as_array()?.get(i),
                Err(_) => v.get(step),
            })?
            .as_str()
    }

    #[test]
    fn parses_fig8_style_object() {
        let text = "{Name: 'MAG_Paper-Venue_Classifer',\n\
                    GML-Task:{ TaskType: kgnet:NodeClassifier,\n\
                               TargetNode: dblp:publication,\n\
                               NodeLable: dblp:venue},\n\
                    Task Budget:{ MaxMemory:50GB, MaxTime:1h,\n\
                                  Priority:ModelScore} }";
        let v = parse(text, prefixes).unwrap();
        assert_eq!(str_at(&v, &["Name"]), Some("MAG_Paper-Venue_Classifer"));
        let task_type = str_at(&v, &["GML-Task", "TaskType"]);
        assert_eq!(task_type, Some("https://www.kgnet.com/NodeClassifier"));
        let target = str_at(&v, &["GML-Task", "TargetNode"]);
        assert_eq!(target, Some("https://www.dblp.org/publication"));
        assert_eq!(str_at(&v, &["Task Budget", "MaxMemory"]), Some("50GB"));
        assert_eq!(str_at(&v, &["Task Budget", "Priority"]), Some("ModelScore"));
    }

    #[test]
    fn parses_numbers_arrays_bools() {
        let v = parse("{Epochs: 30, LR: 0.01, Tags: [a, 'b c'], Deep: true}", prefixes).unwrap();
        assert_eq!(v.get("Epochs").and_then(Value::as_i64), Some(30));
        assert_eq!(v.get("LR").and_then(Value::as_f64), Some(0.01));
        assert_eq!(str_at(&v, &["Tags", "1"]), Some("b c"));
        assert_eq!(v.get("Deep"), Some(&Value::Bool(true)));
    }

    #[test]
    fn double_quoted_keys_and_values() {
        let v = parse(r#"{"Name": "x", "K": 5}"#, prefixes).unwrap();
        assert_eq!(str_at(&v, &["Name"]), Some("x"));
        assert_eq!(v.get("K").and_then(Value::as_u64), Some(5));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{Name 'x'}", prefixes).is_err());
        assert!(parse("{Name: 'x'", prefixes).is_err());
        assert!(parse("{} extra", prefixes).is_err());
    }

    #[test]
    fn unknown_prefix_stays_verbatim() {
        let v = parse("{T: foo:bar}", prefixes).unwrap();
        assert_eq!(str_at(&v, &["T"]), Some("foo:bar"));
    }

    #[test]
    fn numbers_keep_their_text_and_unit_suffixes_stay_strings() {
        let v = strict(r#"[-3, 18446744073709551615, 2.5, 4.0, 1e-3, 50GB, 1e400]"#).unwrap();
        let items = v.as_array().unwrap();
        assert_eq!(items[0].as_i64(), Some(-3));
        assert_eq!(items[0].as_u64(), None);
        assert_eq!(items[1].as_u64(), Some(u64::MAX));
        assert_eq!(items[2].as_f64(), Some(2.5));
        // A float is not an integer, even when it is whole.
        assert_eq!((items[3].as_f64(), items[3].as_u64()), (Some(4.0), None));
        assert_eq!(items[4].as_f64(), Some(1e-3));
        assert_eq!(items[5].as_str(), Some("50GB"));
        assert_eq!(items[6].as_str(), Some("1e400"), "a non-finite number stays text");
    }

    #[test]
    fn every_json_escape_decodes() {
        assert_eq!(string(r#""x\ny""#), "x\ny");
        assert_eq!(string(r#""\"\\\/\b\f\n\r\t""#), "\"\\/\u{8}\u{c}\n\r\t");
        assert_eq!(string(r#""\u0041\u00e9\u6771""#), "Aé東");
        assert_eq!(parse(r"'it\'s'", |_| None), Ok(Value::String("it's".into())));
        assert!(strict(r#""\x""#).is_err(), "unknown escapes are rejected");
        assert!(strict(r#""\u00g0""#).is_err());
        assert!(strict(r#""\u00""#).is_err());
    }

    #[test]
    fn surrogate_pair_escapes_decode() {
        assert_eq!(string(r#""\ud83d\ude00""#), "\u{1F600}");
        assert_eq!(string(r#""\uD83D\uDE00""#), "\u{1F600}");
    }

    #[test]
    fn unpaired_surrogates_are_errors() {
        for json in [r#""\ud83d""#, r#""\ud83dA""#, r#""\ude00""#, r#""\ude00\ud83d""#] {
            let err = strict(json).unwrap_err();
            assert!(err.contains("unpaired surrogate"), "{json}: {err}");
        }
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = "line\nquote\"back\\slash\ttab\u{1F600}\u{7}\u{1f}";
        let mut json = String::new();
        push_json_string(&mut json, original);
        assert_eq!(string(&json), original);
    }

    #[test]
    fn multibyte_text_raw_and_escaped_decodes() {
        // 2-, 3- and 4-byte characters, raw and as `\u` / surrogate-pair
        // escapes, with raw runs at string start and end and between escapes.
        let cases = [
            (r#""é東😀""#, "é東😀"),
            (r#""\u00e9\u6771\ud83d\ude00""#, "é東😀"),
            (r#""é\u00e9東\u6771😀\ud83d\ude00""#, "éé東東😀😀"),
            (r#""\ud83d\ude00é東😀""#, "😀é東😀"),
            (r#""é東😀\uD83D\uDE00""#, "é東😀😀"),
            (r#""a😀\n東\"é\\""#, "a😀\n東\"é\\"),
            (r#""""#, ""),
        ];
        for (json, expected) in cases {
            assert_eq!(string(json), expected, "{json}");
            let mut printed = String::new();
            push_json_string(&mut printed, expected);
            assert_eq!(string(&printed), expected);
        }
    }

    #[test]
    fn non_json_input_is_rejected() {
        let rejected = [
            // Unterminated strings, ending mid-run and after a backslash.
            r#""abc"#,
            r#""ab😀"#,
            r#"["ok","é東"#,
            r#""ab\"#,
            // Unbalanced or unseparated containers.
            "[1, 2",
            "{\"a\": 1 \"b\": 2}",
            "{\"a\" 1}",
            "[1,]",
            // Characters that start no value, and trailing input.
            "+1",
            "@",
            "",
            "[1] 2",
        ];
        for json in rejected {
            assert!(strict(json).is_err(), "accepted {json:?}");
        }
        let err = strict("[\"a\", \"b\\q\"]").unwrap_err();
        assert!(err.contains("at byte 8"), "{err}");
        for json in ["0", "-0", "1.5e-3", "0.0", "1E+2", "-2e0", "[0,-1,2.5]", " {} "] {
            assert!(strict(json).is_ok(), "rejected {json:?}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(strict(&nested(MAX_DEPTH)).is_ok());
        assert!(strict(&nested(MAX_DEPTH + 1)).unwrap_err().contains("nesting deeper"));
        // A body of a million openers fails cleanly instead of overflowing
        // the stack.
        assert!(strict(&"[{\"a\":".repeat(500_000)).is_err());
    }

    /// A JSON array of strings totalling about `bytes` bytes: long raw runs
    /// of ASCII and multibyte text with an escape every so often.
    fn string_heavy_document(bytes: usize) -> String {
        let item = format!("\"{}\\n{}\\u00e9\"", "kgnet ".repeat(20), "Zürich—東京😀".repeat(4));
        let n = bytes / (item.len() + 1);
        format!("[{}]", vec![item; n].join(","))
    }

    #[test]
    fn string_parsing_is_linear_in_input_size() {
        // Over an 8x range a linear parser costs ~8x and a quadratic one
        // ~64x. Single doublings are not checked: a quadratic parser's ~4x
        // per doubling is within what machine load alone does to one ratio
        // of sub-millisecond timings. Each size keeps its fastest of seven
        // runs, taken in turns so that load hits both sizes alike.
        let docs = [string_heavy_document(64 << 10), string_heavy_document(512 << 10)];
        let mut best = [std::time::Duration::MAX; 2];
        for _ in 0..7 {
            for (doc, best) in docs.iter().zip(&mut best) {
                let start = std::time::Instant::now();
                std::hint::black_box(strict(std::hint::black_box(doc)).unwrap());
                *best = (*best).min(start.elapsed());
            }
        }
        let overall = best[1].as_secs_f64() / best[0].as_secs_f64().max(1e-9);
        assert!(overall < 16.0, "8x the input cost {overall:.2}x: {best:?}");
    }

    #[test]
    fn json_strings_are_escaped() {
        let mut out = String::new();
        push_json_string(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    /// The run-based escaper against a char-by-char reference, whole and
    /// split at every char boundary (pieces escape like their
    /// concatenation), and a [`ByteCount`] counting exactly what it writes.
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
            let mut count = ByteCount::default();
            push_json_escaped(&mut count, s);
            assert_eq!(count.0, whole.len(), "{s:?}");
            for (cut, _) in s.char_indices() {
                let mut pieces = String::new();
                push_json_escaped(&mut pieces, &s[..cut]);
                push_json_escaped(&mut pieces, &s[cut..]);
                assert_eq!(pieces, whole, "{s:?} cut at {cut}");
            }
        }
    }

    #[test]
    fn floats_print_with_their_point_and_non_finite_as_null() {
        let mut out = String::new();
        for v in [1.0, 0.1f32 as f64, -3.5e-7, f64::NAN, f64::INFINITY] {
            push_json_f64(&mut out, v);
            out.push(',');
        }
        assert_eq!(out, "1.0,0.10000000149011612,-3.5e-7,null,null,");
        let mut count = ByteCount::default();
        push_json_f64(&mut count, 0.1f32 as f64);
        assert_eq!(count.0, "0.10000000149011612".len());
    }
}
