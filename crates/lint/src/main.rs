//! kgnet-lint: the workspace's source-level invariant gate.
//!
//! Rust's compiler enforces memory safety; it cannot enforce *project*
//! discipline. This binary walks every `.rs` file in the workspace with a
//! small hand-rolled Rust lexer (same spirit as the SPARQL lexer in
//! `kgnet-rdf`: chars in, classified tokens out, no external crates) and
//! checks the concurrency/safety rules the kgnet codebase relies on:
//!
//! - **sync-imports** — blocking synchronisation primitives must come from
//!   the `kgnet-sync` facade. Direct `std::sync::{Mutex, RwLock, Condvar,
//!   Barrier}`, `std::sync::atomic` or `parking_lot` imports in non-test
//!   code (outside the facade crates and `vendor/`) would silently escape
//!   the deterministic model checker.
//! - **safety-comment** — every `unsafe` token is preceded by a
//!   `// SAFETY:` comment (or a `# Safety` doc section), vendor included.
//! - **unwrap-on-sync** — `.unwrap()` directly on lock/channel/join results
//!   (`lock()`, zero-arg `read()`/`write()`, `recv()`, `join()`) in
//!   non-test code; the facade's non-poisoning locks make these
//!   unnecessary, and on channels an `unwrap` turns a peer's panic into a
//!   cascade.
//! - **forbid-unsafe** — every crate root carries
//!   `#![forbid(unsafe_code)]`, except `kgnet-check`, whose instrumented
//!   cells need raw pointers, and `vendor/`.
//! - **net-boundary** — sockets live in exactly one crate. `std::net`,
//!   `TcpListener`, `TcpStream` and `UdpSocket` are banned outside
//!   `crates/http/` (and tests/vendor): everything below the frontend is
//!   in-process by design, and a stray socket would bypass the frontend's
//!   connection limits, access log and metrics.
//!
//! - **metric-once** — every metric is declared in one place. A string
//!   literal in non-test code under `crates/` that is a whole Prometheus
//!   metric name starting with `kgnet_` may occur only once in the
//!   workspace, so a second hand-kept catalog cannot grow back.
//!   `format!` patterns (`"kgnet_lock_site_{base}_acquires"`) are not
//!   names and are not checked.
//! - **reference-only** — the materialised reference executor
//!   (`evaluate_select_materialised`, `exec_group_materialised`) is an
//!   oracle, not a production path. In non-test code under `crates/` its
//!   names may appear only in `crates/rdf/src/sparql/{eval,stream}.rs`,
//!   plus a `pub use` re-export (which keeps it reachable for tests and
//!   the benchmark's frozen oracle); every read, sub-SELECT and UPDATE
//!   WHERE runs on the streaming executor.
//!
//! A deliberate exception is waived in place with `// lint:allow(<rule>)`
//! on the offending line or the line above. Run as
//! `cargo run -p kgnet-lint -- --deny` (CI does) to exit non-zero on any
//! finding.

#![forbid(unsafe_code)]

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

/// Classification of one lexed Rust token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TokKind {
    /// Identifier or keyword (`unsafe`, `mod`, `let`, names, ...).
    Ident,
    /// Single punctuation character (`.`, `:`, `(`, `{`, `#`, ...).
    Punct,
    /// `// ...` comment (doc or plain), newline excluded.
    LineComment,
    /// `/* ... */` comment, nesting handled.
    BlockComment,
    /// String literal: `"..."`, raw `r"..."`/`r#"..."#`, byte variants.
    Str,
    /// Character literal `'x'` (including escapes).
    Char,
    /// Lifetime like `'a` (no closing quote).
    Lifetime,
    /// Numeric literal.
    Num,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone)]
struct Tok {
    kind: TokKind,
    text: String,
    line: usize,
}

/// Lex Rust source into tokens. Never fails: unrecognised bytes become
/// single-char `Punct` tokens, and an unterminated literal swallows the
/// rest of the file (good enough for linting — rustc rejects such files
/// long before we see them).
fn lex(src: &str) -> Vec<Tok> {
    let b: Vec<char> = src.chars().collect();
    let mut toks = Vec::new();
    let mut i = 0;
    let mut line = 1;
    let n = b.len();
    while i < n {
        let c = b[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Comments.
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            let start = i;
            while i < n && b[i] != '\n' {
                i += 1;
            }
            toks.push(Tok { kind: TokKind::LineComment, text: b[start..i].iter().collect(), line });
            continue;
        }
        if c == '/' && i + 1 < n && b[i + 1] == '*' {
            let (start, start_line) = (i, line);
            let mut depth = 0usize;
            while i < n {
                if b[i] == '\n' {
                    line += 1;
                    i += 1;
                } else if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    i += 1;
                }
            }
            toks.push(Tok {
                kind: TokKind::BlockComment,
                text: b[start..i.min(n)].iter().collect(),
                line: start_line,
            });
            continue;
        }
        // Raw strings: r"..." / r#"..."# / br#"..."# etc.
        if (c == 'r' || c == 'b') && is_raw_string_start(&b, i) {
            let (start, start_line) = (i, line);
            while i < n && (b[i] == 'r' || b[i] == 'b') {
                i += 1;
            }
            let mut hashes = 0;
            while i < n && b[i] == '#' {
                hashes += 1;
                i += 1;
            }
            i += 1; // opening quote
            loop {
                if i >= n {
                    break;
                }
                if b[i] == '\n' {
                    line += 1;
                    i += 1;
                    continue;
                }
                if b[i] == '"' {
                    let mut k = 0;
                    while k < hashes && i + 1 + k < n && b[i + 1 + k] == '#' {
                        k += 1;
                    }
                    if k == hashes {
                        i += 1 + hashes;
                        break;
                    }
                }
                i += 1;
            }
            toks.push(Tok {
                kind: TokKind::Str,
                text: b[start..i.min(n)].iter().collect(),
                line: start_line,
            });
            continue;
        }
        // Plain (or byte) strings.
        if c == '"' || (c == 'b' && i + 1 < n && b[i + 1] == '"') {
            let (start, start_line) = (i, line);
            i += if c == 'b' { 2 } else { 1 };
            while i < n {
                if b[i] == '\\' {
                    i += 2;
                } else if b[i] == '"' {
                    i += 1;
                    break;
                } else {
                    if b[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            toks.push(Tok {
                kind: TokKind::Str,
                text: b[start..i.min(n)].iter().collect(),
                line: start_line,
            });
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            // 'a' / '\n' are char literals; 'a (no closing quote) is a
            // lifetime. Look for the closing quote within a short window.
            let is_char =
                if i + 2 < n && b[i + 1] == '\\' { true } else { i + 2 < n && b[i + 2] == '\'' };
            if is_char {
                let start = i;
                i += 1;
                while i < n {
                    if b[i] == '\\' {
                        i += 2;
                    } else if b[i] == '\'' {
                        i += 1;
                        break;
                    } else {
                        i += 1;
                    }
                }
                toks.push(Tok {
                    kind: TokKind::Char,
                    text: b[start..i.min(n)].iter().collect(),
                    line,
                });
            } else {
                let start = i;
                i += 1;
                while i < n && (b[i] == '_' || b[i].is_alphanumeric()) {
                    i += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Lifetime,
                    text: b[start..i].iter().collect(),
                    line,
                });
            }
            continue;
        }
        // Identifiers / keywords.
        if c == '_' || c.is_alphabetic() {
            let start = i;
            while i < n && (b[i] == '_' || b[i].is_alphanumeric()) {
                i += 1;
            }
            toks.push(Tok { kind: TokKind::Ident, text: b[start..i].iter().collect(), line });
            continue;
        }
        // Numbers (coarse: consume alphanumerics, dots handled as punct).
        if c.is_ascii_digit() {
            let start = i;
            while i < n && (b[i] == '_' || b[i].is_alphanumeric()) {
                i += 1;
            }
            toks.push(Tok { kind: TokKind::Num, text: b[start..i].iter().collect(), line });
            continue;
        }
        // `::` matters to every path rule — lex it as one token.
        if c == ':' && i + 1 < n && b[i + 1] == ':' {
            toks.push(Tok { kind: TokKind::Punct, text: "::".to_owned(), line });
            i += 2;
            continue;
        }
        toks.push(Tok { kind: TokKind::Punct, text: c.to_string(), line });
        i += 1;
    }
    toks
}

/// True when position `i` starts a raw-string literal (`r"`, `r#`, `br"`,
/// `br#`...), as opposed to an identifier beginning with `r`/`b`.
fn is_raw_string_start(b: &[char], i: usize) -> bool {
    let mut j = i;
    if b[j] == 'b' {
        j += 1;
    }
    if j >= b.len() || b[j] != 'r' {
        return false;
    }
    j += 1;
    while j < b.len() && b[j] == '#' {
        j += 1;
    }
    j < b.len() && b[j] == '"'
}

// ---------------------------------------------------------------------------
// Findings and rule context
// ---------------------------------------------------------------------------

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Finding {
    path: PathBuf,
    line: usize,
    rule: &'static str,
    message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path.display(), self.line, self.rule, self.message)
    }
}

/// A source file prepared for linting: tokens, raw lines, and the line
/// ranges covered by `#[cfg(test)]` modules.
struct SourceFile {
    path: PathBuf,
    lines: Vec<String>,
    toks: Vec<Tok>,
    /// Inclusive line ranges inside `#[cfg(test)] mod ... { }` bodies.
    test_ranges: Vec<(usize, usize)>,
}

impl SourceFile {
    fn parse(path: PathBuf, src: &str) -> SourceFile {
        let toks = lex(src);
        let test_ranges = find_cfg_test_ranges(&toks);
        let lines = src.lines().map(str::to_owned).collect();
        SourceFile { path, lines, toks, test_ranges }
    }

    /// Code tokens only (comments stripped) — what the path rules scan.
    fn code(&self) -> Vec<&Tok> {
        self.toks
            .iter()
            .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
            .collect()
    }

    fn in_test_code(&self, line: usize) -> bool {
        self.test_ranges.iter().any(|&(lo, hi)| (lo..=hi).contains(&line))
    }

    /// `// lint:allow(rule)` on the finding's line or the one above waives
    /// it.
    fn waived(&self, line: usize, rule: &str) -> bool {
        let marker = format!("lint:allow({rule})");
        [line, line.saturating_sub(1)]
            .iter()
            .filter(|&&l| l >= 1)
            .any(|&l| self.lines.get(l - 1).is_some_and(|s| s.contains(&marker)))
    }
}

/// Line ranges of `#[cfg(test)] mod ... { ... }` bodies, so test-only code
/// can be exempted from the production-code rules.
fn find_cfg_test_ranges(toks: &[Tok]) -> Vec<(usize, usize)> {
    let code: Vec<&Tok> = toks
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < code.len() {
        // Match `# [ cfg ( test ) ]` (also `cfg(all(test, ...))` etc. — any
        // attribute that mentions `test` inside `cfg(...)`).
        if code[i].text == "#"
            && i + 2 < code.len()
            && code[i + 1].text == "["
            && code[i + 2].text == "cfg"
        {
            let mut j = i + 3;
            let mut depth = 0usize;
            let mut mentions_test = false;
            while j < code.len() {
                match code[j].text.as_str() {
                    "[" | "(" => depth += 1,
                    "]" | ")" => {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                        if depth == 0 && code[j].text == ")" {
                            j += 1;
                            break;
                        }
                    }
                    "test" => mentions_test = true,
                    _ => {}
                }
                j += 1;
            }
            // Skip the closing `]` of the attribute.
            while j < code.len() && code[j].text == "]" {
                j += 1;
            }
            if mentions_test && j < code.len() && code[j].text == "mod" {
                // Find the module's opening brace, then its close.
                let mut k = j;
                while k < code.len() && code[k].text != "{" && code[k].text != ";" {
                    k += 1;
                }
                if k < code.len() && code[k].text == "{" {
                    let start_line = code[i].line;
                    let mut depth = 0usize;
                    let mut end_line = code[k].line;
                    while k < code.len() {
                        match code[k].text.as_str() {
                            "{" => depth += 1,
                            "}" => {
                                depth -= 1;
                                if depth == 0 {
                                    end_line = code[k].line;
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    ranges.push((start_line, end_line));
                    i = k;
                }
            }
        }
        i += 1;
    }
    ranges
}

// ---------------------------------------------------------------------------
// Path classification
// ---------------------------------------------------------------------------

fn path_has_component(path: &Path, name: &str) -> bool {
    path.components().any(|c| c.as_os_str() == name)
}

/// Integration tests: exempt from the production-code rules.
fn is_test_path(path: &Path) -> bool {
    path_has_component(path, "tests")
}

fn is_vendor(path: &Path) -> bool {
    path_has_component(path, "vendor")
}

/// The sync facade and the model checker implement the primitives — they
/// are the one place allowed to name the real ones.
fn is_facade_crate(path: &Path) -> bool {
    let p = path.to_string_lossy().replace('\\', "/");
    p.contains("crates/sync/") || p.contains("crates/check/")
}

// ---------------------------------------------------------------------------
// Rule: sync-imports
// ---------------------------------------------------------------------------

/// `std::sync` members that denote blocking/racing primitives. Everything
/// else (`Arc`, `Weak`, `mpsc`, `OnceLock`, `LazyLock`, `PoisonError`...)
/// is fine to use directly.
const DENIED_STD_SYNC: &[&str] =
    &["Mutex", "RwLock", "Condvar", "Barrier", "atomic", "Once", "OnceState"];

fn rule_sync_imports(file: &SourceFile, out: &mut Vec<Finding>) {
    if is_vendor(&file.path) || is_facade_crate(&file.path) || is_test_path(&file.path) {
        return;
    }
    let code = file.code();
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokKind::Ident || file.in_test_code(t.line) {
            continue;
        }
        if t.text == "parking_lot" {
            out.push(Finding {
                path: file.path.clone(),
                line: t.line,
                rule: "sync-imports",
                message: "direct `parking_lot` use: import the lock from `kgnet_sync` instead"
                    .to_owned(),
            });
            continue;
        }
        // `std :: sync :: <Denied>`
        if t.text == "std"
            && matches(&code, i + 1, &["::", "sync", "::"])
            && code.get(i + 4).is_some_and(|x| DENIED_STD_SYNC.contains(&x.text.as_str()))
        {
            let denied = &code[i + 4].text;
            out.push(Finding {
                path: file.path.clone(),
                line: t.line,
                rule: "sync-imports",
                message: format!(
                    "direct `std::sync::{denied}` use: import it from `kgnet_sync` so the \
                     model checker can schedule it"
                ),
            });
        }
    }
}

fn matches(code: &[&Tok], from: usize, texts: &[&str]) -> bool {
    texts.iter().enumerate().all(|(k, want)| code.get(from + k).is_some_and(|t| t.text == *want))
}

// ---------------------------------------------------------------------------
// Rule: safety-comment
// ---------------------------------------------------------------------------

fn rule_safety_comment(file: &SourceFile, out: &mut Vec<Finding>) {
    let code = file.code();
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "unsafe" {
            continue;
        }
        // `unsafe fn` declarations may document their contract with a
        // `# Safety` doc section instead of a SAFETY comment.
        let is_unsafe_fn =
            code.get(i + 1).is_some_and(|x| x.text == "fn") || matches(&code, i + 1, &["extern"]);
        if has_safety_comment(file, t.line) || (is_unsafe_fn && has_safety_doc(file, t.line)) {
            continue;
        }
        out.push(Finding {
            path: file.path.clone(),
            line: t.line,
            rule: "safety-comment",
            message: "`unsafe` without a preceding `// SAFETY:` comment explaining why the \
                      invariants hold"
                .to_owned(),
        });
    }
}

/// A `SAFETY:` comment on the same line or within the six lines above,
/// skipping attributes, blank lines and sibling `unsafe impl` lines (one
/// comment may justify a Send/Sync pair).
fn has_safety_comment(file: &SourceFile, line: usize) -> bool {
    let this = file.lines.get(line - 1).map(String::as_str).unwrap_or("");
    if line_has_safety_marker(this) {
        return true;
    }
    let mut budget = 6;
    let mut l = line - 1;
    while budget > 0 && l >= 1 {
        let text = file.lines.get(l - 1).map(String::as_str).unwrap_or("");
        let trimmed = text.trim();
        if line_has_safety_marker(text) {
            return true;
        }
        let skippable = trimmed.is_empty()
            || trimmed.starts_with("#[")
            || trimmed.starts_with("#!")
            || trimmed.starts_with("unsafe impl")
            || trimmed.ends_with('{')
            // rustfmt wraps long statements: `let x =` / `f(` on the line
            // above means the unsafe token sits on a continuation line and
            // the comment governs the whole statement.
            || trimmed.ends_with('=')
            || trimmed.ends_with('(');
        if !skippable && !trimmed.starts_with("//") {
            return false;
        }
        budget -= 1;
        l -= 1;
    }
    false
}

fn line_has_safety_marker(line: &str) -> bool {
    line.contains("// SAFETY:") || line.contains("//! SAFETY:") || line.contains("/// SAFETY:")
}

/// A `# Safety` doc heading in the doc comment block directly above.
fn has_safety_doc(file: &SourceFile, line: usize) -> bool {
    let mut l = line - 1;
    while l >= 1 {
        let text = file.lines.get(l - 1).map(String::as_str).unwrap_or("");
        let trimmed = text.trim();
        if trimmed.starts_with("///") || trimmed.starts_with("//!") {
            if trimmed.contains("# Safety") {
                return true;
            }
        } else if !(trimmed.is_empty() || trimmed.starts_with("#[") || trimmed.starts_with("//")) {
            return false;
        }
        l -= 1;
    }
    false
}

// ---------------------------------------------------------------------------
// Rule: unwrap-on-sync
// ---------------------------------------------------------------------------

/// Methods whose results must not be `.unwrap()`ed in production code:
/// lock acquisitions (facade locks don't poison — the `Result` shouldn't
/// exist) and channel/thread endpoints (a peer's panic shouldn't cascade).
const SYNC_METHODS: &[&str] = &["lock", "read", "write", "recv", "join"];

fn rule_unwrap_on_sync(file: &SourceFile, out: &mut Vec<Finding>) {
    if is_test_path(&file.path) {
        return;
    }
    let code = file.code();
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokKind::Ident
            || !SYNC_METHODS.contains(&t.text.as_str())
            || file.in_test_code(t.line)
        {
            continue;
        }
        // `. method ( )` — zero-arg call only, so `io::Read::read(&mut buf)`
        // and friends don't false-positive.
        if i == 0
            || code[i - 1].text != "."
            || !matches(&code, i + 1, &["(", ")", ".", "unwrap", "("])
        {
            continue;
        }
        out.push(Finding {
            path: file.path.clone(),
            line: t.line,
            rule: "unwrap-on-sync",
            message: format!(
                "`.{}().unwrap()` in non-test code: handle the failure (facade locks don't \
                 poison; channel/join errors deserve a real path)",
                t.text
            ),
        });
    }
}

// ---------------------------------------------------------------------------
// Rule: forbid-unsafe
// ---------------------------------------------------------------------------

/// Crates that legitimately contain `unsafe` (each site still needs its
/// SAFETY comment): the model checker's primitives.
const UNSAFE_CRATES: &[&str] = &["crates/check/"];

fn rule_forbid_unsafe(file: &SourceFile, out: &mut Vec<Finding>) {
    let p = file.path.to_string_lossy().replace('\\', "/");
    let is_crate_root = p.ends_with("src/lib.rs") || p.ends_with("src/main.rs");
    if !is_crate_root || is_vendor(&file.path) {
        return;
    }
    if UNSAFE_CRATES.iter().any(|c| p.contains(c)) {
        return;
    }
    let code = file.code();
    let has = (0..code.len()).any(|i| {
        matches(&code, i, &["#", "!", "["])
            && code.get(i + 3).is_some_and(|t| t.text == "forbid")
            && matches(&code, i + 4, &["(", "unsafe_code", ")"])
    });
    if !has {
        out.push(Finding {
            path: file.path.clone(),
            line: 1,
            rule: "forbid-unsafe",
            message: "crate root lacks `#![forbid(unsafe_code)]` (only kgnet-check may \
                      contain unsafe code)"
                .to_owned(),
        });
    }
}

// ---------------------------------------------------------------------------
// Rule: net-boundary
// ---------------------------------------------------------------------------

/// Socket types that may only be named inside the frontend crate. The
/// bare idents are checked (not just `std :: net` paths) so a
/// `use std::net::TcpStream;` at the top of a file doesn't launder the
/// type into scope for the rest of it.
const NET_TYPES: &[&str] = &["TcpListener", "TcpStream", "UdpSocket"];

/// The one crate allowed to open sockets.
fn is_net_crate(path: &Path) -> bool {
    let p = path.to_string_lossy().replace('\\', "/");
    p.contains("crates/http/")
}

fn rule_net_boundary(file: &SourceFile, out: &mut Vec<Finding>) {
    if is_vendor(&file.path) || is_net_crate(&file.path) || is_test_path(&file.path) {
        return;
    }
    let code = file.code();
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokKind::Ident || file.in_test_code(t.line) {
            continue;
        }
        let offender = if NET_TYPES.contains(&t.text.as_str()) {
            format!("`{}`", t.text)
        } else if t.text == "std" && matches(&code, i + 1, &["::", "net"]) {
            "`std::net`".to_owned()
        } else {
            continue;
        };
        out.push(Finding {
            path: file.path.clone(),
            line: t.line,
            rule: "net-boundary",
            message: format!(
                "{offender} outside `crates/http`: sockets live behind the frontend so its \
                 connection limits, access log and metrics see every byte on the wire"
            ),
        });
    }
}

// ---------------------------------------------------------------------------
// Rule: obs-hot-path (kgnet-obs metric instruments only)
// ---------------------------------------------------------------------------

/// Lock tokens banned from the metric instruments. Counter/gauge bumps and
/// histogram recording sit on the query and commit hot paths: they must
/// stay lock-free (relaxed/release atomics). The registry and tracer may
/// lock — registration and span draining are cold — so only the
/// instruments file is policed.
const OBS_LOCK_TOKENS: &[&str] = &["Mutex", "RwLock", "Condvar", "Barrier"];

/// Additionally banned from the lock-site profiler: the uncontended-acquire
/// fast path runs inside every facade lock acquisition in the system, so
/// beyond locks it must not allocate either — a counter bump is all it may
/// cost.
const PROFILE_ALLOC_TOKENS: &[&str] =
    &["Vec", "Box", "String", "HashMap", "format", "vec", "to_owned", "to_string"];

fn rule_obs_hot_path(file: &SourceFile, out: &mut Vec<Finding>) {
    let p = file.path.to_string_lossy().replace('\\', "/");
    let is_instruments =
        p.ends_with("crates/obs/src/metrics.rs") || p.ends_with("obs/src/metrics.rs");
    let is_profiler =
        p.ends_with("crates/sync/src/profile.rs") || p.ends_with("sync/src/profile.rs");
    if !is_instruments && !is_profiler {
        return;
    }
    let code = file.code();
    for t in code.iter() {
        if t.kind != TokKind::Ident || file.in_test_code(t.line) {
            continue;
        }
        if OBS_LOCK_TOKENS.contains(&t.text.as_str()) {
            out.push(Finding {
                path: file.path.clone(),
                line: t.line,
                rule: "obs-hot-path",
                message: format!(
                    "`{}` in the metric instruments: hot-path recording must stay lock-free \
                     atomics — locks belong in the registry/tracer, not Counter/Gauge/Histogram",
                    t.text
                ),
            });
        } else if is_profiler && PROFILE_ALLOC_TOKENS.contains(&t.text.as_str()) {
            out.push(Finding {
                path: file.path.clone(),
                line: t.line,
                rule: "obs-hot-path",
                message: format!(
                    "`{}` in the lock-site profiler: the uncontended acquire path runs inside \
                     every facade lock acquisition and must stay allocation-free — move \
                     rendering and aggregation into kgnet_sync::sites",
                    t.text
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: reference-only
// ---------------------------------------------------------------------------

/// The materialised reference executor's entry points.
const REFERENCE_ONLY: &[&str] = &["evaluate_select_materialised", "exec_group_materialised"];

fn is_reference_home(path: &Path) -> bool {
    let p = path.to_string_lossy().replace('\\', "/");
    p.ends_with("crates/rdf/src/sparql/eval.rs") || p.ends_with("crates/rdf/src/sparql/stream.rs")
}

fn rule_reference_only(file: &SourceFile, out: &mut Vec<Finding>) {
    if !path_has_component(&file.path, "crates")
        || is_test_path(&file.path)
        || is_reference_home(&file.path)
    {
        return;
    }
    let code = file.code();
    let mut in_pub_use = false;
    for (i, t) in code.iter().enumerate() {
        match t.text.as_str() {
            // `pub use` or `pub(...) use`: a re-export runs nothing.
            "use" => {
                let before = |n: usize| i.checked_sub(n).map(|j| code[j].text.as_str());
                in_pub_use = before(1) == Some("pub")
                    || (before(1) == Some(")") && before(4) == Some("pub"));
                continue;
            }
            ";" => in_pub_use = false,
            _ => {}
        }
        if t.kind != TokKind::Ident
            || in_pub_use
            || !REFERENCE_ONLY.contains(&t.text.as_str())
            || file.in_test_code(t.line)
        {
            continue;
        }
        out.push(Finding {
            path: file.path.clone(),
            line: t.line,
            rule: "reference-only",
            message: format!(
                "`{}` is the materialised reference executor: only tests (and its home, \
                 `crates/rdf/src/sparql/{{eval,stream}}.rs`) may use it; production code runs \
                 the streaming executor",
                t.text
            ),
        });
    }
}

// ---------------------------------------------------------------------------
// Rule: metric-once (workspace-wide)
// ---------------------------------------------------------------------------

/// The value of a plain or raw string literal token when it is a whole
/// Prometheus metric name in the `kgnet_` namespace.
fn metric_name_literal(tok: &Tok) -> Option<&str> {
    if tok.kind != TokKind::Str {
        return None;
    }
    let body = tok.text.strip_prefix('r').unwrap_or(&tok.text).trim_matches('#');
    let name = body.strip_prefix('"')?.strip_suffix('"')?;
    let rest = name.strip_prefix("kgnet_")?;
    let is_name =
        !rest.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':');
    is_name.then_some(name)
}

/// Flags every occurrence of a metric-name literal after its first, across
/// all non-test sources under `crates/`.
fn rule_metric_once(files: &[SourceFile], out: &mut Vec<Finding>) {
    let mut first: std::collections::HashMap<&str, (&Path, usize)> = Default::default();
    for file in files {
        if !path_has_component(&file.path, "crates") || is_test_path(&file.path) {
            continue;
        }
        for tok in &file.toks {
            let Some(name) = metric_name_literal(tok) else { continue };
            if file.in_test_code(tok.line) {
                continue;
            }
            match first.get(name) {
                None => {
                    first.insert(name, (&file.path, tok.line));
                }
                Some(&(path, line)) => out.push(Finding {
                    path: file.path.clone(),
                    line: tok.line,
                    rule: "metric-once",
                    message: format!(
                        "metric `{name}` is already named at {}:{line}: declare each metric \
                         once and read its handle, not its name",
                        path.display()
                    ),
                }),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Run every rule over `sources`: the per-file rules on each file, then the
/// workspace-wide ones across all of them.
fn lint_sources(sources: Vec<(PathBuf, String)>) -> Vec<Finding> {
    let files: Vec<SourceFile> =
        sources.into_iter().map(|(path, src)| SourceFile::parse(path, &src)).collect();
    let mut findings = Vec::new();
    for file in &files {
        let mut raw = Vec::new();
        rule_sync_imports(file, &mut raw);
        rule_safety_comment(file, &mut raw);
        rule_unwrap_on_sync(file, &mut raw);
        rule_forbid_unsafe(file, &mut raw);
        rule_net_boundary(file, &mut raw);
        rule_obs_hot_path(file, &mut raw);
        rule_reference_only(file, &mut raw);
        raw.retain(|f| !file.waived(f.line, f.rule));
        findings.extend(raw);
    }
    let mut raw = Vec::new();
    rule_metric_once(&files, &mut raw);
    raw.retain(|f| !files.iter().any(|file| file.path == f.path && file.waived(f.line, f.rule)));
    findings.extend(raw);
    findings
}

fn collect_rs_files(root: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(root) else { return };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') || name.starts_with("target-") {
                continue;
            }
            collect_rs_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

fn main() -> ExitCode {
    let mut deny = false;
    let mut root = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => deny = true,
            "--root" => {
                root = PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("--root needs a directory argument");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!("unknown argument: {other} (expected --deny and/or --root <dir>)");
                return ExitCode::from(2);
            }
        }
    }

    let mut files = Vec::new();
    collect_rs_files(&root, &mut files);
    let sources: Vec<(PathBuf, String)> = files
        .into_iter()
        .filter_map(|path| std::fs::read_to_string(&path).ok().map(|src| (path, src)))
        .collect();
    let scanned = sources.len();
    let mut findings = lint_sources(sources);
    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));

    for f in &findings {
        println!("{f}");
    }
    println!(
        "kgnet-lint: {} file(s) scanned, {} finding(s){}",
        scanned,
        findings.len(),
        if deny { " [--deny]" } else { "" }
    );
    if deny && !findings.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    fn findings_for(path: &str, src: &str) -> Vec<Finding> {
        lint_sources(vec![(PathBuf::from(path), src.to_owned())])
    }

    fn rules(found: &[Finding]) -> Vec<&'static str> {
        found.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn lexer_classifies_comments_strings_and_idents() {
        let toks = lex("let s = \"std::sync::Mutex\"; // std::sync::Mutex\n/* parking_lot */ x");
        let kinds: Vec<TokKind> = toks.iter().map(|t| t.kind).collect();
        assert_eq!(
            kinds,
            vec![
                TokKind::Ident, // let
                TokKind::Ident, // s
                TokKind::Punct, // =
                TokKind::Str,
                TokKind::Punct, // ;
                TokKind::LineComment,
                TokKind::BlockComment,
                TokKind::Ident, // x
            ]
        );
        assert_eq!(toks[7].line, 2);
    }

    #[test]
    fn lexer_handles_raw_strings_and_lifetimes() {
        let toks = lex("fn f<'a>(x: &'a str) { r#\"unsafe \"quoted\" \"# }");
        assert!(toks.iter().any(|t| t.kind == TokKind::Lifetime && t.text == "'a"));
        let raw: Vec<&Tok> = toks.iter().filter(|t| t.kind == TokKind::Str).collect();
        assert_eq!(raw.len(), 1);
        assert!(raw[0].text.contains("unsafe"));
        // The `unsafe` inside the raw string is not an ident token.
        assert!(!toks.iter().any(|t| t.kind == TokKind::Ident && t.text == "unsafe"));
    }

    #[test]
    fn sync_imports_flags_std_and_parking_lot_in_prod_code() {
        let found = findings_for(
            "crates/rdf/src/x.rs",
            "use std::sync::Mutex;\nuse parking_lot::RwLock;\nuse std::sync::Arc;\n",
        );
        assert_eq!(rules(&found), vec!["sync-imports", "sync-imports"]);
        assert!(found[0].message.contains("Mutex"));
    }

    #[test]
    fn sync_imports_allows_facade_vendor_tests_and_cfg_test() {
        let src = "use std::sync::Mutex;\n";
        assert!(findings_for("crates/sync/src/facade.rs", src).is_empty());
        assert!(findings_for("crates/check/src/sync.rs", src).is_empty());
        assert!(findings_for("vendor/parking_lot/src/lib.rs", src).is_empty());
        assert!(findings_for("crates/rdf/tests/x.rs", src).is_empty());
        let gated = "#[cfg(test)]\nmod tests {\n    use std::sync::Barrier;\n}\n";
        assert!(findings_for("crates/rdf/src/x.rs", gated).is_empty());
        // Arc, mpsc, OnceLock stay allowed anywhere.
        let fine = "use std::sync::{Arc, OnceLock};\nuse std::sync::mpsc;\n";
        assert!(findings_for("crates/rdf/src/x.rs", fine).is_empty());
    }

    #[test]
    fn safety_comment_required_even_in_vendor() {
        let bad = "pub fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
        assert_eq!(
            rules(&findings_for("vendor/parking_lot/src/lib.rs", bad)),
            vec!["safety-comment"]
        );
        let good = "pub fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid.\n    unsafe { *p }\n}\n";
        assert!(findings_for("vendor/parking_lot/src/lib.rs", good).is_empty());
    }

    #[test]
    fn safety_comment_accepts_shared_comment_for_impl_pairs_and_safety_doc() {
        let pair = "// SAFETY: T is Send, the raw pointer is owned.\nunsafe impl<T: Send> Send for X<T> {}\nunsafe impl<T: Send> Sync for X<T> {}\n";
        assert!(findings_for("crates/check/src/x.rs", pair).is_empty());
        let doc = "/// Reads a byte.\n///\n/// # Safety\n/// `p` must be valid.\npub unsafe fn f(p: *const u8) -> u8 { *p }\n";
        assert!(findings_for("crates/check/src/x.rs", doc).is_empty());
    }

    #[test]
    fn unwrap_on_sync_flags_zero_arg_lock_unwraps_only() {
        let bad = "fn f(&self) {\n    let g = self.m.lock().unwrap();\n    let x = self.rx.recv().unwrap();\n}\n";
        let found = findings_for("crates/rdf/src/x.rs", bad);
        assert_eq!(rules(&found), vec!["unwrap-on-sync", "unwrap-on-sync"]);
        // io-style read with arguments is not a lock acquisition.
        let io =
            "fn f(r: &mut impl std::io::Read, buf: &mut [u8]) {\n    r.read(buf).unwrap();\n}\n";
        assert!(findings_for("crates/rdf/src/x.rs", io).is_empty());
        // Facade-style lock without unwrap is the fixed form.
        let good = "fn f(&self) {\n    let g = self.m.lock();\n}\n";
        assert!(findings_for("crates/rdf/src/x.rs", good).is_empty());
        // Tests may unwrap.
        assert!(findings_for("crates/rdf/tests/x.rs", bad).is_empty());
    }

    #[test]
    fn forbid_unsafe_required_in_crate_roots_with_exemptions() {
        let bare = "pub fn f() {}\n";
        assert_eq!(rules(&findings_for("crates/rdf/src/lib.rs", bare)), vec!["forbid-unsafe"]);
        let good = "#![forbid(unsafe_code)]\npub fn f() {}\n";
        assert!(findings_for("crates/rdf/src/lib.rs", good).is_empty());
        // kgnet-ann holds no unsafe code, so its root must forbid it.
        assert_eq!(rules(&findings_for("crates/ann/src/lib.rs", bare)), vec!["forbid-unsafe"]);
        // check/vendor are exempt; non-root files are too.
        assert!(findings_for("crates/check/src/lib.rs", bare).is_empty());
        assert!(findings_for("vendor/rayon/src/lib.rs", bare).is_empty());
        assert!(findings_for("crates/rdf/src/store.rs", bare).is_empty());
    }

    #[test]
    fn waiver_comment_suppresses_a_finding() {
        let waived = "// lint:allow(sync-imports)\nuse std::sync::Mutex;\n";
        assert!(findings_for("crates/rdf/src/x.rs", waived).is_empty());
        let inline = "use std::sync::Mutex; // lint:allow(sync-imports)\n";
        assert!(findings_for("crates/rdf/src/x.rs", inline).is_empty());
        // The waiver names the rule: a different rule's marker doesn't help.
        let wrong = "// lint:allow(safety-comment)\nuse std::sync::Mutex;\n";
        assert_eq!(rules(&findings_for("crates/rdf/src/x.rs", wrong)), vec!["sync-imports"]);
    }

    #[test]
    fn strings_and_comments_never_trigger_path_rules() {
        let src =
            "// std::sync::Mutex parking_lot\nconst S: &str = \"use std::sync::Mutex; unsafe\";\n";
        assert!(findings_for("crates/rdf/src/x.rs", src).is_empty());
    }

    #[test]
    fn net_boundary_bans_sockets_outside_the_frontend_crate() {
        // The `use` draws two findings (path + ident) and the call site a
        // third: the laundered type stays flagged at every mention.
        let listener = "use std::net::TcpListener;\nfn f() { let l = TcpListener::bind(\"0\"); }\n";
        let found = findings_for("crates/server/src/x.rs", listener);
        assert_eq!(rules(&found), vec!["net-boundary"; 3]);
        assert!(found[0].message.contains("crates/http"));
        // A bare ident is flagged even without the `std::net` path in sight.
        let bare = "fn f(s: TcpStream) {}\n";
        assert_eq!(rules(&findings_for("crates/rdf/src/x.rs", bare)), vec!["net-boundary"]);
        let udp = "fn f() { let _ = std::net::UdpSocket::bind(\"0\"); }\n";
        assert_eq!(
            rules(&findings_for("crates/gml/src/x.rs", udp)),
            vec!["net-boundary", "net-boundary"]
        );
        // The frontend crate, vendor, integration tests and #[cfg(test)]
        // modules are all allowed to touch sockets.
        let src = "use std::net::{TcpListener, TcpStream};\n";
        assert!(findings_for("crates/http/src/client.rs", src).is_empty());
        assert!(findings_for("vendor/parking_lot/src/lib.rs", src).is_empty());
        assert!(findings_for("crates/server/tests/x.rs", src).is_empty());
        let gated = "#[cfg(test)]\nmod tests {\n    use std::net::TcpStream;\n}\n";
        assert!(findings_for("crates/server/src/x.rs", gated).is_empty());
        // `std::net::SocketAddr` outside the frontend is still flagged —
        // the address type rides along with the path ban; plain
        // non-socket idents obviously don't.
        let fine = "fn f() { let x = std::io::Error::last_os_error(); }\n";
        assert!(findings_for("crates/server/src/x.rs", fine).is_empty());
        // Strings and comments never trigger it.
        let quoted = "// TcpStream\nconst S: &str = \"std::net::TcpListener\";\n";
        assert!(findings_for("crates/server/src/x.rs", quoted).is_empty());
    }

    #[test]
    fn obs_hot_path_bans_locks_in_the_metric_instruments() {
        let locked = "use kgnet_sync::Mutex;\npub struct Histogram { m: Mutex<u64> }\n";
        let found = findings_for("crates/obs/src/metrics.rs", locked);
        assert_eq!(rules(&found), vec!["obs-hot-path", "obs-hot-path"]);
        assert!(found[0].message.contains("lock-free"));
        // Atomics are the sanctioned form.
        let atomic = "use kgnet_sync::atomic::AtomicU64;\n\
                      pub struct Counter { v: AtomicU64 }\n";
        assert!(findings_for("crates/obs/src/metrics.rs", atomic).is_empty());
        // Comments, test code and the rest of the obs crate are out of
        // scope: registry and tracer may lock.
        let elsewhere = "use kgnet_sync::Mutex;\n";
        assert!(findings_for("crates/obs/src/registry.rs", elsewhere).is_empty());
        assert!(findings_for("crates/obs/src/trace.rs", elsewhere).is_empty());
        let in_tests = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    use kgnet_sync::Mutex;\n}\n";
        assert!(findings_for("crates/obs/src/metrics.rs", in_tests).is_empty());
        let comment = "// Mutex would be wrong here\npub fn f() {}\n";
        assert!(findings_for("crates/obs/src/metrics.rs", comment).is_empty());
    }

    #[test]
    fn obs_hot_path_bans_locks_and_allocation_in_the_lock_profiler() {
        // The profiler file is held to the instruments' lock ban...
        let locked = "use kgnet_sync::Mutex;\npub struct SyncSite { m: Mutex<u64> }\n";
        assert_eq!(
            rules(&findings_for("crates/sync/src/profile.rs", locked)),
            vec!["obs-hot-path", "obs-hot-path"]
        );
        // ...plus an allocation ban: the uncontended path may only bump
        // atomics.
        let alloc = "pub fn snapshot() -> Vec<u64> { vec![] }\n";
        let found = findings_for("crates/sync/src/profile.rs", alloc);
        assert_eq!(rules(&found), vec!["obs-hot-path", "obs-hot-path"]);
        assert!(found[0].message.contains("allocation-free"));
        let string = "pub fn name() -> String { \"x\".to_string() }\n";
        assert_eq!(
            rules(&findings_for("crates/sync/src/profile.rs", string)),
            vec!["obs-hot-path", "obs-hot-path"]
        );
        // Static counters in the sanctioned form pass.
        let atomic = "use std::sync::atomic::AtomicU64;\n\
                      pub struct SyncSite { acquires: AtomicU64 }\n";
        assert!(findings_for("crates/sync/src/profile.rs", atomic).is_empty());
        // The allocation ban is scoped to the profiler: the aggregation
        // module may build Vecs and the instruments file may format.
        let sites = "pub fn all() -> Vec<u64> { Vec::new() }\n";
        assert!(findings_for("crates/sync/src/sites.rs", sites).is_empty());
        let obs_alloc = "pub fn render() -> String { String::new() }\n";
        assert!(findings_for("crates/obs/src/metrics.rs", obs_alloc).is_empty());
        // Test code inside the profiler is out of scope.
        let in_tests =
            "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() -> Vec<u64> { vec![] }\n}\n";
        assert!(findings_for("crates/sync/src/profile.rs", in_tests).is_empty());
    }

    #[test]
    fn metric_once_flags_a_second_literal_of_a_metric_name() {
        let twice = "const A: &str = \"kgnet_x_total\";\nfn f(r: &R) { r.counter(\"kgnet_x_total\", \"x\"); }\n";
        let found = findings_for("crates/server/src/metrics.rs", twice);
        assert_eq!(rules(&found), vec!["metric-once"]);
        assert_eq!(found[0].line, 2);
        assert!(found[0].message.contains("crates/server/src/metrics.rs:1"));
        // Across files, the later occurrence is flagged; raw strings count.
        let found = lint_sources(vec![
            (PathBuf::from("crates/server/src/a.rs"), "const A: &str = \"kgnet_y\";\n".to_owned()),
            (PathBuf::from("crates/http/src/b.rs"), "const B: &str = r#\"kgnet_y\"#;\n".to_owned()),
        ]);
        assert_eq!(rules(&found), vec!["metric-once"]);
        assert_eq!(found[0].path, PathBuf::from("crates/http/src/b.rs"));
        // One occurrence, other namespaces and non-crate paths are fine.
        assert!(findings_for("crates/server/src/x.rs", "const A: &str = \"kgnet_x\";\n").is_empty());
        let other = "const A: &str = \"http_total\";\nconst B: &str = \"http_total\";\n";
        assert!(findings_for("crates/server/src/x.rs", other).is_empty());
        assert!(findings_for("kgnet_bench/src/x.rs", twice).is_empty());
    }

    #[test]
    fn metric_once_ignores_test_regions() {
        let in_mod = "const A: &str = \"kgnet_x_total\";\n#[cfg(test)]\nmod tests {\n    \
                      const B: &str = \"kgnet_x_total\";\n}\n";
        assert!(findings_for("crates/server/src/metrics.rs", in_mod).is_empty());
        let twice = "const A: &str = \"kgnet_x_total\";\nconst B: &str = \"kgnet_x_total\";\n";
        assert!(findings_for("crates/server/tests/observability.rs", twice).is_empty());
    }

    #[test]
    fn metric_once_skips_format_patterns() {
        let pattern =
            "fn f(b: &str) {\n    let a = format!(\"kgnet_lock_site_{b}_acquires\");\n    \
                       let c = format!(\"kgnet_lock_site_{b}_acquires\");\n}\n";
        assert!(findings_for("crates/server/src/metrics.rs", pattern).is_empty());
    }

    #[test]
    fn reference_only_flags_the_reference_executor_outside_its_home() {
        let call = "fn f(s: &S, q: &Q) {\n    let rows = evaluate_select_materialised(s, q);\n}\n";
        let found = findings_for("crates/server/src/session.rs", call);
        assert_eq!(rules(&found), vec!["reference-only"]);
        assert_eq!(found[0].line, 2);
        let path = "fn f() { kgnet_rdf::sparql::exec_group_materialised(c, p, b); }\n";
        assert_eq!(
            rules(&findings_for("crates/sparqlml/src/manager.rs", path)),
            vec!["reference-only"]
        );
        // A private import counts; so does its use.
        let import = "use kgnet_rdf::sparql::evaluate_select_materialised as oracle;\n";
        assert_eq!(
            rules(&findings_for("crates/rdf/src/sparql/plan.rs", import)),
            vec!["reference-only"]
        );
        // Its home files, a `pub use` re-export, and mentions in comments or
        // strings are fine.
        assert!(findings_for("crates/rdf/src/sparql/eval.rs", call).is_empty());
        assert!(findings_for("crates/rdf/src/sparql/stream.rs", path).is_empty());
        let reexport = "pub use eval::{\n    evaluate_select_materialised, execute,\n};\n\
                        pub(crate) use stream::exec_group_materialised;\n";
        assert!(findings_for("crates/rdf/src/sparql/mod.rs", reexport).is_empty());
        let mention = "// evaluate_select_materialised is the oracle\nconst A: &str = \"exec_group_materialised\";\n";
        assert!(findings_for("crates/rdf/src/sparql/plan.rs", mention).is_empty());
    }

    #[test]
    fn reference_only_ignores_tests_and_paths_outside_crates() {
        let call = "fn f(s: &S, q: &Q) {\n    let rows = evaluate_select_materialised(s, q);\n}\n";
        let in_mod = format!("pub fn g() {{}}\n#[cfg(test)]\nmod tests {{\n{call}}}\n");
        assert!(findings_for("crates/rdf/src/sparql/plan.rs", &in_mod).is_empty());
        assert!(findings_for("tests/sparql_conformance.rs", call).is_empty());
        assert!(findings_for("crates/rdf/tests/stream.rs", call).is_empty());
        assert!(findings_for("kgnet_bench/src/oracle.rs", call).is_empty());
    }
}
