//! The answer oracle: what every distinct request must return, computed in
//! set-up with the reference evaluator, and the check each measured
//! response body is held against.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use kgnet::rdf::sparql::{evaluate_select_materialised, parse_select};
use kgnet::rdf::{QueryResult, RdfStore};
use kgnet::sparqlml::{MlOutcome, QueryManager};

use crate::gen::Spec;
use crate::json::unescape_into;

/// What a correct response to one request looks like.
#[derive(Debug, Clone)]
pub enum Check {
    /// The rows, as a multiset: their count and an order-insensitive
    /// checksum.
    Exact { rows: usize, sum: u64 },
    /// A `LIMIT` without a total order: `rows` rows, each drawn from the
    /// un-limited answer (any such subset is a correct answer).
    DrawnFrom { rows: usize, pool: Arc<HashSet<u64>> },
}

/// The oracle's record for one request.
#[derive(Debug, Clone)]
pub struct Answer {
    pub check: Check,
    /// SPARQL-ML requests only: the distinct `?paper` bindings, i.e. the
    /// nodes a per-binding plan asks the inference service about.
    pub subjects: Vec<String>,
}

/// A row's cells folded eight bytes at a time (the check runs on the
/// client's side of a two-core box, so it has to be cheap next to the
/// request it checks), finished with a SplitMix round so that the wrapping
/// sum over rows does not cancel on near-identical rows.
struct RowHasher(u64);

impl RowHasher {
    fn new() -> RowHasher {
        RowHasher(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    /// One cell: its length (which also separates cells), then its bytes.
    /// An unbound cell is a length no text can have.
    fn cell(&mut self, cell: Option<&[u8]>) {
        let Some(text) = cell else { return self.word(u64::MAX) };
        self.word(text.len() as u64);
        let mut chunks = text.chunks_exact(8);
        for chunk in &mut chunks {
            self.word(u64::from_le_bytes(chunk.try_into().expect("chunks of eight")));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.word(u64::from_le_bytes(last));
        }
    }

    fn finish(self) -> u64 {
        let mut z = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Row hashes of a reference result; cells hash as the term text the wire
/// format carries.
fn row_hashes(result: &QueryResult) -> Vec<u64> {
    result
        .rows
        .iter()
        .map(|row| {
            let mut h = RowHasher::new();
            for cell in row {
                h.cell(cell.as_ref().map(|t| t.to_string()).as_deref().map(str::as_bytes));
            }
            h.finish()
        })
        .collect()
}

/// Computes [`Answer`]s against one pinned store version, sharing the
/// un-limited row pools between the specs that name the same text.
pub struct Oracle<'a> {
    store: &'a RdfStore,
    manager: &'a QueryManager,
    pools: HashMap<String, Arc<HashSet<u64>>>,
}

impl<'a> Oracle<'a> {
    pub fn new(store: &'a RdfStore, manager: &'a QueryManager) -> Oracle<'a> {
        Oracle { store, manager, pools: HashMap::new() }
    }

    /// The reference answer to `text`: the materialising reference evaluator
    /// for plain SPARQL, the query manager on the pinned store for
    /// SPARQL-ML (the served path must agree with the direct one).
    fn reference(&self, text: &str) -> QueryResult {
        if text.contains("kgnet:") {
            match self.manager.query(self.store, text) {
                Ok(MlOutcome::Rows(rows)) => rows,
                other => panic!("oracle: SPARQL-ML reference failed for {text}: {other:?}"),
            }
        } else {
            let parsed = parse_select(text).unwrap_or_else(|e| panic!("oracle: {e}: {text}"));
            evaluate_select_materialised(self.store, &parsed)
                .unwrap_or_else(|e| panic!("oracle: {e}: {text}"))
        }
    }

    pub fn answer(&mut self, spec: &Spec) -> Answer {
        let result = self.reference(&spec.text);
        let rows = result.len();
        let mut subjects: Vec<String> = result
            .column_values("paper")
            .flatten()
            .filter_map(|t| t.as_iri().map(str::to_owned))
            .collect();
        subjects.sort_unstable();
        subjects.dedup();
        let check = match &spec.unlimited {
            None => {
                let sum = row_hashes(&result).into_iter().fold(0u64, u64::wrapping_add);
                Check::Exact { rows, sum }
            }
            Some(unlimited) => {
                if !self.pools.contains_key(unlimited) {
                    let pool = row_hashes(&self.reference(unlimited)).into_iter().collect();
                    self.pools.insert(unlimited.clone(), Arc::new(pool));
                }
                Check::DrawnFrom { rows, pool: Arc::clone(&self.pools[unlimited]) }
            }
        };
        Answer { check, subjects }
    }
}

/// Hand `row` the hash of every row of a `POST /sparql` response body
/// (`{"vars":[..],"rows":[[cell,..],..]}`, a cell being a JSON string or
/// `null`) without building a document. Returns the row count, or `None`
/// when the body is not of that shape.
fn scan_rows(body: &[u8], mut row: impl FnMut(u64)) -> Option<usize> {
    let mut at = body.windows(8).position(|w| w == b"\"rows\":[")? + 8;
    let mut rows = 0;
    let mut cell = Vec::new();
    let skip_ws = |at: &mut usize| {
        while body.get(*at).is_some_and(|b| b.is_ascii_whitespace()) {
            *at += 1;
        }
    };
    loop {
        skip_ws(&mut at);
        match *body.get(at)? {
            b']' => return Some(rows),
            b',' => at += 1,
            b'[' => {
                at += 1;
                let mut h = RowHasher::new();
                loop {
                    skip_ws(&mut at);
                    match *body.get(at)? {
                        b']' => {
                            at += 1;
                            break;
                        }
                        b',' => at += 1,
                        b'"' => {
                            let text = body.get(at + 1..)?;
                            // Most cells carry no escape: hash them in place.
                            let stop = text.iter().position(|&b| b == b'"' || b == b'\\')?;
                            let end = if text[stop] == b'"' {
                                h.cell(Some(&text[..stop]));
                                stop
                            } else {
                                cell.clear();
                                let end = unescape_into(text, &mut cell)?;
                                h.cell(Some(&cell));
                                end
                            };
                            at += end + 2;
                        }
                        b'n' if body.get(at..at + 4)? == b"null" => {
                            h.cell(None);
                            at += 4;
                        }
                        _ => return None,
                    }
                }
                row(h.finish());
                rows += 1;
            }
            _ => return None,
        }
    }
}

/// Does `body` carry a correct answer?
pub fn verify(body: &[u8], check: &Check) -> bool {
    match check {
        Check::Exact { rows, sum } => {
            let mut seen = 0u64;
            scan_rows(body, |h| seen = seen.wrapping_add(h)) == Some(*rows) && seen == *sum
        }
        Check::DrawnFrom { rows, pool } => {
            let mut foreign = false;
            scan_rows(body, |h| foreign |= !pool.contains(&h)) == Some(*rows) && !foreign
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgnet::rdf::Term;

    fn result() -> QueryResult {
        QueryResult {
            vars: vec!["a".into(), "b".into()],
            rows: vec![
                vec![Some(Term::iri("http://x/1")), Some(Term::str("say \"hi\"\n"))],
                vec![Some(Term::iri("http://x/2")), None],
            ],
        }
    }

    fn check_of(result: &QueryResult) -> Check {
        let sum = row_hashes(result).into_iter().fold(0u64, u64::wrapping_add);
        Check::Exact { rows: result.len(), sum }
    }

    /// The body the frontend would write for `result` with rows in `order`.
    fn body(result: &QueryResult, order: &[usize]) -> Vec<u8> {
        let rows: Vec<String> = order
            .iter()
            .map(|&i| {
                let cells: Vec<String> = result.rows[i]
                    .iter()
                    .map(|c| match c {
                        Some(t) => crate::json::quote(&t.to_string()),
                        None => "null".to_owned(),
                    })
                    .collect();
                format!("[{}]", cells.join(","))
            })
            .collect();
        format!("{{\"vars\":[\"a\",\"b\"],\"rows\":[{}]}}\n", rows.join(",")).into_bytes()
    }

    #[test]
    fn checksum_ignores_row_order_and_catches_wrong_rows() {
        let r = result();
        let check = check_of(&r);
        assert!(verify(&body(&r, &[0, 1]), &check));
        assert!(verify(&body(&r, &[1, 0]), &check));
        assert!(!verify(&body(&r, &[0]), &check), "missing row");
        assert!(!verify(&body(&r, &[0, 0]), &check), "duplicated row");
        assert!(!verify(b"{\"vars\":[],\"rows\":[[\"x\"]", &check), "truncated body");
        assert!(!verify(b"oops", &check));
    }

    #[test]
    fn limit_answers_may_be_any_subset_of_the_unlimited_rows() {
        let r = result();
        let pool: Arc<HashSet<u64>> = Arc::new(row_hashes(&r).into_iter().collect());
        let check = Check::DrawnFrom { rows: 1, pool };
        assert!(verify(&body(&r, &[0]), &check));
        assert!(verify(&body(&r, &[1]), &check));
        assert!(!verify(&body(&r, &[0, 1]), &check), "too many rows");
        let foreign = b"{\"vars\":[\"a\",\"b\"],\"rows\":[[\"<http://x/9>\",null]]}";
        assert!(!verify(foreign, &check));
    }
}
