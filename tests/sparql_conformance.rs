//! Cross-crate integration: SPARQL engine behaviour on generated KGs, and
//! agreement between store-level scans and SPARQL answers.

// The materialised executor is the streaming executor's oracle here.
#![allow(clippy::disallowed_methods)]

use kgnet::datagen::{generate_dblp, generate_yago, DblpConfig, YagoConfig};
use kgnet::rdf::{query, RdfStore, Term};

fn dblp() -> RdfStore {
    generate_dblp(&DblpConfig::tiny(201)).0
}

#[test]
fn counts_agree_with_store_scans() {
    let kg = dblp();
    let pred = kg.lookup(&Term::iri("https://www.dblp.org/authoredBy")).unwrap();
    let scan_count = kg.count(None, Some(pred), None);
    let rows = query(
        &kg,
        "PREFIX dblp: <https://www.dblp.org/>
         SELECT (COUNT(*) AS ?n) WHERE { ?p dblp:authoredBy ?a }",
    )
    .unwrap();
    assert_eq!(rows.rows[0][0].as_ref().unwrap().as_int(), Some(scan_count as i64));
}

#[test]
fn join_filter_order_limit_pipeline() {
    let kg = dblp();
    let rows = query(
        &kg,
        "PREFIX dblp: <https://www.dblp.org/>
         SELECT ?p ?y WHERE {
           ?p a dblp:Publication .
           ?p dblp:yearOfPublication ?y .
           FILTER(?y >= 2000 && ?y < 2010)
         } ORDER BY ?y LIMIT 5",
    )
    .unwrap();
    assert!(rows.len() <= 5);
    let mut last = i64::MIN;
    for row in &rows.rows {
        let y = row[1].as_ref().unwrap().as_int().unwrap();
        assert!((2000..2010).contains(&y));
        assert!(y >= last);
        last = y;
    }
}

#[test]
fn optional_preserves_unmatched_subjects() {
    let kg = dblp();
    let all = query(
        &kg,
        "PREFIX dblp: <https://www.dblp.org/>
         SELECT ?a WHERE { ?a a dblp:Person }",
    )
    .unwrap();
    let with_opt = query(
        &kg,
        "PREFIX dblp: <https://www.dblp.org/>
         SELECT DISTINCT ?a ?c WHERE {
           ?a a dblp:Person .
           OPTIONAL { ?a dblp:collaboratesWith ?c } }",
    )
    .unwrap();
    // Every person appears at least once even without collaborators.
    use std::collections::HashSet;
    let people: HashSet<String> =
        all.rows.iter().map(|r| r[0].as_ref().unwrap().to_string()).collect();
    let with_people: HashSet<String> =
        with_opt.rows.iter().map(|r| r[0].as_ref().unwrap().to_string()).collect();
    assert_eq!(people, with_people);
}

#[test]
fn yago_structure_is_queryable() {
    let (kg, truth) = generate_yago(&YagoConfig::tiny(203));
    let rows = query(
        &kg,
        "PREFIX y: <http://yago-knowledge.org/resource/>
         SELECT ?place ?country WHERE {
           ?place a y:Place . ?place y:locatedInCountry ?country } ",
    )
    .unwrap();
    assert_eq!(rows.len(), truth.place_country.len());
}

// ---------------------------------------------------------------------------
// Regression tests for the SPARQL-semantics fixes
// ---------------------------------------------------------------------------

fn tiny_store(data: &str) -> RdfStore {
    let mut st = RdfStore::new();
    kgnet::rdf::execute(&mut st, &format!("PREFIX x: <http://x/> INSERT DATA {{ {data} }}"))
        .unwrap();
    st
}

/// Run one query on both the streaming and the materialised evaluator,
/// asserting they agree exactly before returning the result.
fn query_both(st: &RdfStore, text: &str) -> kgnet::rdf::QueryResult {
    let q = kgnet::rdf::sparql::parse_select(text).unwrap();
    let streaming = kgnet::rdf::sparql::evaluate_select(st, &q).unwrap();
    let materialised = kgnet::rdf::sparql::evaluate_select_materialised(st, &q).unwrap();
    assert_eq!(streaming, materialised, "executors disagree on {text}");
    streaming
}

#[test]
fn effective_boolean_value_per_spec() {
    let mut st = RdfStore::new();
    kgnet::rdf::execute(
        &mut st,
        r#"PREFIX x: <http://x/> PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
           INSERT DATA {
             x:empty x:v "" . x:str x:v "yes" .
             x:false x:v "false"^^xsd:boolean . x:true x:v "true"^^xsd:boolean .
             x:zero x:v 0 . x:three x:v 3 .
           }"#,
    )
    .unwrap();
    let r = query_both(&st, "PREFIX x: <http://x/> SELECT ?s WHERE { ?s x:v ?o . FILTER(?o) }");
    let mut hits: Vec<String> = r.rows.iter().map(|w| w[0].as_ref().unwrap().to_string()).collect();
    hits.sort();
    // Empty strings, xsd:boolean "false" and numeric zero are all falsy.
    assert_eq!(hits, vec!["<http://x/str>", "<http://x/three>", "<http://x/true>"]);
}

#[test]
fn inequality_across_term_kinds_keeps_rows() {
    let st = tiny_store(r#"x:a x:p x:b . x:a x:p "lit" . x:a x:p 7"#);
    // `?o != x:b` must keep the literal and the integer.
    let r =
        query_both(&st, "PREFIX x: <http://x/> SELECT ?o WHERE { x:a x:p ?o . FILTER(?o != x:b) }");
    assert_eq!(r.len(), 2);
    assert!(r.rows.iter().all(|row| !row[0].as_ref().unwrap().is_iri()));
}

#[test]
fn optional_subselect_binds_instead_of_dropping() {
    let st = tiny_store(
        "x:p1 a x:Pub . x:p2 a x:Pub . x:p3 a x:Pub . x:p1 x:cites x:p2 . x:p2 x:cites x:p3",
    );
    let r = query_both(
        &st,
        "PREFIX x: <http://x/> SELECT ?p ?q WHERE {
           ?p a x:Pub . OPTIONAL { { SELECT ?p ?q WHERE { ?p x:cites ?q } } } } ORDER BY ?p",
    );
    assert_eq!(r.len(), 3);
    assert_eq!(r.rows[0][1].as_ref().unwrap().as_iri(), Some("http://x/p2"));
    assert_eq!(r.rows[1][1].as_ref().unwrap().as_iri(), Some("http://x/p3"));
    assert!(r.rows[2][1].is_none(), "p3 cites nothing and must survive unbound");
}

#[test]
fn order_by_on_unprojected_variable_sorts() {
    let st = tiny_store("x:a x:year 2020 . x:b x:year 2023 . x:c x:year 2021");
    let r =
        query_both(&st, "PREFIX x: <http://x/> SELECT ?s WHERE { ?s x:year ?y } ORDER BY DESC(?y)");
    let order: Vec<&str> =
        r.rows.iter().map(|w| w[0].as_ref().unwrap().as_iri().unwrap()).collect();
    assert_eq!(order, vec!["http://x/b", "http://x/c", "http://x/a"]);
}

#[test]
fn limit_short_circuits_on_generated_dblp() {
    let kg = dblp();
    let q = "PREFIX dblp: <https://www.dblp.org/>
             SELECT ?p ?a WHERE { ?p a dblp:Publication . ?p dblp:authoredBy ?a } LIMIT 5";
    let (rows, stats) = kgnet::rdf::query_with_stats(&kg, q).unwrap();
    assert_eq!(rows.len(), 5);
    let (_, full) = kgnet::rdf::query_with_stats(
        &kg,
        "PREFIX dblp: <https://www.dblp.org/>
         SELECT ?p ?a WHERE { ?p a dblp:Publication . ?p dblp:authoredBy ?a }",
    )
    .unwrap();
    assert!(
        stats.triples_scanned * 10 < full.triples_scanned,
        "LIMIT 5 scanned {} triples, unbounded scan visited {}",
        stats.triples_scanned,
        full.triples_scanned
    );
}

// ---------------------------------------------------------------------------
// Streaming vs materialised evaluator equivalence (property test)
// ---------------------------------------------------------------------------

mod evaluator_equivalence {
    use std::collections::BTreeSet;

    use kgnet::rdf::sparql::ast::{
        Aggregate, Expr, GroupPattern, Order, Projection, ProjectionItem, SelectQuery, TermPattern,
        TriplePattern, Update,
    };
    use kgnet::rdf::sparql::{
        evaluate_select, evaluate_select_materialised, execute_update, UpdateStats,
    };
    use kgnet::rdf::{RdfStore, Term};
    use proptest::prelude::*;
    use proptest::strategy::Just;

    const VARS: [&str; 4] = ["a", "b", "c", "d"];

    fn node(i: usize) -> Term {
        Term::iri(format!("http://x/n{i}"))
    }

    fn pred(i: usize) -> Term {
        Term::iri(format!("http://x/p{i}"))
    }

    /// Object values: graph nodes (for joins) or small integers (for
    /// filters and EBV edge cases).
    fn arb_object() -> impl Strategy<Value = Term> {
        prop_oneof![(0..6usize).prop_map(node), (0..4i64).prop_map(Term::int)]
    }

    fn arb_store() -> impl Strategy<Value = RdfStore> {
        proptest::collection::vec((0..6usize, 0..4usize, arb_object()), 1..40).prop_map(|triples| {
            let mut st = RdfStore::new();
            for (s, p, o) in triples {
                st.insert(node(s), pred(p), o);
            }
            st
        })
    }

    fn arb_term_pattern() -> impl Strategy<Value = TermPattern> {
        prop_oneof![
            (0..4usize).prop_map(|v| TermPattern::Var(VARS[v].to_owned())),
            (0..6usize).prop_map(|i| TermPattern::Ground(node(i))),
        ]
    }

    fn arb_triple() -> impl Strategy<Value = TriplePattern> {
        (
            arb_term_pattern(),
            // Mostly ground predicates, occasionally a variable.
            prop_oneof![
                (0..4usize).prop_map(|i| TermPattern::Ground(pred(i))),
                Just(TermPattern::Var("p".to_owned())),
            ],
            prop_oneof![
                arb_term_pattern(),
                (0..4i64).prop_map(|v| TermPattern::Ground(Term::int(v)))
            ],
        )
            .prop_map(|(s, p, o)| TriplePattern::new(s, p, o))
    }

    fn arb_filter() -> impl Strategy<Value = Expr> {
        let var = |v: usize| Box::new(Expr::Var(VARS[v].to_owned()));
        prop_oneof![
            (0..4usize, 0..4i64)
                .prop_map(move |(v, n)| Expr::Gt(var(v), Box::new(Expr::Const(Term::int(n))))),
            (0..4usize, 0..4usize).prop_map(move |(v, w)| Expr::Ne(var(v), var(w))),
            (0..4usize, 0..6usize)
                .prop_map(move |(v, n)| Expr::Eq(var(v), Box::new(Expr::Const(node(n))))),
            // Bare variable: exercises effective-boolean-value agreement.
            (0..4usize).prop_map(move |v| *var(v)),
            (0..4usize).prop_map(|v| Expr::Bound(VARS[v].to_owned())),
        ]
    }

    fn arb_order() -> impl Strategy<Value = Vec<(String, Order)>> {
        proptest::option::of((0..4usize, any::<bool>())).prop_map(|order| {
            order
                .map(|(v, desc)| (VARS[v].to_owned(), if desc { Order::Desc } else { Order::Asc }))
                .into_iter()
                .collect()
        })
    }

    /// A sub-SELECT over one or two triples: its bindable variables, or one
    /// COUNT (over `*` or a variable, under a fresh alias or one the outer
    /// pattern may bind), with random DISTINCT, ORDER BY, LIMIT and OFFSET.
    fn arb_subselect() -> impl Strategy<Value = SelectQuery> {
        (
            proptest::collection::vec(arb_triple(), 1..=2),
            proptest::option::of((proptest::option::of(0..4usize), 0..5usize)),
            any::<bool>(),
            arb_order(),
            (proptest::option::of(0..4usize), proptest::option::of(0..3usize)),
        )
            .prop_map(|(triples, count, distinct, order_by, (limit, offset))| {
                let pattern = GroupPattern { triples, ..Default::default() };
                let projection = Projection::Items(match count {
                    Some((var, alias)) => vec![ProjectionItem::Agg {
                        agg: match var {
                            Some(v) => Aggregate::CountVar { var: VARS[v].to_owned(), distinct },
                            None => Aggregate::CountAll,
                        },
                        alias: ["n", "a", "b", "c", "d"][alias].to_owned(),
                    }],
                    None => pattern.bindable_vars().into_iter().map(ProjectionItem::Var).collect(),
                });
                SelectQuery { distinct, projection, pattern, order_by, limit, offset }
            })
    }

    /// A group: one to three triples, up to two filters, an optional OPTIONAL
    /// (one triple or a sub-SELECT) and an optional sub-SELECT.
    fn arb_pattern() -> impl Strategy<Value = GroupPattern> {
        let optional = prop_oneof![
            arb_triple().prop_map(|t| GroupPattern { triples: vec![t], ..Default::default() }),
            arb_subselect()
                .prop_map(|sub| GroupPattern { subselects: vec![sub], ..Default::default() }),
        ];
        (
            proptest::collection::vec(arb_triple(), 1..=3),
            proptest::collection::vec(arb_filter(), 0..=2),
            proptest::option::of(optional),
            proptest::option::of(arb_subselect()),
        )
            .prop_map(|(triples, filters, optional, subselect)| GroupPattern {
                triples,
                filters,
                optionals: optional.into_iter().collect(),
                subselects: subselect.into_iter().collect(),
            })
    }

    fn arb_query() -> impl Strategy<Value = SelectQuery> {
        (
            arb_pattern(),
            any::<bool>(),
            proptest::option::of(0..4usize),
            arb_order(),
            (proptest::option::of(0..6usize), proptest::option::of(0..3usize)),
        )
            .prop_map(|(pattern, distinct, proj, order_by, (limit, offset))| SelectQuery {
                distinct,
                projection: match proj {
                    // Project one variable, or everything.
                    Some(v) => Projection::Items(vec![ProjectionItem::Var(VARS[v].to_owned())]),
                    None => Projection::All,
                },
                pattern,
                order_by,
                limit,
                offset,
            })
    }

    /// A `DELETE { … } INSERT { … } WHERE { pattern }` with at least one
    /// template triple; the first goes to DELETE, to INSERT or to both (so
    /// the order of deletion and insertion shows).
    fn arb_modify() -> impl Strategy<Value = Update> {
        (
            (arb_triple(), 0..3usize),
            proptest::collection::vec(arb_triple(), 0..=1),
            proptest::collection::vec(arb_triple(), 0..=1),
            arb_pattern(),
        )
            .prop_map(|((first, into), mut delete, mut insert, pattern)| {
                if into != 1 {
                    delete.push(first.clone());
                }
                if into != 0 {
                    insert.push(first);
                }
                Update::Modify { delete, insert, pattern }
            })
    }

    fn triples(st: &RdfStore) -> BTreeSet<String> {
        st.to_ntriples().lines().map(str::to_owned).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// The streaming pipeline and the materialised reference executor
        /// run the same plan and must produce identical results — same rows,
        /// same order — across BGP joins, FILTER, OPTIONAL, sub-SELECT,
        /// DISTINCT, ORDER BY, LIMIT and OFFSET.
        #[test]
        fn streaming_matches_materialised(store in arb_store(), query in arb_query()) {
            let streaming = evaluate_select(&store, &query);
            let materialised = evaluate_select_materialised(&store, &query);
            match (streaming, materialised) {
                (Ok(s), Ok(m)) => {
                    prop_assert_eq!(s.vars, m.vars);
                    prop_assert_eq!(s.rows, m.rows);
                }
                (s, m) => prop_assert!(false, "evaluator outcomes diverge: {s:?} vs {m:?}"),
            }
        }

        /// A streamed `Modify` leaves the store the reference does: the
        /// materialised executor's `SELECT * WHERE pattern` rows instantiate
        /// the templates, deletions first, on a clone of the store.
        #[test]
        fn streamed_modify_matches_reference(store in arb_store(), update in arb_modify()) {
            let Update::Modify { delete, insert, pattern } = &update else { unreachable!() };
            let select = SelectQuery {
                distinct: false,
                projection: Projection::All,
                pattern: pattern.clone(),
                order_by: vec![],
                limit: None,
                offset: None,
            };
            let rows = evaluate_select_materialised(&store, &select).unwrap();
            let instances = |templates: &[TriplePattern]| -> Vec<(Term, Term, Term)> {
                let mut out = Vec::new();
                for row in &rows.rows {
                    let get = |t: &TermPattern| match t {
                        TermPattern::Ground(term) => Some(term.clone()),
                        TermPattern::Var(v) => rows.column(v).and_then(|i| row[i].clone()),
                    };
                    for tp in templates {
                        if let (Some(s), Some(p), Some(o)) = (get(&tp.s), get(&tp.p), get(&tp.o)) {
                            out.push((s, p, o));
                        }
                    }
                }
                out
            };
            let mut expected = store.clone();
            let mut stats = UpdateStats::default();
            for (s, p, o) in instances(delete) {
                stats.deleted += usize::from(expected.remove(&s, &p, &o));
            }
            for (s, p, o) in instances(insert) {
                stats.inserted += usize::from(expected.insert(s, p, o));
            }

            let mut actual = store.clone();
            prop_assert_eq!(execute_update(&mut actual, &update).unwrap(), stats);
            prop_assert_eq!(triples(&actual), triples(&expected));
        }
    }
}

#[test]
fn updates_roundtrip_through_execute() {
    let mut kg = dblp();
    let before = kg.len();
    kgnet::rdf::execute(&mut kg, "INSERT DATA { <http://x/new> <http://x/p> <http://x/other> }")
        .unwrap();
    assert_eq!(kg.len(), before + 1);
    kgnet::rdf::execute(&mut kg, "DELETE WHERE { <http://x/new> ?p ?o }").unwrap();
    assert_eq!(kg.len(), before);
}
