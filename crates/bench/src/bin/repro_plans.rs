//! Reproduces the §IV.B.3 rewrite-plan comparison (Figs. 11 vs 12): the
//! per-binding plan issues one HTTP call per paper while the dictionary
//! plan issues exactly one. Measures calls, bytes and wall time as the
//! number of query bindings grows. Each run is serial: one store and one
//! query manager, so the counters see only the measured query.

use std::time::Instant;

use kgnet_datagen::{generate_dblp, DblpConfig};
use kgnet_gml::config::GnnConfig;
use kgnet_rdf::RdfStore;
use kgnet_sparqlml::{ManagerConfig, MlOutcome, QueryManager, RewritePlan};

const TRAIN: &str = r#"
    PREFIX dblp: <https://www.dblp.org/>
    PREFIX kgnet: <https://www.kgnet.com/>
    INSERT INTO <kgnet> { ?s ?p ?o } WHERE { SELECT * FROM kgnet.TrainGML(
      {Name: 'pv', GML-Task:{ TaskType: kgnet:NodeClassifier,
         TargetNode: dblp:Publication, NodeLabel: dblp:publishedIn},
       Method: 'GraphSAINT'})}"#;

const QUERY: &str = r#"
    PREFIX dblp: <https://www.dblp.org/>
    PREFIX kgnet: <https://www.kgnet.com/>
    SELECT ?title ?venue WHERE {
      ?paper a dblp:Publication .
      ?paper dblp:title ?title .
      ?paper ?NodeClassifier ?venue .
      ?NodeClassifier a kgnet:NodeClassifier .
      ?NodeClassifier kgnet:TargetNode dblp:Publication .
      ?NodeClassifier kgnet:NodeLabel dblp:publishedIn . }"#;

/// Train the model on `kg`, check the plan the optimizer picks, then time
/// the query and read the inference counters.
fn run(
    mut kg: RdfStore,
    config: ManagerConfig,
    plan: RewritePlan,
    n_papers: usize,
) -> (usize, usize, f64, usize) {
    let manager = QueryManager::new(config);
    manager.update(&mut kg, TRAIN).expect("train");
    let explain = manager.explain(&kg, QUERY).expect("explain");
    assert_eq!(explain.steps[0].plan, plan);
    manager.service().reset_stats();
    let t0 = Instant::now();
    let out = manager.query(&kg, QUERY).expect("query");
    let elapsed = t0.elapsed().as_secs_f64();
    let MlOutcome::Rows(rows) = out else { panic!("expected rows") };
    assert_eq!(rows.len(), n_papers, "every paper should receive a venue");
    let stats = manager.service().stats();
    (stats.calls, stats.bytes_out, elapsed, rows.len())
}

fn main() {
    println!("Rewrite plans — Fig. 11 (per-binding UDF calls) vs Fig. 12 (dictionary)");
    println!(
        "\n{:<10} {:<12} {:>10} {:>12} {:>10} {:>8}",
        "#papers", "plan", "HTTP calls", "bytes out", "time(ms)", "rows"
    );

    for &n_papers in &[200usize, 800, 2000] {
        let cfg = DblpConfig { n_papers, n_authors: n_papers / 2, ..DblpConfig::small(13) };
        let (kg, _) = generate_dblp(&cfg);

        // Dictionary plan: the optimizer's default choice.
        let mut mgr_cfg = ManagerConfig {
            default_cfg: GnnConfig { epochs: 10, ..GnnConfig::fast_test() },
            ..Default::default()
        };
        let (calls, bytes, time, rows) =
            run(kg, mgr_cfg.clone(), RewritePlan::Dictionary, n_papers);
        println!(
            "{:<10} {:<12} {:>10} {:>12} {:>10.1} {:>8}",
            n_papers,
            "dictionary",
            calls,
            bytes,
            time * 1e3,
            rows
        );

        // Per-binding plan: forced by capping the dictionary memory to zero.
        mgr_cfg.dict_bytes_cap = Some(0);
        let (kg2, _) = generate_dblp(&cfg);
        let (calls, bytes, time, rows) = run(kg2, mgr_cfg, RewritePlan::PerBinding, n_papers);
        println!(
            "{:<10} {:<12} {:>10} {:>12} {:>10.1} {:>8}",
            n_papers,
            "per-binding",
            calls,
            bytes,
            time * 1e3,
            rows
        );
    }
    println!("\nShape check: dictionary plan issues exactly 1 call regardless of |?papers|,");
    println!("per-binding issues |?papers| calls — matching §IV.B.3's analysis.");
}
