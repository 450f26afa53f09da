//! The paper's evaluation claims, checked at test scale on the synthetic
//! benchmark KGs (seeds 13 and 14, 20 epochs, the default `GnnConfig`):
//!
//! * Figs. 13–15: training on the meta-sampled KG′ takes less tracked
//!   memory than training on the whole KG, and its test metric (accuracy
//!   for NC, Hits@10 for LP) is at least the KG's minus 0.02;
//! * Table I: the benchmark KGs have the paper's edge- and node-type
//!   counts, and DBLP's NC KG′ is a small share of the KG;
//! * §IV.B.2: d1h1 is the best meta-sampling scope for NC.
//!
//! Training time is not asserted here: wall clock on a shared runner says
//! nothing about one change.
//!
//! The LP half of the §IV.B.2 ablation is recorded, not asserted. The
//! paper finds d2h1 the best LP scope; here, on DBLP at 0.25 scale,
//! MorsE's Hits@10 is 0.694/0.653 at d1h1 against 0.484/0.548 at d2h1
//! (seeds 13/14). `SamplingScope::default_for` keeps the paper's d2h1 for
//! LP, and Fig. 15's row below trains at d2h1 too.

use std::sync::{Mutex, MutexGuard};

use kgnet::datagen::vocab::{dblp, yago};
use kgnet::datagen::{generate_dblp, generate_yago, DblpConfig, YagoConfig};
use kgnet::gml::config::{GmlMethodKind, GnnConfig, TrainReport};
use kgnet::gml::dataset::{build_lp_dataset, build_nc_dataset};
use kgnet::gml::{train_lp, train_nc};
use kgnet::graph::{kg_stats, GmlTask, LpTask, NcTask, SplitRatios, SplitStrategy};
use kgnet::rdf::RdfStore;
use kgnet::sampler::{meta_sample_task, SamplingScope};

use GmlMethodKind::{Gcn, GraphSaint, Morse, Rgcn, ShadowSaint};

/// The KG seeds every claim is checked on.
const SEEDS: [u64; 2] = [13, 14];

/// `memtrack` is process-global and the harness runs tests on parallel
/// threads, so every section that builds a dataset or trains holds this
/// lock: an allocation on another test's thread would land in the peak
/// being measured.
static MEASURE: Mutex<()> = Mutex::new(());

fn measure() -> MutexGuard<'static, ()> {
    // A failing test poisons the lock; the others still measure alone.
    MEASURE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn dblp_tenth(seed: u64) -> RdfStore {
    generate_dblp(&DblpConfig::benchmark(seed).scaled(0.1)).0
}

fn dblp_quarter(seed: u64) -> RdfStore {
    generate_dblp(&DblpConfig::benchmark(seed).scaled(0.25)).0
}

fn yago_tenth(seed: u64) -> RdfStore {
    generate_yago(&YagoConfig::benchmark(seed).scaled(0.1)).0
}

/// DBLP paper→venue (Figs. 2, 13).
fn dblp_nc() -> GmlTask {
    GmlTask::NodeClassification(NcTask {
        target_type: dblp::PUBLICATION.into(),
        label_predicate: dblp::PUBLISHED_IN.into(),
    })
}

/// DBLP author→affiliation (Figs. 10, 15).
fn dblp_lp() -> GmlTask {
    GmlTask::LinkPrediction(LpTask {
        source_type: dblp::PERSON.into(),
        edge_predicate: dblp::AFFILIATED_WITH.into(),
        dest_type: dblp::AFFILIATION.into(),
    })
}

/// YAGO place→country (Fig. 14).
fn yago_nc() -> GmlTask {
    GmlTask::NodeClassification(NcTask {
        target_type: yago::PLACE.into(),
        label_predicate: yago::LOCATED_IN_COUNTRY.into(),
    })
}

/// Train `method` on `store` for `task`; the caller holds [`measure`].
fn train(store: &RdfStore, task: &GmlTask, method: GmlMethodKind, seed: u64) -> TrainReport {
    let cfg = GnnConfig { epochs: 20, seed, ..GnnConfig::default() };
    match task {
        GmlTask::NodeClassification(t) => {
            let data =
                build_nc_dataset(store, t, SplitStrategy::Random, SplitRatios::default(), seed);
            train_nc(method, &data, &cfg).report
        }
        GmlTask::LinkPrediction(t) => {
            let data = build_lp_dataset(store, t, SplitRatios::default(), seed);
            train_lp(method, &data, &cfg).report
        }
        GmlTask::EntitySimilarity { .. } => unreachable!("no figure trains similarity"),
    }
}

/// Figs. 13–15. Peaks are compared by direction only: G-SAINT's peak
/// depends on how its batch workers interleave (one seed's full-KG peak
/// read 4.8, 5.2 and 5.2 MB over three release runs on 2 threads, and
/// 3.4 MB at `RAYON_NUM_THREADS=1`). LP runs at 0.25 scale because at 0.1
/// Hits@10's chance level is 0.83.
#[test]
fn kg_prime_is_cheaper_and_at_least_as_accurate() {
    type Row = (&'static str, fn(u64) -> RdfStore, fn() -> GmlTask, GmlMethodKind, SamplingScope);
    let rows: &[Row] = &[
        ("Fig. 13", dblp_tenth, dblp_nc, Gcn, SamplingScope::D1H1),
        ("Fig. 13", dblp_tenth, dblp_nc, GraphSaint, SamplingScope::D1H1),
        ("Fig. 13", dblp_tenth, dblp_nc, Rgcn, SamplingScope::D1H1),
        ("Fig. 13", dblp_tenth, dblp_nc, ShadowSaint, SamplingScope::D1H1),
        ("Fig. 14", yago_tenth, yago_nc, GraphSaint, SamplingScope::D1H1),
        ("Fig. 14", yago_tenth, yago_nc, Rgcn, SamplingScope::D1H1),
        ("Fig. 14", yago_tenth, yago_nc, ShadowSaint, SamplingScope::D1H1),
        ("Fig. 15", dblp_quarter, dblp_lp, Morse, SamplingScope::D2H1),
    ];
    for &(figure, kg_of, task_of, method, scope) in rows {
        let task = task_of();
        for seed in SEEDS {
            let kg = kg_of(seed);
            let prime = meta_sample_task(&kg, &task, scope).store;
            let _measuring = measure();
            let full = train(&kg, &task, method, seed);
            let sampled = train(&prime, &task, method, seed);
            let row = format!("{figure} {method} {} seed {seed}", scope.name());
            assert!(
                sampled.peak_mem_bytes < full.peak_mem_bytes,
                "{row}: KG' peak {} B is not below the KG's {} B",
                sampled.peak_mem_bytes,
                full.peak_mem_bytes
            );
            assert!(
                sampled.test_metric >= full.test_metric - 0.02,
                "{row}: KG' metric {:.3} is below the KG's {:.3} - 0.02",
                sampled.test_metric,
                full.test_metric
            );
        }
    }
}

/// Table I: the paper's DBLP has 48 edge and 42 node types, its YAGO-4 98
/// and 104; and the DBLP paper→venue KG′ is a small share of the KG.
#[test]
fn benchmark_kgs_have_table_one_shape() {
    for seed in SEEDS {
        let dblp_kg = dblp_tenth(seed);
        let d = kg_stats(&dblp_kg);
        assert!(d.n_edge_types >= 40 && d.n_node_types >= 40, "DBLP seed {seed}: {d:?}");
        let y = kg_stats(&yago_tenth(seed));
        assert!(y.n_edge_types >= 90 && y.n_node_types >= 100, "YAGO seed {seed}: {y:?}");

        let prime = meta_sample_task(&dblp_kg, &dblp_nc(), SamplingScope::D1H1).store;
        let share = prime.len() as f64 / dblp_kg.len() as f64;
        assert!(share < 0.35, "DBLP seed {seed}: NC KG' holds {share:.3} of the KG's triples");
    }
}

/// §IV.B.2, NC half: d1h1 beats every wider scope for G-SAINT on DBLP.
#[test]
fn d1h1_is_the_best_nc_scope() {
    let task = dblp_nc();
    for seed in SEEDS {
        let kg = dblp_tenth(seed);
        let _measuring = measure();
        let accuracy = |scope| {
            let prime = meta_sample_task(&kg, &task, scope).store;
            train(&prime, &task, GraphSaint, seed).test_metric
        };
        let d1h1 = accuracy(SamplingScope::D1H1);
        for scope in [SamplingScope::D1H2, SamplingScope::D2H1, SamplingScope::D2H2] {
            let wider = accuracy(scope);
            assert!(
                d1h1 > wider,
                "seed {seed}: d1h1 {d1h1:.3} is not above {} {wider:.3}",
                scope.name()
            );
        }
    }
}

#[test]
fn sampler_scopes_are_monotone_in_size() {
    let (kg, _) = generate_dblp(&DblpConfig::small(103));
    let t = dblp_nc();
    let d1h1 = meta_sample_task(&kg, &t, SamplingScope::D1H1).store.len();
    let d1h2 = meta_sample_task(&kg, &t, SamplingScope::D1H2).store.len();
    let d2h1 = meta_sample_task(&kg, &t, SamplingScope::D2H1).store.len();
    let d2h2 = meta_sample_task(&kg, &t, SamplingScope::D2H2).store.len();
    assert!(d1h1 <= d1h2 && d1h2 <= d2h2, "hop widening must not shrink KG'");
    assert!(d1h1 <= d2h1 && d2h1 <= d2h2, "direction widening must not shrink KG'");
    assert!(d2h2 <= kg.len());
}

#[test]
fn label_edges_never_leak_into_training_graph() {
    let (kg, _) = generate_dblp(&DblpConfig::tiny(107));
    let GmlTask::NodeClassification(task) = dblp_nc() else { unreachable!() };
    let _measuring = measure();
    let data = build_nc_dataset(&kg, &task, SplitStrategy::Random, SplitRatios::default(), 1);
    assert!(data.graph.edge_type_id("<https://www.dblp.org/publishedIn>").is_none());
    // Sanity: other edges are still present.
    assert!(data.graph.edge_type_id("<https://www.dblp.org/authoredBy>").is_some());
}
