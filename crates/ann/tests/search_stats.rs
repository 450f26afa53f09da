//! Search-cost accounting must be exact and pool-size independent: the
//! counters behind [`SearchStats`] are relaxed atomic adds over
//! deterministic candidate sets, so CI runs this suite under
//! `RAYON_NUM_THREADS=1` and `=4` and the numbers must not move.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use kgnet_ann::{
    search_exact, search_exact_with_stats, AnnIndex, AnyIndex, HnswConfig, HnswIndex, IvfIndex,
    Metric, PqConfig, PqIndex, SearchParams, SearchStats, VectorTable,
};

/// Big enough to push the exact/PQ scoring loops onto the parallel path
/// (PAR_MIN_CANDIDATES = 2048), so the atomic counting is exercised under
/// real parallel scheduling on the pool.
const N: usize = 2_500;
const DIM: usize = 16;

fn table(seed: u64) -> VectorTable {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = VectorTable::new(DIM);
    for _ in 0..N {
        let v: Vec<f32> = (0..DIM).map(|_| rng.gen_range(-1.0..1.0)).collect();
        t.push(&v).unwrap();
    }
    t
}

fn query(seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

#[test]
fn exact_scan_costs_one_distance_per_vector() {
    let t = table(7);
    let q = query(8);
    let (hits, stats) = search_exact_with_stats(&t, Metric::L2, &q, 10);
    assert_eq!(hits, search_exact(&t, Metric::L2, &q, 10));
    assert_eq!(stats, SearchStats { candidates: N as u64, distance_computations: N as u64 });
}

#[test]
fn ivf_stats_separate_coarse_scan_from_candidates() {
    let t = table(11);
    let q = query(12);
    let index = IvfIndex::build(&t, 25, 5, 3);
    let params = SearchParams::with_nprobe(4);
    let (hits, stats) = index.search_with_stats(&t, Metric::L2, &q, 10, &params);
    assert_eq!(hits, index.search(&t, Metric::L2, &q, 10, &params));
    // Every candidate came from a probed posting list; the coarse scan adds
    // one l2 evaluation per centroid on top.
    assert!(stats.candidates > 0 && stats.candidates < N as u64);
    assert_eq!(stats.distance_computations, stats.candidates + 25);
    // Deterministic probe order ⇒ identical tallies on any pool size.
    let (_, again) = index.search_with_stats(&t, Metric::L2, &q, 10, &params);
    assert_eq!(again, stats);
}

#[test]
fn pq_stats_count_table_build_codes_and_refine() {
    let t = table(21);
    let q = query(22);
    let index = PqIndex::build(&t, &PqConfig { ks: 32, ..Default::default() });
    // refine = 1 disables the raw-vector rescore: the only distance work is
    // the m·ks table build plus one ADC sum per stored code.
    let no_refine = SearchParams { refine: 1, ..Default::default() };
    let (_, adc_only) = index.search_with_stats(&t, Metric::L2, &q, 10, &no_refine);
    assert_eq!(adc_only.candidates, N as u64);
    let table_cost = adc_only.distance_computations - N as u64;
    assert!(table_cost > 0, "query-to-centroid table build must be counted");
    // refine = 3 rescans the top 3·k candidates against raw vectors.
    let refine = SearchParams { refine: 3, ..Default::default() };
    let (hits, refined) = index.search_with_stats(&t, Metric::L2, &q, 10, &refine);
    assert_eq!(hits, index.search(&t, Metric::L2, &q, 10, &refine));
    assert_eq!(refined.candidates, N as u64);
    assert_eq!(refined.distance_computations, adc_only.distance_computations + 30);
}

#[test]
fn hnsw_default_stats_count_every_raw_distance() {
    let t = table(31);
    let q = query(32);
    let index = HnswIndex::build(&t, Metric::L2, &HnswConfig::default());
    let params = SearchParams::default();
    let (hits, stats) = index.search_with_stats(&t, Metric::L2, &q, 10, &params);
    assert_eq!(hits, index.search(&t, Metric::L2, &q, 10, &params));
    // A graph walk touches well under the full table but at least the beam.
    assert!(stats.candidates >= hits.len() as u64);
    assert!(stats.candidates < N as u64);
    assert_eq!(stats.distance_computations, stats.candidates);
    // The walk is deterministic, so so are the tallies.
    let (_, again) = index.search_with_stats(&t, Metric::L2, &q, 10, &params);
    assert_eq!(again, stats);
}

#[test]
fn any_index_delegates_stats_to_the_family_override() {
    let t = table(41);
    let q = query(42);
    let any = AnyIndex::Ivf(IvfIndex::build(&t, 10, 4, 5));
    let params = SearchParams::with_nprobe(2);
    let (_, via_any) = any.search_with_stats(&t, Metric::L2, &q, 5, &params);
    assert_eq!(via_any.distance_computations, via_any.candidates + 10);
}
