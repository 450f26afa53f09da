//! Search-cost accounting must be exact and pool-size independent: the
//! counters behind [`SearchStats`] are relaxed atomic adds over
//! deterministic candidate sets, so CI runs this suite under
//! `RAYON_NUM_THREADS=1` and `=4` and the numbers must not move.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use kgnet_ann::{
    search_exact, search_exact_with_stats, IvfIndex, Metric, SearchStats, VectorTable,
};

/// Big enough to push the exact scoring loop onto the parallel path
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
    let (hits, stats) = index.search_with_stats(&t, Metric::L2, &q, 10, 4);
    assert_eq!(hits, index.search(&t, Metric::L2, &q, 10, 4));
    // Every candidate came from a probed posting list; the coarse scan adds
    // one l2 evaluation per centroid on top.
    assert!(stats.candidates > 0 && stats.candidates < N as u64);
    assert_eq!(stats.distance_computations, stats.candidates + 25);
    // Deterministic probe order ⇒ identical tallies on any pool size.
    let (_, again) = index.search_with_stats(&t, Metric::L2, &q, 10, 4);
    assert_eq!(again, stats);
}
