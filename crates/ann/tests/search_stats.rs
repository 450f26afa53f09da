//! Search-cost accounting must be exact and pool-size independent: the
//! counters behind [`SearchStats`] are relaxed atomic adds over
//! deterministic candidate sets, so CI runs this suite under
//! `RAYON_NUM_THREADS=1` and `=4` and the numbers must not move.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use kgnet_ann::{
    search_exact, search_exact_with_stats, IvfIndex, Metric, SearchStats, VectorTable, Vectors,
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

/// Probing every cell makes IVF an exact scan: the posting lists of the
/// index `build` produces hold every id in `0..n` exactly once, so the
/// full ranking and its scores equal the linear scan's, and every vector
/// is scored once. Covered below the cell count (where `build` clamps the
/// cells to `n`) and above the parallel cutoff (where both searches score
/// on the pool).
#[test]
fn full_probe_ivf_equals_the_exact_scan() {
    const CELLS: usize = 25;
    let big = table(21);
    let small =
        VectorTable::from_rows(DIM, &(0..10).map(|i| big.vector(i).to_vec()).collect::<Vec<_>>())
            .unwrap();
    for t in [&small, &big] {
        let n = t.len();
        let index = IvfIndex::build(t, CELLS, 5, 4);
        for metric in [Metric::L2, Metric::Cosine, Metric::Dot] {
            for seed in 0..3 {
                let q = query(100 + seed);
                let (hits, stats) = index.search_with_stats(t, metric, &q, n, CELLS);
                assert_eq!(hits, search_exact(t, metric, &q, n), "n={n} {metric:?}");
                assert_eq!(stats.candidates, n as u64, "n={n} {metric:?}");
            }
        }
    }
}
