//! Determinism of training: a fixed seed must produce the same model on a
//! one-thread pool as on a multi-thread pool, and the same model as every
//! earlier build of the numeric kernels.
//!
//! The trainers' wave width and reduction order are independent of the pool
//! size, per-batch dropout streams are derived from the logical batch
//! position, and every kernel keeps one accumulation order per output
//! element, so trajectories agree bit for bit. The pool-invariance cases
//! assert exactly that (`to_bits` equality). The fingerprint test pins one
//! FNV-1a hash per method over the bits of the final logits or scores and
//! the loss curve: a kernel change that reorders any sum changes a hash.

use kgnet_datagen::vocab::dblp as v;
use kgnet_datagen::{generate_dblp, DblpConfig};
use kgnet_gml::config::{GmlMethodKind, GnnConfig};
use kgnet_gml::dataset::{build_lp_dataset, build_nc_dataset, LpDataset, NcDataset};
use kgnet_gml::{train_lp, train_nc};
use kgnet_graph::{LpTask, NcTask, SplitRatios, SplitStrategy};

fn tiny_nc() -> NcDataset {
    let (st, _) = generate_dblp(&DblpConfig::tiny(23));
    build_nc_dataset(
        &st,
        &NcTask { target_type: v::PUBLICATION.into(), label_predicate: v::PUBLISHED_IN.into() },
        SplitStrategy::Random,
        SplitRatios::default(),
        5,
    )
}

fn tiny_lp() -> LpDataset {
    let cfg =
        DblpConfig { n_affiliations: 40, n_authors: 120, n_papers: 150, ..DblpConfig::tiny(29) };
    let (st, _) = generate_dblp(&cfg);
    build_lp_dataset(
        &st,
        &LpTask {
            source_type: v::PERSON.into(),
            edge_predicate: v::AFFILIATED_WITH.into(),
            dest_type: v::AFFILIATION.into(),
        },
        SplitRatios::default(),
        7,
    )
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Run `train` once on a 1-thread pool and once on a 4-thread pool, and
/// require the returned buffers to be bit-identical.
fn assert_pools_agree<T: Send>(
    train: impl Fn() -> T + Sync + Send,
    logits: impl Fn(&T) -> &[f32],
    what: &str,
) {
    let single = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    let multi = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
    let a = single.install(&train);
    let b = multi.install(&train);
    assert!(bits(logits(&a)) == bits(logits(&b)), "{what}: 1-thread vs 4-thread outputs differ");
}

#[test]
fn gcn_training_is_pool_size_invariant() {
    let data = tiny_nc();
    let cfg = GnnConfig { epochs: 8, ..GnnConfig::fast_test() };
    assert_pools_agree(
        || train_nc(GmlMethodKind::Gcn, &data, &cfg),
        |t| t.target_logits.as_slice(),
        "GCN",
    );
}

#[test]
fn rgcn_training_is_pool_size_invariant() {
    let data = tiny_nc();
    let cfg = GnnConfig { epochs: 8, ..GnnConfig::fast_test() };
    assert_pools_agree(
        || train_nc(GmlMethodKind::Rgcn, &data, &cfg),
        |t| t.target_logits.as_slice(),
        "RGCN",
    );
}

#[test]
fn shadow_saint_training_is_pool_size_invariant() {
    let data = tiny_nc();
    let cfg = GnnConfig { epochs: 8, batch_size: 32, ..GnnConfig::fast_test() };
    assert_pools_agree(
        || train_nc(GmlMethodKind::ShadowSaint, &data, &cfg),
        |t| t.target_logits.as_slice(),
        "ShadowSAINT",
    );
}

#[test]
fn graph_saint_training_is_pool_size_invariant() {
    let data = tiny_nc();
    let cfg =
        GnnConfig { epochs: 8, saint_roots: 24, saint_walk_length: 2, ..GnnConfig::fast_test() };
    assert_pools_agree(
        || train_nc(GmlMethodKind::GraphSaint, &data, &cfg),
        |t| t.target_logits.as_slice(),
        "GraphSAINT",
    );
}

#[test]
fn morse_training_is_pool_size_invariant() {
    let data = tiny_lp();
    let cfg = GnnConfig { epochs: 6, batch_size: 64, ..GnnConfig::fast_test() };
    assert_pools_agree(
        || train_lp(GmlMethodKind::Morse, &data, &cfg),
        |t| t.scores.as_slice(),
        "MorsE",
    );
}

#[test]
fn transe_training_is_pool_size_invariant() {
    let data = tiny_lp();
    let cfg = GnnConfig { epochs: 10, batch_size: 64, ..GnnConfig::fast_test() };
    assert_pools_agree(
        || train_lp(GmlMethodKind::TransE, &data, &cfg),
        |t| t.scores.as_slice(),
        "TransE",
    );
}

#[test]
fn distmult_training_is_pool_size_invariant() {
    let data = tiny_lp();
    let cfg = GnnConfig { epochs: 10, batch_size: 64, ..GnnConfig::fast_test() };
    assert_pools_agree(
        || train_lp(GmlMethodKind::DistMult, &data, &cfg),
        |t| t.scores.as_slice(),
        "DistMult",
    );
}

#[test]
fn repeated_runs_on_same_pool_are_bit_identical() {
    let data = tiny_nc();
    let cfg = GnnConfig { epochs: 5, batch_size: 32, ..GnnConfig::fast_test() };
    let a = train_nc(GmlMethodKind::ShadowSaint, &data, &cfg);
    let b = train_nc(GmlMethodKind::ShadowSaint, &data, &cfg);
    assert!(
        bits(a.target_logits.as_slice()) == bits(b.target_logits.as_slice()),
        "same pool, same seed must be bit-identical"
    );
}

/// FNV-1a (64-bit) over the little-endian bytes of each value's bits.
fn fnv1a(hash: u64, values: &[f32]) -> u64 {
    values
        .iter()
        .flat_map(|x| x.to_bits().to_le_bytes())
        .fold(hash, |h, byte| (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3))
}

fn fingerprint(output: &[f32], loss_curve: &[f32]) -> u64 {
    fnv1a(fnv1a(0xcbf2_9ce4_8422_2325, output), loss_curve)
}

/// The expected fingerprint of every method on the tiny fixtures with the
/// configuration in [`trained_models_match_their_fingerprints`]. These
/// constants pin the trained models; recapture them only for a deliberate
/// numeric change, and say why in the change log.
const FINGERPRINTS: [(GmlMethodKind, u64); 9] = [
    (GmlMethodKind::Gcn, 0xefbe_822c_debe_37e6),
    (GmlMethodKind::Rgcn, 0xffdb_2c22_b213_9f3a),
    (GmlMethodKind::GraphSaint, 0x6f4e_a6cb_68f4_8eee),
    (GmlMethodKind::ShadowSaint, 0x8a93_5071_e56a_f7e0),
    (GmlMethodKind::Morse, 0xf3eb_9334_2526_d7f9),
    (GmlMethodKind::TransE, 0xd75e_3f0b_9809_d015),
    (GmlMethodKind::DistMult, 0x8d63_38f3_11ef_6c2f),
    (GmlMethodKind::ComplEx, 0xd2c3_3c87_cfac_6713),
    (GmlMethodKind::RotatE, 0x2bf7_65d1_7d62_7e24),
];

#[test]
fn trained_models_match_their_fingerprints() {
    let (nc, lp) = (tiny_nc(), tiny_lp());
    let cfg = GnnConfig {
        epochs: 5,
        batch_size: 64,
        saint_roots: 24,
        seed: 13,
        ..GnnConfig::fast_test()
    };
    let mismatches: Vec<String> = FINGERPRINTS
        .iter()
        .filter_map(|&(method, want)| {
            let got = if GmlMethodKind::NC_METHODS.contains(&method) {
                let out = train_nc(method, &nc, &cfg);
                fingerprint(out.target_logits.as_slice(), &out.report.loss_curve)
            } else {
                let out = train_lp(method, &lp, &cfg);
                fingerprint(out.scores.as_slice(), &out.report.loss_curve)
            };
            (got != want).then(|| format!("{method:?}: got {got:#018x}, want {want:#018x}"))
        })
        .collect();
    assert!(mismatches.is_empty(), "trained models changed:\n{}", mismatches.join("\n"));
}
