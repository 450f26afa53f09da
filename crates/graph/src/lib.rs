//! # kgnet-graph
//!
//! Graph-side substrate of the KGNet reproduction: the heterogeneous graph
//! representation, the RDF→sparse-matrix data transformer of the paper's
//! Fig. 6 (with literal and label-edge removal), train/valid/test splitting
//! (random and community-based) and Table-I-style KG statistics.

#![warn(missing_docs)]

pub mod hetero;
pub mod split;
pub mod stats;
pub mod transform;

pub use hetero::{EdgeTypeId, HeteroGraph, NodeTypeId};
pub use split::{community_split, random_split, Split, SplitRatios, SplitStrategy};
pub use stats::{kg_stats, KgStats};
pub use transform::{
    extract_lp_edges, extract_nc_labels, transform, GmlTask, LpEdges, LpTask, NcLabels, NcTask,
    TransformStats, KGNET_NS,
};

#[cfg(test)]
mod proptests {
    use crate::split::{community_split, random_split, SplitRatios};
    use proptest::prelude::*;
    use rustc_hash::FxHashSet;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random splits are exact partitions for any n and seed.
        #[test]
        fn random_split_is_partition(n in 0usize..500, seed in any::<u64>()) {
            let s = random_split(n, SplitRatios::default(), seed);
            prop_assert_eq!(s.len(), n);
            let all: FxHashSet<u32> = s.train.iter().chain(&s.valid).chain(&s.test).copied().collect();
            prop_assert_eq!(all.len(), n);
        }

        /// Community splits are exact partitions and never split a
        /// neighbour-sharing pair across folds.
        #[test]
        fn community_split_is_partition(
            neighbors in proptest::collection::vec(proptest::collection::vec(0u32..20, 0..3), 0..60),
            seed in any::<u64>(),
        ) {
            let s = community_split(&neighbors, SplitRatios::default(), seed);
            prop_assert_eq!(s.len(), neighbors.len());
            let fold_of = |i: u32| -> u8 {
                if s.train.contains(&i) { 0 } else if s.valid.contains(&i) { 1 } else { 2 }
            };
            for (i, nbs_i) in neighbors.iter().enumerate() {
                for (j, nbs_j) in neighbors.iter().enumerate().skip(i + 1) {
                    if nbs_i.iter().any(|n| nbs_j.contains(n)) {
                        prop_assert_eq!(fold_of(i as u32), fold_of(j as u32));
                    }
                }
            }
        }
    }
}
