//! Artifact lifetime under MVCC: a deleted model's artifact stays in the
//! registry for as long as a retained store version can still list it.
//!
//! A model DELETE removes the model's KGMeta triples from the version its
//! write session commits, generation `G`; a reader pinned to an older
//! version still finds the model there and calls the inference service for
//! it. The model's triples were written after the snapshot it was trained
//! on, generation `T` (its `trained_generation`), so exactly the versions
//! `v` with `T < v < G` can list it. [`RetiredModels`] holds each DELETE's
//! models with their `(T, G)` and removes an artifact from the registry at
//! the first commit after which [`SharedStore::retained_versions`] lists no
//! version in that range. Every commit of the server goes through
//! [`RetiredModels::commit`]; with nothing retired, its sweep is one
//! uncontended lock and an emptiness test.

use kgnet_gmlaas::ModelStore;
use kgnet_rdf::{SharedStore, WriteTxn};
use kgnet_sync::Mutex;

/// Deleted models waiting for the last version that lists them to go.
pub struct RetiredModels {
    registry: ModelStore,
    pending: Mutex<Vec<Retired>>,
}

/// A deleted model, listed by the versions strictly between `trained` and
/// `deleted`.
struct Retired {
    uri: String,
    trained: u64,
    deleted: u64,
}

impl RetiredModels {
    /// Retirement over one model registry.
    pub fn new(registry: ModelStore) -> Self {
        RetiredModels { registry, pending: Mutex::new(Vec::new()) }
    }

    /// The registry whose artifacts this retires.
    pub fn registry(&self) -> &ModelStore {
        &self.registry
    }

    /// Publish `txn`, a transaction of `store` whose model DELETEs removed
    /// the KGMeta of `deleted`, retire those at the committed generation,
    /// then sweep: remove each retired artifact that no retained version
    /// can still list. Returns the committed generation.
    pub fn commit(&self, store: &SharedStore, txn: WriteTxn, deleted: Vec<String>) -> u64 {
        let generation = txn.commit();
        let mut pending = self.pending.lock();
        pending.extend(deleted.into_iter().filter_map(|uri| {
            let trained = self.registry.get(&uri)?.trained_generation;
            Some(Retired { uri, trained, deleted: generation })
        }));
        if pending.is_empty() {
            return generation;
        }
        let retained = store.retained_versions();
        pending.retain(|m| {
            let listed =
                retained.iter().any(|v| m.trained < v.generation && v.generation < m.deleted);
            if !listed {
                self.registry.remove(&m.uri);
            }
            listed
        });
        generation
    }
}
