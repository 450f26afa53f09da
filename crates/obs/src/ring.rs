//! [`Ring`]: the platform's one bounded log — a FIFO that evicts its
//! oldest record when full.
//!
//! The tracer's span buffer, the server's slow-query log and the HTTP
//! access log are each a `Ring`. Every ring locks through the
//! [`SyncSite`] its owner names, so the per-site contention gauges still
//! tell the three apart; evictions are counted, so a saturated ring does
//! not read as a quiet system.

use std::collections::VecDeque;

use kgnet_sync::atomic::{AtomicU64, Ordering};
use kgnet_sync::profile::SyncSite;
use kgnet_sync::tracked::lock_tracked;
use kgnet_sync::Mutex;

/// A bounded FIFO of records: [`push`](Self::push) at capacity evicts the
/// oldest record and counts it as [`dropped`](Self::dropped).
pub struct Ring<T> {
    capacity: usize,
    site: &'static SyncSite,
    records: Mutex<VecDeque<T>>,
    dropped: AtomicU64,
}

impl<T> Ring<T> {
    /// An empty ring retaining at most `capacity` records (at least one),
    /// whose lock acquisitions are recorded against `site`.
    pub fn new(capacity: usize, site: &'static SyncSite) -> Ring<T> {
        Ring {
            capacity: capacity.max(1),
            site,
            records: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Append `record`, evicting the oldest one at capacity.
    pub fn push(&self, record: T) {
        let mut records = lock_tracked(&self.records, self.site);
        if records.len() == self.capacity {
            records.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        records.push_back(record);
    }

    /// Take every retained record, oldest first, leaving the ring empty.
    pub fn drain(&self) -> Vec<T> {
        lock_tracked(&self.records, self.site).drain(..).collect()
    }

    /// Records currently retained.
    pub fn len(&self) -> usize {
        lock_tracked(&self.records, self.site).len()
    }

    /// True when no record is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The most records the ring retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records evicted unread because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

impl<T: Clone> Ring<T> {
    /// Copy of every retained record, oldest first; the ring is unchanged.
    pub fn snapshot(&self) -> Vec<T> {
        lock_tracked(&self.records, self.site).iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static SITE: SyncSite = SyncSite::new("test.obs.ring");

    fn ring(capacity: usize, pushed: u32) -> Ring<u32> {
        let ring = Ring::new(capacity, &SITE);
        (0..pushed).for_each(|i| ring.push(i));
        ring
    }

    #[test]
    fn capacity_is_clamped_to_one() {
        let r = ring(0, 3);
        assert_eq!(r.capacity(), 1);
        assert_eq!(r.snapshot(), vec![2]);
    }

    #[test]
    fn full_ring_evicts_oldest_first_and_counts_drops() {
        let r = ring(3, 5);
        assert_eq!(r.len(), 3);
        assert_eq!(r.snapshot(), vec![2, 3, 4]);
        assert_eq!(r.dropped(), 2);
    }

    #[test]
    fn snapshot_keeps_and_drain_empties() {
        let r = ring(4, 2);
        assert_eq!(r.snapshot(), vec![0, 1]);
        assert_eq!(r.snapshot(), vec![0, 1], "snapshot must not consume");
        assert_eq!(r.drain(), vec![0, 1]);
        assert!(r.is_empty());
        assert!(r.drain().is_empty());
        // A drained ring has room again: no eviction, no drop.
        r.push(9);
        assert_eq!((r.snapshot(), r.dropped()), (vec![9], 0));
    }
}
