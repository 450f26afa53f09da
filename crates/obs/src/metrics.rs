//! Lock-free metric instruments: [`Counter`], [`Gauge`] and the
//! log-bucketed latency [`Histogram`].
//!
//! Everything in this module is recorded on hot paths — query execution,
//! commit, ANN search — so recording never takes a lock: counters and
//! gauges are single relaxed atomics, and a histogram `record` is five
//! atomic RMWs. `kgnet-lint`'s `obs-hot-path` rule keeps it that way
//! (this file must not name `Mutex`/`RwLock`/`Condvar`).
//!
//! Reading is the interesting part. A histogram snapshot wants *coherent*
//! totals — a `(count, sum, buckets)` triple that some serial execution
//! could actually have produced — without making writers wait. The
//! protocol: `record` brackets its relaxed data updates between an
//! `inflight` increment (Acquire) and decrement (Release); `snapshot`
//! reads `count`, `inflight`, the data, `inflight` again and `count`
//! again, and accepts only when both `inflight` reads were zero and the
//! two `count` reads agree. Any recorder overlapping the read window
//! either shows up in an `inflight` read or bumps `count` between the two
//! reads, so an accepted snapshot has exact totals (`sum(buckets) ==
//! count`, `sum` matches the recorded values). After a bounded number of
//! rejected attempts under sustained write pressure the snapshot is
//! returned best-effort with [`HistogramSnapshot::coherent`] false rather
//! than spinning forever. The `kgnet-check` suite in
//! `crates/obs/tests/model_check.rs` explores this protocol's
//! interleavings exhaustively.

use kgnet_sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// New counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A signed gauge: a value that goes up and down (queue depth, retained
/// bytes, current store generation).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// New gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Overwrite the value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Add `delta` (negative to decrement).
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Sub-bucket resolution: each power-of-two range is split into
/// `2^SUB_BITS` equal sub-buckets, bounding the relative quantile error at
/// `2^-SUB_BITS` (6.25%).
const SUB_BITS: u32 = 4;
const SUBDIVISIONS: usize = 1 << SUB_BITS;

/// Number of buckets: values `0..16` get exact buckets, then 16
/// sub-buckets for each exponent `4..=63`.
pub const N_BUCKETS: usize = SUBDIVISIONS + (64 - SUB_BITS as usize) * SUBDIVISIONS;

/// Bucket index of `v` under log-linear bucketing.
fn bucket_index(v: u64) -> usize {
    if v < SUBDIVISIONS as u64 {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros();
        let sub = ((v >> (exp - SUB_BITS)) & (SUBDIVISIONS as u64 - 1)) as usize;
        SUBDIVISIONS + (exp - SUB_BITS) as usize * SUBDIVISIONS + sub
    }
}

/// Largest value that lands in bucket `i` (inclusive upper bound).
fn bucket_upper(i: usize) -> u64 {
    if i < SUBDIVISIONS {
        i as u64
    } else {
        let exp = SUB_BITS + ((i - SUBDIVISIONS) / SUBDIVISIONS) as u32;
        let sub = ((i - SUBDIVISIONS) % SUBDIVISIONS) as u64;
        let width = 1u64 << (exp - SUB_BITS);
        (1u64 << exp) + sub * width + (width - 1)
    }
}

/// Attempts before a snapshot gives up on coherence under sustained
/// write pressure and returns best-effort values.
const SNAPSHOT_RETRIES: usize = 16;

/// A mergeable log-bucketed histogram of `u64` samples (typically
/// nanoseconds). Recording is lock-free and wait-free: five atomic RMWs,
/// no CAS loop. Quantile estimates carry at most 6.25% relative error.
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    /// Number of `record` calls currently between their first and last
    /// atomic op — the snapshot coherence protocol's write barrier.
    inflight: AtomicU64,
    buckets: Vec<AtomicU64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// New empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            buckets: (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Record one sample. Lock-free; safe from any thread.
    pub fn record(&self, value: u64) {
        self.inflight.fetch_add(1, Ordering::Acquire);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Release);
        self.inflight.fetch_sub(1, Ordering::Release);
    }

    /// Number of recorded samples (racy point read).
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Acquire)
    }

    /// Take a point-in-time snapshot. Retries while recorders are caught
    /// mid-update; an accepted attempt is marked
    /// [`coherent`](HistogramSnapshot::coherent) and has exact totals.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut snap = self.read_once();
        if snap.coherent {
            return snap;
        }
        for _ in 1..SNAPSHOT_RETRIES {
            kgnet_sync::thread::yield_now();
            snap = self.read_once();
            if snap.coherent {
                return snap;
            }
        }
        snap
    }

    /// One snapshot attempt under the coherence protocol described in the
    /// module docs.
    fn read_once(&self) -> HistogramSnapshot {
        let c1 = self.count.load(Ordering::SeqCst);
        let i1 = self.inflight.load(Ordering::SeqCst);
        let sum = self.sum.load(Ordering::Relaxed);
        let max = self.max.load(Ordering::Relaxed);
        let buckets: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let i2 = self.inflight.load(Ordering::SeqCst);
        let c2 = self.count.load(Ordering::SeqCst);
        let coherent = i1 == 0 && i2 == 0 && c1 == c2;
        HistogramSnapshot { count: c2, sum, max, coherent, buckets }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram").field("count", &self.count()).finish_non_exhaustive()
    }
}

/// A point-in-time copy of a [`Histogram`]: totals, max and the full
/// bucket vector. Mergeable, so per-shard or per-run histograms can be
/// combined before quantile estimation.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
    /// True when the snapshot passed the coherence protocol: totals are
    /// exact. False only under sustained concurrent write pressure, where
    /// counts may be off by the number of in-flight recorders.
    pub coherent: bool,
    buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// An empty snapshot (identity for [`merge`](Self::merge)).
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot { count: 0, sum: 0, max: 0, coherent: true, buckets: vec![0; N_BUCKETS] }
    }

    /// Estimate the `q`-quantile (`0.0..=1.0`). Returns the upper bound of
    /// the bucket holding the rank-`ceil(q·count)` sample, clamped to the
    /// observed max — at most 6.25% above the exact value. Zero when
    /// empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Mean of the recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Fold `other` into `self` (bucket-wise sum; max of maxes). The
    /// result is coherent only when both inputs were.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        self.coherent &= other.coherent;
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// Non-empty buckets as `(inclusive upper bound, count)` pairs in
    /// ascending bound order.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets.iter().enumerate().filter(|&(_, &c)| c > 0).map(|(i, &c)| (bucket_upper(i), c))
    }

    /// Sum of all bucket counts (equals `count` in a coherent snapshot).
    pub fn bucket_total(&self) -> u64 {
        self.buckets.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_get_exact_buckets() {
        for v in 0..16u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_upper(v as usize), v);
        }
    }

    #[test]
    fn bucket_bounds_are_contiguous_and_monotone() {
        // Every bucket's upper bound + 1 must be the next bucket's first
        // value, across the exact/log boundary and several exponents.
        for i in 0..N_BUCKETS - 1 {
            let upper = bucket_upper(i);
            assert_eq!(bucket_index(upper), i, "upper bound of bucket {i} maps back");
            if upper < u64::MAX {
                assert_eq!(bucket_index(upper + 1), i + 1, "bucket {i} must abut bucket {}", i + 1);
            }
        }
        assert_eq!(bucket_upper(N_BUCKETS - 1), u64::MAX);
        assert_eq!(bucket_index(u64::MAX), N_BUCKETS - 1);
    }

    #[test]
    fn bucket_width_bounds_relative_error() {
        for v in [17u64, 100, 999, 12_345, 1 << 40, (1 << 50) + 12_321] {
            let upper = bucket_upper(bucket_index(v));
            assert!(upper >= v);
            assert!(
                (upper - v) as f64 <= v as f64 / 16.0 + 1.0,
                "bucket overestimates {v} by more than 6.25%: {upper}"
            );
        }
    }

    #[test]
    fn quantiles_track_exact_on_known_sample() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert!(s.coherent);
        assert_eq!((s.count, s.sum), (1000, 500_500));
        assert_eq!(s.max, 1000);
        for (q, exact) in [(0.5, 500u64), (0.9, 900), (0.99, 990), (1.0, 1000)] {
            let est = s.quantile(q);
            assert!(est >= exact, "p{q} estimate {est} below exact {exact}");
            assert!(
                est as f64 <= exact as f64 * 1.0626,
                "p{q} estimate {est} more than 6.25% above exact {exact}"
            );
        }
    }

    #[test]
    fn merge_is_bucketwise_sum() {
        let (a, b) = (Histogram::new(), Histogram::new());
        for v in [1u64, 5, 100] {
            a.record(v);
        }
        for v in [2u64, 1000] {
            b.record(v);
        }
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!((m.count, m.sum, m.max), (5, 1108, 1000));
        assert_eq!(m.bucket_total(), 5);
        assert!(m.coherent);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let s = Histogram::new().snapshot();
        assert_eq!((s.count, s.sum, s.max), (0, 0, 0));
        assert_eq!(s.quantile(0.99), 0);
        assert_eq!(s.mean(), 0.0);
        assert!(s.nonzero_buckets().next().is_none());
    }
}
