//! Global logical-memory accounting for the training pipeline.
//!
//! The paper reports *training memory* for each pipeline (Figs. 13–15). We
//! cannot measure the resident set of the authors' PyG/DGL processes, so the
//! reproduction charges every matrix/tensor allocation made by the pipeline
//! to a global counter. Peak resident memory of a GML training run is
//! dominated by exactly these buffers (features, adjacency, activations,
//! gradients, optimizer state), so the tracked peak preserves the relative
//! shape the paper reports.
//!
//! The tracker is process-global, lock-free, and safe to update from the
//! thread-pool workers that now run parallel kernels and per-batch gradient
//! tapes: `LIVE` is a plain atomic counter, and the peak is maintained with
//! a CAS max-loop, so no concurrent charge can be lost. Experiments call
//! [`reset_peak`] before a run and read [`peak_bytes`] after it.

use kgnet_sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Record an allocation of `bytes` logical bytes. Callable from any thread.
pub fn charge(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    // CAS max-loop: every concurrent charger either installs its own live
    // volume or observes a strictly larger one, so the recorded peak is
    // exact under parallel allocation (Relaxed suffices — the counters are
    // measurements with no ordering dependencies on other memory).
    let mut peak = PEAK.load(Ordering::Relaxed);
    while live > peak {
        match PEAK.compare_exchange_weak(peak, live, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(p) => peak = p,
        }
    }
}

/// Record a deallocation of `bytes` logical bytes.
pub fn discharge(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

/// Currently live tracked bytes.
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// High-water mark since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Reset the peak to the current live volume (start of an experiment).
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// RAII scope that snapshots the tracker and reports the peak *delta*
/// (additional bytes above the live volume at scope start) observed while it
/// was alive.
pub struct MemScope {
    start_live: usize,
}

impl MemScope {
    /// Open a measurement scope, resetting the global peak.
    pub fn begin() -> Self {
        reset_peak();
        MemScope { start_live: live_bytes() }
    }

    /// Peak additional bytes allocated since the scope began.
    pub fn peak_delta(&self) -> usize {
        peak_bytes().saturating_sub(self.start_live)
    }
}

/// Pretty-print a byte count using binary units.
pub fn fmt_bytes(bytes: usize) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit < UNITS.len() - 1 {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.2} {}", UNITS[unit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn charge_discharge_roundtrip() {
        // Other tests allocate concurrently, so retry until a quiet window.
        let ok = (0..50).any(|_| {
            let before = live_bytes();
            charge(1024);
            let mid = live_bytes() == before + 1024;
            discharge(1024);
            mid && live_bytes() == before
        });
        assert!(ok, "never observed a balanced charge/discharge");
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        reset_peak();
        let base = live_bytes();
        charge(4096);
        let peaked = peak_bytes() >= base + 4096;
        discharge(4096);
        assert!(peaked);
    }

    #[test]
    fn mem_scope_reports_delta() {
        let scope = MemScope::begin();
        charge(10_000);
        discharge(10_000);
        assert!(scope.peak_delta() >= 10_000);
    }

    #[test]
    fn concurrent_charges_from_pool_workers_balance() {
        // Charge/discharge storms from a dedicated 4-thread pool: the books
        // must balance, and the peak must see at least one allocation's
        // worth above the starting point. Retried because unrelated tests
        // allocate concurrently in this process.
        let pool = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let ok = (0..50).any(|_| {
            let before = live_bytes();
            pool.install(|| {
                (0..64usize).into_par_iter().for_each(|_| {
                    charge(4096);
                    std::hint::spin_loop();
                    discharge(4096);
                });
            });
            live_bytes() == before
        });
        assert!(ok, "parallel charge/discharge never balanced");
        // Same retry discipline for the peak assertion: a concurrent test
        // discharging a large buffer mid-scope could otherwise mask the peak.
        let peaked = (0..50).any(|_| {
            let scope = MemScope::begin();
            pool.install(|| {
                (0..8usize).into_par_iter().for_each(|_| {
                    charge(10_000);
                    discharge(10_000);
                });
            });
            scope.peak_delta() >= 10_000
        });
        assert!(peaked, "parallel charges never registered in the peak");
    }

    #[test]
    fn fmt_bytes_units() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.00 KiB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024), "3.00 MiB");
    }
}
