//! Contention-tracked acquire helpers.
//!
//! These functions acquire a facade lock while classifying the
//! acquisition against a static [`SyncSite`]: a try-acquire that succeeds
//! immediately records as uncontended (pure counter bump, no timing
//! syscall), anything else falls back to a timed blocking acquire and
//! records the wait. They return the *plain* facade guards — callers'
//! types do not change when a lock becomes tracked.
//!
//! Under `--cfg kgnet_check` the model checker's locks expose no
//! try-acquire, and wall-clock timing is meaningless across explored
//! schedules anyway, so the helpers degrade to a plain acquire recorded
//! as uncontended: acquisition *counts* stay exact (that is what the
//! model-check case asserts), wait classification is a real-runtime-only
//! concern.

use crate::profile::SyncSite;
use crate::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Acquire `lock`, recording the acquisition against `site`.
#[cfg(not(kgnet_check))]
#[inline]
pub fn lock_tracked<'a, T: ?Sized>(
    lock: &'a Mutex<T>,
    site: &'static SyncSite,
) -> MutexGuard<'a, T> {
    if let Some(guard) = lock.try_lock() {
        site.record_uncontended();
        return guard;
    }
    let t0 = std::time::Instant::now();
    let guard = lock.lock();
    site.record_contended(elapsed_nanos(t0));
    guard
}

/// Acquire shared read access to `lock`, recording against `site`.
#[cfg(not(kgnet_check))]
#[inline]
pub fn read_tracked<'a, T: ?Sized>(
    lock: &'a RwLock<T>,
    site: &'static SyncSite,
) -> RwLockReadGuard<'a, T> {
    if let Some(guard) = lock.try_read() {
        site.record_uncontended();
        return guard;
    }
    let t0 = std::time::Instant::now();
    let guard = lock.read();
    site.record_contended(elapsed_nanos(t0));
    guard
}

/// Acquire exclusive write access to `lock`, recording against `site`.
#[cfg(not(kgnet_check))]
#[inline]
pub fn write_tracked<'a, T: ?Sized>(
    lock: &'a RwLock<T>,
    site: &'static SyncSite,
) -> RwLockWriteGuard<'a, T> {
    if let Some(guard) = lock.try_write() {
        site.record_uncontended();
        return guard;
    }
    let t0 = std::time::Instant::now();
    let guard = lock.write();
    site.record_contended(elapsed_nanos(t0));
    guard
}

#[cfg(not(kgnet_check))]
fn elapsed_nanos(t0: std::time::Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Model-check build: the checker's mutex has no try path; count the
/// acquire, skip wait classification.
#[cfg(kgnet_check)]
#[inline]
pub fn lock_tracked<'a, T: ?Sized>(
    lock: &'a Mutex<T>,
    site: &'static SyncSite,
) -> MutexGuard<'a, T> {
    let guard = lock.lock();
    site.record_uncontended();
    guard
}

/// Model-check build: plain read acquire, counted as uncontended.
#[cfg(kgnet_check)]
#[inline]
pub fn read_tracked<'a, T: ?Sized>(
    lock: &'a RwLock<T>,
    site: &'static SyncSite,
) -> RwLockReadGuard<'a, T> {
    let guard = lock.read();
    site.record_uncontended();
    guard
}

/// Model-check build: plain write acquire, counted as uncontended.
#[cfg(kgnet_check)]
#[inline]
pub fn write_tracked<'a, T: ?Sized>(
    lock: &'a RwLock<T>,
    site: &'static SyncSite,
) -> RwLockWriteGuard<'a, T> {
    let guard = lock.write();
    site.record_uncontended();
    guard
}

#[cfg(all(test, not(kgnet_check)))]
mod tests {
    use super::*;
    use crate::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    #[test]
    fn uncontended_acquires_count_without_wait() {
        static SITE: SyncSite = SyncSite::new("test.tracked.uncontended");
        let m = Mutex::new(7);
        for _ in 0..5 {
            let g = lock_tracked(&m, &SITE);
            assert_eq!(*g, 7);
        }
        let snap = SITE.snapshot();
        assert_eq!(snap.acquires, 5);
        assert_eq!(snap.contended, 0);
        assert_eq!(snap.wait_nanos, 0);
    }

    #[test]
    fn blocked_acquires_record_wait_time() {
        static SITE: SyncSite = SyncSite::new("test.tracked.contended");
        static HOLDING: AtomicBool = AtomicBool::new(false);
        let m = crate::Arc::new(Mutex::new(0u32));
        let holder = {
            let m = crate::Arc::clone(&m);
            crate::thread::spawn(move || {
                let mut g = m.lock();
                HOLDING.store(true, Ordering::Release);
                std::thread::sleep(Duration::from_millis(30));
                *g += 1;
            })
        };
        while !HOLDING.load(Ordering::Acquire) {
            crate::thread::yield_now();
        }
        let g = lock_tracked(&m, &SITE);
        assert_eq!(*g, 1);
        drop(g);
        holder.join().unwrap();
        let snap = SITE.snapshot();
        assert_eq!(snap.acquires, 1);
        assert_eq!(snap.contended, 1);
        assert!(snap.wait_nanos > 0, "contended acquire recorded no wait");
    }

    #[test]
    fn tracked_wrappers_report_both_rwlock_modes() {
        static SITE: SyncSite = SyncSite::new("test.tracked.rwlock");
        let l = RwLock::new(vec![1, 2, 3]);
        assert_eq!(read_tracked(&l, &SITE).len(), 3);
        write_tracked(&l, &SITE).push(4);
        assert_eq!(read_tracked(&l, &SITE).len(), 4);
        let snap = SITE.snapshot();
        assert_eq!(snap.acquires, 3);
        assert_eq!(snap.contended, 0);
    }
}
