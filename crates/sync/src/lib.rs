//! kgnet-sync: the workspace's single doorway to blocking synchronisation.
//!
//! Every crate that holds a lock, parks on a condvar, spins an atomic or
//! spawns a worker thread imports the primitive from here (`kgnet-lint`
//! enforces this — direct `std::sync`/`parking_lot` lock imports outside
//! this facade and `vendor/` fail CI). In a normal build the facade costs
//! nothing: mutexes and rwlocks are the `parking_lot` non-poisoning
//! wrappers, condvars/atomics/threads are thin `std` re-exports.
//!
//! Compiled with `RUSTFLAGS="--cfg kgnet_check"`, the same names resolve to
//! the instrumented primitives of the `kgnet-check` deterministic model
//! checker: one logical thread runs at a time, every operation is a
//! schedule point, and the `#[cfg(kgnet_check)]`-gated `model_check` test
//! suites systematically explore interleavings of the real production code
//! paths (MVCC commit/pin, job-queue cancel/complete, plan-cache fills).
//!
//! API notes shared by both modes:
//! - locks do not poison: a panic while holding a guard simply unlocks;
//! - [`Condvar`] waits on this facade's [`MutexGuard`] and follows the
//!   std shape (`wait` consumes and returns the guard, `wait_timeout`
//!   additionally returns a [`WaitTimeoutResult`]);
//! - [`thread::spawn`]/[`thread::Builder`] mirror `std::thread`.

pub mod profile;
pub mod sites;
pub mod tracked;

// ---- model-checking mode: everything routes through the scheduler ----

#[cfg(kgnet_check)]
pub use kgnet_check::sync::{
    Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, WaitTimeoutResult,
};

#[cfg(kgnet_check)]
pub use kgnet_check::sync::atomic;

#[cfg(kgnet_check)]
pub use kgnet_check::thread;

// ---- normal mode: parking_lot locks, std condvar/atomics/threads ----

#[cfg(not(kgnet_check))]
pub use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// `std::sync::atomic` re-exported under the facade's roof.
#[cfg(not(kgnet_check))]
pub mod atomic {
    pub use std::sync::atomic::{
        AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering,
    };
}

/// `std::thread` spawn/join/yield surface under the facade's roof.
#[cfg(not(kgnet_check))]
pub mod thread {
    pub use std::thread::{spawn, yield_now, Builder, JoinHandle};
}

#[cfg(not(kgnet_check))]
mod condvar {
    use std::sync::PoisonError;
    use std::time::Duration;

    use super::MutexGuard;

    /// Outcome of a [`Condvar::wait_timeout`].
    pub struct WaitTimeoutResult {
        pub(super) timed_out: bool,
    }

    impl WaitTimeoutResult {
        pub fn timed_out(&self) -> bool {
            self.timed_out
        }
    }

    /// A condition variable that waits on the facade's [`MutexGuard`]
    /// (which in normal builds *is* the std guard) and never reports
    /// poisoning.
    #[derive(Default)]
    pub struct Condvar(std::sync::Condvar);

    impl Condvar {
        pub const fn new() -> Self {
            Condvar(std::sync::Condvar::new())
        }

        pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
            self.0.wait(guard).unwrap_or_else(PoisonError::into_inner)
        }

        pub fn wait_timeout<'a, T>(
            &self,
            guard: MutexGuard<'a, T>,
            timeout: Duration,
        ) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
            let (guard, res) =
                self.0.wait_timeout(guard, timeout).unwrap_or_else(PoisonError::into_inner);
            (guard, WaitTimeoutResult { timed_out: res.timed_out() })
        }

        pub fn notify_one(&self) {
            self.0.notify_one();
        }

        pub fn notify_all(&self) {
            self.0.notify_all();
        }
    }
}

#[cfg(not(kgnet_check))]
pub use condvar::{Condvar, WaitTimeoutResult};

// Shared-ownership types are the same in both modes; re-exported so facade
// users can pull their whole sync vocabulary from one place.
pub use std::sync::{Arc, Weak};

#[cfg(test)]
mod tests {
    use super::atomic::{AtomicUsize, Ordering};
    use super::*;
    use std::time::Duration;

    #[test]
    fn mutex_condvar_handshake() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let worker = {
            let pair = Arc::clone(&pair);
            thread::spawn(move || {
                let (flag, cv) = &*pair;
                *flag.lock() = true;
                cv.notify_one();
            })
        };
        let (flag, cv) = &*pair;
        let mut g = flag.lock();
        while !*g {
            g = cv.wait(g);
        }
        drop(g);
        worker.join().unwrap();
    }

    #[test]
    fn wait_timeout_reports_timeout() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let g = m.lock();
        let (_g, res) = cv.wait_timeout(g, Duration::from_millis(5));
        assert!(res.timed_out());
    }

    #[test]
    fn rwlock_and_atomics_work() {
        let lock = Arc::new(RwLock::new(1u32));
        let n = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let lock = Arc::clone(&lock);
                let n = Arc::clone(&n);
                thread::Builder::new()
                    .name("facade-test".to_owned())
                    .spawn(move || {
                        n.fetch_add(*lock.read() as usize, Ordering::SeqCst);
                    })
                    .unwrap()
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        *lock.write() += 1;
        assert_eq!(n.load(Ordering::SeqCst), 2);
        assert_eq!(*lock.read(), 2);
    }
}
