//! Cooperative cancellation and epoch observation for training loops.
//!
//! [`TrainControl`] carries an optional cancel flag and an optional
//! [`EpochObserver`] into every trainer, and owns the one epoch loop they
//! all run: [`TrainControl::run_epochs`]. It polls the flag at the top of
//! each epoch and stops early when it is raised, so cancelling a running
//! job costs at most one epoch of latency — not the remainder of the run.
//! A cancelled run returns the partial result built so far (its
//! `loss_curve` records exactly the epochs that completed); deciding
//! whether to keep or discard it is the caller's job (the
//! GML-as-a-service layer reads [`TrainControl::is_cancelled`] after the
//! run, then discards and reports cancellation).
//!
//! The observer is notified at the bottom of each completed epoch, which
//! is how the serving layer measures per-epoch training time without the
//! trainers depending on any metrics machinery.

use kgnet_sync::atomic::{AtomicBool, Ordering};

/// A per-epoch progress hook. Implementations must be cheap and
/// non-blocking — they run inside the training loop.
pub trait EpochObserver: Sync {
    /// Called once at the end of each completed epoch (0-based).
    fn epoch_completed(&self, epoch: usize);
}

/// Fans one epoch notification out to two observers, letting a caller
/// compose e.g. a latency timer with a resource-usage probe without either
/// knowing about the other ([`TrainControl::with_observer`] takes a single
/// observer).
pub struct PairObserver<'a> {
    first: &'a dyn EpochObserver,
    second: &'a dyn EpochObserver,
}

impl<'a> PairObserver<'a> {
    /// Notify `first`, then `second`, on every completed epoch.
    pub fn new(first: &'a dyn EpochObserver, second: &'a dyn EpochObserver) -> Self {
        PairObserver { first, second }
    }
}

impl EpochObserver for PairObserver<'_> {
    fn epoch_completed(&self, epoch: usize) {
        self.first.epoch_completed(epoch);
        self.second.epoch_completed(epoch);
    }
}

/// A borrowed, copyable handle that runs a trainer's epochs.
#[derive(Clone, Copy, Default)]
pub struct TrainControl<'a> {
    cancel: Option<&'a AtomicBool>,
    observer: Option<&'a dyn EpochObserver>,
}

impl<'a> TrainControl<'a> {
    /// No cancellation, no observation: the run always goes to completion.
    pub const NONE: TrainControl<'static> = TrainControl { cancel: None, observer: None };

    /// Observe `flag`: the run stops at the next epoch boundary after the
    /// flag becomes `true`.
    pub fn with_flag(flag: &'a AtomicBool) -> Self {
        TrainControl { cancel: Some(flag), observer: None }
    }

    /// Attach an epoch observer, keeping any cancel flag.
    pub fn with_observer(self, observer: &'a dyn EpochObserver) -> Self {
        TrainControl { observer: Some(observer), ..self }
    }

    /// True once cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_some_and(|f| f.load(Ordering::SeqCst))
    }

    /// Run up to `epochs` epochs of `epoch`, which trains epoch `e` and
    /// returns its loss. The flag is polled before each epoch, and the
    /// observer hears of each one after its loss is recorded. Returns the
    /// loss curve: one entry per completed epoch.
    pub fn run_epochs(&self, epochs: usize, mut epoch: impl FnMut(usize) -> f32) -> Vec<f32> {
        let mut losses = Vec::with_capacity(epochs);
        for e in 0..epochs {
            if self.is_cancelled() {
                break;
            }
            losses.push(epoch(e));
            if let Some(obs) = self.observer {
                obs.epoch_completed(e);
            }
        }
        losses
    }
}

impl std::fmt::Debug for TrainControl<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrainControl")
            .field("cancellable", &self.cancel.is_some())
            .field("cancelled", &self.is_cancelled())
            .field("observed", &self.observer.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_runs_every_epoch() {
        assert!(!TrainControl::NONE.is_cancelled());
        let losses = TrainControl::NONE.run_epochs(3, |e| e as f32);
        assert_eq!(losses, vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn flag_controls_cancellation() {
        let flag = AtomicBool::new(false);
        let ctl = TrainControl::with_flag(&flag);
        assert!(!ctl.is_cancelled());
        flag.store(true, Ordering::SeqCst);
        assert!(ctl.is_cancelled());
        // Copies observe the same flag.
        let copy = ctl;
        assert!(copy.is_cancelled());
    }

    struct Recorder {
        seen: kgnet_sync::Mutex<Vec<usize>>,
    }

    impl Recorder {
        fn new() -> Self {
            Recorder { seen: kgnet_sync::Mutex::new(Vec::new()) }
        }
    }

    impl EpochObserver for Recorder {
        fn epoch_completed(&self, epoch: usize) {
            self.seen.lock().push(epoch);
        }
    }

    #[test]
    fn flag_raised_inside_epoch_k_ends_the_run_after_it() {
        for k in [0usize, 1, 4] {
            let flag = AtomicBool::new(false);
            let rec = Recorder::new();
            let ctl = TrainControl::with_flag(&flag).with_observer(&rec);
            let losses = ctl.run_epochs(10, |e| {
                if e == k {
                    flag.store(true, Ordering::SeqCst);
                }
                e as f32
            });
            assert_eq!(losses.len(), k + 1, "raised in epoch {k}");
            assert_eq!(*rec.seen.lock(), (0..=k).collect::<Vec<_>>());
        }
    }

    #[test]
    fn flag_raised_before_the_run_runs_zero_epochs() {
        let flag = AtomicBool::new(true);
        let rec = Recorder::new();
        let ctl = TrainControl::with_flag(&flag).with_observer(&rec);
        let losses = ctl.run_epochs(10, |_| panic!("an epoch ran after cancellation"));
        assert!(losses.is_empty());
        assert!(rec.seen.lock().is_empty());
    }

    #[test]
    fn pair_observer_notifies_both_in_order() {
        let a = Recorder::new();
        let b = Recorder::new();
        let pair = PairObserver::new(&a, &b);
        let ctl = TrainControl::default().with_observer(&pair);
        ctl.run_epochs(2, |_| 0.0);
        assert_eq!(*a.seen.lock(), vec![0, 1]);
        assert_eq!(*b.seen.lock(), vec![0, 1]);
    }

    #[test]
    fn debug_reports_observation() {
        let rec = Recorder::new();
        let dbg = format!("{:?}", TrainControl::default().with_observer(&rec));
        assert!(dbg.contains("observed: true"), "{dbg}");
    }
}
