//! The admission-controlled training job queue.
//!
//! `TrainGML` requests submitted to a server do not train inline: they are
//! admitted against a configurable resource envelope (reusing the
//! [`TaskBudget`] machinery of `kgnet-gmlaas`), queued, and executed by a
//! fixed set of worker threads — each with its *own* dedicated rayon
//! [`ThreadPool`](rayon::ThreadPool) — so training parallelism can never
//! starve the query threads or the global pool. Jobs move through an
//! explicit lifecycle:
//!
//! ```text
//!            submit                    worker picks up
//!   (admission checks) ──► Queued ───────────────────► Running
//!                             │                           │
//!                             │ cancel                    ├─► Done { model_uri }
//!                             ▼                           ├─► Failed { error }
//!                         Cancelled ◄─────────────────────┘ (cancel observed
//!                                                            before commit, or
//!                                                            a panicking job)
//! ```
//!
//! Transitions are the only ones drawn: a terminal state (`Done`, `Failed`,
//! `Cancelled`) never changes again, and cancelling a `Running` job is
//! best-effort — `cancel` returning `true` only means the flag was
//! delivered while the job was still live; if the runner is already past
//! its last checkpoint the job still finishes `Done` with its model
//! registered, so only the terminal state reported by `status`/`wait` is
//! authoritative. Cancelling an already-terminal job returns `false`. The
//! two-thread interleaving tests below pin both orders of the
//! cancel/complete race.
//!
//! Terminal records are kept for status polling but not forever: the queue
//! retains at most [`QueueConfig::max_terminal_retained`] of them (oldest
//! pruned first), and [`JobQueue::forget`] drops one eagerly once its
//! outcome has been observed, so the job-history map stays bounded on a
//! long-running server.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use kgnet_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use kgnet_sync::profile::SyncSite;
use kgnet_sync::thread::JoinHandle;
use kgnet_sync::tracked::lock_tracked;
use kgnet_sync::{Arc, Condvar, Mutex, MutexGuard};

use kgnet_gml::EpochObserver;
use kgnet_gmlaas::{TaskBudget, TrainRequest};
use kgnet_linalg::memtrack::MemScope;

use crate::metrics::QueueObs;

/// Contention profile of the queue-state mutex: submissions, status polls,
/// cancellations and worker pickups all serialise on it.
static QUEUE_STATE_SITE: SyncSite = SyncSite::new("server.queue_state");

/// Identifier of one submitted job, unique within a queue.
pub type JobId = u64;

/// Lifecycle state of a training job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Admitted and waiting for a worker.
    Queued,
    /// A worker is executing the job on its dedicated pool.
    Running,
    /// Training succeeded and the model was registered.
    Done {
        /// URI of the registered model.
        model_uri: String,
    },
    /// Training failed (or panicked); nothing was registered.
    Failed {
        /// Human-readable failure cause.
        error: String,
    },
    /// Cancelled before completion; nothing was registered.
    Cancelled,
}

impl JobState {
    /// True for `Done`, `Failed` and `Cancelled`.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }
}

/// A snapshot of one job's identity and state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobInfo {
    /// The job id handed out at submission.
    pub id: JobId,
    /// The model name from the originating request.
    pub name: String,
    /// Current lifecycle state.
    pub state: JobState,
    /// What the job consumed while it ran. `None` until the worker finishes
    /// executing it (including for jobs cancelled before ever running).
    pub usage: Option<ResourceUsage>,
}

/// What one executed training job consumed, measured by the worker around
/// the runner invocation. All-integer so snapshots are `Copy` and exactly
/// comparable in tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResourceUsage {
    /// Wall-clock time from worker pickup to the runner returning.
    pub wall_nanos: u64,
    /// CPU time spent inside the job's dedicated pool (sum over its
    /// threads). The runner's own top-level execution runs inline on the
    /// worker thread, so `busy_nanos <= wall_nanos * pool_threads` holds by
    /// construction — only nested fan-out is pool work.
    pub busy_nanos: u64,
    /// Training epochs the runner completed (0 for non-training runners).
    pub epochs: u64,
    /// Triples materialised while sampling the task subgraph.
    pub triples_sampled: u64,
    /// Peak tracked-allocation growth during the job (exact when no other
    /// job runs concurrently; an upper-bound attribution otherwise, since
    /// the allocation tracker's peak is process-global).
    pub peak_mem_delta_bytes: u64,
    /// Time the worker thread spent blocked on contended facade locks
    /// while executing the job (the runner executes inline on this thread).
    pub lock_wait_nanos: u64,
    /// Threads in the job's dedicated training pool.
    pub pool_threads: u64,
    /// Batch items the dedicated pool's workers ran during the job.
    pub pool_jobs: u64,
}

/// The worker-side accumulator a runner reports progress into: epochs via
/// its [`EpochObserver`] impl (compose with a latency timer through
/// [`kgnet_gml::PairObserver`]), sampled triples via
/// [`add_triples_sampled`](Self::add_triples_sampled). The worker folds the
/// totals into the job's [`ResourceUsage`] when the runner returns.
#[derive(Debug, Default)]
pub struct UsageProbe {
    epochs: AtomicU64,
    triples_sampled: AtomicU64,
}

impl UsageProbe {
    /// Credit `n` sampled triples to the job.
    pub fn add_triples_sampled(&self, n: u64) {
        self.triples_sampled.fetch_add(n, Ordering::SeqCst);
    }

    /// Epochs completed so far.
    pub fn epochs(&self) -> u64 {
        self.epochs.load(Ordering::SeqCst)
    }

    /// Triples credited so far.
    pub fn triples_sampled(&self) -> u64 {
        self.triples_sampled.load(Ordering::SeqCst)
    }
}

impl EpochObserver for UsageProbe {
    fn epoch_completed(&self, _epoch: usize) {
        self.epochs.fetch_add(1, Ordering::SeqCst);
    }
}

/// Why a submission was refused at admission time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// The pending queue is at capacity.
    QueueFull {
        /// Jobs currently waiting.
        pending: usize,
        /// The configured cap.
        limit: usize,
    },
    /// The request asks for more resources than the server envelope allows.
    BudgetExceedsEnvelope(String),
    /// The queue is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::QueueFull { pending, limit } => {
                write!(f, "training queue full: {pending} pending (limit {limit})")
            }
            AdmissionError::BudgetExceedsEnvelope(msg) => {
                write!(f, "budget exceeds server envelope: {msg}")
            }
            AdmissionError::ShuttingDown => write!(f, "training queue is shutting down"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Sizing and admission policy of a [`JobQueue`].
#[derive(Debug, Clone)]
pub struct QueueConfig {
    /// Worker threads, i.e. training jobs running concurrently.
    pub max_concurrent: usize,
    /// Cap on jobs waiting in the queue (running jobs excluded).
    pub max_pending: usize,
    /// Threads in each worker's dedicated training pool.
    pub training_threads: usize,
    /// Server-wide per-job resource envelope. A job requesting more memory
    /// or time than the envelope is rejected; a job requesting *less* keeps
    /// its own (tighter) budget; an unlimited request is clamped to the
    /// envelope.
    pub envelope: TaskBudget,
    /// Terminal (`Done`/`Failed`/`Cancelled`) job records retained for
    /// status polling (at least 1). The oldest are pruned beyond this cap
    /// so a long-running server's job history stays bounded; a pruned id
    /// becomes unknown to [`JobQueue::status`] and [`JobQueue::wait`].
    pub max_terminal_retained: usize,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig {
            max_concurrent: 2,
            max_pending: 64,
            training_threads: 2,
            envelope: TaskBudget::unlimited(),
            max_terminal_retained: 256,
        }
    }
}

/// What a runner reports for one executed job.
#[derive(Debug)]
pub enum JobOutcome {
    /// The model was trained and registered under this URI.
    Done(String),
    /// The runner observed the cancellation flag and committed nothing.
    Cancelled,
    /// Training failed; the error is surfaced in [`JobState::Failed`].
    Failed(String),
}

/// The function a worker invokes to execute one admitted request. The
/// [`AtomicBool`] is the job's cancellation flag: runners should check it at
/// phase boundaries (after sampling, before committing results) and report
/// [`JobOutcome::Cancelled`] instead of registering anything when it is set.
/// The [`UsageProbe`] is where the runner reports epoch and sampling
/// progress for per-job resource attribution; ignoring it is fine (the
/// corresponding usage fields just stay zero).
pub type JobRunner = dyn Fn(&TrainRequest, &AtomicBool, &UsageProbe) -> JobOutcome + Send + Sync;

struct QueuedJob {
    id: JobId,
    req: TrainRequest,
    cancel: Arc<AtomicBool>,
}

struct JobEntry {
    name: String,
    state: JobState,
    cancel: Arc<AtomicBool>,
    usage: Option<ResourceUsage>,
}

/// The lock-protected queue state machine. Public but `doc(hidden)`: the
/// deterministic-scheduler regression tests (`tests/server_concurrency.rs`
/// and the `model_check` suite) drive these transition methods directly so
/// the *production* cancel/complete logic is what gets model-checked. Not
/// part of the supported API.
#[doc(hidden)]
#[derive(Default)]
pub struct QueueState {
    pending: VecDeque<QueuedJob>,
    jobs: HashMap<JobId, JobEntry>,
    /// Ids in the order they reached a terminal state, oldest first; the
    /// pruning window for the bounded job history.
    terminal_order: VecDeque<JobId>,
    next_id: JobId,
    shutdown: bool,
    /// Metric handles, when the queue is observed. Terminal-outcome
    /// counters are bumped inside [`finish`](Self::finish) — the one
    /// idempotent transition point — so every job is counted exactly once
    /// no matter how the cancel/complete race interleaves, and pruning or
    /// forgetting a record never un-counts it.
    obs: Option<Arc<QueueObs>>,
}

#[doc(hidden)]
impl QueueState {
    /// Move `id` to a terminal `state` and prune the oldest terminal
    /// records beyond `cap` so the history map stays bounded. A no-op when
    /// the job is already terminal (a cancel can race the worker between
    /// popping a job and observing its flag, finishing it first) or its
    /// record is gone — re-finishing would rewrite a terminal state and
    /// double-count the id in the retention window.
    pub fn finish(&mut self, id: JobId, state: JobState, cap: usize) {
        debug_assert!(state.is_terminal());
        match self.jobs.get_mut(&id) {
            Some(entry) if !entry.state.is_terminal() => {
                if let Some(obs) = &self.obs {
                    match &state {
                        JobState::Done { .. } => obs.jobs_completed.inc(),
                        JobState::Failed { .. } => obs.jobs_failed.inc(),
                        JobState::Cancelled => obs.jobs_cancelled.inc(),
                        JobState::Queued | JobState::Running => {}
                    }
                }
                entry.state = state;
            }
            _ => return,
        }
        self.terminal_order.push_back(id);
        while self.terminal_order.len() > cap.max(1) {
            if let Some(old) = self.terminal_order.pop_front() {
                self.jobs.remove(&old);
            }
        }
    }

    /// The cancellation transition behind [`JobQueue::cancel`], factored
    /// onto the state machine so scheduler tests can drive it under a lock
    /// they control. Semantics documented on [`JobQueue::cancel`].
    pub fn cancel(&mut self, id: JobId, cap: usize) -> bool {
        let Some(entry) = self.jobs.get_mut(&id) else { return false };
        match entry.state {
            JobState::Queued => {
                entry.cancel.store(true, Ordering::SeqCst);
                self.pending.retain(|j| j.id != id);
                self.finish(id, JobState::Cancelled, cap);
                true
            }
            JobState::Running => {
                entry.cancel.store(true, Ordering::SeqCst);
                true
            }
            _ => false,
        }
    }

    /// Attach what a finished job consumed to its record. A no-op once the
    /// record has been pruned or forgotten.
    pub fn attach_usage(&mut self, id: JobId, usage: ResourceUsage) {
        if let Some(entry) = self.jobs.get_mut(&id) {
            entry.usage = Some(usage);
        }
    }

    /// Register a job directly in `Queued` state (test harness entry point;
    /// production submissions go through [`JobQueue::submit`]). Returns the
    /// job's cancellation flag.
    pub fn register(&mut self, id: JobId, name: &str) -> Arc<AtomicBool> {
        let cancel = Arc::new(AtomicBool::new(false));
        self.jobs.insert(
            id,
            JobEntry {
                name: name.to_owned(),
                state: JobState::Queued,
                cancel: Arc::clone(&cancel),
                usage: None,
            },
        );
        cancel
    }

    /// Mark a registered job `Running` (test harness entry point).
    pub fn mark_running(&mut self, id: JobId) {
        if let Some(entry) = self.jobs.get_mut(&id) {
            entry.state = JobState::Running;
        }
    }

    /// Current state of a job, if its record is still retained.
    pub fn state_of(&self, id: JobId) -> Option<JobState> {
        self.jobs.get(&id).map(|e| e.state.clone())
    }

    /// Number of ids recorded as terminal (the retention window length).
    pub fn terminal_count(&self) -> usize {
        self.terminal_order.len()
    }

    /// Mirror the pending-queue length into the depth gauge. Called at
    /// every point `pending` changes length (submit, pickup, queued
    /// cancel, shutdown drain).
    fn sync_depth(&self) {
        if let Some(obs) = &self.obs {
            obs.queue_depth.set(self.pending.len() as i64);
        }
    }
}

struct Shared {
    state: Mutex<QueueState>,
    signal: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        lock_tracked(&self.state, &QUEUE_STATE_SITE)
    }
}

/// The admission-controlled training queue.
pub struct JobQueue {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    config: QueueConfig,
    obs: Option<Arc<QueueObs>>,
}

impl JobQueue {
    /// Start a queue with `config.max_concurrent` workers, each executing
    /// admitted requests through `runner` inside its own dedicated rayon
    /// pool of `config.training_threads` threads.
    pub fn new(config: QueueConfig, runner: Arc<JobRunner>) -> Self {
        Self::build(config, runner, None)
    }

    /// Like [`new`](Self::new), with every lifecycle transition recorded
    /// into the given metric handles.
    pub fn with_metrics(config: QueueConfig, runner: Arc<JobRunner>, obs: Arc<QueueObs>) -> Self {
        Self::build(config, runner, Some(obs))
    }

    fn build(config: QueueConfig, runner: Arc<JobRunner>, obs: Option<Arc<QueueObs>>) -> Self {
        let state = QueueState { obs: obs.clone(), ..QueueState::default() };
        let shared = Arc::new(Shared { state: Mutex::new(state), signal: Condvar::new() });
        let workers = (0..config.max_concurrent.max(1))
            .map(|i| {
                let shared = shared.clone();
                let runner = runner.clone();
                let threads = config.training_threads.max(1);
                let retain = config.max_terminal_retained;
                kgnet_sync::thread::Builder::new()
                    .name(format!("kgnet-train-{i}"))
                    .spawn(move || worker_loop(&shared, &runner, threads, retain))
                    .expect("spawn training worker")
            })
            .collect();
        JobQueue { shared, workers, config, obs }
    }

    /// Admit and enqueue a training request. Admission enforces the pending
    /// cap and the budget envelope; the returned id is used for status
    /// polling, waiting and cancellation.
    pub fn submit(&self, mut req: TrainRequest) -> Result<JobId, AdmissionError> {
        req.budget = match admit_budget(&req.budget, &self.config.envelope) {
            Ok(budget) => budget,
            Err(e) => {
                if let Some(obs) = &self.obs {
                    obs.jobs_rejected.inc();
                }
                return Err(e);
            }
        };
        let mut state = self.shared.lock();
        if state.shutdown {
            if let Some(obs) = &self.obs {
                obs.jobs_rejected.inc();
            }
            return Err(AdmissionError::ShuttingDown);
        }
        if state.pending.len() >= self.config.max_pending {
            if let Some(obs) = &self.obs {
                obs.jobs_rejected.inc();
            }
            return Err(AdmissionError::QueueFull {
                pending: state.pending.len(),
                limit: self.config.max_pending,
            });
        }
        state.next_id += 1;
        let id = state.next_id;
        let cancel = Arc::new(AtomicBool::new(false));
        state.jobs.insert(
            id,
            JobEntry {
                name: req.name.clone(),
                state: JobState::Queued,
                cancel: cancel.clone(),
                usage: None,
            },
        );
        state.pending.push_back(QueuedJob { id, req, cancel });
        if let Some(obs) = &self.obs {
            obs.jobs_submitted.inc();
        }
        state.sync_depth();
        self.shared.signal.notify_all();
        Ok(id)
    }

    /// Snapshot one job.
    pub fn status(&self, id: JobId) -> Option<JobInfo> {
        let state = self.shared.lock();
        state.jobs.get(&id).map(|e| JobInfo {
            id,
            name: e.name.clone(),
            state: e.state.clone(),
            usage: e.usage,
        })
    }

    /// Snapshot every job still on record, ordered by id. Terminal records
    /// pruned by the retention cap or dropped via [`forget`](Self::forget)
    /// are excluded.
    pub fn jobs(&self) -> Vec<JobInfo> {
        let state = self.shared.lock();
        let mut out: Vec<JobInfo> = state
            .jobs
            .iter()
            .map(|(&id, e)| JobInfo {
                id,
                name: e.name.clone(),
                state: e.state.clone(),
                usage: e.usage,
            })
            .collect();
        out.sort_by_key(|j| j.id);
        out
    }

    /// Jobs currently waiting (not running).
    pub fn pending_len(&self) -> usize {
        self.shared.lock().pending.len()
    }

    /// Submissions the queue would still admit before
    /// [`AdmissionError::QueueFull`]: `max_pending` minus the jobs waiting
    /// right now. Readiness probes treat zero headroom as "not ready".
    pub fn admission_headroom(&self) -> usize {
        self.config.max_pending.saturating_sub(self.shared.lock().pending.len())
    }

    /// Request cancellation. A `Queued` job is cancelled immediately; a
    /// `Running` job is flagged and cancels at the runner's next checkpoint.
    /// Returns `false` when the job is unknown or already terminal; `true`
    /// means only that the flag was delivered — a running job past its last
    /// checkpoint still finishes `Done`, so check `status`/`wait` for the
    /// authoritative terminal state before assuming nothing was registered.
    pub fn cancel(&self, id: JobId) -> bool {
        let mut state = self.shared.lock();
        let delivered = state.cancel(id, self.config.max_terminal_retained);
        state.sync_depth();
        if delivered {
            // Wake waiters: a Queued job just went terminal (harmlessly
            // spurious for the Running branch, where only the flag moved).
            self.shared.signal.notify_all();
        }
        delivered
    }

    /// Drop a terminal job's record once its outcome has been observed,
    /// ahead of the automatic retention pruning. Returns `false` when the
    /// id is unknown or the job has not finished yet.
    pub fn forget(&self, id: JobId) -> bool {
        let mut state = self.shared.lock();
        match state.jobs.get(&id) {
            Some(entry) if entry.state.is_terminal() => {
                state.jobs.remove(&id);
                state.terminal_order.retain(|&t| t != id);
                true
            }
            _ => false,
        }
    }

    /// Block until the job reaches a terminal state and return its info.
    /// `None` when the id is unknown: never submitted, or its terminal
    /// record was pruned or forgotten (possibly while this call was
    /// blocked, if enough other jobs finished in between).
    pub fn wait(&self, id: JobId) -> Option<JobInfo> {
        let mut state = self.shared.lock();
        loop {
            let entry = state.jobs.get(&id)?;
            if entry.state.is_terminal() {
                return Some(JobInfo {
                    id,
                    name: entry.name.clone(),
                    state: entry.state.clone(),
                    usage: entry.usage,
                });
            }
            state = self.shared.signal.wait(state);
        }
    }

    /// Stop accepting work, cancel everything still queued, let running jobs
    /// finish, and join the workers. Called automatically on drop.
    pub fn shutdown(&mut self) {
        {
            let mut state = self.shared.lock();
            state.shutdown = true;
            while let Some(job) = state.pending.pop_front() {
                state.finish(job.id, JobState::Cancelled, self.config.max_terminal_retained);
            }
            state.sync_depth();
            self.shared.signal.notify_all();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for JobQueue {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The effective budget for a job under the server envelope: reject
/// requests exceeding a finite envelope cap, clamp unlimited requests down
/// to it, keep tighter requests as-is.
fn admit_budget(job: &TaskBudget, envelope: &TaskBudget) -> Result<TaskBudget, AdmissionError> {
    let mut effective = *job;
    match (job.max_memory_bytes, envelope.max_memory_bytes) {
        (Some(want), Some(cap)) if want > cap => {
            return Err(AdmissionError::BudgetExceedsEnvelope(format!(
                "requested {want} B of training memory, envelope allows {cap} B"
            )));
        }
        (None, Some(cap)) => effective.max_memory_bytes = Some(cap),
        _ => {}
    }
    match (job.max_time_s, envelope.max_time_s) {
        (Some(want), Some(cap)) if want > cap => {
            return Err(AdmissionError::BudgetExceedsEnvelope(format!(
                "requested {want} s of training time, envelope allows {cap} s"
            )));
        }
        (None, Some(cap)) => effective.max_time_s = Some(cap),
        _ => {}
    }
    Ok(effective)
}

fn worker_loop(shared: &Shared, runner: &Arc<JobRunner>, training_threads: usize, retain: usize) {
    // One dedicated pool per worker: training fan-out stays inside it and
    // never competes with the global pool serving queries.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(training_threads)
        .build()
        .expect("build training pool");
    loop {
        let (job, obs) = {
            let mut state = shared.lock();
            loop {
                if let Some(job) = state.pending.pop_front() {
                    state.sync_depth();
                    break (job, state.obs.clone());
                }
                if state.shutdown {
                    return;
                }
                state = shared.signal.wait(state);
            }
        };
        {
            let mut state = shared.lock();
            if job.cancel.load(Ordering::SeqCst) {
                state.finish(job.id, JobState::Cancelled, retain);
                shared.signal.notify_all();
                continue;
            }
            let entry = state.jobs.get_mut(&job.id).expect("popped job is registered");
            entry.state = JobState::Running;
            shared.signal.notify_all();
        }
        let picked_up = Instant::now();
        let mem = MemScope::begin();
        let pool_before = pool.stats();
        let wait_before = kgnet_sync::profile::thread_wait_nanos();
        let probe = UsageProbe::default();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| runner(&job.req, &job.cancel, &probe))
        }))
        .unwrap_or_else(|panic| JobOutcome::Failed(panic_message(&panic)));
        let pool_after = pool.stats();
        let usage = ResourceUsage {
            wall_nanos: crate::metrics::nanos_since(picked_up),
            busy_nanos: pool_after.busy_nanos.saturating_sub(pool_before.busy_nanos),
            epochs: probe.epochs(),
            triples_sampled: probe.triples_sampled(),
            peak_mem_delta_bytes: mem.peak_delta() as u64,
            lock_wait_nanos: kgnet_sync::profile::thread_wait_nanos().saturating_sub(wait_before),
            pool_threads: pool_after.n_threads as u64,
            pool_jobs: pool_after.jobs_executed.saturating_sub(pool_before.jobs_executed),
        };
        let terminal = match outcome {
            JobOutcome::Done(model_uri) => JobState::Done { model_uri },
            JobOutcome::Cancelled => JobState::Cancelled,
            JobOutcome::Failed(error) => JobState::Failed { error },
        };
        if let Some(obs) = &obs {
            obs.job_duration.record(usage.wall_nanos);
            obs.train_pool_busy_nanos.add(usage.busy_nanos);
            obs.train_pool_jobs.add(usage.pool_jobs);
            obs.job_epochs.add(usage.epochs);
            obs.job_triples_sampled.add(usage.triples_sampled);
            obs.job_lock_wait_nanos.add(usage.lock_wait_nanos);
            obs.job_peak_mem.record(usage.peak_mem_delta_bytes);
        }
        let mut state = shared.lock();
        state.attach_usage(job.id, usage);
        state.finish(job.id, terminal, retain);
        shared.signal.notify_all();
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        format!("training job panicked: {s}")
    } else if let Some(s) = panic.downcast_ref::<String>() {
        format!("training job panicked: {s}")
    } else {
        "training job panicked".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgnet_graph::{GmlTask, NcTask};
    use std::sync::mpsc;
    use std::time::Duration;

    fn request(name: &str) -> TrainRequest {
        TrainRequest::new(
            name,
            GmlTask::NodeClassification(NcTask {
                target_type: "http://x/T".into(),
                label_predicate: "http://x/p".into(),
            }),
        )
    }

    /// A runner remote-controlled by the test: it reports `started` on a
    /// channel and blocks until the matching `proceed` message, then obeys
    /// the cancellation flag exactly like the real training runner.
    fn gated_runner(started: mpsc::Sender<JobId>, proceed: mpsc::Receiver<()>) -> Arc<JobRunner> {
        let proceed = Mutex::new(proceed);
        let counter = std::sync::atomic::AtomicU64::new(0);
        Arc::new(move |_req, cancel, _probe: &UsageProbe| {
            let seq = counter.fetch_add(1, Ordering::SeqCst) + 1;
            started.send(seq).unwrap();
            proceed.lock().recv().unwrap();
            if cancel.load(Ordering::SeqCst) {
                JobOutcome::Cancelled
            } else {
                JobOutcome::Done(format!("http://model/{seq}"))
            }
        })
    }

    #[test]
    fn lifecycle_queued_running_done_with_concurrency_one() {
        let (started_tx, started_rx) = mpsc::channel();
        let (proceed_tx, proceed_rx) = mpsc::channel();
        let cfg = QueueConfig { max_concurrent: 1, ..Default::default() };
        let queue = JobQueue::new(cfg, gated_runner(started_tx, proceed_rx));

        let a = queue.submit(request("a")).unwrap();
        started_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(queue.status(a).unwrap().state, JobState::Running);

        // One worker: b must wait behind a.
        let b = queue.submit(request("b")).unwrap();
        assert_eq!(queue.status(b).unwrap().state, JobState::Queued);
        assert_eq!(queue.pending_len(), 1);

        proceed_tx.send(()).unwrap();
        let done = queue.wait(a).unwrap();
        assert_eq!(done.state, JobState::Done { model_uri: "http://model/1".into() });

        started_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        proceed_tx.send(()).unwrap();
        assert!(matches!(queue.wait(b).unwrap().state, JobState::Done { .. }));
    }

    #[test]
    fn interleaving_cancel_wins_when_flagged_before_checkpoint() {
        // Thread 1 (worker) is parked inside the job; thread 2 (test)
        // cancels *before* releasing it, so the runner's checkpoint observes
        // the flag: the only legal terminal state is Cancelled.
        let (started_tx, started_rx) = mpsc::channel();
        let (proceed_tx, proceed_rx) = mpsc::channel();
        let cfg = QueueConfig { max_concurrent: 1, ..Default::default() };
        let queue = JobQueue::new(cfg, gated_runner(started_tx, proceed_rx));

        let id = queue.submit(request("victim")).unwrap();
        started_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(queue.cancel(id), "cancel of a running job is acknowledged");
        proceed_tx.send(()).unwrap();
        assert_eq!(queue.wait(id).unwrap().state, JobState::Cancelled);
        // A terminal job cannot be cancelled again.
        assert!(!queue.cancel(id));
    }

    #[test]
    fn interleaving_completion_wins_when_cancel_arrives_late() {
        // Thread 1 completes the job before thread 2's cancel: the job must
        // stay Done and the late cancel must report failure.
        let (started_tx, started_rx) = mpsc::channel();
        let (proceed_tx, proceed_rx) = mpsc::channel();
        let cfg = QueueConfig { max_concurrent: 1, ..Default::default() };
        let queue = JobQueue::new(cfg, gated_runner(started_tx, proceed_rx));

        let id = queue.submit(request("survivor")).unwrap();
        started_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        proceed_tx.send(()).unwrap();
        let done = queue.wait(id).unwrap();
        assert!(matches!(done.state, JobState::Done { .. }));
        assert!(!queue.cancel(id), "late cancel must not rewrite a terminal state");
        assert!(matches!(queue.status(id).unwrap().state, JobState::Done { .. }));
    }

    #[test]
    fn cancelling_a_queued_job_never_runs_it() {
        let (started_tx, started_rx) = mpsc::channel();
        let (proceed_tx, proceed_rx) = mpsc::channel();
        let cfg = QueueConfig { max_concurrent: 1, ..Default::default() };
        let queue = JobQueue::new(cfg, gated_runner(started_tx, proceed_rx));

        let blocker = queue.submit(request("blocker")).unwrap();
        started_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        let doomed = queue.submit(request("doomed")).unwrap();
        assert!(queue.cancel(doomed));
        assert_eq!(queue.status(doomed).unwrap().state, JobState::Cancelled);
        proceed_tx.send(()).unwrap();
        assert!(matches!(queue.wait(blocker).unwrap().state, JobState::Done { .. }));
        // The cancelled job never reached the runner: exactly one start.
        assert!(started_rx.recv_timeout(Duration::from_millis(300)).is_err());
    }

    #[test]
    fn panicking_job_fails_and_worker_survives() {
        let runner: Arc<JobRunner> = Arc::new(|req, _cancel, _probe| {
            if req.name == "bomb" {
                panic!("boom");
            }
            JobOutcome::Done("http://model/ok".into())
        });
        let cfg = QueueConfig { max_concurrent: 1, ..Default::default() };
        let queue = JobQueue::new(cfg, runner);
        let bomb = queue.submit(request("bomb")).unwrap();
        let ok = queue.submit(request("fine")).unwrap();
        match queue.wait(bomb).unwrap().state {
            // The dedicated pool re-wraps the payload while propagating, so
            // only the panic marker is guaranteed to survive.
            JobState::Failed { error } => assert!(error.contains("panicked"), "error: {error}"),
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(queue.wait(ok).unwrap().state, JobState::Done { .. }));
    }

    #[test]
    fn admission_rejects_over_budget_and_full_queue() {
        let (started_tx, started_rx) = mpsc::channel();
        let (proceed_tx, proceed_rx) = mpsc::channel::<()>();
        let cfg = QueueConfig {
            max_concurrent: 1,
            max_pending: 1,
            envelope: TaskBudget::with_memory(1024),
            ..Default::default()
        };
        let queue = JobQueue::new(cfg, gated_runner(started_tx, proceed_rx));

        // Over-envelope request is refused outright.
        let mut greedy = request("greedy");
        greedy.budget = TaskBudget::with_memory(4096);
        assert!(matches!(queue.submit(greedy), Err(AdmissionError::BudgetExceedsEnvelope(_))));

        // An unlimited request is clamped, not refused.
        let a = queue.submit(request("a")).unwrap();
        started_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        let _b = queue.submit(request("b")).unwrap(); // fills the pending slot
        assert!(matches!(
            queue.submit(request("c")),
            Err(AdmissionError::QueueFull { pending: 1, limit: 1 })
        ));
        // Shutdown with a job still running and one queued: closing the
        // proceed channel makes the parked runner panic (recv error), which
        // the worker reports as Failed; the queued job is cancelled by
        // shutdown and the worker joins cleanly.
        drop(proceed_tx);
        drop(queue);
        let _ = a;
    }

    #[test]
    fn terminal_history_is_bounded_and_forgettable() {
        let runner: Arc<JobRunner> = Arc::new(|_, _, _| JobOutcome::Done("http://model/x".into()));
        let cfg = QueueConfig { max_concurrent: 1, max_terminal_retained: 2, ..Default::default() };
        let queue = JobQueue::new(cfg, runner);
        let ids: Vec<JobId> = (0..4)
            .map(|i| {
                let id = queue.submit(request(&format!("j{i}"))).unwrap();
                queue.wait(id).unwrap();
                id
            })
            .collect();
        // Only the two newest terminal records survive pruning; waiting on
        // a pruned (or never-submitted) id reports unknown instead of
        // blocking or panicking.
        assert!(queue.wait(ids[0]).is_none());
        assert!(queue.wait(9999).is_none());
        assert!(queue.status(ids[0]).is_none());
        assert!(queue.status(ids[1]).is_none());
        assert!(matches!(queue.status(ids[2]).unwrap().state, JobState::Done { .. }));
        assert!(matches!(queue.status(ids[3]).unwrap().state, JobState::Done { .. }));
        // Explicit forget drops a terminal record at once; repeated and
        // already-pruned ids report failure.
        assert!(queue.forget(ids[3]));
        assert!(queue.status(ids[3]).is_none());
        assert!(!queue.forget(ids[3]));
        assert!(!queue.forget(ids[0]));
    }

    #[test]
    fn outcome_counters_survive_pruning_and_forget() {
        let metrics = crate::metrics::ServerMetrics::new();
        let obs = metrics.queue_obs();
        let runner: Arc<JobRunner> = Arc::new(|_, _, _| JobOutcome::Done("http://model/x".into()));
        let cfg = QueueConfig {
            max_concurrent: 1,
            max_terminal_retained: 2,
            envelope: TaskBudget::with_memory(1024),
            ..Default::default()
        };
        let queue = JobQueue::with_metrics(cfg, runner, Arc::clone(&obs));

        let mut greedy = request("greedy");
        greedy.budget = TaskBudget::with_memory(4096);
        assert!(queue.submit(greedy).is_err());
        assert_eq!(obs.jobs_rejected.get(), 1);

        let ids: Vec<JobId> = (0..4)
            .map(|i| {
                let id = queue.submit(request(&format!("j{i}"))).unwrap();
                queue.wait(id).unwrap();
                id
            })
            .collect();
        // Two records pruned by retention, one forgotten explicitly: the
        // monotonic outcome counters keep every job on the books.
        assert!(queue.status(ids[0]).is_none());
        assert!(queue.forget(ids[3]));
        assert_eq!(obs.jobs_submitted.get(), 4);
        assert_eq!(obs.jobs_completed.get(), 4);
        assert_eq!(obs.jobs_failed.get(), 0);
        assert_eq!(obs.jobs_cancelled.get(), 0);
        assert_eq!(obs.queue_depth.get(), 0, "everything drained");
        assert_eq!(obs.job_duration.count(), 4);
    }

    #[test]
    fn finished_jobs_carry_coherent_resource_usage() {
        // The runner reports progress through the probe exactly like the
        // real training runner: sampled triples once, one epoch
        // notification per completed epoch.
        let runner: Arc<JobRunner> = Arc::new(|_req, _cancel, probe| {
            probe.add_triples_sampled(42);
            probe.epoch_completed(0);
            probe.epoch_completed(1);
            JobOutcome::Done("http://model/x".into())
        });
        let cfg = QueueConfig { max_concurrent: 1, training_threads: 2, ..Default::default() };
        let queue = JobQueue::new(cfg, runner);
        let id = queue.submit(request("measured")).unwrap();
        let info = queue.wait(id).unwrap();
        let usage = info.usage.expect("terminal job carries usage");
        assert_eq!(usage.epochs, 2);
        assert_eq!(usage.triples_sampled, 42);
        assert_eq!(usage.pool_threads, 2);
        assert!(usage.wall_nanos > 0, "wall clock advanced");
        // The runner executes inline on the worker thread; only nested
        // fan-out is pool work, so busy time cannot exceed the pool's
        // aggregate capacity over the job's wall time.
        assert!(
            usage.busy_nanos <= usage.wall_nanos.saturating_mul(usage.pool_threads),
            "busy {} must not exceed wall {} x threads {}",
            usage.busy_nanos,
            usage.wall_nanos,
            usage.pool_threads
        );
        // A queued-then-cancelled job never ran: no usage to attribute.
        let (started_tx, started_rx) = mpsc::channel();
        let (proceed_tx, proceed_rx) = mpsc::channel();
        let cfg = QueueConfig { max_concurrent: 1, ..Default::default() };
        let gated = JobQueue::new(cfg, gated_runner(started_tx, proceed_rx));
        let blocker = gated.submit(request("blocker")).unwrap();
        started_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        let doomed = gated.submit(request("doomed")).unwrap();
        assert!(gated.cancel(doomed));
        assert_eq!(gated.status(doomed).unwrap().usage, None);
        proceed_tx.send(()).unwrap();
        assert!(gated.wait(blocker).unwrap().usage.is_some());
    }

    #[test]
    fn finish_never_rewrites_or_double_counts_a_terminal_job() {
        // The cancel/pickup race calls finish twice for one job (cancel
        // sees Queued after the worker popped it; the worker then observes
        // the flag): the second call must be a no-op, or the duplicate id
        // would shrink the retention window by evicting another job's
        // record early.
        let mut state = QueueState::default();
        let cancel = Arc::new(AtomicBool::new(true));
        state
            .jobs
            .insert(1, JobEntry { name: "a".into(), state: JobState::Queued, cancel, usage: None });
        state.finish(1, JobState::Cancelled, 8);
        state.finish(1, JobState::Cancelled, 8);
        assert_eq!(state.terminal_order.len(), 1);
        state.finish(1, JobState::Done { model_uri: "u".into() }, 8);
        assert_eq!(state.jobs[&1].state, JobState::Cancelled, "terminal states are immutable");
        assert_eq!(state.terminal_order.len(), 1);
    }

    #[test]
    fn forget_refuses_live_jobs() {
        let (started_tx, started_rx) = mpsc::channel();
        let (proceed_tx, proceed_rx) = mpsc::channel();
        let cfg = QueueConfig { max_concurrent: 1, ..Default::default() };
        let queue = JobQueue::new(cfg, gated_runner(started_tx, proceed_rx));
        let running = queue.submit(request("running")).unwrap();
        started_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        let queued = queue.submit(request("queued")).unwrap();
        assert!(!queue.forget(running), "running jobs keep their record");
        assert!(!queue.forget(queued), "queued jobs keep their record");
        proceed_tx.send(()).unwrap();
        queue.wait(running).unwrap();
        assert!(queue.forget(running));
        started_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        proceed_tx.send(()).unwrap();
        assert!(matches!(queue.wait(queued).unwrap().state, JobState::Done { .. }));
    }

    #[test]
    fn tighter_job_budget_is_preserved_by_admission() {
        let envelope = TaskBudget {
            max_memory_bytes: Some(1000),
            max_time_s: Some(60.0),
            ..Default::default()
        };
        let tight =
            TaskBudget { max_memory_bytes: Some(10), max_time_s: None, ..Default::default() };
        let admitted = admit_budget(&tight, &envelope).unwrap();
        assert_eq!(admitted.max_memory_bytes, Some(10), "tighter cap kept");
        assert_eq!(admitted.max_time_s, Some(60.0), "unlimited time clamped to envelope");
        let unlimited = admit_budget(&TaskBudget::unlimited(), &envelope).unwrap();
        assert_eq!(unlimited.max_memory_bytes, Some(1000));
    }
}
