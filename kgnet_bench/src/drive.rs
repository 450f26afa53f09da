//! The load: closed-loop wire clients, the open-loop writer of `mixed-rw`,
//! and the job submitter of `train-job`. Everything is clocked on the
//! client's side of the public call.

use std::sync::Arc;
use std::time::{Duration, Instant};

use kgnet::gmlaas::{ModelArtifact, TrainRequest};
use kgnet::http::Client;
use kgnet::rdf::Term;
use kgnet::server::JobState;

use crate::env::{sleep_until, train_job_requests, Env};
use crate::gen::Workload;
use crate::oracle::verify;
use crate::stats;

/// The measured part of a run: operations started before `start` are
/// warm-up and leave no sample; none start after `end`.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub start: Instant,
    pub end: Instant,
}

impl Window {
    /// `warm` seconds of warm-up from now, then `measure` seconds.
    pub fn after_warmup(warm: Duration, measure: Duration) -> Window {
        let start = Instant::now() + warm;
        Window { start, end: start + measure }
    }
}

/// What one closed-loop client saw inside the window.
#[derive(Debug, Default)]
pub struct ClientLog {
    pub latencies_ms: Vec<f64>,
    pub failed: u64,
    /// Start of the first and end of the last measured operation: the
    /// client's own throughput denominator, so an operation straddling the
    /// window's end is neither lost nor cut.
    span: Option<(Instant, Instant)>,
}

impl ClientLog {
    fn record(&mut self, t0: Instant, t1: Instant, ok: bool) {
        self.latencies_ms.push((t1 - t0).as_secs_f64() * 1e3);
        self.failed += u64::from(!ok);
        self.span = Some((self.span.map_or(t0, |(first, _)| first), t1));
    }

    /// Correct operations per second over this client's measured span.
    fn ops_per_s(&self) -> f64 {
        let ok = self.latencies_ms.len() as u64 - self.failed;
        match self.span {
            Some((first, last)) if last > first => ok as f64 / (last - first).as_secs_f64(),
            _ => 0.0,
        }
    }
}

/// One closed-loop wire client: the next `POST /sparql` goes out when the
/// previous answer has been read and checked.
pub fn wire_client(env: &Env, client: usize, window: Window) -> ClientLog {
    let addr = env.frontend().addr();
    let mut conn = Client::connect(addr).expect("connect to the loopback frontend");
    let mut stream = env.mix.stream(env.seed, client);
    let mut log = ClientLog::default();
    loop {
        let t0 = Instant::now();
        if t0 >= window.end {
            return log;
        }
        let index = stream.next_index();
        let response = conn.post("/sparql", env.mix.specs[index].text.as_bytes());
        let t1 = Instant::now();
        match response {
            Ok(r) if t0 >= window.start => {
                let ok = r.status == 200 && verify(&r.body, &env.answers[index].check);
                log.record(t0, t1, ok);
            }
            Ok(_) => {}
            Err(_) => {
                if t0 >= window.start {
                    log.record(t0, t1, false);
                }
                conn = Client::connect(addr).expect("reconnect to the loopback frontend");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// mixed-rw writer
// ---------------------------------------------------------------------------

/// Commits per second of the `mixed-rw` writer.
const COMMIT_RATE: u64 = 20;
/// Triples inserted (and, five commits later, deleted) per commit.
const BATCH: usize = 20;
/// A commit's batch is deleted this many commits later, which keeps the
/// store's size constant once the writer is past its first `LAG` commits.
const LAG: u64 = 5;
/// A commit that starts later than this after its due time counts as late.
const LATE: Duration = Duration::from_millis(5);

/// A fixed open-loop schedule: operation `k` is due at `start + k * period`
/// whatever happened to the operations before it.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    pub start: Instant,
    pub period: Duration,
}

impl OpenLoop {
    /// The `mixed-rw` writer's schedule: `COMMIT_RATE` commits per second
    /// from `start`.
    pub fn commits_from(start: Instant) -> OpenLoop {
        OpenLoop { start, period: Duration::from_nanos(1_000_000_000 / COMMIT_RATE) }
    }

    pub fn due(&self, k: u64) -> Instant {
        self.start + self.period * u32::try_from(k).expect("schedule index fits u32")
    }

    /// Latency and lateness of an operation that was due at `due`, started
    /// at `started` and finished at `done`. Latency runs from the due time,
    /// so a stall charges every operation it delays, not only the one that
    /// stalled.
    pub fn observe(due: Instant, started: Instant, done: Instant) -> (Duration, bool) {
        (done.saturating_duration_since(due), started.saturating_duration_since(due) > LATE)
    }
}

/// What the open-loop writer saw inside the window.
#[derive(Debug, Default)]
pub struct CommitLog {
    pub latencies_ms: Vec<f64>,
    pub late: u64,
    /// Commits whose effect on the store's size was not the expected one.
    pub failed: u64,
}

fn batch_triple(commit: u64, j: usize) -> (Term, Term, Term) {
    (
        Term::iri(format!("http://bench.kgnet/w/s{commit}_{j}")),
        Term::iri("http://bench.kgnet/w/p"),
        Term::iri(format!("http://bench.kgnet/w/o{j}")),
    )
}

/// One commit of the writer's stream through a write session: insert batch
/// `k`, delete batch `k - LAG`. The reads never touch this predicate, so
/// their answers stay fixed while store versions flip under them.
pub fn commit_batch(env: &Env, k: u64) {
    let mut txn = env.server.write_session();
    txn.with_store(|st| {
        for j in 0..BATCH {
            let (s, p, o) = batch_triple(k, j);
            st.insert(s, p, o);
        }
        if let Some(old) = k.checked_sub(LAG) {
            for j in 0..BATCH {
                let (s, p, o) = batch_triple(old, j);
                st.remove(&s, &p, &o);
            }
        }
    });
    txn.commit();
}

/// The open-loop writer: `COMMIT_RATE` commits per second from
/// `schedule.start` until the window closes, then one unmeasured commit that
/// deletes the batches still live, so the next phase finds the store as this
/// one did.
pub fn writer(env: &Env, schedule: OpenLoop, window: Window) -> CommitLog {
    let mut log = CommitLog::default();
    let base = env.server.store().len();
    let mut k = 0;
    while schedule.due(k) < window.end {
        let due = schedule.due(k);
        sleep_until(due);
        let started = Instant::now();
        commit_batch(env, k);
        let done = Instant::now();
        if due >= window.start {
            let (latency, late) = OpenLoop::observe(due, started, done);
            log.latencies_ms.push(latency.as_secs_f64() * 1e3);
            log.late += u64::from(late);
            let live_batches = (k + 1).min(LAG) as usize;
            if env.server.store().len() != base + live_batches * BATCH {
                log.failed += 1;
            }
        }
        k += 1;
    }
    let mut txn = env.server.write_session();
    txn.with_store(|st| {
        for old in k.saturating_sub(LAG)..k {
            for j in 0..BATCH {
                let (s, p, o) = batch_triple(old, j);
                st.remove(&s, &p, &o);
            }
        }
    });
    txn.commit();
    log
}

// ---------------------------------------------------------------------------
// train-job submitter
// ---------------------------------------------------------------------------

/// One job through the queue: submit, await, and fetch the registered
/// model. `None` when the job was refused or did not end `Done`.
pub fn train_job(env: &Env, req: TrainRequest) -> Option<Arc<ModelArtifact>> {
    let id = env.server.submit_train(req).ok()?;
    let info = env.server.wait(id)?;
    env.server.forget(id);
    let JobState::Done { model_uri } = info.state else { return None };
    let manager = env.server.manager();
    let artifact = manager.read().trainer().model_store().get(&model_uri);
    artifact
}

/// One `train-job` operation: three jobs submitted one at a time and
/// awaited. Returns the models' mean test metric, or `None` when a job
/// failed.
pub fn train_op(env: &Env) -> Option<f64> {
    let requests = train_job_requests();
    let mut metric_sum = 0.0;
    for req in requests.iter().cloned() {
        metric_sum += train_job(env, req)?.accuracy();
    }
    Some(metric_sum / requests.len() as f64)
}

/// Delete every model the operation registered, so the registry and KGMeta
/// are back at their initial size before the next one. `false` when models
/// remain.
pub fn delete_models(env: &Env) -> bool {
    let mut txn = env.server.write_session();
    for class in ["NodeClassifier", "LinkPredictor"] {
        let text = format!(
            "PREFIX kgnet: <https://www.kgnet.com/> \
             DELETE {{ ?m ?p ?o }} WHERE {{ ?m a kgnet:{class} }}"
        );
        if txn.execute(&text).is_err() {
            return false;
        }
    }
    txn.commit();
    let manager = env.server.manager();
    let empty = manager.read().trainer().model_store().is_empty();
    empty
}

/// The closed-loop job submitter; also returns the mean test metric of the
/// measured operations' models.
fn train_client(env: &Env, window: Window) -> (ClientLog, f64) {
    let mut log = ClientLog::default();
    let mut metric_sum = 0.0;
    loop {
        let t0 = Instant::now();
        if t0 >= window.end {
            break;
        }
        let metric = train_op(env);
        let t1 = Instant::now();
        let cleaned = delete_models(env);
        if t0 >= window.start {
            log.record(t0, t1, metric.is_some() && cleaned);
            metric_sum += metric.unwrap_or(0.0);
        }
    }
    let mean = metric_sum / log.latencies_ms.len().max(1) as f64;
    (log, mean)
}

// ---------------------------------------------------------------------------
// One measured phase
// ---------------------------------------------------------------------------

/// Everything one measured phase produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operation latencies inside the window, ascending.
    pub latencies_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub ops_per_s: f64,
    /// `mixed-rw`: the writer's log.
    pub commits: Option<CommitLog>,
    /// `train-job`: mean test metric of the trained models.
    pub accuracy: Option<f64>,
}

impl Outcome {
    pub fn p50_ms(&self) -> f64 {
        stats::quantile(&self.latencies_ms, 0.50)
    }

    pub fn p99_ms(&self) -> f64 {
        stats::quantile(&self.latencies_ms, 0.99)
    }

    fn absorb(&mut self, log: ClientLog) {
        self.attempted += log.latencies_ms.len() as u64;
        self.failed += log.failed;
        self.ops_per_s += log.ops_per_s();
        self.latencies_ms.extend(log.latencies_ms);
    }
}

/// Drive `env`'s workload with `clients` wire clients (ignored by
/// `train-job`) through `warm` seconds of warm-up and `measure` seconds of
/// measurement.
pub fn run(env: &Env, clients: usize, warm: Duration, measure: Duration) -> Outcome {
    let schedule = OpenLoop::commits_from(Instant::now());
    let window = Window::after_warmup(warm, measure);
    let mut outcome = Outcome::default();
    if env.workload == Workload::TrainJob {
        let (log, accuracy) = train_client(env, window);
        outcome.absorb(log);
        outcome.accuracy = Some(accuracy);
    } else {
        std::thread::scope(|scope| {
            let readers: Vec<_> = (0..clients)
                .map(|client| scope.spawn(move || wire_client(env, client, window)))
                .collect();
            let writing = (env.workload == Workload::MixedRw)
                .then(|| scope.spawn(move || writer(env, schedule, window)));
            for reader in readers {
                outcome.absorb(reader.join().expect("wire client panicked"));
            }
            if let Some(writing) = writing {
                let commits = writing.join().expect("writer panicked");
                outcome.attempted += commits.latencies_ms.len() as u64;
                outcome.failed += commits.failed;
                outcome.commits = Some(commits);
            }
        });
    }
    stats::sort(&mut outcome.latencies_ms);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_due_times_do_not_drift_and_latency_runs_from_due() {
        let start = Instant::now();
        let schedule = OpenLoop { start, period: Duration::from_millis(50) };
        assert_eq!(schedule.due(0), start);
        assert_eq!(schedule.due(3), start + Duration::from_millis(150));

        // Commit 3 starts 8 ms late (commit 2 overran) and takes 2 ms: the
        // wait is part of its latency, and it counts as late.
        let due = schedule.due(3);
        let started = due + Duration::from_millis(8);
        let done = started + Duration::from_millis(2);
        assert_eq!(OpenLoop::observe(due, started, done), (Duration::from_millis(10), true));
        // The stall does not move commit 4's due time.
        assert_eq!(schedule.due(4), start + Duration::from_millis(200));

        // On time: latency is the commit's own duration.
        let started = due + Duration::from_millis(1);
        let done = started + Duration::from_millis(2);
        assert_eq!(OpenLoop::observe(due, started, done), (Duration::from_millis(3), false));
    }

    #[test]
    fn client_throughput_is_over_its_own_span() {
        let t = Instant::now();
        let ms = Duration::from_millis;
        let mut log = ClientLog::default();
        log.record(t, t + ms(400), true);
        log.record(t + ms(500), t + ms(1000), true);
        log.record(t + ms(1000), t + ms(2000), false);
        assert_eq!(log.failed, 1);
        assert!((log.ops_per_s() - 1.0).abs() < 1e-9, "2 correct ops over 2 s");
    }
}
