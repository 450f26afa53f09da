//! Set-up: everything a run needs before the first timed request — the
//! generated KG, the served platform on a loopback port, the model the ML
//! workload queries, and the oracle's answers.

use std::sync::Arc;
use std::time::{Duration, Instant};

use kgnet::datagen::generate_dblp;
use kgnet::datagen::vocab::dblp as v;
use kgnet::gmlaas::TrainRequest;
use kgnet::http::{HttpConfig, HttpServer};
use kgnet::sampler::SamplingScope;
use kgnet::server::{JobState, KgServer, ServerConfig};
use kgnet::{GmlMethodKind, GmlTask, GnnConfig, LpTask, NcTask};

use crate::gen::{Mix, Workload};
use crate::oracle::{Answer, Oracle};

/// Epochs of every `train-job` model: with the 0.25-scale KG one three-job
/// operation takes ~0.6 s, so a run measures a dozen or more of them.
const TRAIN_JOB_EPOCHS: usize = 20;

/// One ready-to-drive platform instance.
pub struct Env {
    pub workload: Workload,
    pub seed: u64,
    pub server: Arc<KgServer>,
    /// The loopback frontend (wire workloads only).
    pub http: Option<HttpServer>,
    pub mix: Mix,
    /// Parallel to `mix.specs`.
    pub answers: Vec<Answer>,
    /// Triples in the generated KG.
    pub kg_triples: usize,
}

/// The paper→venue node-classification task (the paper's Fig. 2 / Fig. 13).
pub fn venue_task() -> GmlTask {
    GmlTask::NodeClassification(NcTask {
        target_type: v::PUBLICATION.into(),
        label_predicate: v::PUBLISHED_IN.into(),
    })
}

/// The author→affiliation link-prediction task (Fig. 15).
pub fn affiliation_task() -> GmlTask {
    GmlTask::LinkPrediction(LpTask {
        source_type: v::PERSON.into(),
        edge_predicate: v::AFFILIATED_WITH.into(),
        dest_type: v::AFFILIATION.into(),
    })
}

fn request(
    name: &str,
    task: GmlTask,
    method: Option<GmlMethodKind>,
    epochs: usize,
) -> TrainRequest {
    let mut req = TrainRequest::new(name, task);
    // `TrainRequest::new` says d1h1 whatever the task; the paper's scope for
    // link prediction is d2h1.
    req.sampler = SamplingScope::default_for(&req.task).name();
    req.cfg = GnnConfig { epochs, ..GnnConfig::default() };
    req.forced_method = method;
    req
}

/// The three jobs of one `train-job` operation, each on its default KG'
/// scope: NC GraphSAINT, NC RGCN, and LP with the platform's own method
/// choice.
pub fn train_job_requests() -> [TrainRequest; 3] {
    [
        request("venue-saint", venue_task(), Some(GmlMethodKind::GraphSaint), TRAIN_JOB_EPOCHS),
        request("venue-rgcn", venue_task(), Some(GmlMethodKind::Rgcn), TRAIN_JOB_EPOCHS),
        request("affiliation", affiliation_task(), None, TRAIN_JOB_EPOCHS),
    ]
}

impl Env {
    /// Generate the KG, start the platform and (wire workloads) its
    /// frontend, train what the workload queries, and answer every distinct
    /// request with the oracle.
    pub fn setup(workload: Workload, seed: u64) -> Env {
        let (kg, _) = generate_dblp(&workload.kg_config(seed));
        let kg_triples = kg.len();
        let server = Arc::new(KgServer::new(kg, ServerConfig::default()));

        if workload == Workload::MlSelect {
            let epochs = GnnConfig::default().epochs;
            let req = request("paper-venue", venue_task(), Some(GmlMethodKind::GraphSaint), epochs);
            let id = server.submit_train(req).expect("set-up: training job admitted");
            let done = server.wait(id).expect("set-up: training job on record");
            assert!(matches!(done.state, JobState::Done { .. }), "set-up training: {done:?}");
        }

        let mix = Mix::new(workload, seed);
        let answers = {
            let snapshot = server.store().snapshot();
            let manager = server.manager();
            let manager = manager.read();
            let mut oracle = Oracle::new(&snapshot, &manager);
            mix.specs.iter().map(|spec| oracle.answer(spec)).collect()
        };

        let http = (workload.wire_clients() > 0).then(|| {
            HttpServer::start(Arc::clone(&server), HttpConfig::default())
                .expect("set-up: bind a loopback port")
        });
        Env { workload, seed, server, http, mix, answers, kg_triples }
    }

    /// [`setup`](Self::setup), with the seconds it took.
    pub fn timed_setup(workload: Workload, seed: u64) -> (Env, f64) {
        let t0 = Instant::now();
        let env = Env::setup(workload, seed);
        (env, t0.elapsed().as_secs_f64())
    }

    /// The frontend this run's wire clients talk to.
    pub fn frontend(&self) -> &HttpServer {
        self.http.as_ref().expect("wire workload")
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Sleep until `at` (returns at once when it has passed).
pub fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

/// `secs` as a `Duration` (non-negative, finite by construction).
pub fn secs(secs: f64) -> Duration {
    Duration::from_secs_f64(secs.max(0.0))
}
