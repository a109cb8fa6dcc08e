//! Set-up: generating the dataset, building the engine (or the registry and
//! server), and forcing the startup tuner's decision. Set-up is repeated and
//! its median reported as `setup_s`, so work moved into set-up shows. The
//! tuner decides once per process, so its share is the median over fresh
//! processes that do nothing else.

use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

use sigfim_core::engine::{AnalysisEngine, AnalysisRequest};
use sigfim_datasets::random::NullModel;
use sigfim_datasets::sampler::{resolve_sampler, SamplerMode};
use sigfim_datasets::transaction::TransactionDataset;
use sigfim_datasets::DatasetBackend;
use sigfim_service::http::{serve, ServerConfig, ServerHandle};
use sigfim_service::EngineRegistry;

use crate::report::median;
use crate::workloads::Workload;

/// Set-up repetitions per run, and fresh processes timing the tuner; the
/// median of each is reported.
const SETUP_REPS: usize = 3;
const TUNER_PROBES: usize = 5;

/// The argument that makes the benchmark time the tuner, print the seconds
/// and exit.
pub const PROBE_TUNER: &str = "--probe-tuner";

/// Connection workers of the service workload's HTTP server.
pub const HTTP_WORKERS: usize = 2;

/// One dataset of a run and the cold request that analyzes it.
pub struct Instance {
    pub dataset: TransactionDataset,
    pub request: AnalysisRequest,
}

pub struct BatchSetup {
    pub instances: Vec<Instance>,
    pub seconds: f64,
}

pub struct ServiceSetup {
    pub registry: Arc<EngineRegistry>,
    pub server: ServerHandle,
    /// The registered tenants: dataset id and cold request.
    pub tenants: Vec<(String, AnalysisRequest)>,
    pub seconds: f64,
}

/// Force the process's startup-tuner decisions (kernel, sampler, shard
/// budget, miner) and return how long that took, in seconds. Only the first
/// call in a process measures anything: the decisions are cached.
pub fn force_tuner() -> f64 {
    let began = Instant::now();
    sigfim_datasets::tune::decision();
    sigfim_mining::miner_decision();
    began.elapsed().as_secs_f64()
}

/// The median time, in seconds, a fresh process spends forcing the tuner's
/// decisions. Each probe is this program run with [`PROBE_TUNER`].
pub fn tuner_seconds() -> Result<f64, String> {
    let program = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let mut times = Vec::new();
    for _ in 0..TUNER_PROBES {
        let probe = Command::new(&program)
            .arg(PROBE_TUNER)
            .output()
            .map_err(|e| format!("running the tuner probe: {e}"))?;
        let text = String::from_utf8_lossy(&probe.stdout);
        let seconds = text
            .trim()
            .parse()
            .map_err(|_| format!("the tuner probe printed {text:?}"))?;
        times.push(seconds);
    }
    Ok(median(&times))
}

/// Generate the run's datasets and build an engine over each, several
/// times; `seconds` is the median time per dataset plus the tuner's share.
pub fn batch(workload: Workload, seed: u64) -> Result<BatchSetup, String> {
    force_tuner();
    let mut times = Vec::new();
    let mut instances = Vec::new();
    for rep in 0..SETUP_REPS {
        instances.clear();
        for index in 0..workload.instances() {
            let began = Instant::now();
            let (dataset, request) = workload.instance(seed, index);
            let engine = AnalysisEngine::from_dataset(dataset.clone())
                .map_err(|e| format!("building an engine: {e}"))?;
            times.push(began.elapsed().as_secs_f64());
            if rep == 0 && index == 0 {
                print_config(workload, &dataset, engine.model());
            }
            instances.push(Instance { dataset, request });
        }
    }
    Ok(BatchSetup {
        instances,
        seconds: median(&times) + tuner_seconds()?,
    })
}

/// Start the service: a registry with one tenant per dataset of the run, and
/// the loopback server in front of it, several times; `seconds` is the
/// median time per start-up plus the tuner's share.
pub fn service(workload: Workload, seed: u64) -> Result<ServiceSetup, String> {
    force_tuner();
    let mut times = Vec::new();
    let mut last: Option<ServiceSetup> = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = last.take() {
            previous.server.shutdown();
        }
        let began = Instant::now();
        let registry = Arc::new(EngineRegistry::new());
        let mut tenants = Vec::new();
        for index in 0..workload.instances() {
            let (dataset, request) = workload.instance(seed, index);
            let id = format!("tenant-{index}");
            registry
                .register_dataset(id.clone(), dataset)
                .map_err(|e| format!("registering {id}: {e}"))?;
            tenants.push((id, request));
        }
        let server = serve(
            Arc::clone(&registry),
            &ServerConfig {
                addr: "127.0.0.1:0".into(),
                workers: HTTP_WORKERS,
            },
        )
        .map_err(|e| format!("binding a loopback port: {e}"))?;
        times.push(began.elapsed().as_secs_f64());
        last = Some(ServiceSetup {
            registry,
            server,
            tenants,
            seconds: 0.0,
        });
    }
    let mut setup = last.expect("at least one set-up repetition");
    let (dataset, _) = workload.instance(seed, 0);
    let model = sigfim_datasets::BernoulliModel::from_dataset(&dataset);
    print_config(workload, &dataset, &model);
    setup.seconds = median(&times) + tuner_seconds()?;
    Ok(setup)
}

/// Print the configuration the numbers were measured under: the tuner's
/// picks, and which sampler and backends the engine resolves for this
/// workload. A bimodal timing can then be traced to a tuner pick.
fn print_config<M: NullModel>(workload: Workload, dataset: &TransactionDataset, model: &M) {
    let tune = sigfim_datasets::tune::decision();
    let miner = sigfim_mining::tuned_miner(true, 2);
    let sampler = resolve_sampler(
        SamplerMode::Auto,
        model.supports_gaps_sampler(),
        model.expected_density(),
    );
    let replicate_backend = DatasetBackend::Auto.resolve(
        model.num_items() as u32,
        model.num_transactions(),
        model.expected_density(),
    );
    let observed_backend = DatasetBackend::Auto.resolve_for_dataset(dataset);
    println!(
        "config {{\"workload\": \"{}\", \"tuned\": {}, \"tuner_kernel\": \"{}\", \
         \"tuner_sampler\": \"{}\", \"tuner_miner\": \"{}\", \"sampler\": \"{}\", \
         \"replicate_backend\": \"{:?}\", \"observed_backend\": \"{:?}\", \
         \"transactions\": {}, \"items\": {}, \"density\": {:.5}, \"workers\": {}}}",
        workload.name(),
        tune.tuned,
        tune.kernel.name(),
        tune.sampler.name(),
        miner.name(),
        sampler.name(),
        replicate_backend,
        observed_backend,
        dataset.num_transactions(),
        dataset.num_items(),
        model.expected_density(),
        sigfim_core::ExecutionPolicy::default().worker_threads(),
    );
}
