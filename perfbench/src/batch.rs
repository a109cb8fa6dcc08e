//! The untraced end-to-end run of a batch workload: set-up, cold analyses
//! on fresh engines, then warm α/β re-queries on the warmed engines. Cold
//! analyses and warm re-queries alternate between the run's datasets.

use std::time::{Duration, Instant};

use sigfim_core::engine::{AnalysisEngine, AnalysisRequest, AnalysisResponse};
use sigfim_datasets::random::BernoulliModel;
use sigfim_datasets::transaction::TransactionDataset;

use crate::check;
use crate::report::{cpu_seconds, median, Outcome};
use crate::setup;
use crate::workloads::{warm_requests, Workload};

/// Share of the run's seconds given to cold analyses; warm re-queries get
/// the rest, and at least `WARM_SHARE` of them when the cold analyses
/// overran theirs.
const COLD_SHARE: f64 = 0.5;
const WARM_SHARE: f64 = 0.3;

pub fn run(workload: Workload, seed: u64, seconds: f64, outcome: &mut Outcome) {
    let setup = match setup::batch(workload, seed) {
        Ok(setup) => setup,
        Err(error) => return outcome.record(Some(format!("set-up failed: {error}"))),
    };
    let instances = &setup.instances;
    let ks = workload.ks();
    let start = Instant::now();
    let cold_deadline = start + Duration::from_secs_f64(seconds * COLD_SHARE);

    let mut references = vec![None; instances.len()];
    let mut warm_engines: Vec<Option<AnalysisEngine<BernoulliModel>>> =
        instances.iter().map(|_| None).collect();
    let (mut cold, mut cold_cpu) = (Vec::new(), Vec::new());
    // At least one cold analysis per dataset, and a second one of the first
    // dataset, which must reproduce its result.
    while cold.len() <= instances.len() || Instant::now() < cold_deadline {
        let index = cold.len() % instances.len();
        let instance = &instances[index];
        let Some(mut engine) = fresh_engine(&instance.dataset, outcome) else {
            break;
        };
        let cpu = cpu_seconds();
        let began = Instant::now();
        let response = engine.run(&instance.request);
        cold.push(began.elapsed().as_secs_f64());
        cold_cpu.push(cpu_seconds() - cpu);
        let first = references[index].is_none();
        if let Some(response) = checked(&ks, response, &mut references[index], outcome) {
            if first {
                outcome.record(check::supports_are_exact(&instance.dataset, &response));
            }
            warm_engines[index] = Some(engine);
        }
    }

    // Warm re-queries go round the datasets, each dataset's α/β variants in
    // turn; each dataset's wall times and CPU time are kept apart, and the
    // reported figures are medians over datasets, so one dataset whose
    // re-queries happen to be costly moves them little.
    let deadline = (start + Duration::from_secs_f64(seconds))
        .max(Instant::now() + Duration::from_secs_f64(seconds * WARM_SHARE));
    let mut warm: Vec<Warm> = instances
        .iter()
        .map(|instance| Warm::new(warm_requests(&instance.request)))
        .collect();
    let mut engines: Vec<_> = warm_engines.into_iter().flatten().collect();
    if engines.len() == instances.len() {
        // Whole rounds only, so every dataset is re-queried equally often.
        loop {
            for (engine, warm) in engines.iter_mut().zip(&mut warm) {
                warm.requery(engine, &ks, outcome);
            }
            if Instant::now() >= deadline {
                break;
            }
        }
    } else {
        outcome.fail("a dataset had no successful cold analysis to re-query warm".into());
    }
    let warm_count: usize = warm.iter().map(|w| w.wall.len()).sum();
    let warm_wall: Vec<f64> = warm.iter().map(|w| median_or_nan(&w.wall)).collect();
    let warm_cpu: Vec<f64> = warm
        .iter()
        .map(|w| w.cpu / w.wall.len().max(1) as f64)
        .collect();

    eprintln!(
        "{}: {} cold analyses {cold:.3?} s (CPU {cold_cpu:.3?} s); {warm_count} warm re-queries, \
         per dataset {warm_wall:.4?} s (CPU {warm_cpu:.4?} s); {:.1} s",
        workload.name(),
        cold.len(),
        start.elapsed().as_secs_f64()
    );
    outcome.note("analysis_cold_s", median(&cold), "s", cold.len());
    outcome.note("analysis_warm_s", median(&warm_wall), "s", warm_count);
    outcome.push("setup_s", setup.seconds, "s");
    outcome.push("cold_cpu_s", median(&cold_cpu), "s");
    outcome.push("warm_cpu_ms", median(&warm_cpu) * 1e3, "ms");
}

/// The warm re-queries of one dataset: its request variants with their
/// reference results, and what the re-queries cost.
struct Warm {
    variants: Vec<AnalysisRequest>,
    references: Vec<Option<Vec<check::KResult>>>,
    wall: Vec<f64>,
    cpu: f64,
}

impl Warm {
    fn new(variants: Vec<AnalysisRequest>) -> Warm {
        Warm {
            references: vec![None; variants.len()],
            variants,
            wall: Vec::new(),
            cpu: 0.0,
        }
    }

    /// Re-query `engine` with the next variant.
    fn requery(
        &mut self,
        engine: &mut AnalysisEngine<BernoulliModel>,
        ks: &[usize],
        outcome: &mut Outcome,
    ) {
        let variant = self.wall.len() % self.variants.len();
        let cpu = cpu_seconds();
        let began = Instant::now();
        let response = engine.run(&self.variants[variant]);
        self.wall.push(began.elapsed().as_secs_f64());
        self.cpu += cpu_seconds() - cpu;
        checked(ks, response, &mut self.references[variant], outcome);
    }
}

fn median_or_nan(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        f64::NAN
    } else {
        median(samples)
    }
}

/// A fresh engine over `dataset`: empty threshold, observation and profile
/// caches. Construction is not part of the timed analysis.
pub fn fresh_engine(
    dataset: &TransactionDataset,
    outcome: &mut Outcome,
) -> Option<AnalysisEngine<BernoulliModel>> {
    match AnalysisEngine::from_dataset(dataset.clone()) {
        Ok(engine) => Some(engine),
        Err(error) => {
            outcome.record(Some(format!("engine construction failed: {error}")));
            None
        }
    }
}

/// Count one analysis: it must succeed, cover exactly `ks`, and reproduce
/// the reference result of its request.
pub fn checked(
    ks: &[usize],
    response: sigfim_core::Result<AnalysisResponse>,
    reference: &mut Option<Vec<check::KResult>>,
    outcome: &mut Outcome,
) -> Option<AnalysisResponse> {
    match response {
        Ok(response) => {
            let error = check::covers(ks, &response)
                .or_else(|| check::against_reference(reference, &response));
            let ok = error.is_none();
            outcome.record(error);
            ok.then_some(response)
        }
        Err(error) => {
            outcome.record(Some(format!("analysis failed: {error}")));
            None
        }
    }
}
