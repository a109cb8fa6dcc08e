//! The traced run: per-layer metrics of one workload, measured from outside
//! the program.
//!
//! * Stage spans (`Threshold`, `Procedure2`, `Procedure1`) and replicate
//!   completions come from a timestamping `ProgressObserver` attached to a
//!   cold `AnalysisEngine::run_observed`; the round structure of Algorithm 1
//!   is read off the replicate counter, which restarts at 1 each round.
//! * Work counts are deltas of the program's own public counters
//!   (`replicate_stats`, `dispatch_counts`, the engine's cache statistics).
//! * Sampling and replicate mining are timed by calling `sigfim-datasets` and
//!   `sigfim-mining` directly on the engine's null model, one thread, warmed.
//! * The service layer is timed as the in-process `EngineRegistry::handle` of
//!   a warm envelope against the HTTP round trip of the same envelope.
//!
//! The run also repeats the cold analysis without the observer, so tracing
//! overhead is the difference of the two, and checks that the stage spans
//! fit inside the traced analysis.

use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sigfim_core::engine::{AnalysisStage, ProgressObserver};
use sigfim_core::{replicate_stats, AnalysisResponse, ExecutionPolicy, Procedure2};
use sigfim_datasets::bitmap::{BitmapDataset, DatasetBackend, ResolvedBackend};
use sigfim_datasets::random::{BernoulliModel, NullModel};
use sigfim_datasets::sampler::{resolve_sampler, ResolvedSampler, SamplerMode};
use sigfim_exec::substream;
use sigfim_mining::{dispatch_counts, Eclat, KItemsetMiner, ParallelEclat};
use sigfim_service::http::{serve, ServerConfig};
use sigfim_service::{ApiRequest, EngineRegistry};

use crate::batch::{checked, fresh_engine};
use crate::report::{median, quantile, Outcome};
use crate::service::{expected_body, warm_call};
use crate::setup::{self, HTTP_WORKERS};
use crate::workloads::{warm_requests, Workload};

/// The dataset id the traced run registers its warmed engine under.
const TENANT: &str = "traced";

/// Replicates timed per sampler, and per itemset size when mining.
const SAMPLE_REPS: u64 = 9;
const MINE_REPS: u64 = 5;
/// Repetitions of each observed-dataset mining pass.
const PASS_REPS: u64 = 3;
/// Time budget and sample bounds of each service-layer measurement.
const SERVICE_BUDGET: Duration = Duration::from_secs(2);
const SERVICE_MIN: usize = 5;
const SERVICE_MAX: usize = 200;

#[derive(Debug, Clone, Copy)]
enum Event {
    Started(usize, AnalysisStage),
    Completed(usize, AnalysisStage),
    Replicate { k: usize, total: usize },
}

/// A `ProgressObserver` that timestamps every event into memory.
struct Recorder {
    origin: Instant,
    events: Mutex<Vec<(f64, Event)>>,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            events: Mutex::new(Vec::new()),
        }
    }

    fn push(&self, event: Event) {
        let at = self.origin.elapsed().as_secs_f64();
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((at, event));
    }

    /// Every event recorded so far, in time order; the recorder is emptied.
    fn take(&self) -> Vec<(f64, Event)> {
        let mut events =
            std::mem::take(&mut *self.events.lock().unwrap_or_else(PoisonError::into_inner));
        events.sort_by(|a, b| a.0.total_cmp(&b.0));
        events
    }
}

impl ProgressObserver for Recorder {
    fn stage_started(&self, k: usize, stage: AnalysisStage) {
        self.push(Event::Started(k, stage));
    }

    fn replicate_completed(&self, k: usize, _completed: usize, total: usize) {
        self.push(Event::Replicate { k, total });
    }

    fn stage_completed(&self, k: usize, stage: AnalysisStage) {
        self.push(Event::Completed(k, stage));
    }
}

/// What the events of one analysis say about its stages.
#[derive(Debug, Default)]
struct Spans {
    threshold_s: f64,
    procedure2_s: f64,
    procedure1_s: f64,
    /// Σ over rounds of (round start → the round's last replicate).
    replicate_phase_s: f64,
    /// Σ over k of the last round's replicate phase.
    final_rounds_s: f64,
    rounds: usize,
}

/// Pair stage starts with completions and split each `Threshold` span into
/// Algorithm 1's rounds. Round 1 starts with the stage. A later round's
/// start is not observable (the previous round's curve estimate ends
/// silently), so it is put one replicate duration before its first
/// completion, the duration being the round's completion spread divided by
/// its replicate waves (`⌈Δ / workers⌉ − 1`).
fn spans(events: &[(f64, Event)], workers: usize) -> Spans {
    let mut spans = Spans::default();
    let mut open: Vec<(usize, AnalysisStage, f64)> = Vec::new();
    for &(at, event) in events {
        match event {
            Event::Started(k, stage) => open.push((k, stage, at)),
            Event::Completed(k, stage) => {
                let Some(index) = open.iter().position(|&(ok, os, _)| ok == k && os == stage)
                else {
                    continue;
                };
                let (_, _, began) = open.swap_remove(index);
                let length = at - began;
                match stage {
                    AnalysisStage::Threshold => {
                        spans.threshold_s += length;
                        let round_lengths = replicate_rounds(events, k, began, at, workers);
                        spans.rounds += round_lengths.len();
                        spans.replicate_phase_s += round_lengths.iter().sum::<f64>();
                        spans.final_rounds_s += round_lengths.last().copied().unwrap_or(0.0);
                    }
                    AnalysisStage::Procedure2 => spans.procedure2_s += length,
                    AnalysisStage::Procedure1 => spans.procedure1_s += length,
                }
            }
            Event::Replicate { .. } => {}
        }
    }
    spans
}

/// The replicate-phase length of every round of the `k`-threshold span
/// `[began, ended]`.
fn replicate_rounds(
    events: &[(f64, Event)],
    k: usize,
    began: f64,
    ended: f64,
    workers: usize,
) -> Vec<f64> {
    let completions: Vec<(f64, usize)> = events
        .iter()
        .filter_map(|&(at, event)| match event {
            Event::Replicate { k: rk, total } if rk == k && at >= began && at <= ended => {
                Some((at, total))
            }
            _ => None,
        })
        .collect();
    let mut lengths = Vec::new();
    let mut previous_end = began;
    let mut rest = completions.as_slice();
    while let Some(&(_, total)) = rest.first() {
        let (round, tail) = rest.split_at(total.clamp(1, rest.len()));
        rest = tail;
        let first = round[0].0;
        let last = round[round.len() - 1].0;
        let start = if lengths.is_empty() {
            began
        } else {
            let waves = total.div_ceil(workers.max(1));
            let per_replicate = if waves > 1 {
                (last - first) / (waves - 1) as f64
            } else {
                0.0
            };
            (first - per_replicate).max(previous_end)
        };
        lengths.push(last - start);
        previous_end = last;
    }
    lengths
}

/// Median wall time of `reps` calls of `f` in milliseconds, after one
/// untimed warm-up call.
fn per_call_ms(reps: u64, mut f: impl FnMut(u64)) -> f64 {
    f(reps);
    let times: Vec<f64> = (0..reps)
        .map(|i| {
            let began = Instant::now();
            f(i);
            began.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// Time `f` repeatedly until `SERVICE_BUDGET` is spent (within the sample
/// bounds); returns the samples in milliseconds.
fn sampled_ms(mut f: impl FnMut() -> Result<(), String>, outcome: &mut Outcome) -> Vec<f64> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < SERVICE_MIN
        || (samples.len() < SERVICE_MAX && start.elapsed() < SERVICE_BUDGET)
    {
        let began = Instant::now();
        let result = f();
        samples.push(began.elapsed().as_secs_f64() * 1e3);
        outcome.record(result.err());
    }
    samples
}

struct ReplicatePath {
    sampler: ResolvedSampler,
    backend: ResolvedBackend,
}

impl ReplicatePath {
    /// The replicate path the engine resolves for `model`.
    fn resolve(model: &BernoulliModel) -> ReplicatePath {
        ReplicatePath {
            sampler: resolve_sampler(
                SamplerMode::Auto,
                model.supports_gaps_sampler(),
                model.expected_density(),
            ),
            backend: DatasetBackend::Auto.resolve(
                model.num_items() as u32,
                model.num_transactions(),
                model.expected_density(),
            ),
        }
    }

    /// Sample replicate `index` on this path and return the time, in ms, of
    /// mining its `k`-itemsets at `floor`, with the number mined.
    fn mine_ms(
        &self,
        model: &BernoulliModel,
        key: u64,
        index: u64,
        k: usize,
        floor: u64,
        scratch: &mut BitmapDataset,
    ) -> (f64, usize) {
        let mut rng = substream(key, index);
        let (began, mined) = match (self.sampler, self.backend) {
            (ResolvedSampler::Cellwise, ResolvedBackend::Csr) => {
                let dataset = model.sample_dataset(&mut rng);
                let began = Instant::now();
                (began, Eclat.mine_k(&dataset, k, floor))
            }
            (ResolvedSampler::Gaps, _) => {
                model.sample_into_bitmap_gaps(&mut rng, scratch);
                let began = Instant::now();
                (began, Eclat.mine_k_bitmap(scratch, k, floor))
            }
            (ResolvedSampler::Cellwise, _) => {
                model.sample_into_bitmap_counted(&mut rng, scratch);
                let began = Instant::now();
                (began, Eclat.mine_k_bitmap(scratch, k, floor))
            }
        };
        let elapsed = began.elapsed().as_secs_f64() * 1e3;
        (elapsed, mined.map_or(0, |itemsets| itemsets.len()))
    }
}

/// Sequential over parallel (2 workers) bitset Eclat on `bitmap`, summed
/// over `(k, floor)` passes; a mismatch between the two outputs is recorded
/// as a failure.
fn par_eclat_speedup(
    bitmap: &BitmapDataset,
    passes: &[(usize, u64)],
    outcome: &mut Outcome,
) -> f64 {
    let parallel = ParallelEclat::new(ExecutionPolicy::rayon(2));
    let (mut sequential_ms, mut parallel_ms) = (0.0, 0.0);
    for &(k, floor) in passes {
        let mut sequential_out = None;
        let mut parallel_out = None;
        sequential_ms += per_call_ms(PASS_REPS, |_| {
            sequential_out = Some(black_box(Eclat.mine_k_bitmap(bitmap, k, floor)));
        });
        parallel_ms += per_call_ms(PASS_REPS, |_| {
            parallel_out = Some(black_box(parallel.mine_k_bitmap(bitmap, k, floor)));
        });
        let same = matches!(
            (&sequential_out, &parallel_out),
            (Some(Ok(a)), Some(Ok(b))) if a == b
        );
        outcome
            .record((!same).then(|| format!("parallel Eclat differs at k = {k}, floor {floor}")));
    }
    sequential_ms / parallel_ms
}

pub fn run(workload: Workload, seed: u64, outcome: &mut Outcome) {
    let tuner_ms = setup::force_tuner() * 1e3;
    let setup::Instance { dataset, request } = match setup::batch(workload, seed) {
        Ok(setup) => setup
            .instances
            .into_iter()
            .next()
            .expect("every run has a dataset"),
        Err(error) => return outcome.record(Some(format!("set-up failed: {error}"))),
    };
    let ks = workload.ks();
    let workers = ExecutionPolicy::default().worker_threads();

    // The same cold analysis untraced, then traced.
    let mut reference = None;
    let untraced_s = match fresh_engine(&dataset, outcome) {
        Some(mut engine) => {
            let began = Instant::now();
            let response = engine.run(&request);
            let elapsed = began.elapsed().as_secs_f64();
            checked(&ks, response, &mut reference, outcome);
            elapsed
        }
        None => f64::NAN,
    };
    let Some(mut engine) = fresh_engine(&dataset, outcome) else {
        return;
    };
    let recorder = Recorder::new();
    let replicates_before = replicate_stats();
    let dispatch_before = dispatch_counts();
    let began = Instant::now();
    let response = engine.run_observed(&request, &recorder);
    let traced_s = began.elapsed().as_secs_f64();
    let replicates_after = replicate_stats();
    let dispatch_after = dispatch_counts();
    let Some(response) = checked(&ks, response, &mut reference, outcome) else {
        return;
    };
    let cold = spans(&recorder.take(), workers);
    let spans_s = cold.threshold_s + cold.procedure2_s + cold.procedure1_s;
    outcome.record((spans_s > traced_s).then(|| {
        format!("stage spans sum to {spans_s:.4} s, more than the traced analysis' {traced_s:.4} s")
    }));
    print_k_table(&response);

    // Warm re-queries on the traced engine.
    let mut warm_ms = Vec::new();
    let mut warm_procedure1_ms = Vec::new();
    for warm_request in warm_requests(&request) {
        let began = Instant::now();
        let warm = engine.run_observed(&warm_request, &recorder);
        warm_ms.push(began.elapsed().as_secs_f64() * 1e3);
        warm_procedure1_ms.push(spans(&recorder.take(), workers).procedure1_s * 1e3);
        outcome.record(warm.err().map(|e| format!("warm re-query failed: {e}")));
    }
    let thresholds = engine.cache_stats();
    let profiles = engine.profile_cache_stats();

    // Sampling and replicate mining, one thread, on the engine's model.
    let model = engine.model().clone();
    let path = ReplicatePath::resolve(&model);
    let key: u64 = StdRng::seed_from_u64(request.seed).random();
    let mut scratch = BitmapDataset::new(model.num_items() as u32, model.num_transactions());
    let mut set_bits = 0u64;
    let cellwise_ms = per_call_ms(SAMPLE_REPS, |i| {
        let supports = model.sample_into_bitmap_counted(&mut substream(key, i), &mut scratch);
        set_bits = supports.iter().sum();
    });
    let gaps_ms = per_call_ms(SAMPLE_REPS, |i| {
        black_box(model.sample_into_bitmap_gaps(&mut substream(key, i), &mut scratch));
    });
    let csr_ms = per_call_ms(SAMPLE_REPS, |i| {
        black_box(model.sample_dataset(&mut substream(key, i)));
    });
    let sample_ms = match (path.sampler, path.backend) {
        (ResolvedSampler::Gaps, _) => gaps_ms,
        (ResolvedSampler::Cellwise, ResolvedBackend::Csr) => csr_ms,
        (ResolvedSampler::Cellwise, _) => cellwise_ms,
    };
    let (mut mine_ms, mut itemsets) = (0.0, 0.0);
    let mut replicate_self_s = 0.0;
    for run in &response.runs {
        let floor = run.report.threshold.s_tilde;
        let samples: Vec<(f64, usize)> = (0..MINE_REPS)
            .map(|i| path.mine_ms(&model, key, i, run.k, floor, &mut scratch))
            .collect();
        let k_ms = median(&samples.iter().map(|s| s.0).collect::<Vec<_>>());
        mine_ms += k_ms;
        itemsets += samples.iter().map(|s| s.1 as f64).sum::<f64>() / samples.len() as f64;
        replicate_self_s += request.replicates as f64 * (sample_ms + k_ms) / 1e3;
    }

    // Observed-dataset passes: Procedure 2's profile, and the parallel Eclat
    // against the sequential one on real inputs.
    let observed = BitmapDataset::from_dataset(&dataset);
    let engine_bitmap = (DatasetBackend::Auto.resolve_for_dataset(&dataset)
        == ResolvedBackend::Bitmap)
        .then_some(&observed);
    let profile_ms: f64 = response
        .runs
        .iter()
        .map(|run| {
            per_call_ms(PASS_REPS, |_| {
                let profile = Procedure2::mine_profile(
                    request.miner,
                    &dataset,
                    engine_bitmap,
                    None,
                    None,
                    run.k,
                    run.report.threshold.s_min,
                    ExecutionPolicy::default(),
                );
                black_box(profile.is_ok());
            })
        })
        .sum();
    let observed_passes: Vec<(usize, u64)> = response
        .runs
        .iter()
        .map(|run| (run.k, run.report.threshold.s_min))
        .collect();
    let replicate_passes: Vec<(usize, u64)> = response
        .runs
        .iter()
        .map(|run| (run.k, run.report.threshold.s_tilde))
        .collect();
    let speedup_observed = par_eclat_speedup(&observed, &observed_passes, outcome);
    let mut replicate = BitmapDataset::new(0, 0);
    model.sample_into_bitmap_counted(&mut substream(key, 0), &mut replicate);
    let speedup_replicate = par_eclat_speedup(&replicate, &replicate_passes, outcome);

    // The service layer, on the warmed engine: the registry shares the
    // engine's threshold store, so its thresholds stay warm.
    let warm_request = warm_requests(&request).swap_remove(0);
    let registry = Arc::new(EngineRegistry::with_store(engine.threshold_store()));
    let (registry_ms, http_ms) = match registry.register_engine(TENANT, engine.into_dyn()) {
        Ok(()) => service_layer(&registry, &warm_request, outcome),
        Err(error) => {
            outcome.record(Some(format!("registering the engine failed: {error}")));
            (vec![f64::NAN], vec![f64::NAN])
        }
    };

    let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    let registry_median = median(&registry_ms);
    outcome.push("engine.threshold_s", cold.threshold_s, "s");
    outcome.push("engine.procedure2_s", cold.procedure2_s, "s");
    outcome.push("engine.procedure1_s", cold.procedure1_s, "s");
    outcome.push("engine.traced_cold_s", traced_s, "s");
    outcome.push("engine.untraced_cold_s", untraced_s, "s");
    outcome.push("trace.overhead_s", traced_s - untraced_s, "s");
    outcome.push("trace.span_share", spans_s / traced_s, "ratio");
    outcome.push("engine.warm_ms", median(&warm_ms), "ms");
    outcome.push(
        "engine.warm_procedure1_ms",
        median(&warm_procedure1_ms),
        "ms",
    );
    outcome.push(
        "engine.cache_hit_ratio",
        ratio(thresholds.hits, thresholds.misses),
        "ratio",
    );
    outcome.push(
        "engine.cache_lookups",
        (thresholds.hits + thresholds.misses) as f64,
        "count",
    );
    outcome.push(
        "engine.profile_hit_ratio",
        ratio(profiles.hits, profiles.misses),
        "ratio",
    );
    outcome.push(
        "engine.profile_lookups",
        (profiles.hits + profiles.misses) as f64,
        "count",
    );
    outcome.push("montecarlo.replicate_phase_s", cold.replicate_phase_s, "s");
    outcome.push(
        "montecarlo.tail_s",
        cold.threshold_s - cold.replicate_phase_s,
        "s",
    );
    outcome.push("montecarlo.rounds", cold.rounds as f64, "count");
    outcome.push(
        "montecarlo.pool_size",
        response
            .runs
            .iter()
            .map(|run| run.report.threshold.pool_size as f64)
            .sum(),
        "count",
    );
    outcome.push(
        "montecarlo.replicates_sampled",
        (replicates_after.total_sampled() - replicates_before.total_sampled()) as f64,
        "count",
    );
    outcome.push(
        "montecarlo.observations_reused",
        (replicates_after.observations_reused - replicates_before.observations_reused) as f64,
        "count",
    );
    outcome.push("datasets.sample_cellwise_ms", cellwise_ms, "ms");
    outcome.push("datasets.sample_gaps_ms", gaps_ms, "ms");
    outcome.push("datasets.sample_csr_ms", csr_ms, "ms");
    outcome.push("datasets.set_bits_per_replicate", set_bits as f64, "count");
    outcome.push("mining.replicate_mine_ms", mine_ms, "ms");
    outcome.push("mining.itemsets_per_replicate", itemsets, "count");
    outcome.push("mining.profile_mine_ms", profile_ms, "ms");
    outcome.push(
        "mining.dispatch_apriori",
        (dispatch_after.apriori - dispatch_before.apriori) as f64,
        "count",
    );
    outcome.push(
        "mining.dispatch_eclat",
        (dispatch_after.eclat - dispatch_before.eclat) as f64,
        "count",
    );
    outcome.push(
        "mining.dispatch_eclat_bitmap",
        (dispatch_after.eclat_bitmap - dispatch_before.eclat_bitmap) as f64,
        "count",
    );
    outcome.push(
        "mining.dispatch_par_eclat",
        (dispatch_after.par_eclat - dispatch_before.par_eclat) as f64,
        "count",
    );
    outcome.push("mining.par_eclat_speedup", speedup_observed, "ratio");
    outcome.push(
        "mining.par_eclat_speedup_replicate",
        speedup_replicate,
        "ratio",
    );
    outcome.push(
        "exec.replicate_efficiency",
        replicate_self_s / (workers as f64 * cold.final_rounds_s),
        "ratio",
    );
    outcome.push("exec.workers", workers as f64, "count");
    outcome.push("service.registry_ms", registry_median, "ms");
    outcome.push(
        "service.http_overhead_ms",
        median(&http_ms) - registry_median,
        "ms",
    );
    outcome.push("service.request_p50_ms", median(&http_ms), "ms");
    outcome.push("service.request_p90_ms", quantile(&http_ms, 0.9), "ms");
    outcome.push("service.request_samples", http_ms.len() as f64, "count");
    outcome.push("tune.decision_ms", tuner_ms, "ms");
}

/// In-process `handle` and HTTP round trips of one warm analyze envelope:
/// the samples of each, in milliseconds.
fn service_layer(
    registry: &Arc<EngineRegistry>,
    request: &sigfim_core::AnalysisRequest,
    outcome: &mut Outcome,
) -> (Vec<f64>, Vec<f64>) {
    let envelope = ApiRequest::analyze(TENANT, request.clone());
    let expected = expected_body(registry, &envelope);
    let registry_ms = sampled_ms(
        || {
            let body = expected_body(registry, &envelope);
            if body == expected {
                Ok(())
            } else {
                Err("in-process handle changed its answer".into())
            }
        },
        outcome,
    );
    let server = match serve(
        Arc::clone(registry),
        &ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: HTTP_WORKERS,
        },
    ) {
        Ok(server) => server,
        Err(error) => {
            outcome.record(Some(format!("binding the loopback server failed: {error}")));
            return (registry_ms, vec![f64::NAN]);
        }
    };
    let addr: SocketAddr = server.addr();
    let body = serde_json::to_string(&envelope).expect("request envelopes always serialize");
    let http_ms = sampled_ms(|| warm_call(addr, &body, &expected), outcome);
    server.shutdown();
    (registry_ms, http_ms)
}

/// Per-k Algorithm 1 outcome of the traced analysis, for the reader.
fn print_k_table(response: &AnalysisResponse) {
    for run in &response.runs {
        let threshold = &run.report.threshold;
        println!(
            "k={} s_tilde={} s_min={} pool={} s_star={:?} significant={}",
            run.k,
            threshold.s_tilde,
            threshold.s_min,
            threshold.pool_size,
            run.report.procedure2.s_star,
            run.report.procedure2.num_significant()
        );
    }
}
