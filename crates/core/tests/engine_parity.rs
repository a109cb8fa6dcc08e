//! Engine parity contract.
//!
//! [`AnalysisEngine`] is the one way to run the whole pipeline, and its
//! caches must change nothing observable. These tests prove it:
//!
//! * the engine's output is **bit-identical** to a reference pipeline wired
//!   by hand from the stage types (Algorithm 1 run with a fresh seed-derived
//!   RNG, Procedure 2, Procedure 1);
//! * a multi-`k` engine sweep equals `k`-by-`k` single requests;
//! * a warm α/β re-query, whose Procedure 2 family and Procedure 1 baseline
//!   come from the cached floor profile, serializes byte for byte like a
//!   fresh engine's report, and so does a warm re-query that only switches
//!   the miner; and
//! * the `ThresholdCache` makes Algorithm 1's replicate loop run **at most
//!   once per distinct key** — asserted both via the response's cache-hit
//!   metadata and by counting actual null-model sampling calls.

use std::sync::atomic::{AtomicUsize, Ordering};

use rand::rngs::StdRng;
use rand::SeedableRng;

use sigfim_core::engine::{AnalysisEngine, AnalysisRequest, CacheStatus};
use sigfim_core::montecarlo::FindPoissonThreshold;
use sigfim_core::procedure1::{ItemFrequencies, Procedure1};
use sigfim_core::procedure2::Procedure2;
use sigfim_core::report::{AnalysisParameters, AnalysisReport};
use sigfim_core::DatasetBackend;
use sigfim_datasets::bitmap::BitmapDataset;
use sigfim_datasets::random::{
    BernoulliModel, NullModel, PlantedConfig, PlantedModel, PlantedPattern,
};
use sigfim_datasets::summary::DatasetSummary;
use sigfim_datasets::transaction::TransactionDataset;
use sigfim_mining::miner::MinerKind;

fn planted_dataset(seed: u64) -> TransactionDataset {
    let background = BernoulliModel::new(380, vec![0.06; 18]).unwrap();
    let model = PlantedModel::new(PlantedConfig {
        background,
        patterns: vec![
            PlantedPattern::new(vec![1, 7], 75).unwrap(),
            PlantedPattern::new(vec![4, 10, 15], 55).unwrap(),
        ],
    })
    .unwrap();
    model.sample(&mut StdRng::seed_from_u64(seed))
}

/// The whole pipeline wired by hand from the stage types, each computing
/// from scratch: the reference the engine must match bit for bit.
fn legacy_pipeline<M: NullModel + Sync>(
    dataset: &TransactionDataset,
    model: &M,
    k: usize,
    replicates: usize,
    seed: u64,
    backend: DatasetBackend,
    baseline: bool,
) -> AnalysisReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let algorithm1 = FindPoissonThreshold {
        k,
        epsilon: 0.01,
        replicates,
        policy: sigfim_core::ExecutionPolicy::default(),
        backend,
        max_restarts: 4,
        sampler: sigfim_datasets::SamplerMode::Auto,
    };
    let threshold = algorithm1.run(model, &mut rng).unwrap();
    let lambda = threshold.lambda_estimator();
    let procedure2 = Procedure2 {
        k,
        alpha: 0.05,
        beta: 0.05,
    }
    .run(dataset, threshold.s_min, &lambda)
    .unwrap();
    let procedure1 = baseline.then(|| {
        Procedure1 {
            k,
            beta: 0.05,
            ..Procedure1::new(k)
        }
        .run(dataset, threshold.s_min)
        .unwrap()
    });
    AnalysisReport {
        parameters: AnalysisParameters {
            k,
            alpha: 0.05,
            beta: 0.05,
            epsilon: 0.01,
            replicates,
            seed,
            miner: MinerKind::Apriori,
            backend,
        },
        dataset: DatasetSummary::from_dataset(dataset),
        threshold,
        procedure2,
        procedure1,
    }
}

#[test]
fn shim_and_engine_match_the_legacy_pipeline_bit_for_bit() {
    let dataset = planted_dataset(11);
    let model = BernoulliModel::from_dataset(&dataset);
    for backend in DatasetBackend::ALL {
        for baseline in [true, false] {
            let legacy = legacy_pipeline(&dataset, &model, 2, 20, 9, backend, baseline);

            let mut engine = AnalysisEngine::from_dataset(dataset.clone())
                .unwrap()
                .with_backend(backend);
            let request = AnalysisRequest::for_k(2)
                .with_replicates(20)
                .with_seed(9)
                .with_baseline(baseline);
            let response = engine.run(&request).unwrap();
            assert_eq!(
                response.runs[0].report, legacy,
                "engine diverged from the reference pipeline (backend {backend}, baseline {baseline})"
            );
        }
    }
}

#[test]
fn multi_k_sweep_equals_single_requests() {
    let dataset = planted_dataset(29);
    let sweep_request = AnalysisRequest::for_k_range(2..=4)
        .with_replicates(16)
        .with_seed(3);
    let mut sweep_engine = AnalysisEngine::from_dataset(dataset.clone()).unwrap();
    let sweep = sweep_engine.run(&sweep_request).unwrap();
    assert_eq!(sweep.runs.len(), 3);

    for (i, k) in (2..=4).enumerate() {
        // A fresh engine per single request: no shared state with the sweep.
        let mut single_engine = AnalysisEngine::from_dataset(dataset.clone()).unwrap();
        let single = single_engine
            .run(&AnalysisRequest::for_k(k).with_replicates(16).with_seed(3))
            .unwrap();
        assert_eq!(
            sweep.runs[i].report, single.runs[0].report,
            "sweep entry for k = {k} diverged from the single-k request"
        );
    }
}

#[test]
fn par_eclat_engine_runs_are_bit_identical_to_sequential_eclat() {
    // The engine-side acceptance contract for the subtree-parallel miner: the
    // full `SupportProfile`/`Q_{k,s}` trace (every grid point, every p-value)
    // and the significant family are bit-identical whether the profile and
    // final mining pass ran under the sequential bitset Eclat or the parallel
    // one at any worker count — on every backend. Only `parameters.miner`
    // may differ between the reports.
    let dataset = planted_dataset(53);
    for backend in DatasetBackend::ALL {
        let reference = {
            let mut engine = AnalysisEngine::from_dataset(dataset.clone())
                .unwrap()
                .with_backend(backend);
            let request = AnalysisRequest::for_k_range(2..=3)
                .with_replicates(16)
                .with_seed(7)
                .with_miner(MinerKind::Eclat)
                .with_baseline(false);
            engine.run(&request).unwrap()
        };
        for threads in [1usize, 2, 8] {
            let mut engine = AnalysisEngine::from_dataset(dataset.clone())
                .unwrap()
                .with_backend(backend)
                .with_threads(threads);
            let request = AnalysisRequest::for_k_range(2..=3)
                .with_replicates(16)
                .with_seed(7)
                .with_miner(MinerKind::ParEclat)
                .with_baseline(false);
            let parallel = engine.run(&request).unwrap();
            for (reference_run, parallel_run) in reference.runs.iter().zip(&parallel.runs) {
                assert_eq!(
                    parallel_run.report.procedure2, reference_run.report.procedure2,
                    "Q_{{k,s}} trace diverged (backend {backend}, {threads} thread(s))"
                );
                assert_eq!(
                    parallel_run.report.threshold, reference_run.report.threshold,
                    "threshold estimate diverged (backend {backend}, {threads} thread(s))"
                );
            }

            // A warm rerun serves the floor profile from the engine's
            // (k, s_min) cache; the cached profile must reproduce the
            // cold run bit for bit.
            let warm = engine.run(&request).unwrap();
            let profile_stats = engine.profile_cache_stats();
            assert!(
                profile_stats.hits > 0,
                "warm rerun should hit the profile cache (backend {backend})"
            );
            for (cold_run, warm_run) in parallel.runs.iter().zip(&warm.runs) {
                assert_eq!(warm_run.report, cold_run.report);
            }
        }
    }
}

/// A null model that counts how many datasets it is asked to generate — a
/// direct measurement of whether Algorithm 1's replicate loop ran.
struct CountingModel {
    inner: BernoulliModel,
    samples: AtomicUsize,
}

impl CountingModel {
    fn new(inner: BernoulliModel) -> Self {
        CountingModel {
            inner,
            samples: AtomicUsize::new(0),
        }
    }

    fn samples(&self) -> usize {
        self.samples.load(Ordering::SeqCst)
    }
}

impl NullModel for CountingModel {
    fn num_items(&self) -> usize {
        NullModel::num_items(&self.inner)
    }

    fn num_transactions(&self) -> usize {
        NullModel::num_transactions(&self.inner)
    }

    fn item_frequencies(&self) -> Vec<f64> {
        NullModel::item_frequencies(&self.inner)
    }

    fn sample_dataset<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> TransactionDataset {
        self.samples.fetch_add(1, Ordering::SeqCst);
        self.inner.sample_dataset(rng)
    }

    fn sample_into_bitmap<R: rand::Rng + ?Sized>(&self, rng: &mut R, out: &mut BitmapDataset) {
        self.samples.fetch_add(1, Ordering::SeqCst);
        NullModel::sample_into_bitmap(&self.inner, rng, out);
    }

    fn fingerprint(&self) -> u64 {
        self.inner.fingerprint()
    }
}

#[test]
fn sweep_runs_the_replicate_loop_at_most_once_per_key() {
    // The acceptance contract: a k = 2..5 sweep performs Algorithm 1's
    // replicate loop at most once per distinct (fingerprint, k, eps, delta,
    // seed, backend) key — asserted via cache-hit metadata AND by counting the
    // actual null-model sampling calls.
    let dataset = planted_dataset(17);
    let model = CountingModel::new(BernoulliModel::from_dataset(&dataset));
    let replicates = 10usize;
    let mut engine = AnalysisEngine::with_model(dataset, &model).unwrap();
    let request = AnalysisRequest::for_k_range(2..=5)
        .with_replicates(replicates)
        .with_seed(21)
        .with_baseline(false);

    let cold = engine.run(&request).unwrap();
    assert_eq!(cold.cache_hits(), 0);
    assert!(cold
        .runs
        .iter()
        .all(|run| run.threshold_cache == CacheStatus::Miss));
    let cold_samples = model.samples();
    // Each of the 4 distinct keys ran the loop at least once (restarts may
    // legitimately repeat the Delta batch within one Algorithm 1 run).
    assert!(
        cold_samples >= 4 * replicates,
        "expected at least {} samples, saw {cold_samples}",
        4 * replicates
    );

    // Overlapping sweep: k = 2..=5 is warm, k = 6 is the only new key.
    let wider = AnalysisRequest::for_k_range(2..=6)
        .with_replicates(replicates)
        .with_seed(21)
        .with_baseline(false);
    let warm = engine.run(&wider).unwrap();
    assert_eq!(warm.cache_hits(), 4);
    assert_eq!(warm.runs[4].threshold_cache, CacheStatus::Miss);
    let after_warm = model.samples();
    assert!(
        after_warm > cold_samples,
        "the new k = 6 key must have sampled"
    );

    // Fully warm rerun of the whole sweep: zero additional sampling.
    let rerun = engine.run(&wider).unwrap();
    assert_eq!(rerun.cache_hits(), 5);
    assert_eq!(
        model.samples(),
        after_warm,
        "a fully warm sweep must not run the replicate loop at all"
    );
    // The rerun's reports are identical; only the provenance flipped to Hit.
    assert_eq!(
        rerun.reports().collect::<Vec<_>>(),
        warm.reports().collect::<Vec<_>>()
    );
    let stats = engine.cache_stats();
    assert_eq!(stats.entries, 5);
    assert_eq!(stats.hits, 9);
    assert_eq!(stats.misses, 5);
}

#[test]
fn epsilon_tightened_requery_runs_zero_new_replicates() {
    // The zero-waste contract of the observation store: re-querying the same
    // (model, k, Δ, seed) at a *different* ε misses the threshold cache (ε is
    // part of its key) but re-derives the same round-1 batch key from the
    // seed, so every replicate observation is served from the store and the
    // null model is never sampled again.
    let dataset = planted_dataset(63);
    let model = CountingModel::new(BernoulliModel::from_dataset(&dataset));
    let mut engine = AnalysisEngine::with_model(dataset, &model).unwrap();
    let replicates = 12usize;
    let loose = AnalysisRequest::for_k(2)
        .with_replicates(replicates)
        .with_seed(31)
        .with_epsilon(0.05)
        .with_baseline(false);

    let cold = engine.thresholds(&loose).unwrap();
    assert_eq!(cold[0].threshold_cache, CacheStatus::Miss);
    let cold_samples = model.samples();
    assert!(cold_samples >= replicates);

    // Tighter ε: a threshold-cache miss that must not re-sample anything.
    let tight = AnalysisRequest::for_k(2)
        .with_replicates(replicates)
        .with_seed(31)
        .with_epsilon(0.01)
        .with_baseline(false);
    let requery = engine.thresholds(&tight).unwrap();
    assert_eq!(requery[0].threshold_cache, CacheStatus::Miss);
    assert_eq!(
        model.samples(),
        cold_samples,
        "an ε-tightened re-query must be served entirely from the observation store"
    );
    assert_eq!(requery[0].estimate.epsilon, 0.01);

    // And the store-served estimate equals an honest cold recomputation.
    let fresh_model = CountingModel::new(model.inner.clone());
    let mut fresh =
        AnalysisEngine::with_model(engine.dataset().unwrap().clone(), &fresh_model).unwrap();
    let recomputed = fresh.thresholds(&tight).unwrap();
    assert_eq!(recomputed[0].estimate, requery[0].estimate);
}

#[test]
fn warm_cache_hit_returns_the_identical_estimate_without_consuming_rng() {
    let dataset = planted_dataset(41);
    let model = CountingModel::new(BernoulliModel::from_dataset(&dataset));
    let mut engine = AnalysisEngine::with_model(dataset, &model).unwrap();
    let request = AnalysisRequest::for_k(2)
        .with_replicates(14)
        .with_seed(77)
        .with_baseline(false);

    let cold = engine.thresholds(&request).unwrap();
    assert_eq!(cold[0].threshold_cache, CacheStatus::Miss);
    let cold_samples = model.samples();
    assert!(cold_samples >= 14);

    // The warm hit: the identical ThresholdEstimate comes back while the model
    // (and therefore the seed-derived RNG that drives it) is never touched.
    let warm = engine.thresholds(&request).unwrap();
    assert_eq!(warm[0].threshold_cache, CacheStatus::Hit);
    assert_eq!(warm[0].estimate, cold[0].estimate);
    assert_eq!(
        model.samples(),
        cold_samples,
        "a cache hit must not consume any RNG state"
    );

    // And the cached estimate equals an honest recomputation on a cold engine.
    let fresh_model = CountingModel::new(model.inner.clone());
    let mut fresh =
        AnalysisEngine::with_model(engine.dataset().unwrap().clone(), &fresh_model).unwrap();
    let recomputed = fresh.thresholds(&request).unwrap();
    assert_eq!(recomputed[0].estimate, cold[0].estimate);
}

#[test]
fn warm_alpha_beta_requeries_match_fresh_engines_byte_for_byte() {
    // A warm engine serves Procedure 2's family and the Procedure 1 baseline
    // from its cached floor profile; a fresh engine mines that profile from
    // scratch. The serialized reports must not tell them apart, on every
    // backend and under every miner.
    let dataset = planted_dataset(71);
    let base = AnalysisRequest::for_k_range(2..=3)
        .with_replicates(16)
        .with_seed(5)
        .with_baseline(true);
    let variants = [(0.05, 0.05), (0.01, 0.2), (0.2, 0.01)];
    let mut tested_itemsets = 0;
    for backend in [
        DatasetBackend::Csr,
        DatasetBackend::Bitmap,
        DatasetBackend::Sharded,
    ] {
        for miner in [MinerKind::Apriori, MinerKind::Eclat, MinerKind::ParEclat] {
            let engine_for = || {
                AnalysisEngine::from_dataset(dataset.clone())
                    .unwrap()
                    .with_backend(backend)
                    .with_threads(2)
            };
            let mut warm = engine_for();
            warm.run(&base.clone().with_miner(miner)).unwrap();
            for (alpha, beta) in variants {
                let request = base
                    .clone()
                    .with_miner(miner)
                    .with_alpha(alpha)
                    .with_beta(beta);
                let warm_response = warm.run(&request).unwrap();
                let fresh_response = engine_for().run(&request).unwrap();
                for (warm_run, fresh_run) in warm_response.runs.iter().zip(&fresh_response.runs) {
                    tested_itemsets += warm_run
                        .report
                        .procedure1
                        .as_ref()
                        .map_or(0, |p1| p1.num_tested());
                    assert_eq!(
                        serde_json::to_string(&warm_run.report).unwrap(),
                        serde_json::to_string(&fresh_run.report).unwrap(),
                        "warm report diverged from a fresh engine's \
                         (backend {backend}, {miner:?}, alpha {alpha}, beta {beta}, k {})",
                        warm_run.k
                    );
                }
            }
            let profile_stats = warm.profile_cache_stats();
            assert_eq!(
                profile_stats.misses, 2,
                "one profile per k ({backend}, {miner:?})"
            );
            assert_eq!(profile_stats.hits, 2 * variants.len() as u64);
        }
    }
    assert!(
        tested_itemsets > 0,
        "the baseline must have tested something"
    );
}

#[test]
fn warm_miner_switch_reuses_the_profile_and_matches_fresh_engines() {
    // Every miner yields the same floor profile, so the profile cache keys on
    // (k, s_min) alone: a warm engine re-queried with only the miner switched
    // serves every profile from the cache, and its reports equal a fresh
    // engine's except for the recorded miner.
    let dataset = planted_dataset(91);
    let base = AnalysisRequest::for_k_range(2..=3)
        .with_replicates(16)
        .with_seed(4)
        .with_baseline(true);
    for backend in [
        DatasetBackend::Csr,
        DatasetBackend::Bitmap,
        DatasetBackend::Sharded,
    ] {
        let engine_for = || {
            AnalysisEngine::from_dataset(dataset.clone())
                .unwrap()
                .with_backend(backend)
                .with_threads(2)
        };
        let mut warm = engine_for();
        let first = warm
            .run(&base.clone().with_miner(MinerKind::Apriori))
            .unwrap();
        let cold_stats = warm.profile_cache_stats();
        assert_eq!(cold_stats.misses, 2, "one profile per k ({backend})");
        for miner in [MinerKind::Eclat, MinerKind::ParEclat] {
            let request = base.clone().with_miner(miner);
            let response = warm.run(&request).unwrap();
            let fresh = engine_for().run(&request).unwrap();
            for ((warm_run, fresh_run), first_run) in
                response.runs.iter().zip(&fresh.runs).zip(&first.runs)
            {
                assert_eq!(
                    serde_json::to_string(&warm_run.report).unwrap(),
                    serde_json::to_string(&fresh_run.report).unwrap(),
                    "warm report diverged from a fresh engine's ({backend}, {miner:?}, k {})",
                    warm_run.k
                );
                assert_eq!(warm_run.report.parameters.miner, miner);
                let mut relabelled = first_run.report.clone();
                relabelled.parameters.miner = miner;
                assert_eq!(warm_run.report, relabelled, "({backend}, {miner:?})");
            }
        }
        let stats = warm.profile_cache_stats();
        assert_eq!(
            stats.misses, cold_stats.misses,
            "a miner switch must not mine again ({backend})"
        );
        assert_eq!(stats.hits, cold_stats.hits + 4, "({backend})");
    }
}

#[test]
fn procedure1_on_a_prepared_profile_equals_the_standalone_run() {
    let dataset = planted_dataset(83);
    for k in 2..=3 {
        for s_min in [3u64, 8, 20] {
            let procedure = Procedure1::new(k);
            let standalone = procedure.run(&dataset, s_min).unwrap();
            // A profile mined at s_min, and one mined below it: both hold
            // F_k(s_min), so the prepared run tests exactly that family.
            for floor in [s_min, 1] {
                let profile = Procedure2::mine_profile(
                    MinerKind::Eclat,
                    &dataset,
                    None,
                    None,
                    None,
                    k,
                    floor,
                    sigfim_core::ExecutionPolicy::Sequential,
                )
                .unwrap();
                let frequencies = ItemFrequencies::for_profile(&dataset, &profile);
                let prepared = procedure
                    .run_prepared(&dataset, &frequencies, &profile, s_min)
                    .unwrap();
                assert_eq!(prepared, standalone, "k {k}, s_min {s_min}, floor {floor}");
            }
        }
    }
}

#[test]
fn mismatched_profiles_are_typed_errors() {
    let dataset = planted_dataset(83);
    let profile_at = |k: usize, floor: u64| {
        Procedure2::mine_profile(
            MinerKind::Apriori,
            &dataset,
            None,
            None,
            None,
            k,
            floor,
            sigfim_core::ExecutionPolicy::Sequential,
        )
        .unwrap()
    };
    let is_profile_error = |error: sigfim_core::CoreError| {
        matches!(
            error,
            sigfim_core::CoreError::InvalidParameter {
                name: "profile",
                ..
            }
        )
    };
    let lambda = sigfim_core::lambda::MonteCarloLambda::new(5, vec![1.0, 0.5]).unwrap();
    // Wrong k, then a floor above s_min: neither profile holds F_2(5).
    for profile in [profile_at(3, 5), profile_at(2, 6)] {
        let frequencies = ItemFrequencies::for_profile(&dataset, &profile);
        let p1 = Procedure1::new(2).run_prepared(&dataset, &frequencies, &profile, 5);
        assert!(is_profile_error(p1.unwrap_err()));
        let p2 = Procedure2::new(2).run_prepared(dataset.max_item_support(), &profile, 5, &lambda);
        assert!(is_profile_error(p2.unwrap_err()));
    }
}
