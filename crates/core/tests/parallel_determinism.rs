//! The execution-layer contract, end to end: for a fixed seed, Algorithm 1
//! produces **bit-identical** `ThresholdEstimate`s under every execution policy
//! — sequential, and rayon pools of 1, 2 and 8 workers — because each replicate
//! draws exclusively from its `(seed, index)`-addressed RNG substream.
//!
//! The dataset backend is a second axis of the same contract: the CSR and
//! bitmap replicate paths consume those substreams identically, so every
//! `(policy, backend)` combination must agree bit for bit.

use rand::rngs::StdRng;
use rand::SeedableRng;

use sigfim_core::engine::{AnalysisEngine, AnalysisRequest};
use sigfim_core::montecarlo::FindPoissonThreshold;
use sigfim_core::{DatasetBackend, ExecutionPolicy, ThresholdEstimate};
use sigfim_datasets::random::{
    BernoulliModel, PlantedConfig, PlantedModel, PlantedPattern, SwapRandomizationModel,
};

fn estimate_with(policy: ExecutionPolicy, backend: DatasetBackend, seed: u64) -> ThresholdEstimate {
    let model = BernoulliModel::new(400, vec![0.12; 14]).unwrap();
    let algo = FindPoissonThreshold {
        replicates: 40,
        policy,
        backend,
        ..FindPoissonThreshold::new(2)
    };
    let mut rng = StdRng::seed_from_u64(seed);
    algo.run(&model, &mut rng).unwrap()
}

#[test]
fn threshold_estimate_is_bit_identical_at_1_2_and_8_threads() {
    let reference = estimate_with(ExecutionPolicy::Sequential, DatasetBackend::Auto, 42);
    for backend in DatasetBackend::ALL {
        for threads in [1, 2, 8] {
            let parallel = estimate_with(ExecutionPolicy::rayon(threads), backend, 42);
            // Full structural equality: curve (b1/b2/λ at every support), s_min,
            // s_tilde and pool size — not just the headline threshold.
            assert_eq!(
                parallel,
                reference,
                "rayon({threads})/{} diverged from sequential",
                backend.name()
            );
            assert_eq!(parallel.curve, reference.curve);
            assert_eq!(parallel.s_min, reference.s_min);
            assert_eq!(parallel.pool_size, reference.pool_size);
        }
        // The sequential runs of every backend agree with each other too.
        assert_eq!(
            estimate_with(ExecutionPolicy::Sequential, backend, 42),
            reference,
            "sequential/{} diverged",
            backend.name()
        );
    }
}

#[test]
fn different_seeds_still_differ() {
    // Guards against the substream derivation collapsing to a constant.
    let a = estimate_with(ExecutionPolicy::rayon(4), DatasetBackend::Auto, 1);
    let b = estimate_with(ExecutionPolicy::rayon(4), DatasetBackend::Auto, 2);
    assert!(
        a.curve != b.curve || a.pool_size != b.pool_size || a.s_min != b.s_min,
        "independent seeds produced identical Monte-Carlo observations"
    );
}

#[test]
fn full_analysis_reports_match_across_policies() {
    // The whole pipeline (Algorithm 1 + Procedures 1 and 2) through the
    // engine: reports must agree field for field.
    let background = BernoulliModel::new(300, vec![0.05; 20]).unwrap();
    let model = PlantedModel::new(PlantedConfig {
        background,
        patterns: vec![PlantedPattern::new(vec![2, 5], 60).unwrap()],
    })
    .unwrap();
    let mut rng = StdRng::seed_from_u64(9);
    let dataset = model.sample(&mut rng);

    let request = AnalysisRequest::for_k(2).with_replicates(32).with_seed(17);
    let analyze =
        |mut engine: AnalysisEngine| engine.run(&request).unwrap().into_reports().remove(0);
    let with_policy = |policy: ExecutionPolicy| {
        AnalysisEngine::from_dataset(dataset.clone())
            .unwrap()
            .with_execution_policy(policy)
    };
    let reference = analyze(with_policy(ExecutionPolicy::Sequential));
    for threads in [2, 8] {
        let report = analyze(with_policy(ExecutionPolicy::rayon(threads)));
        assert_eq!(report, reference, "analysis diverged at {threads} threads");
    }
    // with_threads(1) is the documented sequential shorthand.
    let via_threads = AnalysisEngine::from_dataset(dataset.clone())
        .unwrap()
        .with_threads(1);
    assert_eq!(analyze(via_threads), reference);
}

#[test]
fn swap_null_model_is_policy_independent_too() {
    // The swap-randomization null walks a long RNG-driven Markov chain per
    // replicate — the most scheduling-sensitive workload if substreams leaked.
    let mut rng = StdRng::seed_from_u64(31);
    let background = BernoulliModel::new(150, vec![0.15; 12]).unwrap();
    let dataset = background.sample(&mut rng);
    let model = SwapRandomizationModel::new(dataset, 3.0).unwrap();

    let run = |policy: ExecutionPolicy| {
        let algo = FindPoissonThreshold {
            replicates: 24,
            policy,
            ..FindPoissonThreshold::new(2)
        };
        let mut rng = StdRng::seed_from_u64(5);
        algo.run(&model, &mut rng).unwrap()
    };
    assert_eq!(
        run(ExecutionPolicy::rayon(8)),
        run(ExecutionPolicy::Sequential)
    );
}
