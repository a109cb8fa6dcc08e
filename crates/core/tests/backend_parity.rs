//! Backend-parity contract: the CSR, bitmap and transaction-sharded dataset
//! backends — the sharded store resident or spilled under a 1-byte residency
//! budget, in every fault mode — produce **identical supports** and
//! **bit-identical** Monte-Carlo estimates for the same seed, at every thread
//! count. This is what makes `--backend` a pure performance knob.
//!
//! Every counting kernel the CPU supports is checked against the scalar
//! baseline in-process, on live column data. CI runs this suite with
//! test-harness worker counts of 1 and 8 on top of the explicit
//! `ExecutionPolicy` matrix below, so a regression in the RNG-consumption
//! contract of `sample_into_bitmap`, the bitset Eclat, the SIMD counting
//! kernels, or the fixed-order shard reduction shows up as a hard failure.

use rand::rngs::StdRng;
use rand::SeedableRng;

use sigfim_core::engine::{AnalysisEngine, AnalysisRequest};
use sigfim_core::lambda::MonteCarloLambda;
use sigfim_core::montecarlo::FindPoissonThreshold;
use sigfim_core::procedure2::{Procedure2, Procedure2Result};
use sigfim_core::report::AnalysisReport;
use sigfim_core::validation::poisson_fit_with_backend;
use sigfim_core::{DatasetBackend, ExecutionPolicy, ThresholdEstimate};
use sigfim_datasets::random::{
    BernoulliModel, NullModel, PlantedConfig, PlantedModel, PlantedPattern, SwapRandomizationModel,
};
use sigfim_datasets::sharded::ShardedBitmapDataset;
use sigfim_datasets::spill::{ShardResidency, SpillMode};
use sigfim_datasets::transaction::TransactionDataset;
use sigfim_datasets::BitmapDataset;
use sigfim_mining::miner::MinerKind;

/// The worker counts the parity matrix covers (1 = strictly sequential).
const THREAD_MATRIX: [usize; 3] = [1, 2, 8];

fn planted_dataset(seed: u64) -> TransactionDataset {
    let background = BernoulliModel::new(350, vec![0.06; 18]).unwrap();
    let model = PlantedModel::new(PlantedConfig {
        background,
        patterns: vec![PlantedPattern::new(vec![3, 11], 70).unwrap()],
    })
    .unwrap();
    model.sample(&mut StdRng::seed_from_u64(seed))
}

/// The one report of a single-`k` request on `engine`.
fn report_of<M: NullModel + Sync>(
    mut engine: AnalysisEngine<M>,
    request: &AnalysisRequest,
) -> AnalysisReport {
    engine.run(request).unwrap().into_reports().remove(0)
}

/// The physical views Procedure 2's profile pass can mine from.
#[derive(Debug, Clone, Copy)]
enum View {
    Csr,
    Bitmap,
    Sharded,
    /// A sharded store spilled under a 1-byte residency budget, so every
    /// shard is faulted in through `mode` on every pass.
    Spilled(SpillMode),
}

/// Every view, with a spilled leg per fault mode.
fn all_views() -> Vec<View> {
    let mut views = vec![View::Csr, View::Bitmap, View::Sharded];
    views.extend(SpillMode::ALL.map(View::Spilled));
    views
}

/// A residency that keeps no shard resident between uses.
fn one_byte_residency() -> ShardResidency {
    ShardResidency::with_budget(1)
}

/// Procedure 2 on `dataset` at `s_min = 6`, its floor profile mined by
/// [`Procedure2::mine_profile`] over an explicit `view` under `threads`
/// counting workers.
fn procedure2_over(dataset: &TransactionDataset, view: View, threads: usize) -> Procedure2Result {
    let lambda = MonteCarloLambda::new(6, vec![1.5, 0.7, 0.3, 0.1, 0.04, 0.01, 0.0]).unwrap();
    let bitmap = matches!(view, View::Bitmap).then(|| BitmapDataset::from_dataset(dataset));
    let sharded =
        matches!(view, View::Sharded).then(|| ShardedBitmapDataset::from_dataset(dataset));
    let spilled = match view {
        View::Spilled(mode) => Some(
            ShardedBitmapDataset::spill_dataset(
                dataset,
                &ShardResidency {
                    mode,
                    ..one_byte_residency()
                },
            )
            .unwrap(),
        ),
        _ => None,
    };
    let profile = Procedure2::mine_profile(
        MinerKind::Apriori,
        dataset,
        bitmap.as_ref(),
        sharded.as_ref(),
        spilled.as_ref(),
        2,
        6,
        ExecutionPolicy::from_threads(threads),
    )
    .unwrap();
    Procedure2::new(2)
        .run_prepared(dataset.max_item_support(), &profile, 6, &lambda)
        .unwrap()
}

fn estimate(backend: DatasetBackend, threads: usize, seed: u64) -> ThresholdEstimate {
    let model = BernoulliModel::new(320, vec![0.1; 16]).unwrap();
    let algo = FindPoissonThreshold {
        replicates: 36,
        policy: ExecutionPolicy::from_threads(threads),
        backend,
        ..FindPoissonThreshold::new(2)
    };
    let mut rng = StdRng::seed_from_u64(seed);
    algo.run(&model, &mut rng).unwrap()
}

#[test]
fn backend_parity_threshold_estimates_at_1_2_and_8_threads() {
    let reference = estimate(DatasetBackend::Csr, 1, 99);
    for threads in THREAD_MATRIX {
        for backend in DatasetBackend::ALL {
            assert_eq!(
                estimate(backend, threads, 99),
                reference,
                "backend {} at {threads} thread(s) diverged from csr/sequential",
                backend.name()
            );
        }
    }
}

#[test]
fn backend_parity_procedure2_supports_and_family() {
    let dataset = planted_dataset(5);
    let csr = procedure2_over(&dataset, View::Csr, 1);
    for view in all_views() {
        let other = procedure2_over(&dataset, view, 1);
        assert_eq!(csr.s_star, other.s_star, "{view:?}");
        assert_eq!(
            csr.tests, other.tests,
            "Q_{{k,s}} traces must be identical ({view:?})"
        );
        assert_eq!(csr.significant, other.significant, "{view:?}");
    }
    // The one-shot run resolves its own view (`Auto`) and agrees too.
    let lambda = MonteCarloLambda::new(6, vec![1.5, 0.7, 0.3, 0.1, 0.04, 0.01, 0.0]).unwrap();
    assert_eq!(Procedure2::new(2).run(&dataset, 6, &lambda).unwrap(), csr);
    assert!(csr.s_star.is_some(), "the planted pair must be detected");
}

#[test]
fn backend_parity_procedure2_sharded_at_1_2_and_8_counting_workers() {
    // The sharded backend's counting pass fans out across workers; the trace
    // and family must be bit-identical at every worker count (fixed-order
    // shard reduction over exact partial counts), and so must the bitmap's.
    let dataset = planted_dataset(5);
    let reference = procedure2_over(&dataset, View::Sharded, 1);
    assert!(reference.s_star.is_some());
    for threads in THREAD_MATRIX {
        for view in all_views() {
            assert_eq!(
                procedure2_over(&dataset, view, threads),
                reference,
                "{view:?} at {threads} counting worker(s)"
            );
        }
    }
}

#[test]
fn backend_parity_full_reports_at_1_2_and_8_threads() {
    let dataset = planted_dataset(23);
    let request = AnalysisRequest::for_k(2).with_replicates(24).with_seed(13);
    let analyze = |backend: DatasetBackend, threads: usize, residency: Option<ShardResidency>| {
        let mut engine = AnalysisEngine::from_dataset(dataset.clone())
            .unwrap()
            .with_threads(threads);
        if let Some(residency) = residency {
            engine = engine.with_shard_residency(residency);
        }
        report_of(engine.with_backend(backend), &request)
    };
    let reference = analyze(DatasetBackend::Csr, 1, None);
    for threads in THREAD_MATRIX {
        for (backend, residency) in [
            (DatasetBackend::Csr, None),
            (DatasetBackend::Bitmap, None),
            (DatasetBackend::Sharded, None),
            (DatasetBackend::Sharded, Some(one_byte_residency())),
        ] {
            let report = analyze(backend, threads, residency);
            // Everything except the recorded backend parameter must agree bit
            // for bit.
            assert_eq!(report.threshold, reference.threshold);
            assert_eq!(report.procedure2, reference.procedure2);
            assert_eq!(report.procedure1, reference.procedure1);
            assert_eq!(report.dataset, reference.dataset);
            assert_eq!(report.parameters.backend, backend);
        }
    }
}

#[test]
fn backend_parity_swap_null_model() {
    // The swap model's `sample_into_bitmap` is implemented *natively* on the
    // bit-columns (margin-preserving swaps as paired bit flips), so this pins
    // the contract that native swap sampling consumes the RNG exactly like the
    // CSR sampler: the pooled observations — and therefore the estimates — are
    // bit-identical across backends at every worker count.
    let reference_data = planted_dataset(31);
    let model = SwapRandomizationModel::new(reference_data, 3.0).unwrap();
    let run = |backend: DatasetBackend, threads: usize| {
        let algo = FindPoissonThreshold {
            replicates: 16,
            policy: ExecutionPolicy::from_threads(threads),
            backend,
            ..FindPoissonThreshold::new(2)
        };
        let mut rng = StdRng::seed_from_u64(3);
        algo.run(&model, &mut rng).unwrap()
    };
    let reference = run(DatasetBackend::Csr, 1);
    for threads in THREAD_MATRIX {
        for backend in [
            DatasetBackend::Csr,
            DatasetBackend::Bitmap,
            DatasetBackend::Sharded,
        ] {
            assert_eq!(
                run(backend, threads),
                reference,
                "swap-null backend {} at {threads} thread(s) diverged",
                backend.name()
            );
        }
    }
}

#[test]
fn backend_parity_swap_null_full_reports() {
    // End to end through the engine: the whole swap-null report (threshold,
    // Procedure 2 trace, significant family) is backend-invariant.
    let dataset = planted_dataset(47);
    let request = AnalysisRequest::for_k(2)
        .with_replicates(12)
        .with_seed(8)
        .with_baseline(false);
    let analyze = |backend: DatasetBackend, residency: Option<ShardResidency>| {
        let mut engine = AnalysisEngine::with_swap_null(dataset.clone(), 3.0).unwrap();
        if let Some(residency) = residency {
            engine = engine.with_shard_residency(residency);
        }
        report_of(engine.with_backend(backend), &request)
    };
    let csr = analyze(DatasetBackend::Csr, None);
    let bitmap = analyze(DatasetBackend::Bitmap, None);
    assert_eq!(csr.threshold, bitmap.threshold);
    assert_eq!(csr.procedure2, bitmap.procedure2);
    let spilled = analyze(DatasetBackend::Sharded, Some(one_byte_residency()));
    assert_eq!(csr.threshold, spilled.threshold);
    assert_eq!(csr.procedure2, spilled.procedure2);
}

#[test]
fn backend_parity_poisson_fit_replicate_loop() {
    let model = BernoulliModel::new(150, vec![0.1; 10]).unwrap();
    let fit = |backend: DatasetBackend| {
        let mut rng = StdRng::seed_from_u64(17);
        poisson_fit_with_backend(&model, 2, 4, 60, backend, &mut rng).unwrap()
    };
    let csr = fit(DatasetBackend::Csr);
    let bitmap = fit(DatasetBackend::Bitmap);
    assert_eq!(csr, bitmap);
    assert_eq!(fit(DatasetBackend::Auto), csr);
    assert_eq!(fit(DatasetBackend::Sharded), csr);
}

#[test]
fn kernel_dispatch_is_invisible_to_full_reports() {
    // Every kernel this CPU supports — `auto`, the one the process-wide
    // `kernels()` dispatch runs, included — must agree with the scalar
    // kernel on all four operations over live column data.
    use sigfim_datasets::kernels::{kernels, kernels_for, KernelMode};
    let dataset = planted_dataset(61);
    let bitmap = sigfim_datasets::BitmapDataset::from_dataset(&dataset);
    let scalar = kernels_for(KernelMode::Scalar);
    assert!(std::ptr::eq(kernels(), kernels_for(KernelMode::Auto)));
    let columns: Vec<&[u64]> = (0..dataset.num_items()).map(|i| bitmap.column(i)).collect();
    let modes = KernelMode::supported();
    assert!(modes.contains(&KernelMode::Auto) && modes.contains(&KernelMode::Scalar));
    for mode in modes {
        let kernel = kernels_for(mode);
        for pair in columns.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            let expected = scalar.and_count(a, b);
            assert_eq!(kernel.and_count(a, b), expected, "{mode} and_count");
            assert_eq!(
                kernel.popcount_slice(a),
                scalar.popcount_slice(a),
                "{mode} popcount_slice"
            );
            let reference: Vec<u64> = a.iter().zip(b).map(|(x, y)| x & y).collect();
            let mut dst = a.to_vec();
            assert_eq!(kernel.and_count_into(&mut dst, b), expected, "{mode}");
            assert_eq!(dst, reference, "{mode} and_count_into words");
            let mut out = vec![u64::MAX; a.len()];
            assert_eq!(kernel.and_into(&mut out, a, b), expected, "{mode}");
            assert_eq!(out, reference, "{mode} and_into words");
        }
    }
}
