//! Criterion benchmarks of the two significance procedures and of a cold
//! end-to-end engine run, on planted datasets sized so one iteration stays in the tens of
//! milliseconds.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

use sigfim_core::engine::{AnalysisEngine, AnalysisRequest};
use sigfim_core::lambda::MonteCarloLambda;
use sigfim_core::procedure1::Procedure1;
use sigfim_core::procedure2::Procedure2;
use sigfim_datasets::random::{BernoulliModel, PlantedConfig, PlantedModel, PlantedPattern};
use sigfim_datasets::transaction::TransactionDataset;

fn planted_dataset(transactions: usize, items: usize) -> TransactionDataset {
    let background = BernoulliModel::new(transactions, vec![0.03; items]).unwrap();
    let model = PlantedModel::new(PlantedConfig {
        background,
        patterns: vec![
            PlantedPattern::new(vec![1, 2], transactions / 10).unwrap(),
            PlantedPattern::new(vec![5, 9], transactions / 12).unwrap(),
            PlantedPattern::new(vec![11, 12, 13], transactions / 15).unwrap(),
        ],
    })
    .unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    model.sample(&mut rng)
}

fn bench_procedure1(c: &mut Criterion) {
    let mut group = c.benchmark_group("procedure1");
    for transactions in [1_000usize, 4_000] {
        let dataset = planted_dataset(transactions, 60);
        // Mine at a floor low enough to test a few hundred itemsets.
        let s_min = (transactions / 100) as u64;
        group.bench_with_input(
            BenchmarkId::from_parameter(transactions),
            &dataset,
            |b, dataset| {
                b.iter(|| black_box(Procedure1::new(2).run(black_box(dataset), s_min).unwrap()))
            },
        );
    }
    group.finish();
}

fn bench_procedure2(c: &mut Criterion) {
    let mut group = c.benchmark_group("procedure2");
    for transactions in [1_000usize, 4_000] {
        let dataset = planted_dataset(transactions, 60);
        let s_min = (transactions / 100) as u64;
        // A plausible lambda table around the threshold.
        let lambda = MonteCarloLambda::new(
            s_min,
            vec![2.0, 1.0, 0.5, 0.2, 0.08, 0.03, 0.01, 0.004, 0.001, 0.0],
        )
        .unwrap();
        group.bench_with_input(
            BenchmarkId::from_parameter(transactions),
            &dataset,
            |b, dataset| {
                b.iter(|| {
                    black_box(
                        Procedure2::new(2)
                            .run(black_box(dataset), s_min, &lambda)
                            .unwrap(),
                    )
                })
            },
        );
    }
    group.finish();
}

fn bench_end_to_end_engine(c: &mut Criterion) {
    // The full pipeline on a fresh engine per iteration, so nothing is cached:
    // Algorithm 1 (with a modest replicate count) + Procedure 2 + the
    // Procedure 1 baseline.
    let mut group = c.benchmark_group("engine/end_to_end");
    group.sample_size(10);
    let dataset = planted_dataset(1_000, 40);
    for replicates in [16usize, 48] {
        group.bench_with_input(
            BenchmarkId::from_parameter(replicates),
            &replicates,
            |b, &replicates| {
                let request = AnalysisRequest::for_k(2)
                    .with_replicates(replicates)
                    .with_seed(3);
                b.iter(|| {
                    let mut engine =
                        AnalysisEngine::from_dataset(black_box(&dataset).clone()).unwrap();
                    black_box(engine.run(&request).unwrap())
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_procedure1,
    bench_procedure2,
    bench_end_to_end_engine
);
criterion_main!(benches);
