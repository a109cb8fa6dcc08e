//! Criterion benchmark of one complete table row: the full Table-3 pipeline
//! (stand-in generation → Algorithm 1 → Procedure 2) for a benchmark stand-in at a
//! small scale. This is the number to watch when optimizing the experiment harness
//! itself; the real tables are produced by the `table*` binaries.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

use sigfim_core::engine::{AnalysisEngine, AnalysisRequest};
use sigfim_datasets::benchmarks::BenchmarkDataset;

fn bench_table3_row(c: &mut Criterion) {
    let mut group = c.benchmark_group("tables/table3_row");
    group.sample_size(10);
    // The two smallest benchmarks at aggressive down-scaling keep a row under a
    // second while exercising exactly the code path the table binary runs.
    for (bench, scale) in [
        (BenchmarkDataset::Bms1, 64.0),
        (BenchmarkDataset::Bms2, 64.0),
    ] {
        let mut rng = StdRng::seed_from_u64(13);
        let dataset = bench
            .sample_standin(scale, &mut rng)
            .expect("stand-in generation");
        group.bench_with_input(
            BenchmarkId::new("k2", bench.name()),
            &dataset,
            |b, dataset| {
                let request = AnalysisRequest::for_k(2)
                    .with_replicates(16)
                    .with_seed(5)
                    .with_baseline(false);
                b.iter(|| {
                    let mut engine =
                        AnalysisEngine::from_dataset(black_box(dataset).clone()).unwrap();
                    black_box(engine.run(&request).unwrap())
                })
            },
        );
    }
    group.finish();
}

fn bench_standin_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("tables/standin_generation");
    group.sample_size(10);
    for bench in BenchmarkDataset::ALL {
        let scale = 64.0;
        group.bench_with_input(
            BenchmarkId::from_parameter(bench.name()),
            &bench,
            |b, bench| {
                let mut rng = StdRng::seed_from_u64(17);
                b.iter(|| black_box(bench.sample_standin(scale, &mut rng).unwrap()))
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_table3_row, bench_standin_generation);
criterion_main!(benches);
