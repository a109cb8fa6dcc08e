//! Tid-list vs bitmap support counting across density × k.
//!
//! Measures the two vertical counting backends (plus the bitmap batch path
//! that skips the per-batch bitmap build) on Bernoulli datasets of increasing
//! density, counting a fixed candidate batch of the top frequent k-itemsets.
//! This is the workload of Algorithm 1's support-counting of the pool `W` and
//! of `Q_{k,s}` profiling; the expectation is parity in the sparse regime and
//! a multiple-× bitmap win in the dense one (a tid-list walk touches
//! `density · t` ids per item, the bitmap always `⌈t/64⌉` words).
//!
//! The null-model replicate loop is measured too: CSR materialization vs
//! bit-sliced sampling into a reusable scratch bitmap plus bitset-Eclat
//! mining, which is the Monte-Carlo hot path of `FindPoissonThreshold`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

use sigfim_datasets::bitmap::{with_bitmap_scratch, BitmapDataset};
use sigfim_datasets::kernels::{kernels_for, KernelMode};
use sigfim_datasets::random::BernoulliModel;
use sigfim_datasets::sharded::ShardedBitmapDataset;
use sigfim_datasets::transaction::{ItemId, TransactionDataset};
use sigfim_exec::ExecutionPolicy;
use sigfim_mining::counting::{
    count_candidates_bitmap, BitmapCounter, SupportCounter, TidListCounter,
};
use sigfim_mining::eclat::Eclat;
use sigfim_mining::miner::KItemsetMiner;
use sigfim_mining::sharded::count_candidates_sharded;

const TRANSACTIONS: usize = 8_000;
const ITEMS: usize = 60;
const CANDIDATES: usize = 256;

/// Densities spanning the auto heuristic's break-even point of 1/64.
const DENSITIES: [f64; 3] = [0.005, 0.05, 0.25];

fn dataset_at_density(density: f64) -> TransactionDataset {
    let model = BernoulliModel::new(TRANSACTIONS, vec![density; ITEMS]).unwrap();
    model.sample(&mut StdRng::seed_from_u64(7))
}

/// The `CANDIDATES` lexicographically-first k-itemsets over the most frequent
/// items — a stand-in for the pool `W` of Algorithm 1.
fn candidate_batch(dataset: &TransactionDataset, k: usize) -> Vec<Vec<ItemId>> {
    let mut by_support: Vec<(u64, ItemId)> = dataset
        .item_supports()
        .into_iter()
        .enumerate()
        .map(|(i, s)| (s, i as ItemId))
        .collect();
    by_support.sort_unstable_by(|a, b| b.cmp(a));
    let top: Vec<ItemId> = by_support.iter().map(|&(_, i)| i).take(ITEMS).collect();
    let mut candidates = Vec::with_capacity(CANDIDATES);
    sigfim_mining::itemset::for_each_k_subset(&top, k, |subset| {
        if candidates.len() < CANDIDATES {
            let mut set = subset.to_vec();
            set.sort_unstable();
            candidates.push(set);
        }
    });
    candidates
}

fn bench_counting_backends(c: &mut Criterion) {
    for density in DENSITIES {
        let dataset = dataset_at_density(density);
        let bitmap = BitmapDataset::from_dataset(&dataset);
        for k in [2usize, 3] {
            let candidates = candidate_batch(&dataset, k);
            let mut group = c.benchmark_group(format!("counting_backends/density_{density}/k{k}"));
            group.bench_with_input(
                BenchmarkId::from_parameter("tid-list"),
                &candidates,
                |b, candidates| {
                    b.iter(|| TidListCounter.count(black_box(&dataset), black_box(candidates)))
                },
            );
            // The SupportCounter entry point, paying the bitmap build per batch…
            group.bench_with_input(
                BenchmarkId::from_parameter("bitmap"),
                &candidates,
                |b, candidates| {
                    b.iter(|| BitmapCounter.count(black_box(&dataset), black_box(candidates)))
                },
            );
            // …and the pre-built-columns path Procedure 2 and the replicate
            // loop actually use.
            group.bench_with_input(
                BenchmarkId::from_parameter("bitmap-prebuilt"),
                &candidates,
                |b, candidates| {
                    b.iter(|| count_candidates_bitmap(black_box(&bitmap), black_box(candidates)))
                },
            );
            group.finish();
        }
    }
}

fn bench_replicate_generation(c: &mut Criterion) {
    for density in DENSITIES {
        let model = BernoulliModel::new(TRANSACTIONS, vec![density; ITEMS]).unwrap();
        let floor = ((TRANSACTIONS as f64 * density * density).floor() as u64).max(1);
        let mut group = c.benchmark_group(format!("null_replicate/density_{density}"));
        group.bench_function("csr_sample_and_eclat", |b| {
            let mut rng = StdRng::seed_from_u64(3);
            b.iter(|| {
                let dataset = model.sample(&mut rng);
                Eclat.mine_k(black_box(&dataset), 2, floor).unwrap().len()
            })
        });
        group.bench_function("bitmap_scratch_and_bitset_eclat", |b| {
            let mut rng = StdRng::seed_from_u64(3);
            b.iter(|| {
                with_bitmap_scratch(|scratch| {
                    model.sample_into_bitmap(&mut rng, scratch);
                    Eclat
                        .mine_k_bitmap(black_box(scratch), 2, floor)
                        .unwrap()
                        .len()
                })
            })
        });
        group.finish();
    }
}

/// Apriori's *per-level* strategy choice, before vs after bitmap-aware levels.
///
/// Before this change `CountingStrategy::for_density` (the per-level heuristic
/// inside a running miner) only chose horizontal vs tid-list, so dense
/// `mine_k` calls outside the Eclat path walked `density · t` ids per
/// candidate item even when a word-parallel bitmap would touch 64× less
/// memory. Now the heuristic adds the bitmap as a third option — charged the
/// one-time column build at the first level that wants it, build-free at
/// every later level — so the pre-change behaviour is exactly the
/// `force=Vertical` arm below and the new behaviour is the `auto` arm.
///
/// Measured on the 8 000 × 60 Bernoulli matrices of this file (single-core
/// container, release build, wall-clock medians):
///
/// * density 0.25, k = 3, floor 420: auto ≈ 228 ms vs forced-vertical
///   ≈ 1.38 s (~6.1×) — each candidate item saves a ~2 000-id tid-list walk
///   for 125 words of AND + popcount.
/// * density 0.05, k = 3, floor 64: auto ≈ 2.5 ms vs forced-vertical
///   ≈ 9.5 ms (~3.8×) — mid-density, the build still amortizes across the
///   level's candidate batch.
/// * density 0.005 (sparse): the heuristic keeps tid-lists; parity.
fn bench_apriori_level_counting(c: &mut Criterion) {
    use sigfim_mining::apriori::{Apriori, CountingStrategy};
    for (density, floor) in [(0.05, 64), (0.25, 420)] {
        let dataset = dataset_at_density(density);
        let mut group = c.benchmark_group(format!("apriori_levels/density_{density}"));
        group.bench_function("auto_bitmap_aware", |b| {
            b.iter(|| {
                Apriori::default()
                    .mine_k(black_box(&dataset), 3, floor)
                    .unwrap()
                    .len()
            })
        });
        group.bench_function("forced_vertical_pre_change", |b| {
            let apriori = Apriori {
                force_strategy: Some(CountingStrategy::Vertical),
                prune: true,
            };
            b.iter(|| apriori.mine_k(black_box(&dataset), 3, floor).unwrap().len())
        });
        group.finish();
    }
}

/// The kernel-dispatch axis: the same AND + popcount workload under each
/// kernel the machine supports, against the forced-scalar baseline (the
/// pre-kernel behaviour — what `SIGFIM_KERNELS=scalar` pins the whole process
/// to).
///
/// The workload is the inner loop of `count_candidates_bitmap` made explicit:
/// for each of the 256 three-item candidates, seed a scratch buffer from the
/// rarest column and `and_count_into` the other two (125 words per column at
/// 8 000 transactions).
///
/// Measured on this container (single-core AVX-512 CPU, release build,
/// wall-clock medians, density 0.25 / k = 3 batch):
///
/// * `scalar` ≈ 72 µs per batch — rustc's baseline x86-64 target has no
///   POPCNT instruction, but LLVM autovectorizes the rolled SWAR loop fairly
///   well already;
/// * `avx2` ≈ 28 µs (**~2.5× over scalar**) — 256-bit `VPAND` + `PSHUFB`
///   nibble lookup + `VPSADBW`, four words per instruction;
/// * `avx512` ≈ 15.8 µs (**~4.5× over scalar, ~1.8× over avx2**) — 512-bit
///   `VPANDQ` + native `VPOPCNTQ` from the `VPOPCNTDQ` extension, eight words
///   per instruction with no nibble-table emulation.
///
/// The gap widens on the pure-popcount op (`popcount_slice` over the 7 500
/// word matrix): scalar ≈ 5.0 µs, avx2 ≈ 1.6 µs (~3.2×),
/// avx512 ≈ 0.79 µs (**~6.3× over scalar**).
fn bench_kernel_dispatch(c: &mut Criterion) {
    let dataset = dataset_at_density(0.25);
    let bitmap = BitmapDataset::from_dataset(&dataset);
    let candidates = candidate_batch(&dataset, 3);
    let words = bitmap.words_per_column();
    let all_words: Vec<u64> = (0..ITEMS as ItemId)
        .flat_map(|i| bitmap.column(i).to_vec())
        .collect();
    for mode in [KernelMode::Scalar, KernelMode::Avx2, KernelMode::Avx512] {
        if !mode.is_supported() {
            continue;
        }
        let kernels = kernels_for(mode);
        let mut group = c.benchmark_group(format!("kernels/{mode}"));
        group.bench_function("candidate_batch_and_count_into", |b| {
            let mut scratch = vec![0u64; words];
            b.iter(|| {
                let mut total = 0u64;
                for candidate in &candidates {
                    scratch.copy_from_slice(bitmap.column(candidate[0]));
                    let mut support = kernels.popcount_slice(&scratch);
                    for &item in &candidate[1..] {
                        support = kernels.and_count_into(&mut scratch, bitmap.column(item));
                    }
                    total += support;
                }
                black_box(total)
            })
        });
        group.bench_function("popcount_whole_matrix", |b| {
            b.iter(|| kernels.popcount_slice(black_box(&all_words)))
        });
        group.finish();
    }
}

/// Transaction-sharded counting: the same dense candidate batch counted on
/// the unsharded bitmap vs shard-by-shard (L2-sized shards) at 1, 2 and 4
/// counting workers.
///
/// Measured on this container (single-core, release build, density 0.25,
/// k = 3, 256 candidates, 8 000 transactions, L2-sized shards; wall-clock
/// medians):
///
/// * unsharded bitmap ≈ 36.8 µs; sharded sequential ≈ 33.0 µs — the
///   word-aligned split and fixed-order reduce cost nothing (slightly ahead
///   here because each shard's column set stays cache-resident across the
///   whole candidate batch);
/// * sharded at 2 / 4 rayon workers ≈ 32.6 / 32.5 µs — **this container
///   exposes one core**, so no speedup is measurable locally: the number to
///   take away is parity (fan-out adds no overhead). The parity suites pin
///   bit-identical results at every worker count, and multi-core hosts get
///   the shard-parallel scaling the layout exists for (one dataset's
///   counting pass split across workers, per the roadmap).
fn bench_sharded_counting(c: &mut Criterion) {
    let dataset = dataset_at_density(0.25);
    let bitmap = BitmapDataset::from_dataset(&dataset);
    let sharded = ShardedBitmapDataset::from_dataset(&dataset);
    let candidates = candidate_batch(&dataset, 3);
    let mut group = c.benchmark_group("sharded_counting/density_0.25/k3");
    group.bench_function("bitmap_unsharded", |b| {
        b.iter(|| count_candidates_bitmap(black_box(&bitmap), black_box(&candidates)))
    });
    group.bench_function("sharded_sequential", |b| {
        b.iter(|| {
            count_candidates_sharded(
                black_box(&sharded),
                black_box(&candidates),
                ExecutionPolicy::Sequential,
            )
        })
    });
    for workers in [2usize, 4] {
        group.bench_function(format!("sharded_rayon{workers}"), |b| {
            b.iter(|| {
                count_candidates_sharded(
                    black_box(&sharded),
                    black_box(&candidates),
                    ExecutionPolicy::rayon(workers),
                )
            })
        });
    }
    group.finish();
}

/// Subtree-parallel bitset Eclat on the k = 3 dense profile-mining workload:
/// full `mine_k_bitmap` (floor 1, the `Q_{k,s}` profiling support floor)
/// under sequential Eclat vs `ParallelEclat` at 1, 2 and 8 workers, unsharded
/// and composed with transaction sharding.
///
/// Measured on this container (single-core AVX-512 CPU, release build,
/// density 0.25, 8 000 × 60, ≈ 34 k emitted 3-itemsets, wall-clock minima of
/// 10 samples):
///
/// * sequential `Eclat::mine_k_bitmap` ≈ 1.80 ms; `ParallelEclat` at
///   1 worker ≈ 1.82 ms — **parity**: the Sequential policy arm drains the
///   per-item root frames inline with the identical DFS, so the frame
///   machinery costs ≈ 1 %;
/// * `ParallelEclat` at 2 / 8 rayon workers ≈ 2.7 ms — **this container
///   exposes one core**, so no parallel speedup is physically available and
///   the wall clock instead *sums* both workers' coordination (scoped-thread
///   spawn ≈ 40 µs, multi-threaded allocator arenas for the ~34 k emission
///   allocations, queue mutex traffic and context switches all serialized
///   onto the one core). On multi-core hosts the item-subtree frames are
///   independent by construction and scale with workers; the parity suites
///   pin bit-identical output at every worker count, and the CLI's
///   `--miner auto` only selects the parallel miner when more than one
///   worker is actually available;
/// * sharded `ParallelEclat` at 2 workers ≈ 2.6 ms — the subtree × shard
///   composition (per-shard AND segments, exact per-shard popcounts summed)
///   costs nothing beyond the unsharded fan-out.
fn bench_par_eclat_mining(c: &mut Criterion) {
    use sigfim_mining::par_eclat::ParallelEclat;
    let dataset = dataset_at_density(0.25);
    let bitmap = BitmapDataset::from_dataset(&dataset);
    let sharded = ShardedBitmapDataset::from_dataset(&dataset);
    let floor = 1u64;
    let mut group = c.benchmark_group("par_eclat/density_0.25/k3");
    group.sample_size(10);
    group.bench_function("eclat_sequential", |b| {
        b.iter(|| {
            Eclat
                .mine_k_bitmap(black_box(&bitmap), 3, floor)
                .unwrap()
                .len()
        })
    });
    for workers in [1usize, 2, 8] {
        let miner = ParallelEclat::new(ExecutionPolicy::from_threads(workers));
        group.bench_function(format!("par_eclat_workers{workers}"), |b| {
            b.iter(|| {
                miner
                    .mine_k_bitmap(black_box(&bitmap), 3, floor)
                    .unwrap()
                    .len()
            })
        });
    }
    let miner = ParallelEclat::new(ExecutionPolicy::from_threads(2));
    group.bench_function("par_eclat_sharded_workers2", |b| {
        b.iter(|| {
            miner
                .mine_k_sharded(black_box(&sharded), 3, floor)
                .unwrap()
                .len()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_counting_backends,
    bench_replicate_generation,
    bench_apriori_level_counting,
    bench_kernel_dispatch,
    bench_sharded_counting,
    bench_par_eclat_mining
);
criterion_main!(benches);
