//! CI bench snapshot: a fast, dependency-free runner that re-measures the
//! headline groups of `benches/counting_backends.rs` with `std::time::Instant`
//! and writes the medians to `BENCH_counting.json` (group → median ns).
//!
//! Criterion runs take minutes; CI wants a single-digit-seconds artifact that
//! tracks the same workloads — kernel dispatch, sharded counting, spilled
//! (out-of-core) counting, and subtree-parallel Eclat — so a regression shows
//! up as a diff in the snapshot file, not as a silently slower merge. The
//! numbers are medians of `SAMPLES` timed repetitions after one warm-up pass;
//! absolute values vary with the runner, relative movement between adjacent
//! commits is the signal.
//!
//! On Linux each group also records its peak resident set (`VmHWM` from
//! `/proc/self/status`, watermark reset between groups via
//! `/proc/self/clear_refs`) as a `<group>/peak_rss_kb` entry — the footprint
//! axis the out-of-core work optimizes, tracked beside the latency axis it
//! must not regress.
//!
//! ```text
//! cargo run -p sigfim-bench --release --bin bench_snapshot [-- <output-path>]
//! ```

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use sigfim_datasets::bitmap::{with_bitmap_scratch, BitmapDataset};
use sigfim_datasets::kernels::{kernels_for, KernelMode};
use sigfim_datasets::random::BernoulliModel;
use sigfim_datasets::sharded::ShardedBitmapDataset;
use sigfim_datasets::spill::ShardResidency;
use sigfim_datasets::transaction::{ItemId, TransactionDataset};
use sigfim_exec::{substream, ExecutionPolicy};
use sigfim_mining::counting::count_candidates_bitmap;
use sigfim_mining::eclat::Eclat;
use sigfim_mining::par_eclat::ParallelEclat;
use sigfim_mining::sharded::count_candidates_sharded;

/// Smaller than the criterion workload so the whole snapshot stays fast.
const TRANSACTIONS: usize = 4_000;
const ITEMS: usize = 40;
const CANDIDATES: usize = 128;
const DENSITY: f64 = 0.25;
const SAMPLES: usize = 7;

fn dense_dataset() -> TransactionDataset {
    let model = BernoulliModel::new(TRANSACTIONS, vec![DENSITY; ITEMS]).unwrap();
    model.sample(&mut StdRng::seed_from_u64(7))
}

/// The `CANDIDATES` lexicographically-first 3-itemsets over the most frequent
/// items — the same batch shape the criterion benches use.
fn candidate_batch(dataset: &TransactionDataset) -> Vec<Vec<ItemId>> {
    let mut by_support: Vec<(u64, ItemId)> = dataset
        .item_supports()
        .into_iter()
        .enumerate()
        .map(|(i, s)| (s, i as ItemId))
        .collect();
    by_support.sort_unstable_by(|a, b| b.cmp(a));
    let top: Vec<ItemId> = by_support.iter().map(|&(_, i)| i).take(ITEMS).collect();
    let mut candidates = Vec::with_capacity(CANDIDATES);
    sigfim_mining::itemset::for_each_k_subset(&top, 3, |subset| {
        if candidates.len() < CANDIDATES {
            let mut set = subset.to_vec();
            set.sort_unstable();
            candidates.push(set);
        }
    });
    candidates
}

/// Median wall-clock nanoseconds of `SAMPLES` runs after one warm-up pass.
fn median_ns(mut run: impl FnMut()) -> u64 {
    run();
    let mut samples: Vec<u64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            run();
            start.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// `VmHWM` (peak resident set, kB) from `/proc/self/status`.
#[cfg(target_os = "linux")]
fn vm_hwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(not(target_os = "linux"))]
fn vm_hwm_kb() -> Option<u64> {
    None
}

/// Reset the peak-RSS watermark to the current RSS so each group's `VmHWM`
/// reflects that group alone. `false` when the kernel refuses (non-Linux, or
/// a locked-down `/proc`) — peak-RSS entries are then omitted.
#[cfg(target_os = "linux")]
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(not(target_os = "linux"))]
fn reset_peak_rss() -> bool {
    false
}

/// Time one snapshot group and record its median latency plus, where the
/// watermark is resettable, the group's peak resident set.
fn record(entries: &mut Vec<(String, u64)>, name: String, run: impl FnMut()) {
    let tracked = reset_peak_rss();
    let ns = median_ns(run);
    entries.push((name.clone(), ns));
    if tracked {
        if let Some(kb) = vm_hwm_kb() {
            entries.push((format!("{name}/peak_rss_kb"), kb));
        }
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let output = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_counting.json".to_string());
    let dataset = dense_dataset();
    let bitmap = BitmapDataset::from_dataset(&dataset);
    let sharded = ShardedBitmapDataset::from_dataset(&dataset);
    let candidates = candidate_batch(&dataset);
    let words = bitmap.words_per_column();

    let mut entries: Vec<(String, u64)> = Vec::new();

    // Kernel dispatch: the candidate-batch AND + popcount loop per mode.
    for mode in [KernelMode::Scalar, KernelMode::Avx2, KernelMode::Avx512] {
        if !mode.is_supported() {
            continue;
        }
        let kernels = kernels_for(mode);
        let mut scratch = vec![0u64; words];
        record(
            &mut entries,
            format!("kernels/{mode}/candidate_batch"),
            || {
                let mut total = 0u64;
                for candidate in &candidates {
                    scratch.copy_from_slice(bitmap.column(candidate[0]));
                    let mut support = kernels.popcount_slice(&scratch);
                    for &item in &candidate[1..] {
                        support = kernels.and_count_into(&mut scratch, bitmap.column(item));
                    }
                    total += support;
                }
                black_box(total);
            },
        );
    }

    // Sharded vs unsharded candidate counting.
    record(
        &mut entries,
        "counting/bitmap_unsharded".to_string(),
        || {
            black_box(count_candidates_bitmap(&bitmap, &candidates));
        },
    );
    for workers in [1usize, 2] {
        let policy = ExecutionPolicy::from_threads(workers);
        record(
            &mut entries,
            format!("counting/sharded_workers{workers}"),
            || {
                black_box(count_candidates_sharded(&sharded, &candidates, policy));
            },
        );
    }

    // Out-of-core counting: the same candidate batch against a spilled store,
    // fully pinned (budget covers everything: measures the fault-free guard
    // overhead) and fully cold (1-byte budget: every shard faults from its
    // spill file once per batch).
    for (tag, budget) in [("pinned", u64::MAX), ("cold", 1u64)] {
        let residency = ShardResidency::with_budget(budget);
        let spilled =
            ShardedBitmapDataset::spill_dataset(&dataset, &residency).expect("spill to tmp");
        for workers in [1usize, 2] {
            let policy = ExecutionPolicy::from_threads(workers);
            record(
                &mut entries,
                format!("counting/spilled_{tag}_workers{workers}"),
                || {
                    black_box(count_candidates_sharded(&spilled, &candidates, policy));
                },
            );
        }
    }

    // Subtree-parallel bitset Eclat, k = 3 profile-mining floor.
    record(
        &mut entries,
        "par_eclat/eclat_sequential_k3".to_string(),
        || {
            black_box(Eclat.mine_k_bitmap(&bitmap, 3, 1).unwrap().len());
        },
    );
    for workers in [1usize, 2, 8] {
        let miner = ParallelEclat::new(ExecutionPolicy::from_threads(workers));
        record(
            &mut entries,
            format!("par_eclat/workers{workers}_k3"),
            || {
                black_box(miner.mine_k_bitmap(&bitmap, 3, 1).unwrap().len());
            },
        );
    }
    let miner = ParallelEclat::new(ExecutionPolicy::from_threads(2));
    record(
        &mut entries,
        "par_eclat/sharded_workers2_k3".to_string(),
        || {
            black_box(miner.mine_k_sharded(&sharded, 3, 1).unwrap().len());
        },
    );

    // Replicate-loop fills: the legacy cellwise (fused-count) sampler vs the
    // geometric-jump gaps sampler, one `(seed, replicate)` substream per
    // replicate exactly as Algorithm 1 draws them, at two densities (gaps is
    // O(set bits), so its advantage grows as density falls).
    const REPLICATES: u64 = 8;
    for density in [0.02f64, 0.05] {
        let model = BernoulliModel::new(TRANSACTIONS, vec![density; ITEMS]).unwrap();
        for gaps in [false, true] {
            let sampler = if gaps { "gaps" } else { "cellwise" };
            record(
                &mut entries,
                format!("replicate_loop/{sampler}_density{density}"),
                || {
                    with_bitmap_scratch(|scratch| {
                        let mut total = 0u64;
                        for replicate in 0..REPLICATES {
                            let mut rng = substream(0x51F1_D009, replicate);
                            let supports = if gaps {
                                model.sample_into_bitmap_gaps(&mut rng, scratch)
                            } else {
                                model.sample_into_bitmap_counted(&mut rng, scratch)
                            };
                            total += supports.iter().sum::<u64>();
                        }
                        black_box(total);
                    });
                },
            );
        }
    }

    let body: Vec<String> = entries
        .iter()
        .map(|(name, ns)| format!("  \"{}\": {ns}", json_escape(name)))
        .collect();
    let json = format!("{{\n{}\n}}\n", body.join(",\n"));
    std::fs::write(&output, &json).expect("write snapshot file");
    println!("wrote {} ({} groups)", output, entries.len());
    for (name, value) in &entries {
        let unit = if name.ends_with("/peak_rss_kb") {
            "kB"
        } else {
            "ns"
        };
        println!("  {name}: {value} {unit}");
    }
}
