//! Out-of-core parity contract: an engine whose sharded view is spilled to
//! disk under a residency budget produces **bit-identical** reports to the
//! fully-resident engine — at any budget (including one that forces every
//! shard cold), in both fault modes (`mmap` and `read`), under every miner
//! and worker count. Spilling is a pure footprint knob, exactly like
//! `--backend` is a pure performance knob.
//!
//! The suite also pins the footprint claim itself: on Linux, analyzing a
//! dataset whose bit matrix is ≥ 4× the residency budget keeps the peak-RSS
//! *growth* of the measured analysis bounded by the budget plus a constant
//! overhead — far below the matrix size — while returning byte-identical
//! results (`VmHWM` from `/proc/self/status`, reset via
//! `/proc/self/clear_refs`).

use sigfim_core::engine::{AnalysisEngine, AnalysisRequest, ThresholdStore};
use sigfim_core::DatasetBackend;
use sigfim_datasets::random::{BernoulliModel, PlantedConfig, PlantedModel, PlantedPattern};
use sigfim_datasets::spill::{ShardResidency, SpillMode};
use sigfim_datasets::transaction::TransactionDataset;
use sigfim_mining::miner::MinerKind;

use rand::rngs::StdRng;
use rand::SeedableRng;

fn planted_dataset(seed: u64) -> TransactionDataset {
    let background = BernoulliModel::new(350, vec![0.06; 18]).unwrap();
    let model = PlantedModel::new(PlantedConfig {
        background,
        patterns: vec![PlantedPattern::new(vec![3, 11], 70).unwrap()],
    })
    .unwrap();
    model.sample(&mut StdRng::seed_from_u64(seed))
}

#[test]
fn spilled_engine_reports_match_resident_bit_for_bit() {
    let dataset = planted_dataset(5);
    let request = |miner: MinerKind| {
        AnalysisRequest::for_k_range(2..=3)
            .with_replicates(20)
            .with_seed(11)
            .with_miner(miner)
    };

    for miner in [MinerKind::Apriori, MinerKind::ParEclat] {
        let reference = AnalysisEngine::from_dataset(dataset.clone())
            .unwrap()
            .with_backend(DatasetBackend::Sharded)
            .run(&request(miner))
            .unwrap();
        for mode in SpillMode::ALL {
            // Budget 1 forces every shard cold (evict-after-use); the huge
            // budget takes the all-pinned fast path. Both must agree with
            // the resident run at every worker count.
            for budget in [1u64, 1 << 30] {
                for threads in [1usize, 2, 8] {
                    let mut engine = AnalysisEngine::from_dataset(dataset.clone())
                        .unwrap()
                        .with_backend(DatasetBackend::Sharded)
                        .with_threads(threads)
                        .with_shard_residency(ShardResidency {
                            budget_bytes: budget,
                            mode,
                            dir: None,
                        });
                    let snapshot = engine
                        .spill_snapshot()
                        .expect("an active residency must spill the sharded view");
                    assert_eq!(snapshot.budget_bytes, budget);
                    let spilled = engine.run(&request(miner)).unwrap();
                    assert_eq!(
                        spilled, reference,
                        "{miner:?}/{mode}/budget {budget}/{threads} thread(s) \
                         diverged from the resident engine"
                    );
                    if budget == 1 {
                        let snapshot = engine.spill_snapshot().unwrap();
                        assert!(
                            snapshot.refaults > 0,
                            "a 1-byte budget must fault shards back in ({miner:?}/{mode})"
                        );
                    }
                }
            }
        }
    }
}

/// A dataset whose bit matrix (2 MiB) is eight times the default shard
/// budget (`SHARD_L2_BUDGET_BYTES`, 256 KiB), so its sharded view has eight
/// shards: every transaction holds two items on fixed strides, so
/// every pair recurs and the k = 2 profile is non-trivial.
fn multi_shard_dataset() -> TransactionDataset {
    const NUM_ITEMS: u32 = 64;
    let transactions = (0..1usize << 18)
        .map(|tid| {
            let a = ((tid * 7 + 3) % NUM_ITEMS as usize) as u32;
            let b = ((tid * 13 + 5) % NUM_ITEMS as usize) as u32;
            let mut txn = vec![a.min(b), a.max(b)];
            txn.dedup();
            txn
        })
        .collect();
    TransactionDataset::from_transactions(NUM_ITEMS, transactions).unwrap()
}

#[test]
fn warm_alpha_beta_requery_on_a_spilled_engine_faults_nothing() {
    // Procedure 2's family and the Procedure 1 baseline are filters over the
    // cached floor profile, so once the cold run has mined it, an α/β
    // re-query touches no shard: under a 1-byte budget any mining pass would
    // fault every shard back in and evict it again. The counters are this
    // engine's own, so tests running in parallel cannot disturb them.
    let dataset = multi_shard_dataset();
    let request = AnalysisRequest::for_k(2)
        .with_replicates(4)
        .with_seed(13)
        .with_baseline(true);
    // One Algorithm 1 run serves every engine below; each engine still
    // mines its own profile from its own spilled shards.
    let store = ThresholdStore::new();
    for miner in [MinerKind::Apriori, MinerKind::ParEclat] {
        for mode in SpillMode::ALL {
            let mut engine = AnalysisEngine::from_dataset(dataset.clone())
                .unwrap()
                .with_backend(DatasetBackend::Sharded)
                .with_threads(1)
                .with_threshold_store(store.clone())
                .with_shard_residency(ShardResidency {
                    budget_bytes: 1,
                    mode,
                    dir: None,
                });
            engine.run(&request.clone().with_miner(miner)).unwrap();
            let cold = engine.spill_snapshot().unwrap();
            assert!(cold.shards >= 2, "the view must span several shards");
            assert!(
                cold.refaults > 0 && cold.evictions > 0,
                "the cold run must mine the profile through the 1-byte budget ({miner:?}/{mode})"
            );
            for (alpha, beta) in [(0.01, 0.2), (0.2, 0.01)] {
                let warm_request = request
                    .clone()
                    .with_miner(miner)
                    .with_alpha(alpha)
                    .with_beta(beta);
                let warm = engine.run(&warm_request).unwrap();
                assert_eq!(warm.cache_hits(), 1);
                let after = engine.spill_snapshot().unwrap();
                assert_eq!(
                    (after.refaults, after.evictions),
                    (cold.refaults, cold.evictions),
                    "a warm α/β re-query must not mine ({miner:?}/{mode}, alpha {alpha}, beta {beta})"
                );
            }
        }
    }
}

#[test]
fn inactive_residency_keeps_the_view_resident() {
    // An engine without a residency keeps its sharded store resident: there
    // is no process-wide fallback that could spill it.
    let engine = AnalysisEngine::from_dataset(planted_dataset(9))
        .unwrap()
        .with_backend(DatasetBackend::Sharded);
    assert!(engine.spill_snapshot().is_none());
}

/// `VmHWM` (peak resident set, kB) from `/proc/self/status`.
#[cfg(target_os = "linux")]
fn vm_hwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Reset the peak-RSS watermark to the current RSS (`5` → `clear_refs`).
#[cfg(target_os = "linux")]
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The acceptance criterion of the out-of-core work: a dataset whose sharded
/// bit matrix is ≥ 4× the residency budget analyzes to completion with the
/// measured peak-RSS growth bounded by `budget + constant overhead` — well
/// below the matrix size — and the spill-forced report byte-identical to the
/// fully-resident one.
#[cfg(target_os = "linux")]
#[test]
fn spilled_analysis_peak_rss_is_bounded_by_the_residency_budget() {
    const NUM_ITEMS: u32 = 64;
    const NUM_TRANSACTIONS: usize = 1 << 20;
    const BUDGET: u64 = 1 << 20; // 1 MiB resident shard payload
    /// Constant overhead allowance on top of the budget: one pinned shard
    /// (256 KiB at the default width), the per-shard partial-count
    /// vectors, the floor profile, and allocator slack.
    const SLACK: u64 = 4 << 20;

    // ~2 items per transaction; every pair recurs every 64 transactions, so
    // supports are high and the k = 2 profile is non-trivial.
    let mut transactions = Vec::with_capacity(NUM_TRANSACTIONS);
    for tid in 0..NUM_TRANSACTIONS {
        let a = ((tid * 7 + 3) % NUM_ITEMS as usize) as u32;
        let b = ((tid * 13 + 5) % NUM_ITEMS as usize) as u32;
        let mut txn = vec![a, b];
        txn.sort_unstable();
        txn.dedup();
        transactions.push(txn);
    }
    let dataset = TransactionDataset::from_transactions(NUM_ITEMS, transactions).unwrap();

    let matrix_bytes = NUM_ITEMS as u64
        * (NUM_TRANSACTIONS as u64).div_ceil(64)
        * std::mem::size_of::<u64>() as u64;
    assert!(
        matrix_bytes >= 4 * BUDGET,
        "the matrix ({matrix_bytes} B) must exceed the budget ({BUDGET} B) at least 4x"
    );
    // The bound we assert must itself be able to fail if the matrix were
    // fully resident during the measured run.
    assert!(BUDGET + SLACK < matrix_bytes);

    let request = AnalysisRequest::for_k(2)
        .with_replicates(4)
        .with_seed(41)
        .with_baseline(false);

    // Resident reference run — also warms the threshold store that the
    // spilled engine shares, so the measured region below never runs the
    // Monte-Carlo replicate loop (whose scratch bitmap is intentionally
    // unspillable and full-size).
    let mut reference_engine = AnalysisEngine::from_dataset(dataset.clone())
        .unwrap()
        .with_backend(DatasetBackend::Sharded)
        .with_threads(1);
    let reference = reference_engine.run(&request).unwrap();
    let store = reference_engine.threshold_store();
    drop(reference_engine);

    let mode = SpillMode::default();
    let mut engine = AnalysisEngine::from_dataset(dataset)
        .unwrap()
        .with_backend(DatasetBackend::Sharded)
        .with_threads(1)
        .with_threshold_store(store)
        .with_shard_residency(ShardResidency {
            budget_bytes: BUDGET,
            mode,
            dir: None,
        });

    if !reset_peak_rss() {
        eprintln!("skipping: /proc/self/clear_refs is not writable here");
        return;
    }
    let before_kb = vm_hwm_kb().expect("/proc/self/status must report VmHWM");
    let spilled = engine.run(&request).unwrap();
    let after_kb = vm_hwm_kb().expect("/proc/self/status must report VmHWM");

    let growth = (after_kb.saturating_sub(before_kb)) * 1024;
    assert!(
        growth <= BUDGET + SLACK,
        "peak-RSS growth {growth} B exceeds budget {BUDGET} B + slack {SLACK} B \
         (matrix is {matrix_bytes} B)"
    );
    assert_eq!(
        spilled.runs.len(),
        reference.runs.len(),
        "spilled and resident sweeps must cover the same ks"
    );
    for (s, r) in spilled.runs.iter().zip(&reference.runs) {
        assert_eq!(
            s.report, r.report,
            "the spill-forced report must be byte-identical to the resident one"
        );
    }
    let snapshot = engine.spill_snapshot().unwrap();
    assert!(
        snapshot.refaults > 0,
        "a budget 8x below the matrix must fault shards during counting"
    );
}
