//! Property-based tests for the mining crate.
//!
//! The central invariant: every miner returns exactly the k-itemsets with support at
//! least `s`, with exact supports — so all algorithms must agree with each other and
//! with the brute-force oracle on random datasets.

use proptest::collection::vec;
use proptest::prelude::*;

use sigfim_datasets::bitmap::{BitmapDataset, DatasetBackend};
use sigfim_datasets::sharded::ShardedBitmapDataset;
use sigfim_datasets::spill::{ShardResidency, SpillMode};
use sigfim_datasets::transaction::{ItemId, TransactionDataset};
use sigfim_exec::ExecutionPolicy;
use sigfim_mining::counting::{
    count_candidates_bitmap, q_k_s, supports_of, BitmapCounter, HorizontalCounter, SupportCounter,
    SupportProfile, TidListCounter,
};
use sigfim_mining::itemset::ItemsetSupport;
use sigfim_mining::miner::{KItemsetMiner, MinerKind};
use sigfim_mining::{Apriori, BruteForce, Eclat, FpGrowth, ParallelEclat};

/// Strategy: a small random dataset over up to 8 items with up to 24 transactions.
fn small_dataset() -> impl Strategy<Value = TransactionDataset> {
    vec(vec(0u32..8, 0..6), 1..24)
        .prop_map(|txns| TransactionDataset::from_transactions(8, txns).expect("items < 8"))
}

/// Strategy: a dataset whose shape spans the backend heuristic's whole range —
/// item universes up to 12, up to 90 transactions (so bit-columns span multiple
/// words), per-transaction lengths from 0 (empty transactions) to dense.
fn varied_density_dataset() -> impl Strategy<Value = TransactionDataset> {
    vec(vec(0u32..12, 0..10), 1..90)
        .prop_map(|txns| TransactionDataset::from_transactions(12, txns).expect("items < 12"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn all_miners_agree(dataset in small_dataset(), k in 1usize..5, s in 1u64..6) {
        let reference = BruteForce.mine_k(&dataset, k, s).unwrap();
        prop_assert_eq!(&Apriori::default().mine_k(&dataset, k, s).unwrap(), &reference);
        prop_assert_eq!(&Eclat.mine_k(&dataset, k, s).unwrap(), &reference);
        prop_assert_eq!(&FpGrowth.mine_k(&dataset, k, s).unwrap(), &reference);
    }

    #[test]
    fn mined_itemsets_have_exact_supports(dataset in small_dataset(), k in 1usize..4, s in 1u64..5) {
        for m in Apriori::default().mine_k(&dataset, k, s).unwrap() {
            prop_assert_eq!(m.support, dataset.itemset_support(&m.items));
            prop_assert!(m.support >= s);
            prop_assert_eq!(m.items.len(), k);
            // Items sorted and distinct.
            prop_assert!(m.items.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn q_is_monotone_in_s(dataset in small_dataset(), k in 1usize..4) {
        let mut previous = u64::MAX;
        for s in 1..=6u64 {
            let q = q_k_s(&dataset, k, s).unwrap();
            prop_assert!(q <= previous, "Q_{{k,s}} must be non-increasing in s");
            previous = q;
        }
    }

    #[test]
    fn support_profile_matches_direct_counts(dataset in small_dataset(), k in 1usize..4) {
        let profile = SupportProfile::new(&dataset, k, 1).unwrap();
        for s in 1..=6u64 {
            prop_assert_eq!(profile.q_at(s), q_k_s(&dataset, k, s).unwrap());
        }
    }

    #[test]
    fn profile_family_is_the_mined_family_at_every_threshold(
        dataset in varied_density_dataset(),
        k in 1usize..4,
        floor in 1u64..5,
    ) {
        // The profile holds F_k(floor) itself, so every F_k(s) above the floor
        // is a filter over it: item for item and in order, exactly what a
        // fresh mining pass at `s` returns, from the CSR and the bitmap
        // constructors alike.
        let bitmap = BitmapDataset::from_dataset(&dataset);
        let profiles = [
            SupportProfile::new(&dataset, k, floor).unwrap(),
            SupportProfile::from_bitmap(&bitmap, k, floor).unwrap(),
        ];
        for profile in &profiles {
            for s in floor..=profile.max_support().max(floor) + 1 {
                let family: Vec<ItemsetSupport> = profile
                    .family_at(s)
                    .map(|(items, support)| ItemsetSupport::new(items.to_vec(), support))
                    .collect();
                let apriori = Apriori::default().mine_k(&dataset, k, s).unwrap();
                prop_assert_eq!(&family, &apriori, "s = {}", s);
                prop_assert_eq!(&family, &Eclat.mine_k(&dataset, k, s).unwrap(), "s = {}", s);
                prop_assert_eq!(profile.q_at(s), family.len() as u64, "s = {}", s);
            }
        }
    }

    #[test]
    fn batch_counting_matches_reference(dataset in small_dataset(), sets in vec(vec(0u32..8, 1..4), 1..10)) {
        let normalized: Vec<Vec<ItemId>> = sets
            .into_iter()
            .map(|mut s| {
                s.sort_unstable();
                s.dedup();
                s
            })
            .collect();
        let batch = supports_of(&dataset, &normalized);
        for (set, support) in normalized.iter().zip(batch) {
            prop_assert_eq!(support, dataset.itemset_support(set));
        }
    }

    #[test]
    fn mine_up_to_is_union_of_sizes(dataset in small_dataset(), s in 1u64..5) {
        for kind in [MinerKind::Apriori, MinerKind::Eclat, MinerKind::FpGrowth] {
            let mut union = Vec::new();
            for k in 1..=3 {
                union.extend(kind.mine_k(&dataset, k, s).unwrap());
            }
            sigfim_mining::itemset::sort_canonical(&mut union);
            let up_to = match kind {
                MinerKind::Apriori => Apriori::default().mine_up_to(&dataset, 3, s).unwrap(),
                MinerKind::Eclat => Eclat.mine_up_to(&dataset, 3, s).unwrap(),
                MinerKind::FpGrowth => FpGrowth.mine_up_to(&dataset, 3, s).unwrap(),
                MinerKind::BruteForce | MinerKind::ParEclat => unreachable!(),
            };
            prop_assert_eq!(union, up_to, "{}", kind.name());
        }
    }

    #[test]
    fn bitmap_backend_supports_match_tidlist_and_horizontal(
        dataset in varied_density_dataset(),
        k in 1usize..4,
        sets in vec(vec(0u32..12, 0..4), 1..12),
    ) {
        // Uniform-size candidate lists exercise all three counters (the
        // horizontal pass requires one size)...
        let uniform: Vec<Vec<ItemId>> = sets
            .iter()
            .cloned()
            .map(|mut s| {
                s.sort_unstable();
                s.dedup();
                s.truncate(k);
                s
            })
            .filter(|s| s.len() == k)
            .collect();
        if !uniform.is_empty() {
            let tidlist = TidListCounter.count(&dataset, &uniform);
            prop_assert_eq!(&BitmapCounter.count(&dataset, &uniform), &tidlist);
            prop_assert_eq!(&HorizontalCounter.count(&dataset, &uniform), &tidlist);
            for (set, &support) in uniform.iter().zip(&tidlist) {
                prop_assert_eq!(support, dataset.itemset_support(set));
            }
        }
        // ... and the raw bitmap batch path also covers mixed sizes and the
        // empty itemset (support = t by convention).
        let mut mixed: Vec<Vec<ItemId>> = sets
            .into_iter()
            .map(|mut s| {
                s.sort_unstable();
                s.dedup();
                s
            })
            .collect();
        mixed.push(Vec::new());
        let bitmap = BitmapDataset::from_dataset(&dataset);
        let counts = count_candidates_bitmap(&bitmap, &mixed);
        for (set, support) in mixed.iter().zip(counts) {
            prop_assert_eq!(support, dataset.itemset_support(set), "itemset {:?}", set);
        }
        prop_assert_eq!(
            bitmap.itemset_support(&[]),
            dataset.num_transactions() as u64
        );
    }

    #[test]
    fn bitmap_eclat_and_backend_profiles_match_csr(
        dataset in varied_density_dataset(),
        k in 1usize..4,
        floor in 1u64..5,
    ) {
        let bitmap = BitmapDataset::from_dataset(&dataset);
        let reference = Eclat.mine_k(&dataset, k, floor).unwrap();
        prop_assert_eq!(&Eclat.mine_k_bitmap(&bitmap, k, floor).unwrap(), &reference);
        // The support profile is identical whichever backend mined it.
        let csr_profile = SupportProfile::with_backend(
            MinerKind::Apriori, &dataset, k, floor, DatasetBackend::Csr).unwrap();
        let bitmap_profile = SupportProfile::with_backend(
            MinerKind::Apriori, &dataset, k, floor, DatasetBackend::Bitmap).unwrap();
        let auto_profile = SupportProfile::with_backend(
            MinerKind::Apriori, &dataset, k, floor, DatasetBackend::Auto).unwrap();
        prop_assert_eq!(&csr_profile, &bitmap_profile);
        prop_assert_eq!(&csr_profile, &auto_profile);
    }

    #[test]
    fn sharded_profiles_match_unsharded_at_1_2_and_8_threads(
        dataset in varied_density_dataset(),
        k in 1usize..4,
        floor in 1u64..5,
        width in 0usize..3,
    ) {
        // The acceptance contract of the sharded backend: a SupportProfile
        // mined over transaction shards equals the unsharded one at every
        // shard width and worker count — counting partial supports per shard
        // and reducing in fixed shard order loses nothing and reorders
        // nothing.
        let shard_rows = [64usize, 128, 512][width];
        let reference = SupportProfile::with_backend(
            MinerKind::Apriori, &dataset, k, floor, DatasetBackend::Csr).unwrap();
        let sharded = ShardedBitmapDataset::with_shard_rows(&dataset, shard_rows);
        for threads in [1usize, 2, 8] {
            let profile = SupportProfile::from_sharded(
                &sharded, k, floor, ExecutionPolicy::from_threads(threads)).unwrap();
            prop_assert_eq!(&profile, &reference, "width {}, {} thread(s)", shard_rows, threads);
        }
        // The backend-dispatch entry point agrees too.
        let dispatched = SupportProfile::with_backend(
            MinerKind::Apriori, &dataset, k, floor, DatasetBackend::Sharded).unwrap();
        prop_assert_eq!(&dispatched, &reference);
    }

    #[test]
    fn par_eclat_matches_sequential_at_1_2_and_8_workers(
        dataset in varied_density_dataset(),
        k in 1usize..5,
        floor in 1u64..5,
    ) {
        // The acceptance contract of the subtree-parallel miner: itemsets AND
        // supports, in canonical order, are bit-identical to the sequential
        // bitset Eclat at every worker count — with and without transaction
        // sharding.
        let bitmap = BitmapDataset::from_dataset(&dataset);
        let reference = Eclat.mine_k_bitmap(&bitmap, k, floor).unwrap();
        let sharded = ShardedBitmapDataset::with_shard_rows(&dataset, 64);
        for threads in [1usize, 2, 8] {
            let miner = ParallelEclat::new(ExecutionPolicy::from_threads(threads));
            let unsharded = miner.mine_k_bitmap(&bitmap, k, floor).unwrap();
            prop_assert_eq!(&unsharded, &reference, "{} worker(s), unsharded", threads);
            let over_shards = miner.mine_k_sharded(&sharded, k, floor).unwrap();
            prop_assert_eq!(&over_shards, &reference, "{} worker(s), sharded", threads);
        }
        // The MinerKind dispatch surface agrees with the CSR reference too.
        let csr_reference = Eclat.mine_k(&dataset, k, floor).unwrap();
        prop_assert_eq!(&MinerKind::ParEclat.mine_k(&dataset, k, floor).unwrap(), &csr_reference);
    }

    #[test]
    fn par_eclat_adaptive_split_stays_bit_identical_under_repetition(
        dataset in varied_density_dataset(),
        k in 2usize..5,
        floor in 1u64..4,
    ) {
        // The split threshold is steered by a live queue-depth EWMA whose
        // trajectory depends on scheduling — so hammer the same mining
        // problem repeatedly at 1/2/8 workers and require every run, whatever
        // split decisions its controller made, to be bit-identical to the
        // sequential reference.
        let bitmap = BitmapDataset::from_dataset(&dataset);
        let reference = Eclat.mine_k_bitmap(&bitmap, k, floor).unwrap();
        for threads in [1usize, 2, 8] {
            let miner = ParallelEclat::new(ExecutionPolicy::from_threads(threads));
            for round in 0..3 {
                let got = miner.mine_k_bitmap(&bitmap, k, floor).unwrap();
                prop_assert_eq!(&got, &reference, "{} worker(s), round {}", threads, round);
            }
        }
    }

    #[test]
    fn par_eclat_profiles_match_sequential_constructors(
        dataset in varied_density_dataset(),
        k in 1usize..4,
        floor in 1u64..5,
    ) {
        // SupportProfile (and thus Q_{k,s}) is bit-identical whichever miner
        // built it, so cached profiles can be shared freely across miners.
        let bitmap = BitmapDataset::from_dataset(&dataset);
        let sharded = ShardedBitmapDataset::with_shard_rows(&dataset, 64);
        let reference = SupportProfile::from_bitmap(&bitmap, k, floor).unwrap();
        for threads in [1usize, 2, 8] {
            let policy = ExecutionPolicy::from_threads(threads);
            let parallel = SupportProfile::from_bitmap_parallel(&bitmap, k, floor, policy).unwrap();
            prop_assert_eq!(&parallel, &reference, "{} worker(s), unsharded", threads);
            let over_shards =
                SupportProfile::from_sharded_parallel(&sharded, k, floor, policy).unwrap();
            prop_assert_eq!(&over_shards, &reference, "{} worker(s), sharded", threads);
        }
    }

    #[test]
    fn spilled_profiles_match_resident_at_1_2_and_8_threads(
        dataset in varied_density_dataset(),
        k in 1usize..4,
        floor in 1u64..5,
    ) {
        // The acceptance contract of the out-of-core backend: a
        // SupportProfile mined with shards paged through a residency budget —
        // even a budget so small only one shard is ever resident — equals the
        // fully-resident profile bit for bit, at every worker count, on both
        // fault paths, through both the level-wise and the depth-first miner.
        let sharded = ShardedBitmapDataset::with_shard_rows(&dataset, 64);
        let reference = SupportProfile::from_sharded(
            &sharded, k, floor, ExecutionPolicy::Sequential).unwrap();
        for mode in SpillMode::ALL {
            // 1 byte: spill-forced (at most one shard resident, constant
            // eviction). 1 GiB: everything fits, the depth-first miner pins.
            for budget in [1u64, 1 << 30] {
                let residency = ShardResidency {
                    budget_bytes: budget,
                    mode,
                    dir: Some(std::env::temp_dir().join("sigfim-spill-tests")),
                };
                let spilled =
                    ShardedBitmapDataset::spill_dataset_with_rows(&dataset, 64, &residency).unwrap();
                for threads in [1usize, 2, 8] {
                    let policy = ExecutionPolicy::from_threads(threads);
                    let levelwise = SupportProfile::from_sharded(&spilled, k, floor, policy).unwrap();
                    prop_assert_eq!(
                        &levelwise, &reference,
                        "{} budget {}, {} thread(s), level-wise", mode, budget, threads);
                    let parallel =
                        SupportProfile::from_sharded_parallel(&spilled, k, floor, policy).unwrap();
                    prop_assert_eq!(
                        &parallel, &reference,
                        "{} budget {}, {} thread(s), par-eclat", mode, budget, threads);
                }
            }
        }
    }

    #[test]
    fn closed_itemsets_are_a_subset_with_identical_support_structure(
        dataset in small_dataset(),
        s in 1u64..4,
    ) {
        let all = Eclat.mine_up_to(&dataset, 3, s).unwrap();
        let closed = sigfim_mining::closed::closed_frequent_itemsets(&dataset, 3, s).unwrap();
        // Every closed itemset is frequent, and closed per the closure operator.
        for c in &closed {
            prop_assert!(all.contains(c));
            prop_assert!(sigfim_mining::closed::is_closed(&dataset, &c.items));
        }
        // Every frequent itemset's closure (truncated to size <= 3) has the same support.
        for f in &all {
            let cl = sigfim_mining::closed::closure(&dataset, &f.items);
            prop_assert_eq!(dataset.itemset_support(&cl), f.support);
        }
    }
}
