//! Counting and level-wise mining over [`ShardedBitmapDataset`]s.
//!
//! This is where the transaction-axis sharding of `sigfim-datasets` meets the
//! execution layer: a candidate batch is counted by handing **each shard** to
//! a worker ([`ExecutionPolicy::map_indexed`] keeps outputs in input order),
//! then reducing the per-shard partial counts **in fixed shard order**.
//! Partial supports are exact integers, so the reduction is plain addition
//! and the totals are bit-identical to an unsharded count at any shard width,
//! any worker count and any residency budget — sharding and spilling are pure
//! performance and footprint knobs, exactly like the backend choice itself.
//!
//! Resident and spilled stores take the same path: workers pin shards
//! through [`ShardedBitmapDataset::shard`] in the store's
//! [`ShardedBitmapDataset::schedule`] order, which for a spilled store visits
//! resident shards first so each cold shard faults in exactly once per batch.
//!
//! [`mine_k_sharded`] builds on that: a level-wise Apriori sweep (the same
//! `join`/`prune` steps as [`crate::apriori::Apriori`]) whose per-level
//! counting pass fans out across shards. Previously one dataset's counting
//! pass was single-threaded — parallelism existed only *across* Monte-Carlo
//! replicates; this gives the observed-dataset passes of Procedure 2 (profile
//! mining, `Q_{k,s}` answering, final family extraction) the same scaling.

use sigfim_datasets::sharded::ShardedBitmapDataset;
use sigfim_datasets::transaction::ItemId;
use sigfim_exec::ExecutionPolicy;

use crate::apriori::mine_k_levelwise;
use crate::counting::count_candidates_columns_with_supports;
use crate::itemset::ItemsetSupport;
use crate::miner::validate_mining_args;
use crate::Result;

/// Batch support counting over a sharded bitmap: each shard is pinned
/// ([`sigfim_datasets::spill::ShardGuard`], so eviction skips it) and counted
/// against its construction-time item supports on its own worker, in the
/// store's [`ShardedBitmapDataset::schedule`] order; the per-shard partials
/// are then summed in fixed *shard* order — the schedule only permutes who
/// counts when, never what is summed in which order. Handles mixed sizes;
/// empty itemsets get support `t` by convention.
pub fn count_candidates_sharded(
    sharded: &ShardedBitmapDataset,
    candidates: &[Vec<ItemId>],
    policy: ExecutionPolicy,
) -> Vec<u64> {
    if candidates.is_empty() {
        return Vec::new();
    }
    let schedule = sharded.schedule();
    let partials = policy.map_indexed(&schedule, |_, &shard| {
        let guard = sharded.shard(shard);
        count_candidates_columns_with_supports(
            guard.columns(),
            sharded.shard_item_supports(shard),
            candidates,
        )
    });
    // Un-permute: partials arrive in schedule order, the exact reduction
    // wants fixed shard order. `map_indexed` already guarantees input-order
    // outputs under every policy, and integer addition makes the fold exact
    // — together these are the bit-identity argument for sharded counting.
    let mut by_shard: Vec<Vec<u64>> = vec![Vec::new(); sharded.num_shards()];
    for (position, partial) in partials.into_iter().enumerate() {
        by_shard[schedule[position]] = partial;
    }
    let mut totals = vec![0u64; candidates.len()];
    for partial in &by_shard {
        for (total, p) in totals.iter_mut().zip(partial) {
            *total += p;
        }
    }
    totals
}

/// Mine all k-itemsets with support at least `min_support` from a sharded
/// bitmap: level-wise candidate generation (`join` + `prune`, as in Apriori)
/// with each level's counting pass fanned out shard-by-shard under `policy`
/// through [`count_candidates_sharded`]. The item supports were recorded at
/// construction, so seeding the sweep touches no shard. Returns exactly what
/// [`crate::eclat::Eclat::mine_k_bitmap`] returns on the equivalent unsharded
/// bitmap (exact supports, canonical order) — enforced by the sharded-parity
/// proptests.
///
/// # Errors
///
/// Returns [`crate::MiningError::InvalidParameter`] for `k == 0` or
/// `min_support == 0`.
pub fn mine_k_sharded(
    sharded: &ShardedBitmapDataset,
    k: usize,
    min_support: u64,
    policy: ExecutionPolicy,
) -> Result<Vec<ItemsetSupport>> {
    validate_mining_args(k, min_support)?;
    crate::dispatch::record(crate::dispatch::DispatchPath::Sharded);
    let supports = sharded.item_supports();
    Ok(mine_k_levelwise(
        &supports,
        k,
        min_support,
        true,
        |candidates, _| count_candidates_sharded(sharded, candidates, policy),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counting::count_candidates_bitmap;
    use crate::eclat::Eclat;
    use sigfim_datasets::bitmap::BitmapDataset;
    use sigfim_datasets::spill::{ShardResidency, SpillMode};
    use sigfim_datasets::transaction::TransactionDataset;

    fn toy(t: usize) -> TransactionDataset {
        TransactionDataset::from_transactions(
            5,
            (0..t)
                .map(|i| {
                    (0..5u32)
                        .filter(|&j| (i * (j as usize + 3)).is_multiple_of(j as usize + 2))
                        .collect()
                })
                .collect(),
        )
        .unwrap()
    }

    fn spilled(csr: &TransactionDataset, budget: u64) -> ShardedBitmapDataset {
        let residency = ShardResidency {
            budget_bytes: budget,
            mode: SpillMode::Read,
            dir: Some(std::env::temp_dir().join("sigfim-spill-tests")),
        };
        ShardedBitmapDataset::spill_dataset_with_rows(csr, 64, &residency).unwrap()
    }

    #[test]
    fn sharded_counting_matches_the_bitmap_counter() {
        let csr = toy(200);
        let bitmap = BitmapDataset::from_dataset(&csr);
        let candidates = vec![vec![], vec![2], vec![0, 1], vec![0, 1, 2], vec![2, 3, 4]];
        let expected = count_candidates_bitmap(&bitmap, &candidates);
        for shard_rows in [64, 128, 512] {
            let sharded = ShardedBitmapDataset::with_shard_rows(&csr, shard_rows);
            for policy in [
                ExecutionPolicy::Sequential,
                ExecutionPolicy::rayon(2),
                ExecutionPolicy::rayon(8),
            ] {
                assert_eq!(
                    count_candidates_sharded(&sharded, &candidates, policy),
                    expected,
                    "width {shard_rows}, {policy:?}"
                );
            }
        }
        assert!(count_candidates_sharded(
            &ShardedBitmapDataset::from_dataset(&csr),
            &[],
            ExecutionPolicy::Sequential
        )
        .is_empty());
    }

    #[test]
    fn sharded_mining_matches_bitset_eclat() {
        let csr = toy(150);
        let bitmap = BitmapDataset::from_dataset(&csr);
        let sharded = ShardedBitmapDataset::with_shard_rows(&csr, 64);
        for k in 1..=4 {
            for s in [1u64, 3, 10, 40] {
                let reference = Eclat.mine_k_bitmap(&bitmap, k, s).unwrap();
                for policy in [ExecutionPolicy::Sequential, ExecutionPolicy::rayon(2)] {
                    assert_eq!(
                        mine_k_sharded(&sharded, k, s, policy).unwrap(),
                        reference,
                        "k = {k}, s = {s}, {policy:?}"
                    );
                }
            }
        }
        // Validation is shared with every other miner.
        assert!(mine_k_sharded(&sharded, 0, 1, ExecutionPolicy::Sequential).is_err());
        assert!(mine_k_sharded(&sharded, 2, 0, ExecutionPolicy::Sequential).is_err());
        // Degenerate shapes.
        let empty = ShardedBitmapDataset::from_dataset(&TransactionDataset::empty(4));
        assert!(mine_k_sharded(&empty, 2, 1, ExecutionPolicy::Sequential)
            .unwrap()
            .is_empty());
        assert!(mine_k_sharded(&sharded, 6, 1, ExecutionPolicy::Sequential)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn spilled_counting_and_mining_match_the_resident_shards() {
        let csr = toy(200);
        let sharded = ShardedBitmapDataset::with_shard_rows(&csr, 64);
        let candidates = vec![vec![], vec![2], vec![0, 1], vec![0, 1, 2], vec![2, 3, 4]];
        let expected = count_candidates_sharded(&sharded, &candidates, ExecutionPolicy::Sequential);
        // A 1-byte budget forces every shard through the fault/evict cycle; a
        // huge one keeps everything resident. Both must count identically.
        for budget in [1u64, 1 << 30] {
            let spilled = spilled(&csr, budget);
            for policy in [
                ExecutionPolicy::Sequential,
                ExecutionPolicy::rayon(2),
                ExecutionPolicy::rayon(8),
            ] {
                assert_eq!(
                    count_candidates_sharded(&spilled, &candidates, policy),
                    expected,
                    "budget {budget}, {policy:?}"
                );
                for k in 1..=3 {
                    assert_eq!(
                        mine_k_sharded(&spilled, k, 3, policy).unwrap(),
                        mine_k_sharded(&sharded, k, 3, ExecutionPolicy::Sequential).unwrap(),
                        "budget {budget}, k = {k}, {policy:?}"
                    );
                }
            }
            assert!(
                count_candidates_sharded(&spilled, &[], ExecutionPolicy::Sequential).is_empty()
            );
        }
        // Shared argument validation.
        let spilled = spilled(&csr, 1);
        assert!(mine_k_sharded(&spilled, 0, 1, ExecutionPolicy::Sequential).is_err());
        assert!(mine_k_sharded(&spilled, 2, 0, ExecutionPolicy::Sequential).is_err());
    }

    #[test]
    fn item_supports_fan_out_matches_reference() {
        // The per-shard supports recorded at construction reduce, in shard
        // order, to the dataset's item supports — resident or spilled.
        let csr = toy(130);
        for sharded in [
            ShardedBitmapDataset::with_shard_rows(&csr, 64),
            spilled(&csr, 1),
        ] {
            let mut totals = vec![0u64; sharded.num_items() as usize];
            for shard in 0..sharded.num_shards() {
                for (total, partial) in totals.iter_mut().zip(sharded.shard_item_supports(shard)) {
                    *total += partial;
                }
            }
            assert_eq!(totals, csr.item_supports());
            assert_eq!(sharded.item_supports(), totals);
        }
    }
}
