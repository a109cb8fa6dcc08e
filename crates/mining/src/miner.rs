//! The miner abstraction: every algorithm in this crate answers the same question —
//! *which k-itemsets have support at least `s`?* — so they share one trait and can be
//! swapped freely (and cross-checked against each other in tests).

use serde::{Deserialize, Serialize};
use sigfim_datasets::transaction::TransactionDataset;

use crate::apriori::Apriori;
use crate::bruteforce::BruteForce;
use crate::dispatch::{self, DispatchPath};
use crate::eclat::Eclat;
use crate::fpgrowth::FpGrowth;
use crate::itemset::{sort_canonical, ItemsetSupport};
use crate::par_eclat::ParallelEclat;
use crate::{MiningError, Result};

/// A frequent-k-itemset miner.
///
/// Implementations must return **exactly** the k-itemsets with support ≥
/// `min_support`, each with its exact support, in canonical (lexicographic) order.
pub trait KItemsetMiner {
    /// Mine all k-itemsets with support at least `min_support`.
    ///
    /// # Errors
    ///
    /// Returns [`MiningError::InvalidParameter`] for `k == 0` or `min_support == 0`
    /// (a zero threshold would make *every* subset of the item universe "frequent",
    /// which is never what the statistics upstream want).
    fn mine_k(
        &self,
        dataset: &TransactionDataset,
        k: usize,
        min_support: u64,
    ) -> Result<Vec<ItemsetSupport>>;

    /// Mine all itemsets of size `1..=max_k` with support at least `min_support`.
    /// The default implementation simply calls [`KItemsetMiner::mine_k`] per size;
    /// miners that naturally produce all sizes in one pass (FP-Growth, Eclat)
    /// override it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`KItemsetMiner::mine_k`].
    fn mine_up_to(
        &self,
        dataset: &TransactionDataset,
        max_k: usize,
        min_support: u64,
    ) -> Result<Vec<ItemsetSupport>> {
        let mut all = Vec::new();
        for k in 1..=max_k {
            all.extend(self.mine_k(dataset, k, min_support)?);
        }
        sort_canonical(&mut all);
        Ok(all)
    }
}

/// Validate the `(k, min_support)` arguments shared by all miners.
pub(crate) fn validate_mining_args(k: usize, min_support: u64) -> Result<()> {
    if k == 0 {
        return Err(MiningError::InvalidParameter {
            name: "k",
            reason: "itemset size must be at least 1".into(),
        });
    }
    if min_support == 0 {
        return Err(MiningError::InvalidParameter {
            name: "min_support",
            reason: "support threshold must be at least 1".into(),
        });
    }
    Ok(())
}

/// Enumeration of the available mining algorithms, for configuration surfaces
/// (benchmarks, the analysis engine, the CLI) that want to select one by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum MinerKind {
    /// Level-wise Apriori with hybrid candidate counting (the default: its work is
    /// proportional to the number of candidates, which is tiny at the high supports
    /// the paper's procedures operate at).
    #[default]
    Apriori,
    /// Depth-first Eclat over vertical tid-lists.
    Eclat,
    /// FP-Growth over an FP-tree.
    FpGrowth,
    /// Exhaustive enumeration of all `C(n', k)` candidate combinations of frequent
    /// items. Reference implementation for tests; infeasible for large `n'`.
    BruteForce,
    /// Subtree-parallel depth-first bitset Eclat
    /// ([`crate::par_eclat::ParallelEclat`]): item subtrees fan out across
    /// workers, bit-identical to `Eclat` at any worker count.
    ParEclat,
}

impl MinerKind {
    /// All algorithm kinds (useful for cross-checking tests and benches).
    pub const ALL: [MinerKind; 5] = [
        MinerKind::Apriori,
        MinerKind::Eclat,
        MinerKind::FpGrowth,
        MinerKind::BruteForce,
        MinerKind::ParEclat,
    ];

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            MinerKind::Apriori => "apriori",
            MinerKind::Eclat => "eclat",
            MinerKind::FpGrowth => "fp-growth",
            MinerKind::BruteForce => "brute-force",
            MinerKind::ParEclat => "par-eclat",
        }
    }

    /// Mine with the selected algorithm.
    ///
    /// # Errors
    ///
    /// Same conditions as [`KItemsetMiner::mine_k`].
    pub fn mine_k(
        &self,
        dataset: &TransactionDataset,
        k: usize,
        min_support: u64,
    ) -> Result<Vec<ItemsetSupport>> {
        match self {
            MinerKind::Apriori => {
                dispatch::record(DispatchPath::Apriori);
                Apriori::default().mine_k(dataset, k, min_support)
            }
            MinerKind::Eclat => {
                dispatch::record(DispatchPath::Eclat);
                Eclat.mine_k(dataset, k, min_support)
            }
            MinerKind::FpGrowth => {
                dispatch::record(DispatchPath::FpGrowth);
                FpGrowth.mine_k(dataset, k, min_support)
            }
            MinerKind::BruteForce => {
                dispatch::record(DispatchPath::BruteForce);
                BruteForce.mine_k(dataset, k, min_support)
            }
            // The parallel miner records its own (more specific) counters at
            // its bitmap/sharded entry points.
            MinerKind::ParEclat => ParallelEclat::default().mine_k(dataset, k, min_support),
        }
    }
}

/// The miner `--miner auto` prefers on the multi-worker dense (bitmap or
/// sharded) path. A static rule: the sequential bitset [`MinerKind::Eclat`].
/// The subtree-parallel miner measured slower than it at 2 workers in 6 of
/// the 8 `mining.par_eclat_speedup*` readings of `perfbench/README.md`, so it
/// is never picked automatically; [`MinerKind::ParEclat`] stays selectable
/// explicitly.
pub fn miner_decision() -> MinerKind {
    MinerKind::Eclat
}

/// The miner an `auto` request resolves to, given whether the dense bitmap
/// mining path applies and how many workers the execution policy provides. A
/// static rule: [`miner_decision`] on every path and at any worker count.
pub fn tuned_miner(_bitmap_path: bool, _workers: usize) -> MinerKind {
    miner_decision()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invalid_args_are_rejected_uniformly() {
        let d = TransactionDataset::from_transactions(2, vec![vec![0, 1]]).unwrap();
        for kind in MinerKind::ALL {
            assert!(kind.mine_k(&d, 0, 1).is_err(), "{}", kind.name());
            assert!(kind.mine_k(&d, 2, 0).is_err(), "{}", kind.name());
        }
    }

    #[test]
    fn kind_names_are_unique() {
        let mut names: Vec<_> = MinerKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), MinerKind::ALL.len());
    }

    #[test]
    fn default_kind_is_apriori() {
        assert_eq!(MinerKind::default(), MinerKind::Apriori);
    }

    #[test]
    fn auto_miner_is_the_static_eclat_rule() {
        assert_eq!(miner_decision(), MinerKind::Eclat);
        for bitmap_path in [false, true] {
            for workers in [1, 2, 8] {
                assert_eq!(tuned_miner(bitmap_path, workers), MinerKind::Eclat);
            }
        }
    }
}
