//! # sigfim-mining
//!
//! Frequent itemset mining substrate for the `sigfim` workspace (Kirsch et al.,
//! *"An Efficient Rigorous Approach for Identifying Statistically Significant
//! Frequent Itemsets"*, PODS 2009).
//!
//! The paper's procedures repeatedly ask one question of a transactional dataset:
//! *which itemsets of a fixed size `k` have support at least `s`?* — both on the real
//! dataset (to obtain `F_k(s)` and the count `Q_{k,s}`) and on the Δ random datasets
//! generated by Algorithm 1. This crate provides that primitive through several
//! interchangeable algorithms plus supporting machinery:
//!
//! | module | contents |
//! |--------|----------|
//! | [`itemset`] | itemset value types, Apriori candidate generation, subset enumeration |
//! | [`counting`] | batch support counting (tid-list, horizontal, bitmap), `Q_{k,s}`, [`counting::SupportProfile`] |
//! | [`apriori`] | level-wise Apriori with hybrid (vertical/horizontal) counting — the default |
//! | [`eclat`] | depth-first Eclat over vertical tid-lists, plus the bitset variant over [`sigfim_datasets::bitmap::BitmapDataset`] columns |
//! | [`fpgrowth`] | FP-Growth over an FP-tree |
//! | [`bruteforce`] | exhaustive reference miner used as a test oracle |
//! | [`closed`] | closure operator, closed-itemset mining, §4.1 redundancy analysis |
//! | [`miner`] | the [`miner::KItemsetMiner`] trait, [`miner::MinerKind`] dispatch and the static `auto` miner rule |
//! | [`sharded`] | level-wise mining over transaction-sharded bitmaps |
//! | [`par_eclat`] | subtree-parallel bitset Eclat, bit-identical to `eclat` at any worker count |
//! | [`dispatch`] | process-wide per-miner dispatch counters for service telemetry |
//!
//! All miners return exactly the same answers (this is enforced by cross-checking
//! tests); they differ only in performance characteristics.
//!
//! ## Example
//!
//! ```
//! use sigfim_datasets::transaction::TransactionDataset;
//! use sigfim_mining::miner::{KItemsetMiner, MinerKind};
//! use sigfim_mining::apriori::Apriori;
//!
//! let data = TransactionDataset::from_transactions(4, vec![
//!     vec![0, 1, 2],
//!     vec![0, 1],
//!     vec![0, 1, 3],
//!     vec![2, 3],
//! ]).unwrap();
//!
//! // Frequent pairs with support >= 2.
//! let pairs = Apriori::default().mine_k(&data, 2, 2).unwrap();
//! assert_eq!(pairs.len(), 1);
//! assert_eq!(pairs[0].items, vec![0, 1]);
//! assert_eq!(pairs[0].support, 3);
//!
//! // Same thing through the algorithm-selection enum.
//! assert_eq!(MinerKind::Eclat.mine_k(&data, 2, 2).unwrap(), pairs);
//! ```

pub mod apriori;
pub mod bruteforce;
pub mod closed;
pub mod counting;
pub mod dispatch;
pub mod eclat;
pub mod fpgrowth;
pub mod itemset;
pub mod miner;
pub mod par_eclat;
pub mod sharded;

pub use apriori::Apriori;
pub use bruteforce::BruteForce;
pub use counting::{
    count_candidates_bitmap, q_k_s, supports_of_view, BitmapCounter, CountingStrategy,
    HorizontalCounter, SupportCounter, SupportProfile, TidListCounter,
};
pub use dispatch::{dispatch_counts, DispatchCounts};
pub use eclat::Eclat;
pub use fpgrowth::FpGrowth;
pub use itemset::ItemsetSupport;
pub use miner::{miner_decision, tuned_miner, KItemsetMiner, MinerKind};
pub use par_eclat::ParallelEclat;
pub use sharded::{count_candidates_sharded, mine_k_sharded};

use std::fmt;

/// Errors produced by the miners.
#[derive(Debug)]
pub enum MiningError {
    /// An invalid parameter was supplied (`k = 0`, `min_support = 0`, …).
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Why it was rejected.
        reason: String,
    },
    /// The requested exhaustive enumeration is too large to be meaningful.
    ProblemTooLarge {
        /// Number of candidate itemsets the request would enumerate.
        candidates: u64,
        /// The enforced limit.
        limit: u64,
    },
}

impl fmt::Display for MiningError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MiningError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
            MiningError::ProblemTooLarge { candidates, limit } => write!(
                f,
                "exhaustive enumeration of {candidates} candidates exceeds the limit of {limit}"
            ),
        }
    }
}

impl std::error::Error for MiningError {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, MiningError>;

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = MiningError::InvalidParameter {
            name: "k",
            reason: "must be >= 1".into(),
        };
        assert!(e.to_string().contains("k"));
        let e = MiningError::ProblemTooLarge {
            candidates: 1_000_000,
            limit: 10,
        };
        assert!(e.to_string().contains("1000000"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err<E: std::error::Error>(_: &E) {}
        takes_err(&MiningError::InvalidParameter {
            name: "x",
            reason: "y".into(),
        });
    }
}
