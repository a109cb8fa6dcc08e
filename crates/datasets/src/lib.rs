//! # sigfim-datasets
//!
//! Transactional dataset substrate for the `sigfim` workspace (Kirsch et al.,
//! *"An Efficient Rigorous Approach for Identifying Statistically Significant
//! Frequent Itemsets"*, PODS 2009).
//!
//! This crate owns everything about the *data* side of the pipeline:
//!
//! * [`transaction::TransactionDataset`] — a compact CSR-style container for a set
//!   of transactions over integer item identifiers, with horizontal and vertical
//!   (tid-list) views, the representation every miner and every random-dataset
//!   consumer in the workspace operates on.
//! * [`bitmap::BitmapDataset`] — the vertical bitmap backend: one `u64` bit-column
//!   per item, word-parallel AND + popcount support counting, and a reusable
//!   buffer for the zero-allocation Monte-Carlo replicate loop. The
//!   [`bitmap::DatasetBackend`] heuristic decides when it beats CSR.
//! * [`mod@kernels`] — the runtime-dispatched counting kernels (scalar / AVX2 /
//!   AVX-512 `VPOPCNTDQ` popcount + wide AND) every dense counting loop
//!   funnels through, with a `SIGFIM_KERNELS` override for testing and
//!   benchmarking and startup validation for front-ends.
//! * [`mod@tune`] — the process's static configuration picks (the kernel
//!   `auto` resolves to, the sampler `auto` prefers), as one reportable value.
//! * [`mod@sampler`] — the replicate sampling strategy selector
//!   (`SIGFIM_SAMPLER=cellwise|gaps|auto`): the legacy cellwise sampler vs.
//!   the geometric-jump sparse sampler with fused k = 1 counting.
//! * [`sharded::ShardedBitmapDataset`] — the one shard store: the transaction
//!   axis split into word-aligned row-range shards, so one dataset's counting
//!   pass can fan out across workers with bit-identical results. Its shards
//!   stay resident, or — under a per-engine [`spill::ShardResidency`] — live
//!   in CRC-checked little-endian spill files ([`mod@spill`]) faulted back on
//!   demand (`mmap` or portable read) while an LRU [`spill::ResidencySet`]
//!   enforces a byte budget over the loaded ones, keeping every count
//!   bit-identical to the fully-resident store.
//! * [`view::DatasetView`] — one borrowed handle over any representation, so
//!   counting and mining code serves every backend through a single surface.
//! * [`summary`] — dataset profiling: number of items `n`, number of transactions
//!   `t`, average transaction length `m`, individual item frequencies `f_i` and
//!   their range. These are exactly the columns of Table 1 of the paper.
//! * [`fimi`] — reader/writer for the FIMI repository `.dat` format (one
//!   whitespace-separated transaction per line), so the pipeline can be pointed at
//!   real benchmark files when they are available.
//! * [`random`] — the paper's null model (every item `i` placed in every transaction
//!   independently with probability `f_i`), plus planted-pattern and Quest-style
//!   correlated generators used for validation, and swap randomization (the
//!   alternative null model of Gionis et al. that the paper discusses in §1.1).
//! * [`frequency`] — heavy-tailed item-frequency profiles calibrated to a target
//!   (n, f_min, f_max, mean transaction length), used to build benchmark stand-ins.
//! * [`benchmarks`] — generators for stand-ins of the six FIMI benchmark datasets of
//!   Table 1 (Retail, Kosarak, Bms1, Bms2, Bmspos, Pumsb*). The real files are not
//!   redistributable/offline-available, so the experiment harness reproduces the
//!   paper's tables on synthetic datasets matching the published marginal statistics
//!   (see DESIGN.md §4 for the substitution argument).
//!
//! ## Quick example
//!
//! ```
//! use sigfim_datasets::transaction::TransactionDataset;
//! use sigfim_datasets::random::BernoulliModel;
//! use rand::SeedableRng;
//!
//! // A tiny dataset of 4 transactions over items {0, 1, 2}.
//! let data = TransactionDataset::from_transactions(3, vec![
//!     vec![0, 1],
//!     vec![0, 1, 2],
//!     vec![1],
//!     vec![0, 2],
//! ]).unwrap();
//! assert_eq!(data.num_transactions(), 4);
//! assert_eq!(data.item_support(1), 3);
//!
//! // The paper's random model keeps t and the item frequencies, drops correlations.
//! let model = BernoulliModel::from_dataset(&data);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let random = model.sample(&mut rng);
//! assert_eq!(random.num_transactions(), 4);
//! ```

pub mod benchmarks;
pub mod bitmap;
pub mod fimi;
pub mod frequency;
pub mod kernels;
pub mod random;
pub mod sampler;
pub mod sharded;
pub mod spill;
pub mod summary;
pub mod transaction;
pub mod tune;
pub mod view;

pub use benchmarks::{BenchmarkDataset, BenchmarkSpec};
pub use bitmap::{BitmapDataset, DatasetBackend, ResolvedBackend};
pub use kernels::{configure_kernels, kernels, kernels_for, KernelMode, Kernels};
pub use random::BernoulliModel;
pub use sampler::{
    configure_sampler, process_sampler_mode, resolve_sampler, resolve_sampler_request,
    ResolvedSampler, SamplerMode, GAPS_DENSITY_THRESHOLD,
};
pub use sharded::ShardedBitmapDataset;
pub use spill::{
    parse_budget_bytes, spill_counters, sweep_stale_spill_dirs, ResidencySet, ShardGuard,
    ShardResidency, SpillCounters, SpillMode, SpillSnapshot, MMAP_SUPPORTED,
};
pub use summary::DatasetSummary;
pub use transaction::{ItemId, TransactionDataset};
pub use view::DatasetView;

use std::fmt;

/// Errors produced by dataset construction, I/O and random generation.
#[derive(Debug)]
pub enum DatasetError {
    /// A transaction refers to an item id outside `0..num_items`.
    ItemOutOfRange {
        /// The offending item id.
        item: u64,
        /// The declared number of items.
        num_items: u32,
        /// Index of the transaction containing the offending item.
        transaction: usize,
    },
    /// An invalid parameter was supplied to a generator or model.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Why it was rejected.
        reason: String,
    },
    /// A FIMI file could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        reason: String,
    },
    /// An underlying I/O error.
    Io(std::io::Error),
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::ItemOutOfRange { item, num_items, transaction } => write!(
                f,
                "item {item} in transaction {transaction} is outside the declared universe of {num_items} items"
            ),
            DatasetError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
            DatasetError::Parse { line, reason } => write!(f, "parse error at line {line}: {reason}"),
            DatasetError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for DatasetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DatasetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DatasetError {
    fn from(e: std::io::Error) -> Self {
        DatasetError::Io(e)
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, DatasetError>;

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = DatasetError::ItemOutOfRange {
            item: 99,
            num_items: 10,
            transaction: 3,
        };
        assert!(e.to_string().contains("99"));
        let e = DatasetError::InvalidParameter {
            name: "t",
            reason: "must be > 0".into(),
        };
        assert!(e.to_string().contains("t"));
        let e = DatasetError::Parse {
            line: 7,
            reason: "not a number".into(),
        };
        assert!(e.to_string().contains("line 7"));
        let io: DatasetError = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert!(io.to_string().contains("gone"));
    }

    #[test]
    fn io_error_source_is_preserved() {
        use std::error::Error;
        let io: DatasetError = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert!(io.source().is_some());
        let other = DatasetError::InvalidParameter {
            name: "x",
            reason: "bad".into(),
        };
        assert!(other.source().is_none());
    }
}
