//! # sigfim-core
//!
//! The core of the `sigfim` workspace: an implementation of
//! *"An Efficient Rigorous Approach for Identifying Statistically Significant
//! Frequent Itemsets"* (Kirsch, Mitzenmacher, Pietracaprina, Pucci, Upfal, Vandin;
//! ACM PODS 2009).
//!
//! Given a transactional dataset `D` and an itemset size `k`, the paper's pipeline —
//! reproduced module by module here — is:
//!
//! 1. **Chen–Stein Poisson approximation** ([`chen_stein`]): above a minimum support
//!    `s_min`, the number `Q̂_{k,s}` of k-itemsets with support ≥ `s` in a *random*
//!    dataset (same `t`, same item frequencies, items placed independently) is
//!    approximately Poisson. The module provides the exact bound terms `b1`, `b2`
//!    and the closed-form bounds of Theorems 2 and 3.
//! 2. **Algorithm 1 — FindPoissonThreshold** ([`montecarlo`]): a Monte-Carlo
//!    estimator of `s_min` (and of the Poisson means `λ(s)`) from Δ random datasets,
//!    with the sample-size guarantee of Theorem 4.
//! 3. **Procedure 1** ([`procedure1`]): the baseline — per-itemset Binomial p-values
//!    over `F_k(s_min)` corrected with Benjamini–Yekutieli (Theorem 5), FDR ≤ β.
//! 4. **Procedure 2** ([`procedure2`]): the paper's main contribution — a search for
//!    a support threshold `s* ≥ s_min` such that, with confidence 1 − α, all
//!    k-itemsets with support ≥ `s*` can be flagged significant with FDR ≤ β
//!    (Theorem 6).
//! 5. **High-level API** ([`engine`], [`report`]): the session-oriented
//!    [`AnalysisEngine`] — typed [`engine::AnalysisRequest`]s, multi-`k`
//!    batches over views built once, a [`engine::ThresholdCache`] of
//!    Algorithm 1 results, progress observation — is the one way to run the
//!    whole pipeline; [`validation`] evaluates empirical FDR/power against
//!    planted ground truth and checks the Poisson approximation.
//!
//! ## Quick example
//!
//! ```
//! use sigfim_core::engine::{AnalysisEngine, AnalysisRequest};
//! use sigfim_datasets::random::{PlantedConfig, PlantedModel, PlantedPattern, BernoulliModel};
//! use rand::SeedableRng;
//!
//! // A small synthetic dataset: 400 transactions over 40 items, with one planted
//! // pair occurring together in 60 extra transactions.
//! let background = BernoulliModel::new(400, vec![0.05; 40]).unwrap();
//! let planted = PlantedModel::new(PlantedConfig {
//!     background,
//!     patterns: vec![PlantedPattern::new(vec![3, 7], 60).unwrap()],
//! }).unwrap();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let dataset = planted.sample(&mut rng);
//!
//! let mut engine = AnalysisEngine::from_dataset(dataset).unwrap();
//! let response = engine
//!     .run(&AnalysisRequest::for_k(2).with_replicates(40).with_seed(7))
//!     .unwrap();
//! let report = response.report_for(2).unwrap();
//! // The planted pair is recovered as significant at some threshold s*.
//! assert!(report.procedure2.s_star.is_some());
//! assert!(report
//!     .procedure2
//!     .significant
//!     .iter()
//!     .any(|i| i.items == vec![3, 7]));
//! ```

pub mod chen_stein;
pub mod engine;
pub mod lambda;
pub mod montecarlo;
pub mod procedure1;
pub mod procedure2;
pub mod progress;
pub mod report;
pub mod validation;

pub use chen_stein::ExactChenStein;
pub use engine::{
    AnalysisEngine, AnalysisRequest, AnalysisResponse, AnalysisStage, CacheStats, CacheStatus,
    DynAnalysisEngine, KAnalysis, LambdaMode, NoProgress, ProgressObserver, ThresholdCache,
    ThresholdRecord, ThresholdRun, ThresholdSink, ThresholdStore,
};
pub use lambda::{ExactLambda, LambdaEstimator};
pub use montecarlo::{
    replicate_stats, FindPoissonThreshold, ObservationStore, ReplicateStats, ThresholdEstimate,
};
pub use procedure1::{Procedure1, Procedure1Result};
pub use procedure2::{Procedure2, Procedure2Result};
pub use report::AnalysisReport;
pub use sigfim_datasets::bitmap::DatasetBackend;
pub use sigfim_exec::ExecutionPolicy;

use std::fmt;

/// Errors produced by the significance-mining pipeline.
#[derive(Debug)]
pub enum CoreError {
    /// An invalid parameter was supplied to a procedure.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Why it was rejected.
        reason: String,
    },
    /// A problem instance is too large for the requested exact computation.
    ProblemTooLarge {
        /// What was attempted.
        what: &'static str,
        /// The size that was requested.
        size: u64,
        /// The enforced limit.
        limit: u64,
    },
    /// An error bubbled up from the statistics substrate.
    Stats(sigfim_stats::StatsError),
    /// An error bubbled up from the dataset substrate.
    Dataset(sigfim_datasets::DatasetError),
    /// An error bubbled up from the mining substrate.
    Mining(sigfim_mining::MiningError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
            CoreError::ProblemTooLarge { what, size, limit } => {
                write!(f, "{what} of size {size} exceeds the limit of {limit}")
            }
            CoreError::Stats(e) => write!(f, "statistics error: {e}"),
            CoreError::Dataset(e) => write!(f, "dataset error: {e}"),
            CoreError::Mining(e) => write!(f, "mining error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Stats(e) => Some(e),
            CoreError::Dataset(e) => Some(e),
            CoreError::Mining(e) => Some(e),
            _ => None,
        }
    }
}

impl From<sigfim_stats::StatsError> for CoreError {
    fn from(e: sigfim_stats::StatsError) -> Self {
        CoreError::Stats(e)
    }
}

impl From<sigfim_datasets::DatasetError> for CoreError {
    fn from(e: sigfim_datasets::DatasetError) -> Self {
        CoreError::Dataset(e)
    }
}

impl From<sigfim_mining::MiningError> for CoreError {
    fn from(e: sigfim_mining::MiningError) -> Self {
        CoreError::Mining(e)
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, CoreError>;

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        use std::error::Error;
        let e = CoreError::InvalidParameter {
            name: "alpha",
            reason: "must be in (0,1)".into(),
        };
        assert!(e.to_string().contains("alpha"));
        assert!(e.source().is_none());

        let e: CoreError = sigfim_stats::StatsError::EmptyInput("p-values").into();
        assert!(e.to_string().contains("p-values"));
        assert!(e.source().is_some());

        let e: CoreError = sigfim_mining::MiningError::InvalidParameter {
            name: "k",
            reason: "zero".into(),
        }
        .into();
        assert!(e.to_string().contains("mining"));

        let e: CoreError = sigfim_datasets::DatasetError::InvalidParameter {
            name: "t",
            reason: "zero".into(),
        }
        .into();
        assert!(e.to_string().contains("dataset"));

        let e = CoreError::ProblemTooLarge {
            what: "itemset universe",
            size: 10,
            limit: 5,
        };
        assert!(e.to_string().contains("10"));
    }
}
