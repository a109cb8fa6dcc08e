//! # sigfim — statistically significant frequent itemset mining
//!
//! A from-scratch Rust implementation of
//! *"An Efficient Rigorous Approach for Identifying Statistically Significant
//! Frequent Itemsets"* (Kirsch, Mitzenmacher, Pietracaprina, Pucci, Upfal, Vandin;
//! ACM PODS 2009).
//!
//! Classical frequent itemset mining asks the user to pick a support threshold and
//! returns everything above it — with no guarantee that any of it is more than
//! random co-occurrence. This crate instead identifies a threshold `s*` such that
//! the k-itemsets with support at least `s*` deviate significantly from what a
//! random dataset (same size, same item frequencies, no correlations) would produce,
//! and bounds the false discovery rate of the returned family.
//!
//! This is the facade crate: it re-exports the workspace crates that make up
//! the system.
//!
//! | crate | contents |
//! |-------|----------|
//! | [`stats`] | special functions, Binomial/Poisson/Normal/Hypergeometric distributions, multiple-testing corrections |
//! | [`datasets`] | transaction storage, FIMI I/O, the paper's random null model, planted/Quest/swap generators, Table-1 benchmark stand-ins |
//! | [`mining`] | Apriori, Eclat, FP-Growth, closed itemsets, support counting |
//! | [`core`] | Chen–Stein bounds, Algorithm 1 (FindPoissonThreshold), Procedures 1 and 2, the session-oriented [`AnalysisEngine`] |
//! | [`service`] | the multi-tenant HTTP/JSON front-end: engine registry, versioned wire protocol, shared threshold store (`sigfim serve`) |
//!
//! ## Quickstart
//!
//! ```
//! use sigfim::prelude::*;
//! use rand::SeedableRng;
//!
//! // Build (or load) a transactional dataset. Here: 500 transactions over 30
//! // items where items occur independently with frequency 4%, except that the
//! // pair {5, 9} has been planted into 80 extra transactions.
//! let background = BernoulliModel::new(500, vec![0.04; 30]).unwrap();
//! let model = PlantedModel::new(PlantedConfig {
//!     background,
//!     patterns: vec![PlantedPattern::new(vec![5, 9], 80).unwrap()],
//! }).unwrap();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(3);
//! let dataset = model.sample(&mut rng);
//!
//! // Ask: which pairs (k = 2) are statistically significant at FDR <= 5%?
//! let mut engine = AnalysisEngine::from_dataset(dataset).unwrap();
//! let request = AnalysisRequest::for_k(2).with_replicates(40).with_seed(11);
//! let response = engine.run(&request).unwrap();
//! let report = response.report_for(2).unwrap();
//!
//! assert!(report.procedure2.s_star.is_some());
//! assert!(report.procedure2.significant.iter().any(|i| i.items == vec![5, 9]));
//! ```

pub use sigfim_core as core;
pub use sigfim_datasets as datasets;
pub use sigfim_mining as mining;
pub use sigfim_service as service;
pub use sigfim_stats as stats;

pub use sigfim_core::{AnalysisEngine, AnalysisReport, AnalysisRequest};

/// The most common imports, bundled for `use sigfim::prelude::*`.
pub mod prelude {
    pub use sigfim_core::engine::{
        AnalysisEngine, AnalysisRequest, AnalysisResponse, AnalysisStage, CacheStatus,
        DynAnalysisEngine, LambdaMode, ProgressObserver, ThresholdStore,
    };
    pub use sigfim_core::lambda::{ExactLambda, LambdaEstimator};
    pub use sigfim_core::montecarlo::FindPoissonThreshold;
    pub use sigfim_core::procedure1::Procedure1;
    pub use sigfim_core::procedure2::Procedure2;
    pub use sigfim_core::report::AnalysisReport;
    pub use sigfim_datasets::benchmarks::{BenchmarkDataset, BenchmarkSpec};
    pub use sigfim_datasets::bitmap::{BitmapDataset, DatasetBackend};
    pub use sigfim_datasets::random::{
        BernoulliModel, NullModel, PlantedConfig, PlantedModel, PlantedPattern,
        SwapRandomizationModel,
    };
    pub use sigfim_datasets::summary::DatasetSummary;
    pub use sigfim_datasets::transaction::{ItemId, TransactionDataset};
    pub use sigfim_datasets::view::DatasetView;
    pub use sigfim_mining::miner::{KItemsetMiner, MinerKind};
    pub use sigfim_mining::ItemsetSupport;
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_re_exports_are_reachable() {
        // Types from every sub-crate are visible through the facade.
        let _ = crate::prelude::MinerKind::Apriori;
        let _ = crate::stats::Poisson::new(1.0).unwrap();
        let _ = crate::datasets::transaction::TransactionDataset::empty(3);
        let request = crate::AnalysisRequest::for_k(2);
        assert!(request.validate().is_ok());
    }
}
