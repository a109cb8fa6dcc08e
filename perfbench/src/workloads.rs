//! The four workloads: how each dataset is generated from the seed, which
//! itemset sizes it is analyzed at, and the warm re-query variants.
//!
//! Every generator takes the seed as its only input, so the program under
//! test only ever sees the generated dataset. See `README.md` for why each
//! workload exists.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sigfim_core::engine::AnalysisRequest;
use sigfim_datasets::benchmarks::BenchmarkDataset;
use sigfim_datasets::random::{plant_into, BernoulliModel, PlantedPattern};
use sigfim_datasets::transaction::{ItemId, TransactionDataset};

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Bms1 stand-in at 1/64 scale, k = 2, 3: the floor drops to 1, so the
    /// per-replicate observations, the pool merge and the curve estimate
    /// take a large share.
    SparseDeep,
    /// Retail stand-in at 1/32 scale, k = 2..4: tiny pools, the CSR
    /// replicate path (sampling + tid-list Eclat) dominates.
    WideSparse,
    /// Dense 10,000 × 100 data with two planted itemsets, k = 2, 3: the
    /// cellwise bitmap replicate path and the Procedure 1 baseline.
    DensePlanted,
    /// Pumsb* stand-in at 1/8 scale behind the HTTP tier: warm analyze
    /// requests racing cold threshold requests.
    ServiceMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SparseDeep,
        Workload::WideSparse,
        Workload::DensePlanted,
        Workload::ServiceMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SparseDeep => "sparse-deep",
            Workload::WideSparse => "wide-sparse",
            Workload::DensePlanted => "dense-planted",
            Workload::ServiceMixed => "service-mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The itemset sizes every analysis of this workload requests.
    pub fn ks(self) -> Vec<usize> {
        match self {
            Workload::WideSparse => vec![2, 3, 4],
            _ => vec![2, 3],
        }
    }

    /// How many datasets one run spreads its operations over, so that one
    /// unusually cheap or costly dataset moves its medians less.
    /// `dense-planted` takes more: its warm re-query cost varies most between
    /// datasets, and its cold analysis is the cheapest.
    pub fn instances(self) -> usize {
        match self {
            Workload::DensePlanted => 8,
            _ => 4,
        }
    }

    /// The `index`-th dataset of a run with this seed, with the cold request
    /// that analyzes it: the library defaults (α = β = 0.05, Δ = 64, the
    /// default Algorithm 1 seed) at the workload's k.
    ///
    /// The Algorithm 1 seed stays the default on purpose. The datasets of a
    /// workload share their item supports, hence their null model, so with
    /// one seed they share their Monte-Carlo replicates too. With a seed per
    /// dataset, the warm re-query cost of `sparse-deep` datasets fell into
    /// two levels a factor of 2 apart.
    pub fn instance(self, seed: u64, index: usize) -> (TransactionDataset, AnalysisRequest) {
        let seed = seed.wrapping_add(index as u64 * 0x1_0000_0001);
        (self.dataset(seed), AnalysisRequest::for_ks(self.ks()))
    }

    /// The observed dataset, a pure function of `seed`: the workload's item
    /// frequencies turned into exact item supports, then its patterns
    /// planted (see [`exact_supports`]).
    fn dataset(self, seed: u64) -> TransactionDataset {
        let (transactions, frequencies, patterns) = match self {
            Workload::SparseDeep => standin(BenchmarkDataset::Bms1, 64.0),
            Workload::WideSparse => standin(BenchmarkDataset::Retail, 32.0),
            Workload::DensePlanted => dense_planted(),
            Workload::ServiceMixed => standin(BenchmarkDataset::PumsbStar, 8.0),
        };
        exact_supports(
            transactions,
            &frequencies,
            &patterns,
            &mut StdRng::seed_from_u64(seed),
        )
    }
}

/// The warm re-query variants of a cold request: other α/β budgets, so the
/// threshold and profile caches hit but Procedure 2's grid test and the
/// Procedure 1 baseline run again.
pub fn warm_requests(cold: &AnalysisRequest) -> Vec<AnalysisRequest> {
    WARM_BUDGETS
        .iter()
        .map(|&(alpha, beta)| cold.clone().with_alpha(alpha).with_beta(beta))
        .collect()
}

/// The (α, β) pairs warm re-queries cycle through; none equals the cold
/// request's (0.05, 0.05).
const WARM_BUDGETS: [(f64, f64); 4] = [(0.01, 0.05), (0.05, 0.1), (0.1, 0.05), (0.05, 0.01)];

/// The Pumsb* stand-in's null frequencies at 1/8 scale: what the service
/// workload's threshold clients send as an inline Bernoulli model.
pub fn pumsb_null_model() -> BernoulliModel {
    BenchmarkDataset::PumsbStar
        .null_model(8.0)
        .expect("Pumsb* at 1/8 scale is a valid null model")
}

/// The fewest rows a stand-in's pattern is planted into. At 1/64 scale the
/// smallest Bms1 patterns round to one or two rows, below the k = 3 ŝ_min
/// of 3, so whether Procedure 2 finds them was left to chance background
/// co-occurrences; the datasets where it did cost twice as much to re-query
/// warm (the significant family is mined again) as those where it did not.
const MIN_PLANTED_ROWS: usize = 4;

/// A benchmark stand-in's shape at `1/scale` of its transactions: the
/// transaction count, the calibrated item frequencies and the patterns the
/// planted stand-in carries, each in at least [`MIN_PLANTED_ROWS`] rows.
fn standin(benchmark: BenchmarkDataset, scale: f64) -> (usize, Vec<f64>, Vec<PlantedPattern>) {
    let spec = benchmark
        .spec()
        .scaled(scale)
        .expect("the scales used here keep at least one transaction");
    let frequencies = spec
        .frequencies()
        .expect("the Table 1 statistics calibrate");
    let mut patterns = benchmark
        .planted_patterns(spec.num_transactions)
        .expect("the scales used here host every pattern");
    for pattern in &mut patterns {
        pattern.extra_support = pattern.extra_support.max(MIN_PLANTED_ROWS);
    }
    (spec.num_transactions, frequencies, patterns)
}

/// 10,000 transactions over 100 items with frequencies rising linearly from
/// 0.05 to 0.30 (mean 0.175), and a 3-itemset and a 4-itemset to plant.
fn dense_planted() -> (usize, Vec<f64>, Vec<PlantedPattern>) {
    const ITEMS: usize = 100;
    let frequencies = (0..ITEMS)
        .map(|i| 0.05 + 0.25 * i as f64 / (ITEMS - 1) as f64)
        .collect();
    let patterns = vec![
        PlantedPattern::new(vec![60, 70, 80], 250).expect("non-empty pattern"),
        PlantedPattern::new(vec![10, 20, 30, 40], 150).expect("non-empty pattern"),
    ];
    (10_000, frequencies, patterns)
}

/// A dataset of `transactions` rows in which item `i` occurs in exactly
/// `round(transactions · frequencies[i])` rows chosen uniformly at random,
/// with `patterns` then planted into random rows.
///
/// Every seed gives the same item supports, up to where planted patterns
/// land on rows that already hold their items. The null model Algorithm 1
/// samples from is derived from those supports, so the cost of an analysis
/// is a property of the workload rather than of how lucky the seed was; the
/// seed decides which rows hold which items.
fn exact_supports(
    transactions: usize,
    frequencies: &[f64],
    patterns: &[PlantedPattern],
    rng: &mut StdRng,
) -> TransactionDataset {
    let mut rows: Vec<Vec<ItemId>> = vec![Vec::new(); transactions];
    let mut order: Vec<usize> = (0..transactions).collect();
    for (item, &frequency) in frequencies.iter().enumerate() {
        let support = ((transactions as f64 * frequency).round() as usize).min(transactions);
        // A partial Fisher–Yates shuffle: the first `support` entries of
        // `order` become a uniform sample of distinct rows.
        for slot in 0..support {
            let pick = rng.random_range(slot..transactions);
            order.swap(slot, pick);
            rows[order[slot]].push(item as ItemId);
        }
    }
    let base = TransactionDataset::from_transactions(frequencies.len() as u32, rows)
        .expect("every item id is below the item count");
    plant_into(&base, patterns, rng)
}
