//! Procedure 2 of the paper: establishing a support threshold `s*` for significant
//! frequent itemsets with FDR control (Theorem 6).
//!
//! Given the Poisson threshold `s_min` (from Algorithm 1 or the analytic bounds) and
//! the maximum item support `s_max`, the procedure probes the geometric grid
//! `s_0 = s_min`, `s_i = s_min + 2^i` for `1 ≤ i < h`, `h = ⌊log₂(s_max − s_min)⌋ + 1`.
//! At each `s_i` it tests the null hypothesis that the observed count `Q_{k,s_i}` of
//! k-itemsets with support ≥ `s_i` was drawn from the Poisson distribution with mean
//! `λ_i = E[Q̂_{k,s_i}]`. The null is rejected when
//!
//! * the Poisson upper-tail p-value `Pr[Poisson(λ_i) ≥ Q_{k,s_i}]` is at most `α_i`
//!   (with `Σ α_i = α`, so all rejections are simultaneously correct with
//!   probability ≥ 1 − α), **and**
//! * `Q_{k,s_i} ≥ β_i λ_i` (with `Σ 1/β_i ≤ β`), the strengthening that yields the
//!   FDR bound of Theorem 6.
//!
//! `s*` is the first grid point whose null is rejected; the k-itemsets with support
//! at least `s*` are then returned as significant, with FDR ≤ β at confidence
//! 1 − α. If no grid point is rejected the procedure returns `s* = ∞` (`None`),
//! which is itself informative: at the high supports where the Poisson approximation
//! holds, the dataset is indistinguishable from its null model.

use serde::{Deserialize, Serialize};
use sigfim_datasets::bitmap::{BitmapDataset, DatasetBackend};
use sigfim_datasets::sharded::ShardedBitmapDataset;
use sigfim_datasets::transaction::TransactionDataset;
use sigfim_exec::ExecutionPolicy;
use sigfim_mining::counting::SupportProfile;
use sigfim_mining::itemset::ItemsetSupport;
use sigfim_mining::miner::MinerKind;
use sigfim_stats::testing::{split_alpha_evenly, split_beta_evenly};
use sigfim_stats::Poisson;

use crate::lambda::LambdaEstimator;
use crate::{CoreError, Result};

/// Configuration of Procedure 2.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Procedure2 {
    /// Itemset size `k`.
    pub k: usize,
    /// Global confidence budget `α`: with probability at least `1 − α` every
    /// rejection made by the procedure is correct.
    pub alpha: f64,
    /// FDR budget `β` for the returned family.
    pub beta: f64,
}

impl Procedure2 {
    /// Procedure 2 with the paper's experimental parameters `α = β = 0.05`.
    pub fn new(k: usize) -> Self {
        Procedure2 {
            k,
            alpha: 0.05,
            beta: 0.05,
        }
    }

    fn validate(&self) -> Result<()> {
        if self.k == 0 {
            return Err(CoreError::InvalidParameter {
                name: "k",
                reason: "must be >= 1".into(),
            });
        }
        for (name, value) in [("alpha", self.alpha), ("beta", self.beta)] {
            if !(value > 0.0 && value < 1.0) {
                return Err(CoreError::InvalidParameter {
                    name: if name == "alpha" { "alpha" } else { "beta" },
                    reason: format!("must be in (0,1), got {value}"),
                });
            }
        }
        Ok(())
    }

    /// The support grid probed by the procedure: `s_0 = s_min`, `s_i = s_min + 2^i`.
    pub fn support_grid(s_min: u64, s_max: u64) -> Vec<u64> {
        if s_max <= s_min {
            return vec![s_min];
        }
        let h = ((s_max - s_min) as f64).log2().floor() as u32 + 1;
        let mut grid = vec![s_min];
        for i in 1..h {
            grid.push(s_min + 2u64.pow(i));
        }
        grid
    }

    /// Run Procedure 2 on a dataset: mine the floor profile `F_k(s_min)`
    /// once, then test it with
    /// [`Procedure2::run_prepared`]. A long-lived [`crate::AnalysisEngine`]
    /// instead builds the dataset views once and caches the profile; this
    /// entry point stays for callers with their own λ estimator, such as
    /// [`crate::ExactLambda`].
    ///
    /// * `s_min` — the Poisson threshold (Algorithm 1's `ŝ_min` or an analytic value).
    /// * `lambda` — an estimator of `λ(s) = E[Q̂_{k,s}]` under the null model (the
    ///   Monte-Carlo estimator from the same Algorithm-1 run, or [`crate::ExactLambda`]).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for invalid configuration or
    /// `s_min = 0`, and propagates mining/statistics errors.
    pub fn run(
        &self,
        dataset: &TransactionDataset,
        s_min: u64,
        lambda: &dyn LambdaEstimator,
    ) -> Result<Procedure2Result> {
        self.validate()?;
        check_s_min(s_min)?;
        let profile = floor_profile(dataset, self.k, s_min)?;
        self.run_prepared(dataset.max_item_support(), &profile, s_min, lambda)
    }

    /// One mining pass at the floor `s_min`, yielding the family `F_k(s_min)`
    /// that answers every `Q_{k,s_i}` query of the grid and holds every
    /// family `F_k(s)` with `s ≥ s_min`: via the bitset Eclat when a bitmap
    /// is supplied, via the shard-parallel level-wise sweep when a sharded
    /// store is supplied (each level's counting fans out under `policy`;
    /// a spilled store counts under its residency budget, faulting cold
    /// shards in exactly once per level), via the selected miner (counting
    /// through the density-chosen `SupportCounter`) otherwise. With
    /// `miner = MinerKind::ParEclat` the bitmap and sharded passes instead run
    /// the subtree-parallel Eclat under `policy` — bit-identical profiles
    /// either way. When no itemset can reach the floor the profile is empty
    /// without any mining pass. A supplied `bitmap` wins over a sharded
    /// store.
    ///
    /// `spilled` exists only to keep the eight-parameter call shape of
    /// existing callers; it acts exactly like `sharded` (which wins when both
    /// are given).
    ///
    /// # Errors
    ///
    /// Propagates mining errors (e.g. `k = 0` or `s_min = 0`).
    #[allow(clippy::too_many_arguments)]
    pub fn mine_profile(
        miner: MinerKind,
        dataset: &TransactionDataset,
        bitmap: Option<&BitmapDataset>,
        sharded: Option<&ShardedBitmapDataset>,
        spilled: Option<&ShardedBitmapDataset>,
        k: usize,
        s_min: u64,
        policy: ExecutionPolicy,
    ) -> Result<SupportProfile> {
        if dataset.max_item_support() < s_min {
            return Ok(SupportProfile::from_itemsets(k, s_min, Vec::new()));
        }
        match (bitmap, sharded.or(spilled)) {
            (Some(bitmap), _) if miner == MinerKind::ParEclat => Ok(
                SupportProfile::from_bitmap_parallel(bitmap, k, s_min, policy)?,
            ),
            (Some(bitmap), _) => Ok(SupportProfile::from_bitmap(bitmap, k, s_min)?),
            (None, Some(sharded)) if miner == MinerKind::ParEclat => Ok(
                SupportProfile::from_sharded_parallel(sharded, k, s_min, policy)?,
            ),
            (None, Some(sharded)) => Ok(SupportProfile::from_sharded(sharded, k, s_min, policy)?),
            (None, None) => Ok(SupportProfile::with_miner(miner, dataset, k, s_min)?),
        }
    }

    /// Run Procedure 2 against a floor `profile` mined at or below `s_min` (see
    /// [`Procedure2::mine_profile`]) and the dataset's maximum item support
    /// `s_max`, the upper end of the grid. Every `Q_{k,s_i}` and the returned
    /// family `F_k(s*)` are read from the profile, so this mines nothing.
    /// This is the engine entry point: the profile is mined once per
    /// `(k, s_min)` and `s_max` once per dataset, then shared across every
    /// request that needs them. Equivalent to [`Procedure2::run`] when both
    /// describe the dataset.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for invalid configuration,
    /// `s_min = 0`, or a `profile` that does not cover this `(k, s_min)`, and
    /// propagates statistics errors.
    pub fn run_prepared(
        &self,
        s_max: u64,
        profile: &SupportProfile,
        s_min: u64,
        lambda: &dyn LambdaEstimator,
    ) -> Result<Procedure2Result> {
        self.validate()?;
        check_s_min(s_min)?;
        ensure_profile_covers(profile, self.k, s_min)?;

        let grid = Self::support_grid(s_min, s_max);
        let h = grid.len();
        let alphas = split_alpha_evenly(self.alpha, h);
        let betas = split_beta_evenly(self.beta, h);

        let mut tests = Vec::with_capacity(h);
        let mut s_star = None;
        for (i, &s_i) in grid.iter().enumerate() {
            let q = profile.q_at(s_i);
            let lambda_i = lambda.lambda(s_i).max(0.0);
            let p_value = Poisson::new(lambda_i)?.p_value_upper(q);
            let poisson_reject = p_value <= alphas[i];
            let magnitude_reject = q as f64 >= betas[i] * lambda_i && q > 0;
            let rejected = poisson_reject && magnitude_reject;
            tests.push(ThresholdTest {
                s: s_i,
                q,
                lambda: lambda_i,
                p_value,
                alpha_i: alphas[i],
                beta_i: betas[i],
                poisson_reject,
                magnitude_reject,
                rejected,
            });
            if rejected && s_star.is_none() {
                s_star = Some(s_i);
                // The paper's pseudocode stops at the first rejection; we keep
                // evaluating the remaining grid points because the full trace is
                // cheap and useful for reports, but the decision is already made.
            }
        }

        let significant = match s_star {
            Some(s) => profile
                .family_at(s)
                .map(|(items, support)| ItemsetSupport {
                    items: items.to_vec(),
                    support,
                })
                .collect(),
            None => Vec::new(),
        };

        Ok(Procedure2Result {
            k: self.k,
            alpha: self.alpha,
            beta: self.beta,
            s_min,
            s_max,
            s_star,
            tests,
            significant,
        })
    }
}

/// `F_k(s_min)` for the one-shot `run`s of both procedures: one mining pass
/// through [`SupportProfile::with_backend`], on whichever representation
/// `Auto` resolves to for `dataset`. Every miner and backend yields the same
/// profile, so the choice only affects speed.
pub(crate) fn floor_profile(
    dataset: &TransactionDataset,
    k: usize,
    s_min: u64,
) -> Result<SupportProfile> {
    Ok(SupportProfile::with_backend(
        MinerKind::Apriori,
        dataset,
        k,
        s_min,
        DatasetBackend::Auto,
    )?)
}

/// Reject the degenerate threshold `s_min = 0`.
pub(crate) fn check_s_min(s_min: u64) -> Result<()> {
    if s_min == 0 {
        return Err(CoreError::InvalidParameter {
            name: "s_min",
            reason: "the Poisson threshold must be at least 1".into(),
        });
    }
    Ok(())
}

/// Check that `profile` holds `F_k(s_min)`: the run's `k`, at a floor no
/// higher than `s_min`.
pub(crate) fn ensure_profile_covers(profile: &SupportProfile, k: usize, s_min: u64) -> Result<()> {
    if profile.k() != k || profile.floor() > s_min {
        return Err(CoreError::InvalidParameter {
            name: "profile",
            reason: format!(
                "support profile covers k = {} above floor {} but the run needs k = {k} at s_min = {s_min}",
                profile.k(),
                profile.floor(),
            ),
        });
    }
    Ok(())
}

/// The outcome of testing one grid point `s_i`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThresholdTest {
    /// The probed support threshold `s_i`.
    pub s: u64,
    /// Observed number of k-itemsets with support ≥ `s_i` in the real dataset.
    pub q: u64,
    /// Poisson mean `λ_i = E[Q̂_{k,s_i}]` under the null model.
    pub lambda: f64,
    /// Upper-tail Poisson p-value `Pr[Poisson(λ_i) ≥ Q_{k,s_i}]`.
    pub p_value: f64,
    /// The per-test significance budget `α_i`.
    pub alpha_i: f64,
    /// The per-test magnitude multiplier `β_i` (rejection also requires
    /// `Q ≥ β_i λ_i`).
    pub beta_i: f64,
    /// Whether the p-value condition held.
    pub poisson_reject: bool,
    /// Whether the magnitude condition held.
    pub magnitude_reject: bool,
    /// Whether the null hypothesis at this grid point was rejected (both conditions).
    pub rejected: bool,
}

/// The outcome of Procedure 2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Procedure2Result {
    /// Itemset size.
    pub k: usize,
    /// Confidence budget `α`.
    pub alpha: f64,
    /// FDR budget `β`.
    pub beta: f64,
    /// The Poisson threshold the grid started from.
    pub s_min: u64,
    /// The maximum item support of the dataset (upper end of the grid).
    pub s_max: u64,
    /// The selected threshold `s*`; `None` encodes the paper's `s* = ∞` (no
    /// significant deviation from the null model at high supports).
    pub s_star: Option<u64>,
    /// Every grid point that was tested, in increasing order of `s`.
    pub tests: Vec<ThresholdTest>,
    /// The significant family `F_k(s*)` (empty when `s* = ∞`).
    pub significant: Vec<ItemsetSupport>,
}

impl Procedure2Result {
    /// `Q_{k,s*}`: the number of itemsets returned as significant.
    pub fn num_significant(&self) -> usize {
        self.significant.len()
    }

    /// The number of grid points probed (`h` in the paper).
    pub fn num_tests(&self) -> usize {
        self.tests.len()
    }

    /// The Poisson mean at the selected threshold, if one was selected.
    pub fn lambda_at_s_star(&self) -> Option<f64> {
        let s_star = self.s_star?;
        self.tests.iter().find(|t| t.s == s_star).map(|t| t.lambda)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lambda::MonteCarloLambda;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sigfim_datasets::random::{BernoulliModel, PlantedConfig, PlantedModel, PlantedPattern};

    /// A λ estimator with a constant value, handy for exercising the decision logic.
    struct ConstantLambda(f64);
    impl LambdaEstimator for ConstantLambda {
        fn lambda(&self, _s: u64) -> f64 {
            self.0
        }
    }

    #[test]
    fn support_grid_shape() {
        // s_min = 10, s_max = 100: h = floor(log2(90)) + 1 = 7.
        let grid = Procedure2::support_grid(10, 100);
        assert_eq!(grid, vec![10, 12, 14, 18, 26, 42, 74]);
        // Degenerate range collapses to a single probe.
        assert_eq!(Procedure2::support_grid(10, 10), vec![10]);
        assert_eq!(Procedure2::support_grid(10, 5), vec![10]);
        // Every grid point stays within [s_min, s_min + 2^h).
        let grid = Procedure2::support_grid(5, 1_000_000);
        assert!(grid.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(grid[0], 5);
    }

    #[test]
    fn validation() {
        let d = TransactionDataset::from_transactions(3, vec![vec![0, 1, 2]]).unwrap();
        let lambda = ConstantLambda(1.0);
        assert!(Procedure2 {
            k: 0,
            ..Procedure2::new(2)
        }
        .run(&d, 1, &lambda)
        .is_err());
        assert!(Procedure2 {
            alpha: 0.0,
            ..Procedure2::new(2)
        }
        .run(&d, 1, &lambda)
        .is_err());
        assert!(Procedure2 {
            beta: 1.0,
            ..Procedure2::new(2)
        }
        .run(&d, 1, &lambda)
        .is_err());
        assert!(Procedure2::new(2).run(&d, 0, &lambda).is_err());
    }

    fn planted_dataset(seed: u64) -> (TransactionDataset, Vec<u32>) {
        let background = BernoulliModel::new(800, vec![0.05; 25]).unwrap();
        let pattern = PlantedPattern::new(vec![4, 17], 120).unwrap();
        let model = PlantedModel::new(PlantedConfig {
            background,
            patterns: vec![pattern],
        })
        .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        (model.sample(&mut rng), vec![4, 17])
    }

    #[test]
    fn planted_structure_yields_finite_s_star() {
        let (data, planted) = planted_dataset(5);
        // Null model for pairs of 0.05-frequency items in 800 transactions: expected
        // pair support 2; λ(s) drops fast. Use a Monte-Carlo style table for λ.
        let lambda =
            MonteCarloLambda::new(8, vec![1.2, 0.6, 0.3, 0.12, 0.05, 0.02, 0.01, 0.0]).unwrap();
        let result = Procedure2::new(2).run(&data, 8, &lambda).unwrap();
        let s_star = result
            .s_star
            .expect("the planted pair must trigger a rejection");
        assert!(s_star >= 8);
        assert!(result.num_significant() >= 1);
        assert!(
            result.significant.iter().any(|i| i.items == planted),
            "planted pair missing from F_k(s*): {:?}",
            result.significant
        );
        // Every returned itemset respects the threshold.
        assert!(result.significant.iter().all(|i| i.support >= s_star));
        // The test trace is coherent: the first rejected entry is s*.
        let first_rejected = result.tests.iter().find(|t| t.rejected).unwrap();
        assert_eq!(first_rejected.s, s_star);
        assert_eq!(result.lambda_at_s_star(), Some(first_rejected.lambda));
    }

    #[test]
    fn pure_noise_yields_infinite_s_star() {
        let background = BernoulliModel::new(800, vec![0.05; 25]).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let data = background.sample(&mut rng);
        let lambda =
            MonteCarloLambda::new(8, vec![1.2, 0.6, 0.3, 0.12, 0.05, 0.02, 0.01, 0.0]).unwrap();
        let result = Procedure2::new(2).run(&data, 8, &lambda).unwrap();
        assert!(
            result.s_star.is_none(),
            "no threshold should be found on pure noise"
        );
        assert!(result.significant.is_empty());
        assert_eq!(result.num_significant(), 0);
    }

    #[test]
    fn both_conditions_are_required() {
        let (data, _) = planted_dataset(6);
        // With a huge λ the observed Q is never a surprise: no rejection.
        let huge = ConstantLambda(1e6);
        let result = Procedure2::new(2).run(&data, 8, &huge).unwrap();
        assert!(result.s_star.is_none());
        assert!(result.tests.iter().all(|t| !t.rejected));

        // With λ small but β_i enormous the magnitude condition blocks rejection:
        // force that by a tiny beta (β_i = h / β becomes huge).
        let small = ConstantLambda(0.5);
        let strict_beta = Procedure2 {
            beta: 1e-9,
            ..Procedure2::new(2)
        };
        // beta must be in (0,1): 1e-9 is valid and makes β_i astronomically large.
        let result = strict_beta.run(&data, 8, &small).unwrap();
        for t in &result.tests {
            if t.rejected {
                assert!(t.q as f64 >= t.beta_i * t.lambda);
            }
        }
    }

    #[test]
    fn zero_lambda_far_tail_is_handled() {
        let (data, _) = planted_dataset(8);
        // λ = 0 beyond the Monte-Carlo range: a single observed itemset is already
        // infinitely surprising, so rejection hinges on Q >= β_i * 0 = 0 and Q > 0.
        let lambda = ConstantLambda(0.0);
        let result = Procedure2::new(2).run(&data, 8, &lambda).unwrap();
        assert!(result.s_star.is_some());
        for t in &result.tests {
            assert!(t.p_value >= 0.0 && t.p_value <= 1.0);
        }
    }

    #[test]
    fn s_min_above_all_supports_tests_nothing_significant() {
        let (data, _) = planted_dataset(3);
        let lambda = ConstantLambda(0.1);
        let s_min = data.max_item_support() + 10;
        let result = Procedure2::new(2).run(&data, s_min, &lambda).unwrap();
        assert_eq!(result.tests.len(), 1);
        assert_eq!(result.tests[0].q, 0);
        assert!(result.s_star.is_none());
    }
}
