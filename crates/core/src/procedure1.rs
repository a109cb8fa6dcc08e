//! Procedure 1 of the paper: the baseline multi-comparison test.
//!
//! Take `F_k(s_min)` — the k-itemsets with support at least the Poisson threshold —
//! from the real dataset; for each itemset `X` compute the Binomial p-value
//! `Pr[Bin(t, f_X) ≥ support(X)]` of its observed support under the null model
//! (`f_X` is the product of the individual item frequencies); and apply the
//! Benjamini–Yekutieli step-up procedure (Theorem 5) with `m = C(n, k)` hypotheses
//! to select a subset with FDR at most `β`.
//!
//! `F_k(s_min)` is exactly the floor [`SupportProfile`] Procedure 2 mines at the
//! same threshold, so [`Procedure1::run_prepared`] tests the itemsets of a
//! profile it is handed and mines nothing; the [`crate::AnalysisEngine`] passes
//! its cached profile, so the baseline costs no mining pass of its own.
//! [`Procedure1::run`] mines the profile itself, for standalone callers.
//!
//! This is the comparison baseline of Table 5: it controls the FDR correctly, but
//! because it implicitly tests all `C(n, k)` hypotheses its power is often much lower
//! than Procedure 2's (the paper's ratio `r = Q_{k,s*} / |R|` is ≥ 1 in every case
//! where Procedure 2 finds a threshold).

use serde::{Deserialize, Serialize};
use sigfim_datasets::transaction::{ItemId, TransactionDataset};
use sigfim_mining::counting::SupportProfile;
use sigfim_stats::multiple_testing::{benjamini_hochberg, benjamini_yekutieli, bonferroni};
use sigfim_stats::special::ln_choose;
use sigfim_stats::Binomial;

use crate::procedure2::{check_s_min, ensure_profile_covers, floor_profile};
use crate::{CoreError, Result};

/// Which multiple-testing correction Procedure 1 applies to the per-itemset
/// p-values. The paper uses Benjamini–Yekutieli (valid under arbitrary dependence,
/// Theorem 5); the others are provided for ablation studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum CorrectionMethod {
    /// Benjamini–Yekutieli (the paper's choice; FDR control under dependence).
    #[default]
    BenjaminiYekutieli,
    /// Benjamini–Hochberg (FDR control under independence/PRDS; anti-conservative
    /// here, included for comparison).
    BenjaminiHochberg,
    /// Bonferroni (FWER control; strictly more conservative than FDR control).
    Bonferroni,
}

impl CorrectionMethod {
    /// Human-readable name for reports and benchmark output.
    pub fn name(&self) -> &'static str {
        match self {
            CorrectionMethod::BenjaminiYekutieli => "Benjamini-Yekutieli",
            CorrectionMethod::BenjaminiHochberg => "Benjamini-Hochberg",
            CorrectionMethod::Bonferroni => "Bonferroni",
        }
    }
}

/// Configuration of Procedure 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Procedure1 {
    /// Itemset size `k`.
    pub k: usize,
    /// FDR budget `β` (significance level `α` for the Bonferroni ablation).
    pub beta: f64,
    /// Multiple-testing correction.
    pub correction: CorrectionMethod,
}

impl Procedure1 {
    /// Procedure 1 with the paper's defaults: Benjamini–Yekutieli at `β = 0.05`.
    pub fn new(k: usize) -> Self {
        Procedure1 {
            k,
            beta: 0.05,
            correction: CorrectionMethod::BenjaminiYekutieli,
        }
    }

    fn validate(&self) -> Result<()> {
        if self.k == 0 {
            return Err(CoreError::InvalidParameter {
                name: "k",
                reason: "must be >= 1".into(),
            });
        }
        if !(self.beta > 0.0 && self.beta < 1.0) {
            return Err(CoreError::InvalidParameter {
                name: "beta",
                reason: format!("must be in (0,1), got {}", self.beta),
            });
        }
        Ok(())
    }

    /// Run Procedure 1 on a dataset, testing the k-itemsets with support at least
    /// `s_min` (as produced by Algorithm 1 or the analytic bounds). Mines
    /// `F_k(s_min)` once and tests it with [`Procedure1::run_prepared`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for invalid configuration or
    /// `s_min = 0`, and propagates mining/statistics errors.
    pub fn run(&self, dataset: &TransactionDataset, s_min: u64) -> Result<Procedure1Result> {
        self.validate()?;
        check_s_min(s_min)?;
        let profile = floor_profile(dataset, self.k, s_min)?;
        let frequencies = ItemFrequencies::for_profile(dataset, &profile);
        self.run_prepared(dataset, &frequencies, &profile, s_min)
    }

    /// Run Procedure 1 against pre-computed state: the dataset's item
    /// `frequencies` (at least for the items in the family) and a floor
    /// `profile` mined at or below `s_min` (see
    /// [`crate::Procedure2::mine_profile`]). The tested family `F_k(s_min)` is
    /// the profile's itemsets with support at least `s_min`, in canonical
    /// order, so this mines nothing. Equivalent to [`Procedure1::run`] when
    /// both describe `dataset`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for invalid configuration,
    /// `s_min = 0`, or a `profile` that does not cover this `(k, s_min)`, and
    /// propagates statistics errors.
    pub fn run_prepared(
        &self,
        dataset: &TransactionDataset,
        frequencies: &ItemFrequencies,
        profile: &SupportProfile,
        s_min: u64,
    ) -> Result<Procedure1Result> {
        self.validate()?;
        check_s_min(s_min)?;
        ensure_profile_covers(profile, self.k, s_min)?;
        let t = dataset.num_transactions() as u64;
        let n = dataset.num_items() as u64;

        // m = C(n, k): the number of hypotheses implicitly tested.
        let hypotheses = ln_choose(n, self.k as u64).exp();

        let mut tested: Vec<TestedItemset> = profile
            .family_at(s_min)
            .map(|(items, support)| {
                let f_itemset: f64 = items.iter().map(|&i| frequencies.get(i)).product();
                let expected_support = t as f64 * f_itemset;
                let p_value = Binomial::new(t, f_itemset)?.p_value_upper(support);
                Ok(TestedItemset {
                    items: items.to_vec(),
                    support,
                    expected_support,
                    p_value,
                    significant: false,
                })
            })
            .collect::<Result<_>>()?;

        if tested.is_empty() {
            return Ok(Procedure1Result {
                k: self.k,
                beta: self.beta,
                s_min,
                hypotheses,
                correction: self.correction,
                p_value_cutoff: None,
                itemsets: tested,
            });
        }

        let p_values: Vec<f64> = tested.iter().map(|t| t.p_value).collect();
        let outcome = match self.correction {
            CorrectionMethod::BenjaminiYekutieli => {
                benjamini_yekutieli(&p_values, self.beta, hypotheses)?
            }
            CorrectionMethod::BenjaminiHochberg => {
                benjamini_hochberg(&p_values, self.beta, hypotheses)?
            }
            CorrectionMethod::Bonferroni => bonferroni(&p_values, self.beta, hypotheses)?,
        };
        for &idx in &outcome.rejected {
            tested[idx].significant = true;
        }
        Ok(Procedure1Result {
            k: self.k,
            beta: self.beta,
            s_min,
            hypotheses,
            correction: self.correction,
            p_value_cutoff: outcome.p_value_cutoff,
            itemsets: tested,
        })
    }
}

/// The item frequencies `f_i = n(i) / t` that Procedure 1's null model
/// multiplies, kept for the items of one profile's family only — the only
/// ones a test of that family reads. The values equal
/// [`TransactionDataset::item_frequencies`] bit for bit.
#[derive(Debug, Clone)]
pub struct ItemFrequencies {
    /// The items of the family, ascending.
    items: Vec<ItemId>,
    /// `frequencies[j]` is the frequency of `items[j]`.
    frequencies: Vec<f64>,
}

impl ItemFrequencies {
    /// The frequencies of the items in `profile`'s family: one O(entries)
    /// scan of `dataset`, kept at a cost of O(items in the family) however
    /// wide the item universe is.
    pub fn for_profile(dataset: &TransactionDataset, profile: &SupportProfile) -> Self {
        let mut items: Vec<ItemId> = profile
            .family_at(profile.floor())
            .flat_map(|(items, _)| items.iter().copied())
            .collect();
        items.sort_unstable();
        items.dedup();
        let supports = dataset.item_supports();
        let t = dataset.num_transactions();
        let frequencies = items
            .iter()
            .map(|&item| supports[item as usize] as f64 / t as f64)
            .collect();
        ItemFrequencies { items, frequencies }
    }

    /// The frequency of `item` (0 for an item outside the family).
    pub fn get(&self, item: ItemId) -> f64 {
        self.items
            .binary_search(&item)
            .map_or(0.0, |j| self.frequencies[j])
    }
}

/// One itemset of `F_k(s_min)` together with its test statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TestedItemset {
    /// The items (sorted, distinct).
    pub items: Vec<ItemId>,
    /// Observed support in the real dataset.
    pub support: u64,
    /// Expected support `t · f_X` under the null model.
    pub expected_support: f64,
    /// Upper-tail Binomial p-value of the observed support.
    pub p_value: f64,
    /// Whether the correction rejected this itemset's null hypothesis.
    pub significant: bool,
}

/// The outcome of Procedure 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Procedure1Result {
    /// Itemset size.
    pub k: usize,
    /// FDR budget.
    pub beta: f64,
    /// The mining threshold (Poisson threshold `s_min`).
    pub s_min: u64,
    /// The number of hypotheses `m = C(n, k)` used by the correction.
    pub hypotheses: f64,
    /// The correction that was applied.
    pub correction: CorrectionMethod,
    /// The largest p-value that was rejected, if any.
    pub p_value_cutoff: Option<f64>,
    /// Every tested itemset (the whole of `F_k(s_min)`), with its verdict.
    pub itemsets: Vec<TestedItemset>,
}

impl Procedure1Result {
    /// The itemsets flagged as significant (the family `R` of Table 5).
    pub fn significant(&self) -> Vec<&TestedItemset> {
        self.itemsets.iter().filter(|i| i.significant).collect()
    }

    /// Number of significant itemsets, `|R|`.
    pub fn num_significant(&self) -> usize {
        self.itemsets.iter().filter(|i| i.significant).count()
    }

    /// Number of itemsets tested, `|F_k(s_min)|`.
    pub fn num_tested(&self) -> usize {
        self.itemsets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sigfim_datasets::random::{BernoulliModel, PlantedConfig, PlantedModel, PlantedPattern};

    fn planted_dataset(seed: u64) -> (TransactionDataset, Vec<ItemId>) {
        let background = BernoulliModel::new(600, vec![0.05; 30]).unwrap();
        let pattern = PlantedPattern::new(vec![2, 11], 80).unwrap();
        let model = PlantedModel::new(PlantedConfig {
            background,
            patterns: vec![pattern],
        })
        .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        (model.sample(&mut rng), vec![2, 11])
    }

    #[test]
    fn validation() {
        let (data, _) = planted_dataset(1);
        assert!(Procedure1 {
            k: 0,
            ..Procedure1::new(2)
        }
        .run(&data, 5)
        .is_err());
        assert!(Procedure1 {
            beta: 0.0,
            ..Procedure1::new(2)
        }
        .run(&data, 5)
        .is_err());
        assert!(Procedure1 {
            beta: 1.0,
            ..Procedure1::new(2)
        }
        .run(&data, 5)
        .is_err());
        assert!(Procedure1::new(2).run(&data, 0).is_err());
    }

    #[test]
    fn planted_pair_is_discovered() {
        let (data, planted) = planted_dataset(7);
        // Expected support of any pair under the null is 600 * 0.0025 = 1.5; the
        // planted pair has support >= 80. Test the itemsets with support >= 10.
        let result = Procedure1::new(2).run(&data, 10).unwrap();
        assert!(result.num_tested() >= 1);
        let significant = result.significant();
        assert!(
            significant.iter().any(|i| i.items == planted),
            "planted pair not flagged; tested {:?}",
            result.itemsets
        );
        // The p-value of the planted pair must be astronomically small.
        let planted_entry = result
            .itemsets
            .iter()
            .find(|i| i.items == planted)
            .expect("pair was tested");
        assert!(planted_entry.p_value < 1e-20);
        // Planting the pair also inflates the marginal frequencies of its two items
        // (to roughly 0.18), so the null expectation is ~19 rather than the
        // background's 1.5 — still far below the observed support of 80+.
        assert!(planted_entry.expected_support < 30.0);
        assert!(planted_entry.support as f64 > 2.0 * planted_entry.expected_support);
    }

    #[test]
    fn pure_noise_yields_no_discoveries() {
        let background = BernoulliModel::new(600, vec![0.05; 30]).unwrap();
        let mut rng = StdRng::seed_from_u64(33);
        let data = background.sample(&mut rng);
        // Mine at a low threshold so that some pairs are tested, but none should
        // survive the correction with m = C(30,2) hypotheses.
        let result = Procedure1::new(2).run(&data, 4).unwrap();
        assert_eq!(
            result.num_significant(),
            0,
            "false discoveries on pure noise: {:?}",
            result.significant()
        );
    }

    #[test]
    fn empty_candidate_set_is_handled() {
        let (data, _) = planted_dataset(2);
        let result = Procedure1::new(2).run(&data, 10_000).unwrap();
        assert_eq!(result.num_tested(), 0);
        assert_eq!(result.num_significant(), 0);
        assert!(result.p_value_cutoff.is_none());
    }

    #[test]
    fn corrections_are_ordered_by_conservativeness() {
        let (data, _) = planted_dataset(9);
        let run = |correction: CorrectionMethod| {
            Procedure1 {
                correction,
                ..Procedure1::new(2)
            }
            .run(&data, 5)
            .unwrap()
            .num_significant()
        };
        let bonferroni = run(CorrectionMethod::Bonferroni);
        let by = run(CorrectionMethod::BenjaminiYekutieli);
        let bh = run(CorrectionMethod::BenjaminiHochberg);
        // Both orderings below are theorems: BH rejects a superset of Bonferroni
        // (any p <= beta/m clears every step-up threshold), and BY is BH with the
        // threshold shrunk by the harmonic factor.
        assert!(bonferroni <= bh, "Bonferroni must not reject more than BH");
        assert!(by <= bh, "BY must not reject more than BH");
    }

    #[test]
    fn hypothesis_count_is_choose_n_k() {
        let (data, _) = planted_dataset(4);
        let result = Procedure1::new(2).run(&data, 10).unwrap();
        // C(30, 2) = 435.
        assert!((result.hypotheses - 435.0).abs() < 1e-6);
        let result3 = Procedure1::new(3).run(&data, 5).unwrap();
        // C(30, 3) = 4060.
        assert!((result3.hypotheses - 4060.0).abs() < 1e-4);
    }

    #[test]
    fn item_frequencies_match_the_dense_table_on_the_family() {
        let (data, _) = planted_dataset(5);
        let dense = data.item_frequencies();
        for floor in [1, 10] {
            let profile = SupportProfile::new(&data, 2, floor).unwrap();
            let frequencies = ItemFrequencies::for_profile(&data, &profile);
            assert!(!profile.is_empty());
            for (items, _) in profile.family_at(floor) {
                for &item in items {
                    assert_eq!(
                        frequencies.get(item).to_bits(),
                        dense[item as usize].to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn correction_names() {
        assert_eq!(CorrectionMethod::default().name(), "Benjamini-Yekutieli");
        assert_eq!(CorrectionMethod::Bonferroni.name(), "Bonferroni");
        assert_eq!(
            CorrectionMethod::BenjaminiHochberg.name(),
            "Benjamini-Hochberg"
        );
    }
}
