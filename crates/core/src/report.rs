//! Result and report types produced by the analysis engine.
//!
//! Everything is `serde`-serializable so experiments can be archived and compared,
//! and [`AnalysisReport`] implements [`std::fmt::Display`] with a compact
//! human-readable rendering that mirrors the rows of the paper's Tables 3 and 5.

use std::fmt;

use serde::{Deserialize, Serialize};
use sigfim_datasets::bitmap::DatasetBackend;
use sigfim_datasets::summary::DatasetSummary;
use sigfim_mining::miner::MinerKind;

use crate::montecarlo::ThresholdEstimate;
use crate::procedure1::Procedure1Result;
use crate::procedure2::Procedure2Result;

/// The parameters an analysis was run with.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnalysisParameters {
    /// Itemset size `k`.
    pub k: usize,
    /// Confidence budget `α`.
    pub alpha: f64,
    /// FDR budget `β`.
    pub beta: f64,
    /// Chen–Stein variation-distance budget `ε`.
    pub epsilon: f64,
    /// Number of Monte-Carlo replicates Δ.
    pub replicates: usize,
    /// Random seed.
    pub seed: u64,
    /// Mining algorithm.
    pub miner: MinerKind,
    /// Physical dataset backend ({auto, csr, bitmap}).
    pub backend: DatasetBackend,
}

/// The full outcome of one analysis for one `k`: an entry of
/// [`crate::AnalysisResponse`], produced by [`crate::AnalysisEngine::run`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalysisReport {
    /// The parameters the analysis was run with.
    pub parameters: AnalysisParameters,
    /// Summary statistics of the analyzed dataset (Table 1 columns).
    pub dataset: DatasetSummary,
    /// The Algorithm 1 output: `ŝ_min`, the empirical Chen–Stein curve and λ table.
    pub threshold: ThresholdEstimate,
    /// The Procedure 2 output: `s*`, the per-threshold test trace, `F_k(s*)`.
    pub procedure2: Procedure2Result,
    /// The Procedure 1 baseline output, when it was requested.
    pub procedure1: Option<Procedure1Result>,
}

impl AnalysisReport {
    /// The headline numbers of a Table 3 row: `(s*, Q_{k,s*}, λ(s*))`.
    /// `s* = None` encodes the paper's `∞`.
    pub fn table3_row(&self) -> (Option<u64>, u64, f64) {
        match self.procedure2.s_star {
            Some(s_star) => (
                Some(s_star),
                self.procedure2.num_significant() as u64,
                self.procedure2.lambda_at_s_star().unwrap_or(0.0),
            ),
            None => (None, 0, 0.0),
        }
    }

    /// The headline numbers of a Table 5 row: `(|R|, r)` where `|R|` is the number
    /// of discoveries of the Procedure 1 baseline and `r = Q_{k,s*} / |R|` (0 when
    /// Procedure 2 found no threshold, following the paper's convention).
    pub fn table5_row(&self) -> Option<(usize, f64)> {
        let p1 = self.procedure1.as_ref()?;
        let r_size = p1.num_significant();
        let ratio = if self.procedure2.s_star.is_none() {
            0.0
        } else if r_size == 0 {
            f64::INFINITY
        } else {
            self.procedure2.num_significant() as f64 / r_size as f64
        };
        Some((r_size, ratio))
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = &self.parameters;
        writeln!(f, "significant frequent itemset analysis (k = {})", p.k)?;
        writeln!(
            f,
            "  dataset: {} transactions, {} items, avg length {:.2}",
            self.dataset.num_transactions, self.dataset.num_items, self.dataset.avg_transaction_len
        )?;
        writeln!(
            f,
            "  parameters: alpha = {}, beta = {}, epsilon = {}, replicates = {}",
            p.alpha, p.beta, p.epsilon, p.replicates
        )?;
        writeln!(
            f,
            "  Poisson threshold (Algorithm 1): s_min = {} (pool of {} itemsets, floor {})",
            self.threshold.s_min, self.threshold.pool_size, self.threshold.s_tilde
        )?;
        match self.procedure2.s_star {
            Some(s_star) => {
                writeln!(
                    f,
                    "  Procedure 2: s* = {s_star}, Q_{{k,s*}} = {}, lambda(s*) = {:.4}",
                    self.procedure2.num_significant(),
                    self.procedure2.lambda_at_s_star().unwrap_or(0.0)
                )?;
            }
            None => {
                writeln!(
                    f,
                    "  Procedure 2: s* = infinity (no significant deviation from the null model)"
                )?;
            }
        }
        for test in &self.procedure2.tests {
            writeln!(
                f,
                "    s = {:>8}  Q = {:>8}  lambda = {:>12.4}  p = {:>10.3e}  {}",
                test.s,
                test.q,
                test.lambda,
                test.p_value,
                if test.rejected { "REJECT" } else { "accept" }
            )?;
        }
        if let Some(p1) = &self.procedure1 {
            writeln!(
                f,
                "  Procedure 1 ({}): |R| = {} of {} tested at s_min = {}",
                p1.correction.name(),
                p1.num_significant(),
                p1.num_tested(),
                p1.s_min
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::montecarlo::CurvePoint;
    use crate::procedure1::{CorrectionMethod, Procedure1Result, TestedItemset};
    use crate::procedure2::{Procedure2Result, ThresholdTest};

    fn sample_report(s_star: Option<u64>, with_p1: bool) -> AnalysisReport {
        let tests = vec![ThresholdTest {
            s: 10,
            q: 5,
            lambda: 0.2,
            p_value: 1e-6,
            alpha_i: 0.025,
            beta_i: 40.0,
            poisson_reject: true,
            magnitude_reject: true,
            rejected: s_star.is_some(),
        }];
        let significant = if s_star.is_some() {
            vec![
                sigfim_mining::ItemsetSupport::new(vec![1, 2], 15),
                sigfim_mining::ItemsetSupport::new(vec![3, 4], 12),
            ]
        } else {
            Vec::new()
        };
        AnalysisReport {
            parameters: AnalysisParameters {
                k: 2,
                alpha: 0.05,
                beta: 0.05,
                epsilon: 0.01,
                replicates: 16,
                seed: 1,
                miner: MinerKind::Apriori,
                backend: DatasetBackend::Auto,
            },
            dataset: DatasetSummary {
                num_items: 20,
                num_active_items: 18,
                num_transactions: 100,
                avg_transaction_len: 3.5,
                min_frequency: Some(0.01),
                max_frequency: Some(0.4),
                num_entries: 350,
            },
            threshold: ThresholdEstimate {
                k: 2,
                epsilon: 0.01,
                replicates: 16,
                s_tilde: 4,
                s_min: 10,
                pool_size: 7,
                curve: vec![CurvePoint {
                    s: 10,
                    b1: 0.001,
                    b2: 0.0005,
                    lambda: 0.2,
                }],
            },
            procedure2: Procedure2Result {
                k: 2,
                alpha: 0.05,
                beta: 0.05,
                s_min: 10,
                s_max: 40,
                s_star,
                tests,
                significant,
            },
            procedure1: with_p1.then(|| Procedure1Result {
                k: 2,
                beta: 0.05,
                s_min: 10,
                hypotheses: 190.0,
                correction: CorrectionMethod::BenjaminiYekutieli,
                p_value_cutoff: Some(1e-5),
                itemsets: vec![TestedItemset {
                    items: vec![1, 2],
                    support: 15,
                    expected_support: 0.5,
                    p_value: 1e-9,
                    significant: true,
                }],
            }),
        }
    }

    #[test]
    fn table3_row_extraction() {
        let report = sample_report(Some(10), true);
        let (s_star, q, lambda) = report.table3_row();
        assert_eq!(s_star, Some(10));
        assert_eq!(q, 2);
        assert!((lambda - 0.2).abs() < 1e-12);

        let report = sample_report(None, true);
        assert_eq!(report.table3_row(), (None, 0, 0.0));
    }

    #[test]
    fn table5_row_extraction() {
        let report = sample_report(Some(10), true);
        let (r_size, ratio) = report.table5_row().unwrap();
        assert_eq!(r_size, 1);
        assert!((ratio - 2.0).abs() < 1e-12);

        // s* = infinity => ratio 0 by the paper's convention.
        let report = sample_report(None, true);
        assert_eq!(report.table5_row().unwrap(), (1, 0.0));

        // No Procedure 1 run => no Table 5 row.
        let report = sample_report(Some(10), false);
        assert!(report.table5_row().is_none());
    }

    #[test]
    fn display_contains_the_key_facts() {
        let text = sample_report(Some(10), true).to_string();
        assert!(text.contains("s* = 10"));
        assert!(text.contains("s_min = 10"));
        assert!(text.contains("REJECT"));
        assert!(text.contains("Benjamini-Yekutieli"));

        let text = sample_report(None, false).to_string();
        assert!(text.contains("infinity"));
        assert!(!text.contains("Procedure 1"));
    }

    #[test]
    fn report_round_trips_through_json() {
        for (s_star, with_p1) in [(Some(10), true), (None, false)] {
            let report = sample_report(s_star, with_p1);
            let json = serde_json::to_string(&report).unwrap();
            let parsed: AnalysisReport = serde_json::from_str(&json).unwrap();
            assert_eq!(parsed, report);
            // Pretty output parses back to the same report too.
            let pretty = serde_json::to_string_pretty(&report).unwrap();
            assert_eq!(
                serde_json::from_str::<AnalysisReport>(&pretty).unwrap(),
                report
            );
        }
    }

    #[test]
    fn report_json_shape_is_archivable() {
        // The archived document exposes the fields experiments grep for, with
        // enum configuration values rendered as their variant names.
        let json = serde_json::to_string(&sample_report(Some(10), true)).unwrap();
        for needle in [
            "\"parameters\"",
            "\"miner\":\"Apriori\"",
            "\"correction\":\"BenjaminiYekutieli\"",
            "\"s_min\":10",
            "\"s_star\":10",
            "\"curve\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        // s* = infinity archives as null.
        let json = serde_json::to_string(&sample_report(None, true)).unwrap();
        assert!(json.contains("\"s_star\":null"));
    }
}
