//! Output checks: repetitions must reproduce the first result of their
//! request, and every reported significant itemset must carry its true
//! support in the observed dataset.

use sigfim_core::engine::AnalysisResponse;
use sigfim_datasets::transaction::TransactionDataset;

/// The per-k result a repetition must reproduce: ŝ_min, s*, the number of
/// itemsets Procedure 2 and the Procedure 1 baseline flag as significant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KResult {
    pub k: usize,
    pub s_min: u64,
    pub s_star: Option<u64>,
    pub significant: usize,
    pub baseline_significant: Option<usize>,
}

fn summarize(response: &AnalysisResponse) -> Vec<KResult> {
    response
        .runs
        .iter()
        .map(|run| KResult {
            k: run.k,
            s_min: run.report.threshold.s_min,
            s_star: run.report.procedure2.s_star,
            significant: run.report.procedure2.num_significant(),
            baseline_significant: run
                .report
                .procedure1
                .as_ref()
                .map(|baseline| baseline.num_significant()),
        })
        .collect()
}

/// Compare a repetition against the reference result of the same request,
/// recording the first repetition as the reference.
pub fn against_reference(
    reference: &mut Option<Vec<KResult>>,
    response: &AnalysisResponse,
) -> Option<String> {
    let result = summarize(response);
    match reference {
        None => {
            *reference = Some(result);
            None
        }
        Some(expected) if *expected == result => None,
        Some(expected) => Some(format!(
            "repetition differs from the first run: expected {expected:?}, got {result:?}"
        )),
    }
}

/// Check the response covers exactly the requested sizes, in order.
pub fn covers(ks: &[usize], response: &AnalysisResponse) -> Option<String> {
    let covered: Vec<usize> = response.runs.iter().map(|run| run.k).collect();
    (covered != ks).then(|| format!("response covers k = {covered:?}, requested {ks:?}"))
}

/// Recount the support of every itemset Procedure 2 reported significant.
pub fn supports_are_exact(
    dataset: &TransactionDataset,
    response: &AnalysisResponse,
) -> Option<String> {
    for run in &response.runs {
        for itemset in &run.report.procedure2.significant {
            let actual = dataset.itemset_support(&itemset.items);
            if itemset.items.len() != run.k || actual != itemset.support {
                return Some(format!(
                    "k = {}: itemset {:?} reported with support {}, recounted {actual}",
                    run.k, itemset.items, itemset.support
                ));
            }
        }
    }
    None
}
