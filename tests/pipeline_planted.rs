//! End-to-end integration test: the full pipeline (null model → Algorithm 1 →
//! Procedure 2 → Procedure 1 baseline) on datasets with planted ground truth.
//!
//! These tests span all four crates: dataset generation (`sigfim-datasets`), mining
//! (`sigfim-mining`), statistics (`sigfim-stats`) and the procedures (`sigfim-core`),
//! exercised through the façade crate exactly the way a downstream user would.

use rand::rngs::StdRng;
use rand::SeedableRng;

use sigfim::core::validation::{empirical_fdr, empirical_power};
use sigfim::prelude::*;

/// The one report of a single-`k` request on a fresh engine over `dataset`.
fn analyze(dataset: &TransactionDataset, request: &AnalysisRequest) -> AnalysisReport {
    AnalysisEngine::from_dataset(dataset.clone())
        .and_then(|mut engine| engine.run(request))
        .expect("analysis succeeds")
        .into_reports()
        .remove(0)
}

fn planted_model() -> PlantedModel {
    let background = BernoulliModel::new(1_200, vec![0.03; 40]).unwrap();
    PlantedModel::new(PlantedConfig {
        background,
        patterns: vec![
            PlantedPattern::new(vec![3, 9], 150).unwrap(),
            PlantedPattern::new(vec![15, 27], 130).unwrap(),
            PlantedPattern::new(vec![20, 21, 22], 110).unwrap(),
        ],
    })
    .unwrap()
}

#[test]
fn planted_pairs_are_recovered_with_controlled_fdr() {
    let model = planted_model();
    let planted: Vec<Vec<ItemId>> = model.patterns().iter().map(|p| p.items.clone()).collect();

    let mut total_fdr = 0.0;
    let mut total_power = 0.0;
    let runs = 5;
    for run in 0..runs {
        let mut rng = StdRng::seed_from_u64(500 + run);
        let dataset = model.sample(&mut rng);
        let report = analyze(
            &dataset,
            &AnalysisRequest::for_k(2).with_replicates(40).with_seed(run),
        );

        assert!(
            report.procedure2.s_star.is_some(),
            "run {run}: the planted structure must produce a finite s*"
        );
        let discovered: Vec<Vec<ItemId>> = report
            .procedure2
            .significant
            .iter()
            .map(|i| i.items.clone())
            .collect();
        assert!(
            discovered.contains(&vec![3, 9]),
            "run {run}: planted pair {{3,9}} missing"
        );
        assert!(
            discovered.contains(&vec![15, 27]),
            "run {run}: planted pair {{15,27}} missing"
        );

        total_fdr += empirical_fdr(&discovered, &planted);
        total_power += empirical_power(&discovered, &planted, 2);
    }
    let mean_fdr = total_fdr / runs as f64;
    let mean_power = total_power / runs as f64;
    // beta = 0.05; allow generous Monte-Carlo slack but catch gross violations.
    assert!(
        mean_fdr <= 0.25,
        "empirical FDR {mean_fdr} is far above the budget"
    );
    assert!(
        mean_power >= 0.5,
        "empirical power {mean_power} is implausibly low"
    );
}

#[test]
fn planted_triple_is_recovered_at_k_3() {
    let model = planted_model();
    let mut rng = StdRng::seed_from_u64(321);
    let dataset = model.sample(&mut rng);
    let report = analyze(
        &dataset,
        &AnalysisRequest::for_k(3).with_replicates(40).with_seed(11),
    );
    let s_star = report
        .procedure2
        .s_star
        .expect("planted triple must be detected at k = 3");
    assert!(s_star >= report.threshold.s_min);
    assert!(
        report
            .procedure2
            .significant
            .iter()
            .any(|i| i.items == vec![20, 21, 22]),
        "planted triple missing from {:?}",
        report.procedure2.significant
    );
}

#[test]
fn procedure2_is_at_least_as_powerful_as_procedure1() {
    // The paper's Table 5: r = Q_{k,s*} / |R| >= 1 (up to boundary effects) wherever
    // s* is finite. Check the same relation on planted data.
    let model = planted_model();
    let mut rng = StdRng::seed_from_u64(888);
    let dataset = model.sample(&mut rng);
    let report = analyze(
        &dataset,
        &AnalysisRequest::for_k(2).with_replicates(40).with_seed(2),
    );
    let (r_size, ratio) = report.table5_row().expect("baseline enabled");
    assert!(report.procedure2.s_star.is_some());
    assert!(
        r_size >= 1,
        "the baseline should find at least one of the strong planted pairs"
    );
    assert!(
        ratio >= 0.9,
        "Procedure 2 should not be materially less powerful than Procedure 1 (r = {ratio})"
    );
}

#[test]
fn report_display_renders_the_analysis() {
    let model = planted_model();
    let mut rng = StdRng::seed_from_u64(4242);
    let dataset = model.sample(&mut rng);
    let report = analyze(
        &dataset,
        &AnalysisRequest::for_k(2).with_replicates(24).with_seed(3),
    );
    let rendered = report.to_string();
    assert!(rendered.contains("Poisson threshold"));
    assert!(rendered.contains("Procedure 2"));
    assert!(rendered.contains("Procedure 1"));
    // The parameters block reflects the defaults.
    assert!(rendered.contains("alpha = 0.05"));
}

#[test]
fn deterministic_given_seed_across_the_whole_pipeline() {
    let model = planted_model();
    let mut rng = StdRng::seed_from_u64(77);
    let dataset = model.sample(&mut rng);
    let request = AnalysisRequest::for_k(2).with_replicates(24).with_seed(123);
    let a = analyze(&dataset, &request);
    let b = analyze(&dataset, &request);
    assert_eq!(
        a, b,
        "the full report must be reproducible for a fixed seed"
    );
}
