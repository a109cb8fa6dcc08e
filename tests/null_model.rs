//! Integration test of the robustness property behind Table 4 of the paper: on data
//! actually drawn from the null model, Procedure 2 should (almost) never report a
//! finite threshold, and Procedure 1 should (almost) never reject anything.

use rand::rngs::StdRng;
use rand::SeedableRng;

use sigfim::core::validation::poisson_fit;
use sigfim::prelude::*;

/// The one report of a single-`k` request on a fresh engine over `dataset`.
fn analyze(dataset: TransactionDataset, request: &AnalysisRequest) -> AnalysisReport {
    AnalysisEngine::from_dataset(dataset)
        .and_then(|mut engine| engine.run(request))
        .expect("analysis succeeds")
        .into_reports()
        .remove(0)
}

#[test]
fn procedure2_rarely_fires_on_pure_noise() {
    // The false-alarm probability of the procedure hinges on how well the Poisson
    // means lambda(s) are estimated: the paper uses Delta = 1000 replicates. Use a
    // substantial Delta here (the lambda tail is the sensitive part) and, for the
    // small-Delta configuration, the conservative rule-of-three clamp.
    let model = BernoulliModel::new(1_000, vec![0.04; 40]).unwrap();
    let instances = 8;
    let mut finite = 0usize;
    for instance in 0..instances {
        let mut rng = StdRng::seed_from_u64(9_000 + instance);
        let dataset = model.sample(&mut rng);
        let request = AnalysisRequest::for_k(2)
            .with_replicates(200)
            .with_seed(instance)
            .with_baseline(false);
        let report = analyze(dataset, &request);
        if report.procedure2.s_star.is_some() {
            finite += 1;
            // Even a false alarm must only report a handful of itemsets (the paper
            // observed 1-2 in its two false alarms out of 1800 runs).
            assert!(
                report.procedure2.num_significant() <= 3,
                "a false alarm reported {} itemsets",
                report.procedure2.num_significant()
            );
        }
    }
    assert!(
        finite <= 1,
        "Procedure 2 returned a finite s* on {finite} of {instances} pure-noise datasets"
    );
}

#[test]
fn conservative_lambda_eliminates_small_delta_false_alarms() {
    // With only 32 replicates the plain estimator is anti-conservative (lambda = 0
    // beyond the observed Monte-Carlo range); the rule-of-three clamp restores the
    // intended behaviour on pure noise.
    let model = BernoulliModel::new(1_000, vec![0.04; 40]).unwrap();
    let instances = 8;
    let mut finite = 0usize;
    for instance in 0..instances {
        let mut rng = StdRng::seed_from_u64(9_000 + instance);
        let dataset = model.sample(&mut rng);
        let request = AnalysisRequest::for_k(2)
            .with_replicates(32)
            .with_seed(instance)
            .with_baseline(false)
            .with_lambda_mode(LambdaMode::Conservative);
        let report = analyze(dataset, &request);
        if report.procedure2.s_star.is_some() {
            finite += 1;
        }
    }
    assert_eq!(
        finite, 0,
        "the conservative estimator should not fire on pure noise with a small Delta"
    );
}

#[test]
fn procedure1_controls_false_discoveries_on_noise() {
    let model = BernoulliModel::new(1_000, vec![0.04; 40]).unwrap();
    let mut total_rejections = 0usize;
    let instances = 6;
    for instance in 0..instances {
        let mut rng = StdRng::seed_from_u64(11_000 + instance);
        let dataset = model.sample(&mut rng);
        // Use a low mining floor so plenty of itemsets are actually tested.
        let result = sigfim::core::procedure1::Procedure1::new(2)
            .run(&dataset, 4)
            .expect("procedure 1 runs");
        total_rejections += result.num_significant();
    }
    assert!(
        total_rejections <= 1,
        "Procedure 1 made {total_rejections} discoveries across {instances} pure-noise datasets"
    );
}

#[test]
fn q_is_approximately_poisson_above_the_estimated_threshold() {
    // Tie Algorithm 1's output to the property it certifies: sample Q̂_{k,s} at the
    // estimated ŝ_min and verify its distribution is close to Poisson.
    let model = BernoulliModel::new(300, vec![0.08; 15]).unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let algorithm1 = sigfim::core::montecarlo::FindPoissonThreshold {
        replicates: 200,
        ..sigfim::core::montecarlo::FindPoissonThreshold::new(2)
    };
    let estimate = algorithm1.run(&model, &mut rng).expect("algorithm 1 runs");

    let fit = poisson_fit(&model, 2, estimate.s_min, 300, &mut rng).expect("fit check runs");
    assert!(
        fit.total_variation < 0.12,
        "empirical TV distance {} at ŝ_min = {} is too large for a Poisson regime",
        fit.total_variation,
        estimate.s_min
    );
    // Mean and variance should roughly agree (Poisson has mean = variance); allow
    // wide slack because both are small counts estimated from 300 replicates.
    if fit.empirical_mean > 0.05 {
        let ratio = fit.empirical_variance / fit.empirical_mean;
        assert!(
            (0.4..2.5).contains(&ratio),
            "variance/mean ratio {ratio} is far from the Poisson value of 1"
        );
    }
}
