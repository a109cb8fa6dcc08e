//! Quickstart: the paper's motivating example and a first end-to-end analysis.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Part 1 reproduces the worked example of Section 1.2 of the paper: why a pair of
//! items appearing in 7 of 1,000,000 transactions looks significant in isolation but
//! is not once the multiplicity of hypotheses is taken into account.
//!
//! Part 2 runs the full pipeline (Algorithm 1 + Procedure 2) on a small synthetic
//! dataset with two planted pairs and shows that exactly the planted structure is
//! reported as significant.

use rand::rngs::StdRng;
use rand::SeedableRng;

use sigfim::prelude::*;
use sigfim::stats::chernoff::ln_chernoff_upper_at;
use sigfim::stats::Binomial;

fn section_1_2_worked_example() {
    println!("== Part 1: the Section 1.2 worked example ==");
    let transactions = 1_000_000u64;
    let item_frequency = 1.0 / 1_000.0;
    let pair_probability = item_frequency * item_frequency;
    let pairs = 499_500.0; // C(1000, 2)

    // A specific pair of items observed in >= 7 transactions: is that surprising?
    let support_dist = Binomial::new(transactions, pair_probability).unwrap();
    let p_single = support_dist.p_value_upper(7);
    println!("  Pr[one fixed pair has support >= 7] = {p_single:.2e}   (paper: ~1e-4)");

    // ... but half a million pairs are being tested implicitly.
    let expected_spurious = pairs * p_single;
    println!(
        "  expected number of pairs with support >= 7 in a random dataset = {expected_spurious:.1}   (paper: ~50)"
    );

    // Whereas 300 disjoint pairs all with support >= 7 would be overwhelming
    // evidence: the Chernoff bound puts that probability below 2^-300.
    let ln_p = ln_chernoff_upper_at(expected_spurious, 300.0).unwrap_or(f64::NEG_INFINITY);
    println!(
        "  Chernoff bound: ln Pr[>= 300 pairs reach support 7] <= {ln_p:.1}  (paper: < ln 2^-300 = {:.1})",
        -(300.0 * std::f64::consts::LN_2)
    );
    println!();
}

fn end_to_end_analysis() {
    println!("== Part 2: end-to-end significance analysis on planted data ==");
    // 2,000 transactions over 60 items; every item appears independently with
    // frequency 3%, except that {5, 9} and {20, 41} were planted into 200 and 150
    // extra transactions respectively.
    let background = BernoulliModel::new(2_000, vec![0.03; 60]).unwrap();
    let model = PlantedModel::new(PlantedConfig {
        background,
        patterns: vec![
            PlantedPattern::new(vec![5, 9], 200).unwrap(),
            PlantedPattern::new(vec![20, 41], 150).unwrap(),
        ],
    })
    .unwrap();
    let mut rng = StdRng::seed_from_u64(2024);
    let dataset = model.sample(&mut rng);
    println!(
        "  dataset: {} transactions, {} items, avg transaction length {:.2}",
        dataset.num_transactions(),
        dataset.num_items(),
        dataset.avg_transaction_len()
    );

    // The engine API, the one way to run the whole pipeline: build once,
    // query with typed requests.
    let mut engine = AnalysisEngine::from_dataset(dataset).expect("non-empty dataset");
    let request = AnalysisRequest::for_k(2).with_replicates(64).with_seed(7);
    let response = engine.run(&request).expect("analysis succeeds");
    let report = response.report_for(2).expect("k = 2 was requested");

    println!("{report}");
    match report.procedure2.s_star {
        Some(s_star) => {
            println!("  significant pairs at support >= {s_star}:");
            for itemset in &report.procedure2.significant {
                println!("    {:?} with support {}", itemset.items, itemset.support);
            }
        }
        None => println!("  no significant structure found (s* = infinity)"),
    }
}

fn main() {
    section_1_2_worked_example();
    end_to_end_analysis();
}
