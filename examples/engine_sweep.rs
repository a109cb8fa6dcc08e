//! The session-oriented engine API: a k = 2..5 sweep with cache-hit reporting.
//!
//! Run with:
//! ```text
//! cargo run --release --example engine_sweep
//! ```
//!
//! The paper's experiments sweep the itemset size k against one fixed dataset
//! (Tables 2–5 probe k = 2..4). The `AnalysisEngine` is built once, owns the
//! dataset views, and memoizes every Algorithm 1 run by
//! `(model fingerprint, k, epsilon, Delta, seed, backend)` — so re-running or
//! widening a sweep costs only the lookups. This example runs the sweep cold,
//! reruns it warm, then changes only the FDR budget and shows that even that
//! reuses every cached threshold.

use rand::rngs::StdRng;
use rand::SeedableRng;

use sigfim::prelude::*;

fn print_sweep(label: &str, response: &AnalysisResponse) {
    println!("{label}");
    println!(
        "  {:>3} {:>10} {:>10} {:>12} {:>12} {:>10}",
        "k", "s_min", "s*", "Q_{k,s*}", "lambda(s*)", "threshold"
    );
    for run in &response.runs {
        let (s_star, q, lambda) = run.report.table3_row();
        println!(
            "  {:>3} {:>10} {:>10} {:>12} {:>12.3} {:>10}",
            run.k,
            run.report.threshold.s_min,
            s_star.map_or("inf".to_string(), |s| s.to_string()),
            q,
            lambda,
            match run.threshold_cache {
                CacheStatus::Hit => "cached",
                CacheStatus::Miss => "computed",
            }
        );
    }
    println!(
        "  -> {} of {} thresholds served from the cache\n",
        response.cache_hits(),
        response.runs.len()
    );
}

/// A progress observer printing one line per pipeline stage — the hook a
/// service front-end would wire to its job status endpoint.
struct StageLogger;

impl ProgressObserver for StageLogger {
    fn stage_started(&self, k: usize, stage: AnalysisStage) {
        println!("  [progress] k = {k}: {stage:?} started");
    }
    fn threshold_cache_hit(&self, k: usize) {
        println!("  [progress] k = {k}: threshold cache hit (replicate loop skipped)");
    }
}

fn main() {
    // 3,000 transactions over 80 items at 4% background frequency, with three
    // planted itemsets of different sizes so several k's find structure.
    let background = BernoulliModel::new(3_000, vec![0.04; 80]).unwrap();
    let model = PlantedModel::new(PlantedConfig {
        background,
        patterns: vec![
            PlantedPattern::new(vec![3, 17], 260).unwrap(),
            PlantedPattern::new(vec![8, 21, 40], 200).unwrap(),
            PlantedPattern::new(vec![50, 51, 52, 53], 160).unwrap(),
        ],
    })
    .unwrap();
    let dataset = model.sample(&mut StdRng::seed_from_u64(2025));
    println!(
        "dataset: {} transactions, {} items, avg length {:.2}\n",
        dataset.num_transactions(),
        dataset.num_items(),
        dataset.avg_transaction_len()
    );

    // The engine is constructed once; the dataset view it resolves is shared
    // by every query below.
    let mut engine = AnalysisEngine::from_dataset(dataset).expect("non-empty dataset");
    let request = AnalysisRequest::for_k_range(2..=5)
        .with_replicates(40)
        .with_seed(7)
        .with_baseline(false);

    println!("== cold sweep: every threshold computed ==");
    let cold = engine
        .run_observed(&request, &StageLogger)
        .expect("analysis succeeds");
    print_sweep("cold k = 2..5 sweep:", &cold);

    println!("== warm rerun: same request, zero replicate loops ==");
    let warm = engine
        .run_observed(&request, &StageLogger)
        .expect("analysis succeeds");
    print_sweep("warm k = 2..5 sweep:", &warm);
    assert_eq!(warm.cache_hits(), 4);
    assert_eq!(
        warm.reports().collect::<Vec<_>>(),
        cold.reports().collect::<Vec<_>>(),
        "cached sweeps are bit-identical to cold ones"
    );

    // Changing only the budgets keeps every threshold key warm: the engine
    // re-tests the grid against the cached estimates and profiles.
    println!("== stricter FDR budget (beta = 0.01): thresholds still cached ==");
    let strict = engine
        .run(&request.clone().with_beta(0.01))
        .expect("analysis succeeds");
    print_sweep("beta = 0.01 sweep:", &strict);
    assert_eq!(strict.cache_hits(), 4);

    let stats = engine.cache_stats();
    println!(
        "engine cache after all queries: {} entries, {} hits, {} misses",
        stats.entries, stats.hits, stats.misses
    );
}
