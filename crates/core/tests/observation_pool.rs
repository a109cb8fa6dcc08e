//! Byte pins of Algorithm 1 on a large observation pool.
//!
//! The sparse Bernoulli model below has a mining floor of `s̃ = 1` at k = 2
//! and a pool of several thousand pairs, more than `MAX_PAIRWISE_POOL`, so the
//! curve is estimated above a raised reporting floor. Every estimate is
//! serialized and compared with a JSON fixture under
//! `tests/fixtures/observation_pool/`, under both samplers and through one
//! shared `ObservationStore`: a cold run, an ε-tightened re-query (served
//! from the store), a Δ-extension (only the tail is mined) and a request at a
//! higher floor (the stored floor-1 batch is read above the new floor).
//! The fixtures hold the estimates of the dense pool × Δ implementation, so
//! any change to how observations are pooled must reproduce them exactly.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use rand::rngs::StdRng;
use rand::SeedableRng;

use sigfim_core::montecarlo::MAX_PAIRWISE_POOL;
use sigfim_core::{ExecutionPolicy, FindPoissonThreshold, ObservationStore, ThresholdEstimate};
use sigfim_datasets::bitmap::BitmapDataset;
use sigfim_datasets::random::{BernoulliModel, NullModel};
use sigfim_datasets::transaction::TransactionDataset;
use sigfim_datasets::SamplerMode;
use sigfim_exec::NoopObserver;

const SEED: u64 = 7;

/// t = 300, n = 120, frequencies 0.01..=0.05: the largest expected pair
/// support is 0.75, so `s̃ = 1`.
fn sparse_model() -> BernoulliModel {
    let frequencies = (0..120).map(|i| 0.01 + 0.005 * (i % 9) as f64).collect();
    BernoulliModel::new(300, frequencies).unwrap()
}

/// The same null model (same fingerprint, same samples) reporting inflated
/// item frequencies, so Algorithm 1 starts from a higher floor (`s̃ = 3`) on
/// the batch keys the plain model already stored. Counts its sampling calls.
struct RaisedFloor {
    inner: BernoulliModel,
    samples: AtomicUsize,
}

impl RaisedFloor {
    fn new() -> Self {
        RaisedFloor {
            inner: sparse_model(),
            samples: AtomicUsize::new(0),
        }
    }

    fn samples(&self) -> usize {
        self.samples.load(Ordering::SeqCst)
    }
}

impl NullModel for RaisedFloor {
    fn num_items(&self) -> usize {
        NullModel::num_items(&self.inner)
    }

    fn num_transactions(&self) -> usize {
        NullModel::num_transactions(&self.inner)
    }

    fn item_frequencies(&self) -> Vec<f64> {
        let frequencies = NullModel::item_frequencies(&self.inner);
        frequencies.iter().map(|f| f * 2.1).collect()
    }

    fn sample_dataset<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> TransactionDataset {
        self.samples.fetch_add(1, Ordering::SeqCst);
        self.inner.sample_dataset(rng)
    }

    fn sample_into_bitmap<R: rand::Rng + ?Sized>(&self, rng: &mut R, out: &mut BitmapDataset) {
        self.samples.fetch_add(1, Ordering::SeqCst);
        NullModel::sample_into_bitmap(&self.inner, rng, out);
    }

    fn supports_gaps_sampler(&self) -> bool {
        self.inner.supports_gaps_sampler()
    }

    fn sample_into_bitmap_counted<R: rand::Rng + ?Sized>(
        &self,
        rng: &mut R,
        out: &mut BitmapDataset,
    ) -> Vec<u64> {
        self.samples.fetch_add(1, Ordering::SeqCst);
        self.inner.sample_into_bitmap_counted(rng, out)
    }

    fn sample_into_bitmap_gaps<R: rand::Rng + ?Sized>(
        &self,
        rng: &mut R,
        out: &mut BitmapDataset,
    ) -> Vec<u64> {
        self.samples.fetch_add(1, Ordering::SeqCst);
        self.inner.sample_into_bitmap_gaps(rng, out)
    }

    fn expected_density(&self) -> f64 {
        self.inner.expected_density()
    }

    fn fingerprint(&self) -> u64 {
        self.inner.fingerprint()
    }
}

fn algorithm(sampler: SamplerMode, epsilon: f64, replicates: usize) -> FindPoissonThreshold {
    FindPoissonThreshold {
        epsilon,
        replicates,
        policy: ExecutionPolicy::from_threads(2),
        sampler,
        ..FindPoissonThreshold::new(2)
    }
}

fn run<M: NullModel + Sync>(
    model: &M,
    algo: &FindPoissonThreshold,
    store: &ObservationStore,
) -> ThresholdEstimate {
    let mut rng = StdRng::seed_from_u64(SEED);
    algo.run_with_store(model, &mut rng, &NoopObserver, store)
        .unwrap()
}

fn assert_matches_fixture(name: &str, estimate: &ThresholdEstimate) {
    let path: PathBuf = [
        env!("CARGO_MANIFEST_DIR"),
        "tests",
        "fixtures",
        "observation_pool",
        &format!("{name}.json"),
    ]
    .iter()
    .collect();
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|error| panic!("cannot read fixture {}: {error}", path.display()));
    let actual = serde_json::to_string_pretty(estimate).unwrap() + "\n";
    assert!(
        actual == expected,
        "estimate `{name}` differs from its fixture {}",
        path.display()
    );
}

#[test]
fn large_pool_estimates_match_their_fixtures_under_both_samplers() {
    let model = sparse_model();
    for (sampler, tag) in [
        (SamplerMode::Cellwise, "cellwise"),
        (SamplerMode::Gaps, "gaps"),
    ] {
        let store = ObservationStore::new();

        let base = run(&model, &algorithm(sampler, 0.01, 16), &store);
        assert_eq!(base.s_tilde, 1, "{tag}: the floor must be 1");
        assert!(
            base.pool_size > MAX_PAIRWISE_POOL,
            "{tag}: pool of {} must exceed the pairwise cap",
            base.pool_size
        );
        assert!(
            base.curve[0].s > base.s_tilde,
            "{tag}: the reporting floor must be raised"
        );
        assert_matches_fixture(&format!("{tag}-base"), &base);

        let tightened = algorithm(sampler, 0.005, 16);
        let tight = run(&model, &tightened, &store);
        assert_eq!(tight, run(&model, &tightened, &ObservationStore::new()));
        assert_matches_fixture(&format!("{tag}-tight"), &tight);

        let wide = algorithm(sampler, 0.01, 24);
        let extended = run(&model, &wide, &store);
        assert_eq!(extended, run(&model, &wide, &ObservationStore::new()));
        assert_matches_fixture(&format!("{tag}-extended"), &extended);

        let raised = RaisedFloor::new();
        let higher = run(&raised, &wide, &store);
        assert_eq!(higher.s_tilde, 3, "{tag}: the raised model starts at 3");
        assert_eq!(raised.samples(), 0, "{tag}: the stored batch serves it");
        assert_eq!(higher, run(&raised, &wide, &ObservationStore::new()));
        assert_matches_fixture(&format!("{tag}-raised-floor"), &higher);
    }
}

#[test]
fn fused_singleton_estimates_match_their_fixture() {
    // k = 1 reads the frequent singletons off the sampler's per-item supports
    // instead of mining; its rows take the same pooling path.
    let model = sparse_model();
    for (sampler, tag) in [
        (SamplerMode::Cellwise, "cellwise"),
        (SamplerMode::Gaps, "gaps"),
    ] {
        let algo = FindPoissonThreshold {
            k: 1,
            ..algorithm(sampler, 0.01, 16)
        };
        let estimate = run(&model, &algo, &ObservationStore::new());
        assert_matches_fixture(&format!("{tag}-k1"), &estimate);
    }
}
