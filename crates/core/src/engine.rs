//! The high-level API: [`AnalysisEngine`], the one way to run the paper's
//! whole pipeline (Algorithm 1, Procedure 2, and the Procedure 1 baseline).
//!
//! The paper's own experiments (Tables 2–5) sweep `k` over a fixed dataset,
//! and ablations re-test one threshold under different `α`/`β` budgets, so
//! the engine is long-lived: constructed **once** from a dataset (or an
//! explicit [`NullModel`]), it owns:
//!
//! * the dataset and its null model (with the model's stable
//!   [`NullModel::fingerprint`] computed once),
//! * the resolved [`DatasetBackend`] and, when it resolves to the bitmap, the
//!   [`BitmapDataset`] view **built once** and shared by every Procedure 2 pass,
//! * a [`ThresholdCache`] of Algorithm 1 results keyed by
//!   `(model fingerprint, k, ε, Δ, seed, backend, restart budget)`, so repeated
//!   and overlapping queries skip the Monte-Carlo replicate loop entirely, and
//! * a cache of floor [`SupportProfile`]s keyed by `(k, s_min)`: each holds
//!   the family `F_k(ŝ_min)` itself, and both procedures test subsets of it —
//!   Procedure 2 returns `F_k(s*)` with `s* ≥ ŝ_min`, and the Procedure 1
//!   baseline tests all of `F_k(ŝ_min)` — so the family is mined once per
//!   `(k, ŝ_min)`, and a request that only changes `α`/`β` or the miner mines
//!   nothing (every miner yields the same profile).
//!
//! Queries are typed values: an [`AnalysisRequest`] (single `k` or a multi-`k`
//! batch) goes in, an [`AnalysisResponse`] (per-`k` [`AnalysisReport`]s plus
//! cache-hit metadata) comes out. A [`ProgressObserver`] hook reports
//! stage-by-stage and replicate-by-replicate progress — the API layer a
//! service front-end sits on.
//!
//! Results are **bit-identical** to running the stages by hand: each distinct
//! threshold key is computed with a fresh seed-derived RNG, then Procedures 2
//! and 1 test the mined family, so a cache hit returns precisely what a cold
//! run would have produced (enforced against a hand-wired reference pipeline
//! by `crates/core/tests/engine_parity.rs`). The one-shot
//! [`crate::Procedure2::run`] and [`crate::Procedure1::run`] remain for
//! callers that bring their own λ estimator, such as [`crate::ExactLambda`].
//!
//! ```
//! use sigfim_core::engine::{AnalysisEngine, AnalysisRequest};
//! use sigfim_datasets::random::BernoulliModel;
//! use rand::SeedableRng;
//!
//! let model = BernoulliModel::new(300, vec![0.08; 20]).unwrap();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(5);
//! let dataset = model.sample(&mut rng);
//!
//! let mut engine = AnalysisEngine::from_dataset(dataset).unwrap();
//! let request = AnalysisRequest::for_k_range(2..=3).with_replicates(16);
//! let sweep = engine.run(&request).unwrap();      // runs Algorithm 1 per k
//! let again = engine.run(&request).unwrap();      // served from the cache
//! assert_eq!(sweep.reports().count(), 2);
//! assert_eq!(again.cache_hits(), 2);
//! assert_eq!(
//!     sweep.report_for(2).unwrap().threshold,
//!     again.report_for(2).unwrap().threshold
//! );
//! ```

use std::collections::HashMap;
use std::ops::RangeInclusive;
use std::sync::{Arc, Mutex, MutexGuard};

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use sigfim_datasets::bitmap::{BitmapDataset, DatasetBackend, ResolvedBackend};
use sigfim_datasets::random::{BernoulliModel, BoxedNullModel, NullModel, SwapRandomizationModel};
use sigfim_datasets::sampler::{ResolvedSampler, SamplerMode};
use sigfim_datasets::sharded::ShardedBitmapDataset;
use sigfim_datasets::spill::{ShardResidency, SpillSnapshot};
use sigfim_datasets::summary::DatasetSummary;
use sigfim_datasets::transaction::TransactionDataset;
use sigfim_exec::{BatchObserver, ExecutionPolicy};
use sigfim_mining::counting::SupportProfile;
use sigfim_mining::miner::MinerKind;

use crate::montecarlo::{FindPoissonThreshold, ObservationStore, ThresholdEstimate};
use crate::procedure1::{ItemFrequencies, Procedure1};
use crate::procedure2::Procedure2;
use crate::report::{AnalysisParameters, AnalysisReport};
use crate::{CoreError, Result};

/// Which λ estimator Procedure 2 consumes from the Algorithm 1 output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum LambdaMode {
    /// The paper-faithful Monte-Carlo estimator: λ = 0 beyond the observed
    /// support range ([`ThresholdEstimate::lambda_estimator`]).
    #[default]
    Faithful,
    /// The rule-of-three clamp `λ ≥ 3/Δ`
    /// ([`ThresholdEstimate::conservative_lambda_estimator`]), recommended
    /// when Δ is small (≲ 200).
    Conservative,
}

/// A typed query against an [`AnalysisEngine`]: one `k` or a multi-`k` batch,
/// plus every statistical and algorithmic knob of the pipeline (the engine
/// itself carries the dataset backend and execution policy). Construct with
/// [`AnalysisRequest::for_k`] / [`AnalysisRequest::for_k_range`] /
/// [`AnalysisRequest::for_ks`] and refine with the `with_*` builders.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalysisRequest {
    /// The itemset sizes to analyze, in response order.
    pub ks: Vec<usize>,
    /// Confidence budget `α` of Procedure 2.
    pub alpha: f64,
    /// FDR budget `β` (both procedures).
    pub beta: f64,
    /// Chen–Stein variation-distance budget `ε` of Equation (1).
    pub epsilon: f64,
    /// Number Δ of Monte-Carlo replicates for Algorithm 1.
    pub replicates: usize,
    /// The random seed; together with the other key fields it addresses the
    /// engine's [`ThresholdCache`].
    pub seed: u64,
    /// Mining algorithm for the profile pass on the CSR path (and the
    /// parallel Eclat on the bitmap paths when it is
    /// [`MinerKind::ParEclat`]). Every miner yields the same profile, so the
    /// profile cache ignores it: a warm `(k, s_min)` mines nothing whichever
    /// miner the request names. Procedure 1 mines nothing of its own: it
    /// tests the same cached profile.
    pub miner: MinerKind,
    /// λ estimator selection.
    pub lambda_mode: LambdaMode,
    /// Whether to run the Procedure 1 (Benjamini–Yekutieli) baseline.
    pub baseline: bool,
    /// Maximum number of floor-halving restarts of Algorithm 1 (lines 7–9 and
    /// 19–22 of the pseudocode). Must be at least 1.
    pub max_restarts: usize,
}

/// The library-wide default seed of every [`AnalysisRequest`], so the engine
/// API, the service and the `sigfim` CLI reproduce each other bit for bit.
pub const DEFAULT_SEED: u64 = 0x51F1_D009;

impl AnalysisRequest {
    /// A request for a single itemset size, with the paper's experimental
    /// parameters: `α = β = 0.05`, `ε = 0.01`, Δ = 64 replicates, Apriori
    /// mining, the baseline enabled, and the library default seed.
    pub fn for_k(k: usize) -> Self {
        Self::for_ks([k])
    }

    /// A request sweeping an inclusive range of itemset sizes — the shape of
    /// the paper's Tables 2–5, which probe k = 2..=4 against one dataset.
    pub fn for_k_range(ks: RangeInclusive<usize>) -> Self {
        Self::for_ks(ks)
    }

    /// A request for an explicit list of itemset sizes.
    pub fn for_ks<I: IntoIterator<Item = usize>>(ks: I) -> Self {
        AnalysisRequest {
            ks: ks.into_iter().collect(),
            alpha: 0.05,
            beta: 0.05,
            epsilon: 0.01,
            replicates: 64,
            seed: DEFAULT_SEED,
            miner: MinerKind::Apriori,
            lambda_mode: LambdaMode::default(),
            baseline: true,
            max_restarts: 4,
        }
    }

    /// Set the confidence budget `α`.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Set the FDR budget `β`.
    pub fn with_beta(mut self, beta: f64) -> Self {
        self.beta = beta;
        self
    }

    /// Set the Chen–Stein budget `ε`.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Set the number Δ of Monte-Carlo replicates.
    pub fn with_replicates(mut self, replicates: usize) -> Self {
        self.replicates = replicates;
        self
    }

    /// Set the random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Select the mining algorithm.
    pub fn with_miner(mut self, miner: MinerKind) -> Self {
        self.miner = miner;
        self
    }

    /// Select the λ estimator.
    pub fn with_lambda_mode(mut self, mode: LambdaMode) -> Self {
        self.lambda_mode = mode;
        self
    }

    /// Enable or disable the Procedure 1 baseline.
    pub fn with_baseline(mut self, baseline: bool) -> Self {
        self.baseline = baseline;
        self
    }

    /// Set the restart budget of Algorithm 1 (must be at least 1).
    pub fn with_max_restarts(mut self, max_restarts: usize) -> Self {
        self.max_restarts = max_restarts;
        self
    }

    /// Check the request for structural validity. Statistical parameters
    /// (`α`, `β`, `ε`) are validated by the pipeline stages they feed.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] when the request has no itemset
    /// sizes, a size of 0, no replicates, or a zero restart budget.
    pub fn validate(&self) -> Result<()> {
        if self.ks.is_empty() {
            return Err(CoreError::InvalidParameter {
                name: "ks",
                reason: "the request must name at least one itemset size".into(),
            });
        }
        if self.ks.contains(&0) {
            return Err(CoreError::InvalidParameter {
                name: "k",
                reason: "must be >= 1".into(),
            });
        }
        if self.replicates == 0 {
            return Err(CoreError::InvalidParameter {
                name: "replicates",
                reason: "at least one Monte-Carlo replicate is required".into(),
            });
        }
        if self.max_restarts == 0 {
            return Err(CoreError::InvalidParameter {
                name: "max_restarts",
                reason: "Algorithm 1 needs a restart budget of at least 1 \
                         (0 would disable the floor search of lines 7-9 and 19-22)"
                    .into(),
            });
        }
        Ok(())
    }
}

/// Whether a per-`k` threshold came out of the [`ThresholdCache`] or was
/// computed by running Algorithm 1's replicate loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CacheStatus {
    /// Served from the cache: the Monte-Carlo loop did not run.
    Hit,
    /// Computed by Algorithm 1 (and inserted into the cache).
    Miss,
}

/// One per-`k` result inside an [`AnalysisResponse`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KAnalysis {
    /// The itemset size this entry covers.
    pub k: usize,
    /// Whether the `ThresholdEstimate` was served from the cache.
    pub threshold_cache: CacheStatus,
    /// The full report for this `k`.
    pub report: AnalysisReport,
}

/// The outcome of [`AnalysisEngine::run`]: one [`AnalysisReport`] per requested
/// `k`, in request order, each annotated with its cache provenance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalysisResponse {
    /// The per-`k` runs, in request order.
    pub runs: Vec<KAnalysis>,
}

impl AnalysisResponse {
    /// The per-`k` reports, in request order.
    pub fn reports(&self) -> impl Iterator<Item = &AnalysisReport> {
        self.runs.iter().map(|run| &run.report)
    }

    /// The first report for itemset size `k`, if the request covered it.
    pub fn report_for(&self, k: usize) -> Option<&AnalysisReport> {
        self.runs
            .iter()
            .find(|run| run.k == k)
            .map(|run| &run.report)
    }

    /// How many of the per-`k` thresholds were served from the cache.
    pub fn cache_hits(&self) -> usize {
        self.runs
            .iter()
            .filter(|run| run.threshold_cache == CacheStatus::Hit)
            .count()
    }

    /// Consume the response into its reports, in request order.
    pub fn into_reports(self) -> Vec<AnalysisReport> {
        self.runs.into_iter().map(|run| run.report).collect()
    }
}

/// One per-`k` result of a threshold-only query ([`AnalysisEngine::thresholds`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThresholdRun {
    /// The itemset size.
    pub k: usize,
    /// Whether the estimate was served from the cache.
    pub threshold_cache: CacheStatus,
    /// The Algorithm 1 output.
    pub estimate: ThresholdEstimate,
}

/// The pipeline stage a [`ProgressObserver`] event refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AnalysisStage {
    /// Algorithm 1 — the Monte-Carlo FindPoissonThreshold replicate loop.
    Threshold,
    /// Procedure 2 — profile mining, grid testing, family extraction.
    Procedure2,
    /// Procedure 1 — the Benjamini–Yekutieli baseline.
    Procedure1,
}

/// Progress hook for engine queries. All methods default to no-ops; implement
/// only what the front-end surfaces. Replicate events arrive from worker
/// threads in completion order (monotone `completed`, unordered `index`-free),
/// so implementations must be `Sync` and order-insensitive.
pub trait ProgressObserver: Sync {
    /// Stage `stage` of the `k`-run started.
    fn stage_started(&self, _k: usize, _stage: AnalysisStage) {}

    /// `completed` of `total` Monte-Carlo replicates of the `k`-run have
    /// finished. When Algorithm 1 restarts with a halved floor, the count
    /// starts over at 1 for the new round.
    fn replicate_completed(&self, _k: usize, _completed: usize, _total: usize) {}

    /// The `k`-run's threshold was served from the cache; no replicate events
    /// will follow for it.
    fn threshold_cache_hit(&self, _k: usize) {}

    /// Stage `stage` of the `k`-run finished.
    fn stage_completed(&self, _k: usize, _stage: AnalysisStage) {}
}

/// The do-nothing observer used by the unobserved entry points.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoProgress;

impl ProgressObserver for NoProgress {}

/// Forwards per-replicate completion events from the execution layer to a
/// [`ProgressObserver`], stamping them with the `k` they belong to.
struct ReplicateProgress<'a> {
    observer: &'a dyn ProgressObserver,
    k: usize,
}

impl BatchObserver for ReplicateProgress<'_> {
    fn task_completed(&self, _index: usize, completed: usize, total: usize) {
        self.observer.replicate_completed(self.k, completed, total);
    }
}

/// The full identity of one Algorithm 1 run. Two runs with equal keys produce
/// bit-identical [`ThresholdEstimate`]s (each run derives its RNG freshly from
/// the seed, and estimates are invariant under execution policy and physical
/// backend), which is what makes caching by this key sound.
///
/// The tuple extends the `(fingerprint, k, ε, Δ, seed, backend)` key of the
/// service design with the restart budget, which also shapes the estimate.
/// The backend slot stores the *replicate-path* backend
/// ([`replicate_path_backend`]): `Auto` is resolved against the model and
/// `Sharded` rides exactly the scratch-bitmap replicate loop `Bitmap` does,
/// so tenants whose configured names differ but whose replicate loops are
/// the same code path share entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ThresholdKey {
    fingerprint: u64,
    k: usize,
    /// `ε` by exact bit pattern (`f64` is not `Hash`/`Eq`).
    epsilon_bits: u64,
    replicates: usize,
    seed: u64,
    backend: DatasetBackend,
    max_restarts: usize,
    /// The *resolved* replicate sampler: samplers read different RNG
    /// streams, so estimates only replay within one sampler. Engines always
    /// run the default `cellwise` sampler; the field keeps the key (and the
    /// persisted [`ThresholdRecord::storage_key`]) in its established shape.
    sampler: ResolvedSampler,
}

/// The portable form of one threshold-cache entry: the full
/// `ThresholdKey` identity flattened into public fields plus the cached
/// [`ThresholdEstimate`]. This is the unit the service tier persists so a
/// restarted process can [`ThresholdStore::preload`] its cache warm.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThresholdRecord {
    /// The null model's stable fingerprint.
    pub fingerprint: u64,
    /// The itemset size.
    pub k: usize,
    /// `ε` by exact bit pattern (as in the cache key).
    pub epsilon_bits: u64,
    /// The replicate count Δ.
    pub replicates: usize,
    /// The random seed.
    pub seed: u64,
    /// The replicate-path backend (already normalized; see `ThresholdKey`).
    pub backend: DatasetBackend,
    /// The Algorithm 1 restart budget.
    pub max_restarts: usize,
    /// The resolved replicate sampler.
    pub sampler: ResolvedSampler,
    /// The cached Algorithm 1 output.
    pub estimate: ThresholdEstimate,
}

impl ThresholdRecord {
    fn from_parts(key: ThresholdKey, estimate: ThresholdEstimate) -> Self {
        ThresholdRecord {
            fingerprint: key.fingerprint,
            k: key.k,
            epsilon_bits: key.epsilon_bits,
            replicates: key.replicates,
            seed: key.seed,
            backend: key.backend,
            max_restarts: key.max_restarts,
            sampler: key.sampler,
            estimate,
        }
    }

    fn cache_key(&self) -> ThresholdKey {
        ThresholdKey {
            fingerprint: self.fingerprint,
            k: self.k,
            epsilon_bits: self.epsilon_bits,
            replicates: self.replicates,
            seed: self.seed,
            backend: self.backend,
            max_restarts: self.max_restarts,
            sampler: self.sampler,
        }
    }

    /// A stable, injective string form of the record's identity — the key
    /// persistence layers index by. Two records with equal storage keys
    /// cache interchangeably (the estimate is a deterministic function of
    /// the identity).
    pub fn storage_key(&self) -> String {
        format!(
            "fp{:016x}-k{}-e{:016x}-r{}-s{:016x}-b{:?}-m{}-{:?}",
            self.fingerprint,
            self.k,
            self.epsilon_bits,
            self.replicates,
            self.seed,
            self.backend,
            self.max_restarts,
            self.sampler
        )
    }

    /// The `ε` this record was computed for, recovered from its bit pattern.
    pub fn epsilon(&self) -> f64 {
        f64::from_bits(self.epsilon_bits)
    }
}

/// Write-through persistence hook of a [`ThresholdStore`]: every fresh
/// Algorithm 1 result inserted into the store is offered to the sink
/// *after* the cache lock is released. Implementations must tolerate being
/// called from any engine thread and should swallow (log) their own I/O
/// failures — a broken disk must not fail an otherwise-complete analysis.
pub trait ThresholdSink: Send + Sync {
    /// Persist one freshly computed threshold entry.
    fn persist(&self, record: &ThresholdRecord);
}

/// Normalize a configured backend to the replicate path it drives in
/// [`FindPoissonThreshold`] for `model`: resolve exactly as
/// `collect_observations` does (`Auto` via the model's shape and expected
/// density), then collapse `ShardedBitmap` onto `Bitmap` — sharding applies
/// to Procedure 2's counting passes, not to Algorithm 1, whose loop treats
/// the two identically (see `montecarlo.rs`). Engines whose configured names
/// differ but whose replicate loops are the same code path therefore share
/// threshold-cache entries instead of recomputing per name.
fn replicate_path_backend<M: NullModel>(backend: DatasetBackend, model: &M) -> DatasetBackend {
    let resolved = backend.resolve(
        model.num_items() as u32,
        model.num_transactions(),
        model.expected_density(),
    );
    match resolved {
        ResolvedBackend::Csr => DatasetBackend::Csr,
        ResolvedBackend::Bitmap | ResolvedBackend::ShardedBitmap => DatasetBackend::Bitmap,
    }
}

/// Aggregate counters of a [`ThresholdCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups served without running Algorithm 1.
    pub hits: u64,
    /// Lookups that had to run Algorithm 1.
    pub misses: u64,
    /// Number of distinct threshold keys currently stored.
    pub entries: usize,
    /// Entries dropped by the LRU policy to respect the capacity bound.
    pub evictions: u64,
    /// The configured capacity bound (`None` = unbounded).
    pub capacity: Option<usize>,
}

/// One cached value together with its recency stamp.
#[derive(Debug, Clone)]
struct LruEntry<V> {
    value: V,
    /// Logical clock value of the last hit or insertion; the entry with the
    /// smallest stamp is the least recently used.
    last_used: u64,
}

/// The LRU memo shared by the engine's two caches ([`ThresholdCache`] and the
/// per-engine `SupportProfile` cache): a hash map with a logical recency
/// clock, an optional capacity bound enforced by least-recently-used
/// eviction, and hit/miss/eviction counters surfaced as [`CacheStats`].
#[derive(Debug, Clone)]
struct LruCache<K, V> {
    entries: HashMap<K, LruEntry<V>>,
    capacity: Option<usize>,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K, V> Default for LruCache<K, V> {
    fn default() -> Self {
        LruCache {
            entries: HashMap::new(),
            capacity: None,
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }
}

impl<K: Eq + std::hash::Hash + Copy, V: Clone> LruCache<K, V> {
    /// An empty cache bounded at `capacity` entries (0 disables caching
    /// entirely: every insert is immediately discarded).
    fn with_capacity(capacity: usize) -> Self {
        LruCache {
            capacity: Some(capacity),
            ..LruCache::default()
        }
    }

    /// Look up a key, recording a hit or miss (and, on a hit, refreshing the
    /// entry's recency).
    fn get(&mut self, key: &K) -> Option<V> {
        self.clock += 1;
        match self.entries.get_mut(key) {
            Some(entry) => {
                entry.last_used = self.clock;
                self.hits += 1;
                Some(entry.value.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, key: K, value: V) {
        if self.capacity == Some(0) {
            return;
        }
        self.clock += 1;
        if let Some(capacity) = self.capacity {
            // Evict least-recently-used entries until the new key fits. The
            // linear minimum scan is fine at service cache sizes (hundreds of
            // entries guarding expensive mining or Monte-Carlo passes).
            while !self.entries.contains_key(&key) && self.entries.len() >= capacity {
                self.evict_lru();
            }
        }
        self.entries.insert(
            key,
            LruEntry {
                value,
                last_used: self.clock,
            },
        );
    }

    fn evict_lru(&mut self) {
        // sigfim-lint: allow(nondet-iteration, reason = "last_used stamps are unique (monotone clock), so the minimum is order-independent")
        let lru = self
            .entries
            .iter()
            .min_by_key(|(_, entry)| entry.last_used)
            .map(|(key, _)| *key)
            .expect("a non-empty cache has a least-recently-used entry");
        self.entries.remove(&lru);
        self.evictions += 1;
    }

    /// Change the capacity bound (`None` = unbounded). Shrinking below the
    /// current size evicts least-recently-used entries immediately.
    fn set_capacity(&mut self, capacity: Option<usize>) {
        self.capacity = capacity;
        if let Some(capacity) = capacity {
            while self.entries.len() > capacity {
                self.evict_lru();
            }
        }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.entries.len(),
            evictions: self.evictions,
            capacity: self.capacity,
        }
    }

    /// Drop every entry and reset the counters (the capacity bound persists).
    fn clear(&mut self) {
        self.entries.clear();
        self.hits = 0;
        self.misses = 0;
        self.evictions = 0;
        self.clock = 0;
    }

    /// Snapshot the stored `(key, value)` pairs without touching recency or
    /// the hit/miss counters. Iteration order is the hash map's; callers
    /// that surface the result sort it first ([`ThresholdStore::export`]
    /// does, by storage key).
    fn items(&self) -> Vec<(K, V)> {
        // sigfim-lint: allow(nondet-iteration, reason = "unordered snapshot; ThresholdStore::export sorts by storage key before the records are surfaced")
        self.entries
            .iter()
            .map(|(key, entry)| (*key, entry.value.clone()))
            .collect()
    }
}

/// Memo of Algorithm 1 results keyed by the full run identity (see
/// [`AnalysisEngine`]); the reuse that turns a k-sweep's repeated queries into
/// lookups.
///
/// The cache is **bounded**: give it a capacity and it evicts the least
/// recently used entry on overflow, counting evictions in [`CacheStats`].
/// The default capacity is `None` (unbounded), preserving the PR 3 behaviour
/// for short-lived engines; long-running services should set a bound (the
/// `sigfim serve --cache-capacity` flag does).
///
/// Engines access it through a [`ThresholdStore`] — a shared, lock-protected
/// handle — so several engines (tenants) can pool their thresholds; inspect it
/// through [`AnalysisEngine::cache_stats`] or [`ThresholdStore::stats`].
#[derive(Debug, Clone, Default)]
pub struct ThresholdCache {
    inner: LruCache<ThresholdKey, ThresholdEstimate>,
}

impl ThresholdCache {
    /// An empty cache bounded at `capacity` entries (0 disables caching
    /// entirely: every insert is immediately discarded).
    pub fn with_capacity(capacity: usize) -> Self {
        ThresholdCache {
            inner: LruCache::with_capacity(capacity),
        }
    }

    fn get(&mut self, key: &ThresholdKey) -> Option<ThresholdEstimate> {
        self.inner.get(key)
    }

    fn insert(&mut self, key: ThresholdKey, estimate: ThresholdEstimate) {
        self.inner.insert(key, estimate);
    }

    /// Change the capacity bound (`None` = unbounded). Shrinking below the
    /// current size evicts least-recently-used entries immediately.
    pub fn set_capacity(&mut self, capacity: Option<usize>) {
        self.inner.set_capacity(capacity);
    }

    /// The configured capacity bound (`None` = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.inner.capacity
    }

    /// Number of distinct threshold keys stored.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.inner.len() == 0
    }

    /// Hit/miss/entry/eviction counters since construction (or the last clear).
    pub fn stats(&self) -> CacheStats {
        self.inner.stats()
    }

    /// Drop every entry and reset the counters (the capacity bound persists).
    pub fn clear(&mut self) {
        self.inner.clear();
    }

    fn items(&self) -> Vec<(ThresholdKey, ThresholdEstimate)> {
        self.inner.items()
    }
}

/// A process-wide, shareable handle to a [`ThresholdCache`], protected by a
/// lock. Cloning the store clones the *handle*: every clone reads and writes
/// the same cache, which is what lets two engines (tenants) analyzing the same
/// null model serve each other's Algorithm 1 results — the cache key starts
/// with the model fingerprint, so entries never leak across distinct nulls.
///
/// Every engine owns a store (a private one by default);
/// [`AnalysisEngine::with_threshold_store`] swaps in a shared one. The store
/// is deliberately not held across an Algorithm 1 computation: two tenants
/// racing on the same cold key both compute it (identical results — the run
/// is deterministic in the key), and the second insert is a no-op overwrite.
///
/// A store may carry a write-through [`ThresholdSink`]
/// ([`ThresholdStore::set_persistence`]): fresh inserts are offered to the
/// sink after the cache lock is released, and a restarted process replays
/// persisted records back in with [`ThresholdStore::preload`] (which does
/// *not* re-invoke the sink). The sink handle is itself shared — clones
/// made before `set_persistence` see the sink too.
#[derive(Clone, Default)]
pub struct ThresholdStore {
    inner: Arc<Mutex<ThresholdCache>>,
    sink: Arc<Mutex<Option<Arc<dyn ThresholdSink>>>>,
}

impl std::fmt::Debug for ThresholdStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThresholdStore")
            .field("stats", &self.stats())
            .field("persistent", &self.sink_handle().is_some())
            .finish()
    }
}

impl ThresholdStore {
    /// A fresh, empty, unbounded store.
    pub fn new() -> Self {
        ThresholdStore::default()
    }

    /// A fresh store bounded at `capacity` entries (LRU eviction).
    pub fn with_capacity(capacity: usize) -> Self {
        ThresholdStore {
            inner: Arc::new(Mutex::new(ThresholdCache::with_capacity(capacity))),
            sink: Arc::default(),
        }
    }

    /// Lock the underlying cache, recovering from poisoning: the cache holds
    /// plain memoized values whose invariants hold between any two operations,
    /// so a panicked writer cannot leave it in a state worth propagating.
    fn lock(&self) -> MutexGuard<'_, ThresholdCache> {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// The currently attached sink handle, if any. Recovers from poisoning
    /// like [`ThresholdStore::lock`] (the slot holds a plain handle).
    fn sink_handle(&self) -> Option<Arc<dyn ThresholdSink>> {
        self.sink
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone()
    }

    fn get(&self, key: &ThresholdKey) -> Option<ThresholdEstimate> {
        self.lock().get(key)
    }

    fn insert(&self, key: ThresholdKey, estimate: ThresholdEstimate) {
        self.lock().insert(key, estimate.clone());
        // Persist outside the cache lock: the sink may do I/O, and holding
        // the cache across it would serialize every tenant behind the disk.
        if let Some(sink) = self.sink_handle() {
            sink.persist(&ThresholdRecord::from_parts(key, estimate));
        }
    }

    /// Attach a write-through persistence sink: every subsequent fresh
    /// insert is offered to it as a [`ThresholdRecord`]. The handle is
    /// shared with every clone of this store, past and future.
    pub fn set_persistence(&self, sink: Arc<dyn ThresholdSink>) {
        let mut slot = self
            .sink
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        *slot = Some(sink);
    }

    /// Replay persisted records into the cache **without** re-invoking the
    /// sink (they are already durable). Returns how many records were
    /// loaded. Bounded stores LRU-evict as usual if the replay overflows
    /// the capacity.
    pub fn preload<I: IntoIterator<Item = ThresholdRecord>>(&self, records: I) -> usize {
        let mut cache = self.lock();
        let mut loaded = 0;
        for record in records {
            let key = record.cache_key();
            cache.insert(key, record.estimate);
            loaded += 1;
        }
        loaded
    }

    /// Snapshot every cached entry as a [`ThresholdRecord`], sorted by
    /// [`ThresholdRecord::storage_key`] so the export is deterministic.
    pub fn export(&self) -> Vec<ThresholdRecord> {
        let items = self.lock().items();
        let mut records: Vec<ThresholdRecord> = items
            .into_iter()
            .map(|(key, estimate)| ThresholdRecord::from_parts(key, estimate))
            .collect();
        records.sort_by_key(|record| record.storage_key());
        records
    }

    /// Hit/miss/entry/eviction counters of the shared cache.
    pub fn stats(&self) -> CacheStats {
        self.lock().stats()
    }

    /// Change the capacity bound (`None` = unbounded), evicting immediately if
    /// the cache is over the new bound.
    pub fn set_capacity(&self, capacity: Option<usize>) {
        self.lock().set_capacity(capacity);
    }

    /// Number of distinct threshold keys stored.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Drop every entry and reset the counters (the capacity bound persists).
    /// On a shared store this affects every attached engine.
    pub fn clear(&self) {
        self.lock().clear();
    }

    /// Whether `other` is a handle to the same underlying cache.
    pub fn shares_with(&self, other: &ThresholdStore) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

/// The long-lived, session-oriented analysis API (see the [module
/// docs](self)). Generic over the null model; [`AnalysisEngine::from_dataset`]
/// builds the paper's Bernoulli model, [`AnalysisEngine::with_swap_null`] the
/// swap-randomization alternative, and [`AnalysisEngine::with_model`] accepts
/// anything implementing [`NullModel`] (including `&M`, so borrowing callers
/// need not clone their model). [`AnalysisEngine::into_dyn`] erases the model
/// type (see [`DynAnalysisEngine`]).
///
/// Cloning an engine clones the dataset views but **shares** the threshold
/// store (an [`Arc`] handle): the clones pool their Algorithm 1 results, which
/// is the multi-tenant behaviour a service wants. Give a clone
/// [`AnalysisEngine::with_threshold_store`] a fresh store to detach it.
#[derive(Debug, Clone)]
pub struct AnalysisEngine<M: NullModel + Sync = BernoulliModel> {
    model: M,
    /// The model's stable fingerprint, computed once at construction.
    fingerprint: u64,
    /// The dataset Procedures 1 and 2 analyze; absent for threshold-only
    /// engines built with [`AnalysisEngine::from_model`].
    dataset: Option<TransactionDataset>,
    backend: DatasetBackend,
    policy: ExecutionPolicy,
    /// The bitmap view of `dataset`, built once whenever `backend` resolves to
    /// the bitmap for it; shared by every Procedure 2 pass.
    bitmap: Option<BitmapDataset>,
    /// The transaction-sharded store, built once whenever `backend` resolves
    /// to [`ResolvedBackend::ShardedBitmap`]; Procedure 2's counting passes
    /// fan it out shard-by-shard under the engine's execution policy. Its
    /// shards are resident, or spilled under `residency`. `Arc`-wrapped
    /// because engines are `Clone` — clones share the store (and a spilled
    /// store's files and residency set). The Monte-Carlo replicate scratch
    /// path never spills.
    sharded: Option<Arc<ShardedBitmapDataset>>,
    /// The shard residency `rebuild_views` applies to the sharded store;
    /// `None` keeps its shards resident.
    residency: Option<ShardResidency>,
    /// Handle to the threshold cache — private by default, shareable across
    /// engines for cross-tenant reuse.
    store: ThresholdStore,
    /// Handle to the replicate observation store: the raw per-replicate
    /// observations of recent Algorithm 1 batches, so an ε-tightened or
    /// Δ-extended re-query reuses them instead of re-sampling (see
    /// [`ObservationStore`]). Shared by clones, like the threshold store.
    observations: ObservationStore,
    /// Floor profiles by `(k, s_min)`, each holding the mined family
    /// `F_k(s_min)` itself and the frequencies of its items: Procedure 2's
    /// family and the Procedure 1 baseline are filters over it, so a request
    /// that re-tests the same threshold with different `α`/`β` budgets mines
    /// nothing and scans nothing.
    /// LRU-bounded at [`DEFAULT_PROFILE_CACHE_CAPACITY`] by default — profiles
    /// are much larger than threshold estimates, so unlike the threshold
    /// cache this one ships bounded (see
    /// [`AnalysisEngine::with_profile_cache_capacity`]). Values are
    /// `Arc`-wrapped so a cache hit hands back a pointer, never a deep copy
    /// of the family.
    profiles: LruCache<ProfileKey, Arc<CachedProfile>>,
    /// The per-dataset statistics every report and Procedure 2 read,
    /// computed by `rebuild_views`; present exactly when `dataset` is.
    stats: Option<DatasetStats>,
}

/// One profile-cache entry: the floor profile and the frequencies of the
/// items in its family, which is all Procedure 1 multiplies. Kept per
/// profile rather than per dataset, they cost O(items in the family)
/// instead of O(items in the universe).
#[derive(Debug)]
struct CachedProfile {
    profile: SupportProfile,
    frequencies: ItemFrequencies,
}

/// Statistics of an engine's dataset that each request reads once per `k`.
/// Each is an O(entries) scan, so the engine computes them once per dataset
/// instead.
#[derive(Debug, Clone)]
struct DatasetStats {
    /// The report's dataset summary.
    summary: DatasetSummary,
    /// `s_max`, the upper end of Procedure 2's grid.
    max_item_support: u64,
}

/// The identity of one cached floor profile: `(k, s_min)`. The miner is not
/// part of it, because every miner mines the same family.
type ProfileKey = (usize, u64);

/// The default bound of the per-engine `SupportProfile` cache. A profile
/// holds every k-itemset above its floor, the family `F_k(ŝ_min)` itself, at
/// `4k + 8` bytes per itemset (its items and its support) plus 12 bytes per
/// distinct item for the frequencies Procedure 1 reads — potentially
/// megabytes on dense data — so engines cap the cache by default; 32 entries
/// comfortably cover a k-sweep times a few distinct floors.
pub const DEFAULT_PROFILE_CACHE_CAPACITY: usize = 32;

/// The dyn-erased engine: the concrete null-model type is boxed away, so
/// engines over *different* models (Bernoulli, swap, custom) share one type —
/// storable in one registry, routable through one code path. This is the form
/// the `sigfim-service` crate's `EngineRegistry` stores.
///
/// Build a generic engine with any constructor and erase it with
/// [`AnalysisEngine::into_dyn`] (which keeps its warm caches). Results are
/// bit-identical to the generic engine's: erasure changes neither sampling
/// nor cache keys.
pub type DynAnalysisEngine = AnalysisEngine<BoxedNullModel>;

impl AnalysisEngine<BernoulliModel> {
    /// An engine analyzing `dataset` against the paper's null model derived
    /// from it (same `t`, same item frequencies, independent placement).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for an empty dataset.
    pub fn from_dataset(dataset: TransactionDataset) -> Result<Self> {
        let model = BernoulliModel::from_dataset(&dataset);
        Self::with_model(dataset, model)
    }
}

impl AnalysisEngine<SwapRandomizationModel> {
    /// An engine analyzing `dataset` against the swap-randomization null of
    /// Gionis et al., with `swaps_per_entry` swap attempts per incidence.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for an empty dataset and
    /// propagates swap-model construction errors (no incidences,
    /// non-positive `swaps_per_entry`).
    pub fn with_swap_null(dataset: TransactionDataset, swaps_per_entry: f64) -> Result<Self> {
        let model = SwapRandomizationModel::new(dataset.clone(), swaps_per_entry)?;
        Self::with_model(dataset, model)
    }
}

impl<M: NullModel + Send + Sync + 'static> AnalysisEngine<M> {
    /// Erase the model type, keeping everything else — dataset views, the
    /// threshold-store handle (warm entries stay warm), profile caches,
    /// backend and policy. The resulting engine is storable next to engines
    /// over any other model type.
    pub fn into_dyn(self) -> DynAnalysisEngine {
        AnalysisEngine {
            model: Box::new(self.model) as BoxedNullModel,
            fingerprint: self.fingerprint,
            dataset: self.dataset,
            backend: self.backend,
            policy: self.policy,
            bitmap: self.bitmap,
            sharded: self.sharded,
            residency: self.residency,
            store: self.store,
            observations: self.observations,
            profiles: self.profiles,
            stats: self.stats,
        }
    }
}

impl<M: NullModel + Sync> AnalysisEngine<M> {
    /// An engine analyzing `dataset` against an explicitly supplied null model
    /// (a reference-population model, a replayed fitted model, …).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for an empty dataset.
    pub fn with_model(dataset: TransactionDataset, model: M) -> Result<Self> {
        if dataset.num_transactions() == 0 {
            return Err(CoreError::InvalidParameter {
                name: "dataset",
                reason: "cannot analyze an empty dataset".into(),
            });
        }
        let mut engine = Self::from_model(model);
        engine.dataset = Some(dataset);
        engine.rebuild_views();
        Ok(engine)
    }

    /// A threshold-only engine: no dataset, so only
    /// [`AnalysisEngine::thresholds`] queries are available (the shape of the
    /// paper's Table 2, which runs Algorithm 1 against null models alone).
    pub fn from_model(model: M) -> Self {
        let fingerprint = model.fingerprint();
        AnalysisEngine {
            model,
            fingerprint,
            dataset: None,
            backend: DatasetBackend::Auto,
            policy: ExecutionPolicy::default(),
            bitmap: None,
            sharded: None,
            residency: None,
            store: ThresholdStore::new(),
            observations: ObservationStore::new(),
            profiles: LruCache::with_capacity(DEFAULT_PROFILE_CACHE_CAPACITY),
            stats: None,
        }
    }

    /// Attach a (typically shared) [`ThresholdStore`]: from here on, this
    /// engine's Algorithm 1 lookups and insertions go to `store`, so every
    /// other engine attached to it can serve — and be served by — this
    /// engine's thresholds. Keys carry the model fingerprint, so sharing is
    /// sound across engines over *different* null models.
    pub fn with_threshold_store(mut self, store: ThresholdStore) -> Self {
        self.store = store;
        self
    }

    /// In-place form of [`AnalysisEngine::with_threshold_store`].
    pub fn set_threshold_store(&mut self, store: ThresholdStore) {
        self.store = store;
    }

    /// A handle to this engine's threshold store (clone-to-share).
    pub fn threshold_store(&self) -> ThresholdStore {
        self.store.clone()
    }

    /// A handle to this engine's replicate [`ObservationStore`]
    /// (clone-to-share, like the threshold store).
    pub fn observation_store(&self) -> ObservationStore {
        self.observations.clone()
    }

    /// Attach a (typically shared) [`ObservationStore`]: from here on, this
    /// engine's Algorithm 1 runs retain and reuse replicate observations
    /// through `store`. Keys carry the model fingerprint, so sharing is sound
    /// across engines over different null models.
    pub fn with_observation_store(mut self, store: ObservationStore) -> Self {
        self.observations = store;
        self
    }

    /// Bound this engine's threshold cache at `capacity` entries (LRU
    /// eviction). On a shared store the bound applies to every attached
    /// engine.
    pub fn with_cache_capacity(self, capacity: usize) -> Self {
        self.store.set_capacity(Some(capacity));
        self
    }

    /// Bound this engine's `(k, s_min)` → `SupportProfile` cache at
    /// `capacity` entries (LRU eviction; 0 disables profile caching). The
    /// profile cache is per-engine — unlike thresholds, profiles are tied to
    /// the engine's own dataset and never shared across tenants. Defaults to
    /// [`DEFAULT_PROFILE_CACHE_CAPACITY`].
    pub fn with_profile_cache_capacity(mut self, capacity: usize) -> Self {
        self.profiles.set_capacity(Some(capacity));
        self
    }

    /// Select the physical dataset backend. Results are identical under every
    /// backend; this rebuilds the owned bitmap view accordingly and clears the
    /// profile cache.
    pub fn with_backend(mut self, backend: DatasetBackend) -> Self {
        self.backend = backend;
        self.profiles.clear();
        self.rebuild_views();
        self
    }

    /// Bound the resident footprint of the sharded store: when the backend
    /// resolves to [`ResolvedBackend::ShardedBitmap`], the shards are spilled
    /// to per-shard files and at most `residency.budget_bytes` of shard
    /// payload stays in memory at once (LRU eviction; cold shards fault back
    /// in on demand). Results are bit-identical at every budget; see
    /// [`sigfim_datasets::spill`]. An engine without a residency keeps its
    /// shards resident. Set it before [`AnalysisEngine::with_backend`] so the
    /// store is built once; on an engine that already holds a sharded store
    /// this rebuilds it and clears the profile cache.
    pub fn with_shard_residency(mut self, residency: ShardResidency) -> Self {
        self.residency = Some(residency);
        if self.sharded.is_some() {
            self.profiles.clear();
            self.rebuild_views();
        }
        self
    }

    /// A snapshot of the sharded store's residency state, when its shards
    /// are spilled (see [`AnalysisEngine::with_shard_residency`]).
    pub fn spill_snapshot(&self) -> Option<SpillSnapshot> {
        self.sharded
            .as_ref()
            .and_then(|sharded| sharded.spill_snapshot())
    }

    /// Select the execution policy for the Monte-Carlo replicate loop (a pure
    /// performance knob; estimates are bit-identical under every policy).
    pub fn with_execution_policy(mut self, policy: ExecutionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Shorthand for [`AnalysisEngine::with_execution_policy`] with
    /// [`ExecutionPolicy::from_threads`] (0 = all cores, 1 = sequential).
    pub fn with_threads(self, threads: usize) -> Self {
        self.with_execution_policy(ExecutionPolicy::from_threads(threads))
    }

    /// The dataset this engine analyzes, when it has one.
    pub fn dataset(&self) -> Option<&TransactionDataset> {
        self.dataset.as_ref()
    }

    /// The null model queries are answered against.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// The model fingerprint keying the threshold cache.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The configured dataset backend.
    pub fn backend(&self) -> DatasetBackend {
        self.backend
    }

    /// The configured execution policy.
    pub fn execution_policy(&self) -> ExecutionPolicy {
        self.policy
    }

    /// Hit/miss/entry/eviction counters of the threshold cache (on a shared
    /// store these aggregate over every attached engine).
    pub fn cache_stats(&self) -> CacheStats {
        self.store.stats()
    }

    /// Hit/miss/entry/eviction counters of this engine's `SupportProfile`
    /// cache (per-engine, never shared).
    pub fn profile_cache_stats(&self) -> CacheStats {
        self.profiles.stats()
    }

    /// Drop every cached threshold and profile (e.g. after mutating shared
    /// state the keys cannot see). On a shared store this clears the
    /// thresholds of every attached engine.
    pub fn clear_caches(&mut self) {
        self.store.clear();
        self.profiles.clear();
    }

    /// Run a request end to end: per requested `k`, Algorithm 1 (served from
    /// the [`ThresholdCache`] when the key is warm), Procedure 2 against the
    /// engine's pre-built dataset view, and optionally the Procedure 1
    /// baseline.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for an invalid request or an
    /// engine built without a dataset, and propagates pipeline errors.
    pub fn run(&mut self, request: &AnalysisRequest) -> Result<AnalysisResponse> {
        self.run_observed(request, &NoProgress)
    }

    /// Like [`AnalysisEngine::run`], reporting stage and replicate progress to
    /// `observer`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`AnalysisEngine::run`].
    pub fn run_observed(
        &mut self,
        request: &AnalysisRequest,
        observer: &dyn ProgressObserver,
    ) -> Result<AnalysisResponse> {
        request.validate()?;
        if self.dataset.is_none() {
            return Err(CoreError::InvalidParameter {
                name: "dataset",
                reason: "this engine was built without a dataset (from_model); \
                         only threshold queries are available"
                    .into(),
            });
        }

        let mut runs = Vec::with_capacity(request.ks.len());
        for &k in &request.ks {
            let (estimate, status) = self.threshold_for(k, request, observer)?;
            let lambda = match request.lambda_mode {
                LambdaMode::Faithful => estimate.lambda_estimator(),
                LambdaMode::Conservative => estimate.conservative_lambda_estimator(),
            };

            observer.stage_started(k, AnalysisStage::Procedure2);
            let profile_key = (k, estimate.s_min);
            let cached = match self.profiles.get(&profile_key) {
                Some(cached) => cached,
                None => {
                    let dataset = self.dataset.as_ref().expect("checked above");
                    let profile = Procedure2::mine_profile(
                        request.miner,
                        dataset,
                        self.bitmap.as_ref(),
                        self.sharded.as_deref(),
                        None,
                        k,
                        estimate.s_min,
                        self.policy,
                    )?;
                    let cached = Arc::new(CachedProfile {
                        frequencies: ItemFrequencies::for_profile(dataset, &profile),
                        profile,
                    });
                    self.profiles.insert(profile_key, Arc::clone(&cached));
                    cached
                }
            };
            let dataset = self.dataset.as_ref().expect("checked above");
            let stats = self.stats.as_ref().expect("rebuild_views computes stats");
            let procedure2 = Procedure2 {
                k,
                alpha: request.alpha,
                beta: request.beta,
            }
            .run_prepared(
                stats.max_item_support,
                &cached.profile,
                estimate.s_min,
                &lambda,
            )?;
            observer.stage_completed(k, AnalysisStage::Procedure2);

            let procedure1 = if request.baseline {
                observer.stage_started(k, AnalysisStage::Procedure1);
                let result = Procedure1 {
                    k,
                    beta: request.beta,
                    ..Procedure1::new(k)
                }
                .run_prepared(
                    dataset,
                    &cached.frequencies,
                    &cached.profile,
                    estimate.s_min,
                )?;
                observer.stage_completed(k, AnalysisStage::Procedure1);
                Some(result)
            } else {
                None
            };

            runs.push(KAnalysis {
                k,
                threshold_cache: status,
                report: AnalysisReport {
                    parameters: AnalysisParameters {
                        k,
                        alpha: request.alpha,
                        beta: request.beta,
                        epsilon: request.epsilon,
                        replicates: request.replicates,
                        seed: request.seed,
                        miner: request.miner,
                        backend: self.backend,
                    },
                    dataset: stats.summary.clone(),
                    threshold: estimate,
                    procedure2,
                    procedure1,
                },
            });
        }
        Ok(AnalysisResponse { runs })
    }

    /// Threshold-only queries: run (or recall) Algorithm 1 per requested `k`
    /// without touching Procedures 1/2, so this works on engines built with
    /// [`AnalysisEngine::from_model`] too.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for an invalid request and
    /// propagates Algorithm 1 errors.
    pub fn thresholds(&mut self, request: &AnalysisRequest) -> Result<Vec<ThresholdRun>> {
        self.thresholds_observed(request, &NoProgress)
    }

    /// Like [`AnalysisEngine::thresholds`], reporting progress to `observer`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`AnalysisEngine::thresholds`].
    pub fn thresholds_observed(
        &mut self,
        request: &AnalysisRequest,
        observer: &dyn ProgressObserver,
    ) -> Result<Vec<ThresholdRun>> {
        request.validate()?;
        request
            .ks
            .iter()
            .map(|&k| {
                self.threshold_for(k, request, observer)
                    .map(|(estimate, status)| ThresholdRun {
                        k,
                        threshold_cache: status,
                        estimate,
                    })
            })
            .collect()
    }

    /// Serve one `(k, request)` threshold: from the cache when the full run
    /// identity is warm, by running Algorithm 1 otherwise. A fresh RNG is
    /// derived from the request seed per run, which is what makes the cached
    /// value bit-identical to a recomputation and the cache sound.
    fn threshold_for(
        &mut self,
        k: usize,
        request: &AnalysisRequest,
        observer: &dyn ProgressObserver,
    ) -> Result<(ThresholdEstimate, CacheStatus)> {
        let key = ThresholdKey {
            fingerprint: self.fingerprint,
            k,
            epsilon_bits: request.epsilon.to_bits(),
            replicates: request.replicates,
            seed: request.seed,
            backend: replicate_path_backend(self.backend, &self.model),
            max_restarts: request.max_restarts,
            // `SamplerMode::Auto` below resolves to the cellwise sampler.
            sampler: ResolvedSampler::Cellwise,
        };
        if let Some(estimate) = self.store.get(&key) {
            observer.threshold_cache_hit(k);
            return Ok((estimate, CacheStatus::Hit));
        }

        observer.stage_started(k, AnalysisStage::Threshold);
        let algorithm = FindPoissonThreshold {
            k,
            epsilon: request.epsilon,
            replicates: request.replicates,
            policy: self.policy,
            backend: self.backend,
            max_restarts: request.max_restarts,
            sampler: SamplerMode::Auto,
        };
        let mut rng = StdRng::seed_from_u64(request.seed);
        let progress = ReplicateProgress { observer, k };
        let estimate =
            algorithm.run_with_store(&self.model, &mut rng, &progress, &self.observations)?;
        observer.stage_completed(k, AnalysisStage::Threshold);
        self.store.insert(key, estimate.clone());
        Ok((estimate, CacheStatus::Miss))
    }

    /// Rebuild the owned dataset views after a dataset/backend change: the
    /// bitmap (or sharded bitmap) is built once here and shared by every
    /// subsequent Procedure 2 pass (and k-sweep), instead of once per call,
    /// and so are the dataset statistics every request reads.
    fn rebuild_views(&mut self) {
        self.bitmap = None;
        self.sharded = None;
        self.stats = self.dataset.as_ref().map(|dataset| DatasetStats {
            summary: DatasetSummary::from_dataset(dataset),
            max_item_support: dataset.max_item_support(),
        });
        if let Some(dataset) = &self.dataset {
            match self.backend.resolve_for_dataset(dataset) {
                ResolvedBackend::Csr => {}
                ResolvedBackend::Bitmap => self.bitmap = Some(BitmapDataset::from_dataset(dataset)),
                ResolvedBackend::ShardedBitmap => {
                    // A spill failure (e.g. an unwritable spill directory)
                    // falls back to resident shards — results are identical
                    // either way, only the footprint differs.
                    let store = match &self.residency {
                        Some(residency) => ShardedBitmapDataset::spill_dataset(dataset, residency)
                            .unwrap_or_else(|error| {
                                eprintln!(
                                    "sigfim: shard spill failed ({error}); \
                                     keeping the sharded store resident"
                                );
                                ShardedBitmapDataset::from_dataset(dataset)
                            }),
                        None => ShardedBitmapDataset::from_dataset(dataset),
                    };
                    self.sharded = Some(Arc::new(store));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigfim_datasets::random::{PlantedConfig, PlantedModel, PlantedPattern};

    fn planted_dataset(seed: u64) -> TransactionDataset {
        let background = BernoulliModel::new(400, vec![0.05; 20]).unwrap();
        let model = PlantedModel::new(PlantedConfig {
            background,
            patterns: vec![PlantedPattern::new(vec![2, 9], 80).unwrap()],
        })
        .unwrap();
        model.sample(&mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn request_builders_and_validation() {
        let request = AnalysisRequest::for_k_range(2..=5)
            .with_alpha(0.01)
            .with_beta(0.1)
            .with_epsilon(0.02)
            .with_replicates(128)
            .with_seed(9)
            .with_miner(MinerKind::Eclat)
            .with_lambda_mode(LambdaMode::Conservative)
            .with_baseline(false)
            .with_max_restarts(2);
        assert_eq!(request.ks, vec![2, 3, 4, 5]);
        assert!(request.validate().is_ok());
        assert_eq!(AnalysisRequest::for_k(3).ks, vec![3]);
        assert_eq!(AnalysisRequest::for_ks([4, 2]).ks, vec![4, 2]);
        assert_eq!(AnalysisRequest::for_k(2).seed, DEFAULT_SEED);

        assert!(AnalysisRequest::for_ks([]).validate().is_err());
        assert!(AnalysisRequest::for_k(0).validate().is_err());
        assert!(AnalysisRequest::for_k(2)
            .with_replicates(0)
            .validate()
            .is_err());
        let zero_restarts = AnalysisRequest::for_k(2).with_max_restarts(0);
        let error = zero_restarts.validate().unwrap_err();
        assert!(error.to_string().contains("max_restarts"));
    }

    #[test]
    fn request_round_trips_through_json() {
        let request = AnalysisRequest::for_k_range(2..=4)
            .with_seed(7)
            .with_lambda_mode(LambdaMode::Conservative);
        let json = serde_json::to_string(&request).unwrap();
        let parsed: AnalysisRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, request);
    }

    #[test]
    fn empty_dataset_and_missing_dataset_are_rejected() {
        assert!(AnalysisEngine::from_dataset(TransactionDataset::empty(4)).is_err());
        let model = BernoulliModel::new(50, vec![0.2; 6]).unwrap();
        let mut engine = AnalysisEngine::from_model(model);
        let request = AnalysisRequest::for_k(2).with_replicates(4);
        // Threshold-only queries work without a dataset ...
        assert!(engine.thresholds(&request).is_ok());
        // ... full runs do not.
        let error = engine.run(&request).unwrap_err();
        assert!(error.to_string().contains("dataset"));
    }

    #[test]
    fn repeated_requests_hit_the_threshold_cache() {
        let mut engine = AnalysisEngine::from_dataset(planted_dataset(3)).unwrap();
        let request = AnalysisRequest::for_k(2).with_replicates(12).with_seed(5);
        let first = engine.run(&request).unwrap();
        assert_eq!(first.cache_hits(), 0);
        assert_eq!(first.runs[0].threshold_cache, CacheStatus::Miss);
        let second = engine.run(&request).unwrap();
        assert_eq!(second.cache_hits(), 1);
        assert_eq!(second.runs[0].report, first.runs[0].report);
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));

        // A different seed is a different key.
        let other = engine.run(&request.clone().with_seed(6)).unwrap();
        assert_eq!(other.cache_hits(), 0);
        assert_eq!(engine.cache_stats().entries, 2);

        // Clearing the caches forgets everything.
        engine.clear_caches();
        assert_eq!(engine.cache_stats(), CacheStats::default());
        assert!(ThresholdCache::default().is_empty());
    }

    #[test]
    fn persistence_sink_receives_inserts_and_preload_restores_warm() {
        #[derive(Default)]
        struct Captured(Mutex<Vec<ThresholdRecord>>);
        impl ThresholdSink for Captured {
            fn persist(&self, record: &ThresholdRecord) {
                self.0.lock().unwrap().push(record.clone());
            }
        }

        let sink = Arc::new(Captured::default());
        let store = ThresholdStore::new();
        store.set_persistence(sink.clone());

        let mut engine = AnalysisEngine::from_dataset(planted_dataset(4))
            .unwrap()
            .with_threshold_store(store.clone());
        let request = AnalysisRequest::for_k(2).with_replicates(8).with_seed(11);
        let first = engine.run(&request).unwrap();
        assert_eq!(first.cache_hits(), 0);

        let persisted = sink.0.lock().unwrap().clone();
        assert_eq!(persisted.len(), 1);
        assert_eq!((persisted[0].k, persisted[0].seed), (2, 11));

        // Records survive the JSON round-trip the embedded store performs.
        let json = serde_json::to_string(&persisted[0]).unwrap();
        let back: ThresholdRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, persisted[0]);
        assert_eq!(back.epsilon(), request.epsilon);

        // A cold process preloads the records and serves the query warm —
        // zero fresh Algorithm 1 runs.
        let cold = ThresholdStore::new();
        assert_eq!(cold.preload(persisted.clone()), 1);
        let mut warm_engine = AnalysisEngine::from_dataset(planted_dataset(4))
            .unwrap()
            .with_threshold_store(cold.clone());
        let warm = warm_engine.run(&request).unwrap();
        assert_eq!(warm.cache_hits(), 1);
        assert_eq!(warm.runs[0].report, first.runs[0].report);

        // Export is deterministic and carries the same identity.
        let exported = store.export();
        assert_eq!(exported.len(), 1);
        assert_eq!(exported[0].storage_key(), persisted[0].storage_key());

        // Neither the preload nor the warm hit re-invoked the sink.
        assert_eq!(sink.0.lock().unwrap().len(), 1);

        // A hit on the preloaded entry counts as a hit in the stats, and
        // the warm store's Debug form mentions it is not persistent.
        assert_eq!(cold.stats().hits, 1);
        assert!(format!("{cold:?}").contains("persistent: false"));
    }

    #[test]
    fn alpha_beta_changes_reuse_threshold_and_profile() {
        // Same (fingerprint, k, eps, delta, seed, backend): only the budgets
        // change, so the second run is a pure lookup + re-test.
        let mut engine = AnalysisEngine::from_dataset(planted_dataset(8)).unwrap();
        let base = AnalysisRequest::for_k(2).with_replicates(12);
        let strict = base.clone().with_alpha(0.01).with_beta(0.01);
        let loose = engine.run(&base).unwrap();
        let response = engine.run(&strict).unwrap();
        assert_eq!(response.cache_hits(), 1);
        assert_eq!(
            response.runs[0].report.threshold,
            loose.runs[0].report.threshold
        );
        // The engine holds one profile (shared) and one threshold entry.
        let profile_stats = engine.profile_cache_stats();
        assert_eq!(profile_stats.entries, 1);
        assert_eq!(profile_stats.misses, 1, "first run mined the profile");
        assert_eq!(profile_stats.hits, 1, "second run reused it");
        assert_eq!(engine.cache_stats().entries, 1);
    }

    #[test]
    fn sharded_and_bitmap_backends_share_threshold_entries() {
        // Sharded drives the identical scratch-bitmap replicate loop Bitmap
        // does, so the threshold key normalizes the two: a tenant configured
        // `sharded` must be served by a `bitmap` tenant's warm entry (and the
        // cached estimate equals its own recomputation, per backend parity).
        let dataset = planted_dataset(9);
        let store = ThresholdStore::new();
        let mut bitmap_engine = AnalysisEngine::from_dataset(dataset.clone())
            .unwrap()
            .with_backend(DatasetBackend::Bitmap)
            .with_threshold_store(store.clone());
        let mut sharded_engine = AnalysisEngine::from_dataset(dataset)
            .unwrap()
            .with_backend(DatasetBackend::Sharded)
            .with_threshold_store(store.clone());
        let request = AnalysisRequest::for_k(2).with_replicates(10);
        let cold = bitmap_engine.run(&request).unwrap();
        assert_eq!(cold.runs[0].threshold_cache, CacheStatus::Miss);
        let warm = sharded_engine.run(&request).unwrap();
        assert_eq!(
            warm.runs[0].threshold_cache,
            CacheStatus::Hit,
            "sharded must reuse the bitmap tenant's replicate-path entry"
        );
        assert_eq!(warm.runs[0].report.threshold, cold.runs[0].report.threshold);
        assert_eq!(store.stats().entries, 1);
        // Auto resolves to the bitmap replicate loop for this dense model, so
        // it shares the same entry too.
        let mut auto_engine = AnalysisEngine::from_dataset(planted_dataset(9))
            .unwrap()
            .with_threshold_store(store.clone());
        let auto = auto_engine.run(&request).unwrap();
        assert_eq!(auto.runs[0].threshold_cache, CacheStatus::Hit);
        assert_eq!(store.stats().entries, 1);
        // CSR genuinely differs in replicate path, so it stays a distinct key.
        let mut csr_engine = AnalysisEngine::from_dataset(planted_dataset(9))
            .unwrap()
            .with_backend(DatasetBackend::Csr)
            .with_threshold_store(store.clone());
        let csr = csr_engine.run(&request).unwrap();
        assert_eq!(csr.runs[0].threshold_cache, CacheStatus::Miss);
        assert_eq!(csr.runs[0].report.threshold, cold.runs[0].report.threshold);
    }

    #[test]
    fn profile_cache_is_lru_bounded_with_eviction_counters() {
        // The discriminating key axis here is `k`: the k = 2 and k = 3
        // profiles occupy different slots, so a capacity-1 cache must evict.
        let mut engine = AnalysisEngine::from_dataset(planted_dataset(5))
            .unwrap()
            .with_profile_cache_capacity(1);
        assert_eq!(engine.profile_cache_stats().capacity, Some(1));
        let base = AnalysisRequest::for_k(2).with_replicates(10);
        let pairs = engine.run(&base).unwrap();
        engine
            .run(&AnalysisRequest::for_k(3).with_replicates(10))
            .unwrap();
        let stats = engine.profile_cache_stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.evictions, 1, "capacity 1 evicts the k = 2 profile");
        // Re-running the evicted key re-mines — and produces the identical
        // report (the profile is derived state, never answers-changing).
        let again = engine.run(&base).unwrap();
        assert_eq!(again.runs[0].report, pairs.runs[0].report);
        let stats = engine.profile_cache_stats();
        assert_eq!(stats.misses, 3, "three distinct mining passes");
        assert_eq!(stats.evictions, 2);
        // The default bound is in force for fresh engines.
        let fresh = AnalysisEngine::from_dataset(planted_dataset(5)).unwrap();
        assert_eq!(
            fresh.profile_cache_stats().capacity,
            Some(DEFAULT_PROFILE_CACHE_CAPACITY)
        );
    }

    #[test]
    fn lru_cache_respects_capacity_and_counts_evictions() {
        let mut engine = AnalysisEngine::from_dataset(planted_dataset(3))
            .unwrap()
            .with_cache_capacity(2);
        let request = AnalysisRequest::for_k(2).with_replicates(8);

        // Three distinct keys through a capacity-2 cache: one eviction.
        let first = engine.run(&request.clone().with_seed(1)).unwrap();
        engine.run(&request.clone().with_seed(2)).unwrap();
        engine.run(&request.clone().with_seed(3)).unwrap();
        let stats = engine.cache_stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.capacity, Some(2));

        // Seed 1 was evicted (least recently used): re-running recomputes, and
        // the recomputation is bit-identical to the original run.
        let again = engine.run(&request.clone().with_seed(1)).unwrap();
        assert_eq!(again.runs[0].threshold_cache, CacheStatus::Miss);
        assert_eq!(again.runs[0].report, first.runs[0].report);

        // Recency is honoured: touch seed 3, insert seed 4 — seed 3 survives.
        engine.run(&request.clone().with_seed(3)).unwrap();
        engine.run(&request.clone().with_seed(4)).unwrap();
        let warm = engine.run(&request.clone().with_seed(3)).unwrap();
        assert_eq!(warm.runs[0].threshold_cache, CacheStatus::Hit);

        // Shrinking the bound evicts immediately; capacity 0 disables caching.
        let store = engine.threshold_store();
        store.set_capacity(Some(1));
        assert_eq!(store.len(), 1);
        store.set_capacity(Some(0));
        let cold = engine.run(&request.clone().with_seed(5)).unwrap();
        assert_eq!(cold.runs[0].threshold_cache, CacheStatus::Miss);
        assert!(store.is_empty());
    }

    #[test]
    fn shared_store_serves_thresholds_across_engines() {
        // Two tenants over byte-identical datasets: same Bernoulli fingerprint,
        // so with a shared store the second tenant's first query is a Hit.
        let dataset = planted_dataset(12);
        let store = ThresholdStore::new();
        let mut tenant_a = AnalysisEngine::from_dataset(dataset.clone())
            .unwrap()
            .with_threshold_store(store.clone());
        let mut tenant_b = AnalysisEngine::from_dataset(dataset)
            .unwrap()
            .with_threshold_store(store.clone());
        assert!(tenant_a.threshold_store().shares_with(&store));

        let request = AnalysisRequest::for_k(2).with_replicates(10);
        let cold = tenant_a.run(&request).unwrap();
        assert_eq!(cold.runs[0].threshold_cache, CacheStatus::Miss);
        let warm = tenant_b.run(&request).unwrap();
        assert_eq!(warm.runs[0].threshold_cache, CacheStatus::Hit);
        assert_eq!(warm.runs[0].report.threshold, cold.runs[0].report.threshold);
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));

        // A tenant over a *different* null model never aliases those entries:
        // the fingerprint heads the key.
        let mut other = AnalysisEngine::from_dataset(planted_dataset(13))
            .unwrap()
            .with_threshold_store(store.clone());
        let third = other.run(&request).unwrap();
        assert_eq!(third.runs[0].threshold_cache, CacheStatus::Miss);
        assert_eq!(store.stats().entries, 2);

        // Engine clones share the store (documented behaviour).
        let clone = tenant_a.clone();
        assert!(clone.threshold_store().shares_with(&store));
    }

    #[test]
    fn dyn_engines_match_generic_engines_bit_for_bit() {
        let dataset = planted_dataset(7);
        let request = AnalysisRequest::for_k_range(2..=3).with_replicates(10);

        let mut generic = AnalysisEngine::from_dataset(dataset.clone()).unwrap();
        let expected = generic.run(&request).unwrap();

        // An erased fresh engine produces the same fingerprint, responses and
        // cache behaviour.
        let mut erased = AnalysisEngine::from_dataset(dataset.clone())
            .unwrap()
            .into_dyn();
        assert_eq!(erased.fingerprint(), generic.fingerprint());
        let response = erased.run(&request).unwrap();
        assert_eq!(response, expected);

        // Engines over different model types unify under DynAnalysisEngine —
        // the property that makes them registry-storable.
        let swap = AnalysisEngine::with_swap_null(dataset.clone(), 2.0)
            .unwrap()
            .into_dyn();
        let mut shelf: Vec<DynAnalysisEngine> = vec![erased, swap];
        assert_ne!(shelf[0].fingerprint(), shelf[1].fingerprint());
        for engine in &mut shelf {
            assert!(engine.run(&request).is_ok());
        }

        // into_dyn keeps the warm caches: the converted engine serves the
        // sweep from its store, with reports identical to the cold run's.
        let warmed = generic.into_dyn().run(&request).unwrap();
        assert_eq!(warmed.cache_hits(), 2);
        assert_eq!(warmed.into_reports(), expected.clone().into_reports());

        // A threshold-only dyn engine works too.
        let model = BernoulliModel::new(60, vec![0.15; 8]).unwrap();
        let mut thresholds_only = AnalysisEngine::from_model(model).into_dyn();
        let runs = thresholds_only
            .thresholds(&AnalysisRequest::for_k(2).with_replicates(4))
            .unwrap();
        assert_eq!(runs.len(), 1);
    }

    #[test]
    fn observer_sees_stages_replicates_and_cache_hits() {
        use std::sync::Mutex;

        #[derive(Default)]
        struct Recorder {
            stages: Mutex<Vec<(usize, AnalysisStage, bool)>>,
            replicates: Mutex<Vec<(usize, usize, usize)>>,
            hits: Mutex<Vec<usize>>,
        }
        impl ProgressObserver for Recorder {
            fn stage_started(&self, k: usize, stage: AnalysisStage) {
                self.stages.lock().unwrap().push((k, stage, false));
            }
            fn replicate_completed(&self, k: usize, completed: usize, total: usize) {
                self.replicates.lock().unwrap().push((k, completed, total));
            }
            fn threshold_cache_hit(&self, k: usize) {
                self.hits.lock().unwrap().push(k);
            }
            fn stage_completed(&self, k: usize, stage: AnalysisStage) {
                self.stages.lock().unwrap().push((k, stage, true));
            }
        }

        let mut engine = AnalysisEngine::from_dataset(planted_dataset(1)).unwrap();
        let request = AnalysisRequest::for_k(2).with_replicates(8);
        let recorder = Recorder::default();
        engine.run_observed(&request, &recorder).unwrap();
        let stages = recorder.stages.into_inner().unwrap();
        // Threshold, Procedure2 and Procedure1 all start and complete, in order.
        assert_eq!(
            stages,
            vec![
                (2, AnalysisStage::Threshold, false),
                (2, AnalysisStage::Threshold, true),
                (2, AnalysisStage::Procedure2, false),
                (2, AnalysisStage::Procedure2, true),
                (2, AnalysisStage::Procedure1, false),
                (2, AnalysisStage::Procedure1, true),
            ]
        );
        let replicates = recorder.replicates.into_inner().unwrap();
        // One full round of 8 replicates (possibly more after restarts), each
        // reported against the right k and total.
        assert!(replicates.len() >= 8);
        assert!(replicates.iter().all(|&(k, _, total)| k == 2 && total == 8));
        assert!(replicates.iter().any(|&(_, completed, _)| completed == 8));
        assert!(recorder.hits.into_inner().unwrap().is_empty());

        // A warm rerun reports the cache hit and no replicates.
        let recorder = Recorder::default();
        engine.run_observed(&request, &recorder).unwrap();
        assert_eq!(recorder.hits.into_inner().unwrap(), vec![2]);
        assert!(recorder.replicates.into_inner().unwrap().is_empty());
    }

    /// Two planted pairs over a 500 × 30 background: the fixture of the
    /// recovery, determinism and null-model tests below.
    fn two_pair_model() -> PlantedModel {
        let background = BernoulliModel::new(500, vec![0.04; 30]).unwrap();
        PlantedModel::new(PlantedConfig {
            background,
            patterns: vec![
                PlantedPattern::new(vec![1, 2], 90).unwrap(),
                PlantedPattern::new(vec![10, 20], 70).unwrap(),
            ],
        })
        .unwrap()
    }

    /// The one report of a single-`k` request on `engine`.
    fn report_of<M: NullModel + Sync>(
        mut engine: AnalysisEngine<M>,
        request: &AnalysisRequest,
    ) -> AnalysisReport {
        engine.run(request).unwrap().into_reports().remove(0)
    }

    fn significant_items(report: &AnalysisReport) -> Vec<Vec<u32>> {
        report
            .procedure2
            .significant
            .iter()
            .map(|itemset| itemset.items.clone())
            .collect()
    }

    #[test]
    fn zero_max_restarts_is_rejected() {
        // A run validates its request before any work.
        let dataset = two_pair_model().sample(&mut StdRng::seed_from_u64(4));
        let mut engine = AnalysisEngine::from_dataset(dataset).unwrap();
        let request = AnalysisRequest::for_k(2)
            .with_replicates(8)
            .with_max_restarts(0);
        let error = engine.run(&request).unwrap_err();
        assert!(error.to_string().contains("max_restarts"), "{error}");
    }

    #[test]
    fn empty_dataset_is_rejected() {
        let empty = TransactionDataset::empty(5);
        assert!(AnalysisEngine::from_dataset(empty.clone()).is_err());
        let model = BernoulliModel::new(50, vec![0.2; 5]).unwrap();
        assert!(AnalysisEngine::with_model(empty, model).is_err());
    }

    #[test]
    fn planted_pairs_are_recovered_and_noise_is_not() {
        let model = two_pair_model();
        let mut rng = StdRng::seed_from_u64(21);
        let dataset = model.sample(&mut rng);
        let request = AnalysisRequest::for_k(2).with_replicates(48).with_seed(5);
        let report = report_of(AnalysisEngine::from_dataset(dataset).unwrap(), &request);

        let s_star = report
            .procedure2
            .s_star
            .expect("planted structure must be detected");
        assert!(s_star >= report.threshold.s_min);
        let discovered = significant_items(&report);
        assert!(discovered.contains(&vec![1, 2]));
        assert!(discovered.contains(&vec![10, 20]));
        // Procedure 1 ran too and also finds the planted pairs.
        let p1 = report.procedure1.as_ref().unwrap();
        assert!(p1.significant().iter().any(|i| i.items == vec![1, 2]));

        // A pure-noise dataset from the same background yields no detection.
        let noise = model.background().sample(&mut rng);
        let noise_report = report_of(AnalysisEngine::from_dataset(noise).unwrap(), &request);
        assert!(noise_report.procedure2.s_star.is_none());
        assert!(noise_report.procedure2.significant.is_empty());
    }

    #[test]
    fn analysis_is_deterministic_for_a_fixed_seed() {
        // Two independent engines, same dataset and seed: identical reports.
        let dataset = two_pair_model().sample(&mut StdRng::seed_from_u64(77));
        let request = AnalysisRequest::for_k(2).with_replicates(24).with_seed(9);
        let a = report_of(
            AnalysisEngine::from_dataset(dataset.clone()).unwrap(),
            &request,
        );
        let b = report_of(AnalysisEngine::from_dataset(dataset).unwrap(), &request);
        assert_eq!(a, b);
    }

    #[test]
    fn swap_null_recovers_planted_pairs_and_preserves_margins() {
        // The swap null keeps the (inflated) item supports of the planted dataset,
        // so the planted pairs still stand out: their co-occurrence is far beyond
        // what margin-preserving shuffles produce.
        let dataset = two_pair_model().sample(&mut StdRng::seed_from_u64(61));
        let request = AnalysisRequest::for_k(2)
            .with_replicates(32)
            .with_seed(6)
            .with_baseline(false);
        let engine = AnalysisEngine::with_swap_null(dataset.clone(), 3.0).unwrap();
        // Every null dataset keeps the item supports and transaction lengths.
        let null = engine.model().sample_dataset(&mut StdRng::seed_from_u64(1));
        assert_eq!(null.item_supports(), dataset.item_supports());
        let lengths = |d: &TransactionDataset| d.iter().map(<[u32]>::len).collect::<Vec<_>>();
        assert_eq!(lengths(&null), lengths(&dataset));
        let report = report_of(engine, &request);
        assert!(report.procedure2.s_star.is_some());
        assert!(significant_items(&report).contains(&vec![1, 2]));
        // Degenerate inputs are rejected cleanly.
        assert!(AnalysisEngine::with_swap_null(TransactionDataset::empty(3), 3.0).is_err());
        assert!(AnalysisEngine::with_swap_null(dataset, 0.0).is_err());
    }

    #[test]
    fn conservative_lambda_suppresses_singleton_detections_with_few_replicates() {
        // One lone planted pair, very few replicates: the paper-faithful estimator
        // (lambda = 0 beyond the Monte-Carlo range) certifies it from a single
        // observation, while the conservative clamp requires more evidence.
        let background = BernoulliModel::new(500, vec![0.04; 30]).unwrap();
        let model = PlantedModel::new(PlantedConfig {
            background,
            patterns: vec![PlantedPattern::new(vec![4, 8], 90).unwrap()],
        })
        .unwrap();
        let dataset = model.sample(&mut StdRng::seed_from_u64(51));
        let mut engine = AnalysisEngine::from_dataset(dataset).unwrap();
        let faithful = AnalysisRequest::for_k(2)
            .with_replicates(16)
            .with_seed(2)
            .with_baseline(false);
        let conservative = faithful.clone().with_lambda_mode(LambdaMode::Conservative);
        let faithful = engine.run(&faithful).unwrap().into_reports().remove(0);
        let conservative = engine.run(&conservative).unwrap().into_reports().remove(0);
        assert!(faithful.procedure2.s_star.is_some());
        // The conservative variant never returns *more* than the faithful one.
        assert!(conservative.procedure2.num_significant() <= faithful.procedure2.num_significant());
    }

    #[test]
    fn custom_null_model_is_honoured() {
        // Analyze a dataset against a *wrong* null model with much higher
        // frequencies: everything looks ordinary, so nothing is significant.
        let dataset = two_pair_model().sample(&mut StdRng::seed_from_u64(13));
        let inflated = BernoulliModel::new(dataset.num_transactions(), vec![0.5; 30]).unwrap();
        let request = AnalysisRequest::for_k(2)
            .with_replicates(16)
            .with_seed(3)
            .with_baseline(false);
        let report = report_of(
            AnalysisEngine::with_model(dataset, &inflated).unwrap(),
            &request,
        );
        assert!(report.procedure2.s_star.is_none());
        assert!(report.procedure1.is_none());
    }
}
