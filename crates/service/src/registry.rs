//! The [`EngineRegistry`]: dataset ids → dyn-erased engines, plus the
//! process-wide shared [`ThresholdStore`].
//!
//! This is the service's tenancy layer. Each registered dataset gets a
//! long-lived [`DynAnalysisEngine`] behind its own lock (requests against
//! different datasets run concurrently; requests against the same dataset
//! serialize, which is what keeps the engine's internal caches coherent), and
//! every engine is attached to one shared threshold store keyed by
//! `(model fingerprint, k, ε, Δ, seed, backend, restarts)` — so two tenants
//! analyzing the same null model serve each other's Algorithm 1 results.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use sigfim_core::engine::{
    AnalysisEngine, AnalysisRequest, AnalysisResponse, DynAnalysisEngine, ProgressObserver,
    ThresholdRun, ThresholdStore,
};
use sigfim_core::CoreError;
use sigfim_datasets::spill::ShardResidency;
use sigfim_datasets::transaction::TransactionDataset;
use sigfim_datasets::DatasetBackend;

use crate::jobs::{JobTable, Work, DEFAULT_QUEUE_CAPACITY};
use crate::persist::ServiceDb;
use crate::protocol::{
    ApiError, ApiRequest, ApiRequestBody, ApiResponse, ApiResult, EngineInfo, JobInfo, JobState,
    KernelStats, ModelSpec, ResidencyStats, ServiceStats,
};

/// Snapshot the process-wide kernel dispatch and the static configuration
/// picks for `/v1/stats`. Forces kernel dispatch on first call; it is cached
/// for the process lifetime, so polling is free. Nothing is measured, so
/// `tuned` is `false` and `tuner_timings` empty, the values a v1 client
/// already knows from a server that skipped measurement.
fn kernel_stats() -> KernelStats {
    let decision = sigfim_datasets::tune::decision();
    KernelStats {
        mode: sigfim_datasets::kernels().name().to_string(),
        tuned: decision.tuned,
        tuner_kernel: decision.kernel.name().to_string(),
        shard_budget_bytes: sigfim_datasets::sharded::SHARD_L2_BUDGET_BYTES,
        tuner_timings: Vec::new(),
        tuner_sampler: decision.sampler.name().to_string(),
        tuner_miner: sigfim_mining::miner_decision().name().to_string(),
    }
}

/// Snapshot the out-of-core configuration — the platform's fault path and
/// the budget of the registry's [`EngineConfig`] — and the process-wide spill
/// counters for `/v1/stats`.
fn residency_stats(budget_bytes: u64) -> ResidencyStats {
    let counters = sigfim_datasets::spill_counters();
    ResidencyStats {
        mode: sigfim_datasets::SpillMode::default().name().to_string(),
        budget_bytes,
        spilled_datasets: counters.spilled_datasets,
        spilled_shards: counters.spilled_shards,
        evictions: counters.evictions,
        refaults: counters.refaults,
    }
}

/// Map a pipeline error onto the wire taxonomy: parameter rejections are the
/// client's fault (`invalid_request`), everything else is the engine's
/// (`engine_failure`).
fn map_core_error(error: CoreError) -> ApiError {
    match error {
        CoreError::InvalidParameter { .. } => ApiError::InvalidRequest {
            detail: error.to_string(),
        },
        other => ApiError::EngineFailure {
            detail: other.to_string(),
        },
    }
}

/// Recover a lock from poisoning: engines and the registry map hold memoized
/// state whose invariants hold between any two operations, so a panicked
/// holder cannot leave them in a state worth propagating to every tenant.
macro_rules! relock {
    ($guard:expr) => {
        $guard.unwrap_or_else(|poisoned| poisoned.into_inner())
    };
}

/// How a registry builds and configures every engine it makes from a
/// dataset: the tenants registered by [`EngineRegistry::register_dataset`]
/// (a front-end's command-line datasets), uploaded by
/// `PUT /v1/datasets/<id>` and restored by [`EngineRegistry::attach_db`]. A
/// front-end passes its `--swap-null`, `--backend`, `--threads` and
/// `--shard-residency` here once. The default is the engine's own default:
/// the Bernoulli null, the `Auto` backend, every core, resident shards.
#[derive(Debug, Default)]
pub struct EngineConfig {
    /// Swap attempts per incidence of the swap-randomization null; `None`
    /// selects the paper's Bernoulli null.
    pub swap_null: Option<f64>,
    /// The dataset backend of every engine.
    pub backend: DatasetBackend,
    /// Monte-Carlo worker threads: 0 = all cores, 1 = sequential.
    pub threads: usize,
    /// The shard residency of every engine (`None` keeps shards resident).
    pub residency: Option<ShardResidency>,
}

impl EngineConfig {
    /// Build the engine for `dataset`. The residency is attached before the
    /// backend, so a sharded store is built (and spilled) once.
    fn build(&self, dataset: TransactionDataset) -> Result<DynAnalysisEngine, CoreError> {
        let mut engine = match self.swap_null {
            Some(swaps) => AnalysisEngine::with_swap_null(dataset, swaps)?.into_dyn(),
            None => AnalysisEngine::from_dataset(dataset)?.into_dyn(),
        };
        if let Some(residency) = &self.residency {
            engine = engine.with_shard_residency(residency.clone());
        }
        if engine.backend() != self.backend {
            engine = engine.with_backend(self.backend);
        }
        Ok(engine.with_threads(self.threads))
    }

    /// The shard-residency budget `/v1/stats` reports (0 = none).
    fn residency_budget_bytes(&self) -> u64 {
        self.residency
            .as_ref()
            .map_or(0, |residency| residency.budget_bytes)
    }
}

/// One registered tenant: the engine behind its lock, plus the listing
/// snapshot captured at registration. Every `EngineInfo` field is immutable
/// after registration (the registry owns the engine; nothing reconfigures
/// it), so `engines()` serves the snapshot without touching live engine
/// locks — a monitoring call never waits behind a long Monte-Carlo run.
#[derive(Debug)]
struct Tenant {
    engine: Arc<Mutex<DynAnalysisEngine>>,
    info: EngineInfo,
    /// The profile-cache counters as last observed by [`EngineRegistry::stats`].
    /// Served when the engine lock is held by a running analysis, so the
    /// stats endpoint is non-blocking *and* its aggregates stay monotonic
    /// across polls (a busy tenant reports its previous counters instead of
    /// dropping out of the sum).
    last_profile_stats: Arc<Mutex<sigfim_core::engine::CacheStats>>,
}

/// Dataset ids → engines, with one shared threshold store across all of them.
///
/// ```
/// use sigfim_core::engine::AnalysisRequest;
/// use sigfim_service::registry::EngineRegistry;
/// use sigfim_datasets::transaction::TransactionDataset;
///
/// let dataset = TransactionDataset::from_transactions(
///     3,
///     vec![vec![0, 1], vec![0, 1, 2], vec![2], vec![0, 1]],
/// )
/// .unwrap();
/// let registry = EngineRegistry::new();
/// registry.register_dataset("toy", dataset).unwrap();
/// let response = registry
///     .analyze("toy", &AnalysisRequest::for_k(2).with_replicates(4))
///     .unwrap();
/// assert_eq!(response.runs.len(), 1);
/// ```
#[derive(Debug)]
pub struct EngineRegistry {
    engines: RwLock<HashMap<String, Tenant>>,
    store: ThresholdStore,
    analyze_requests: AtomicU64,
    threshold_requests: AtomicU64,
    /// The asynchronous job tier. `Arc` so worker threads can block on
    /// [`JobTable::claim`] without keeping the whole registry alive — a
    /// dropped registry shuts the table down (see [`Drop`]) and the workers
    /// exit instead of pinning it forever.
    jobs: Arc<JobTable>,
    /// The durability layer, once [`EngineRegistry::attach_db`] wires one
    /// up. `None` = fully in-memory service (the pre-store behaviour).
    persist: Mutex<Option<ServiceDb>>,
    /// How every engine built from a dataset is configured.
    engine_config: EngineConfig,
}

impl Default for EngineRegistry {
    fn default() -> Self {
        EngineRegistry::from_parts(ThresholdStore::default(), DEFAULT_QUEUE_CAPACITY)
    }
}

impl Drop for EngineRegistry {
    fn drop(&mut self) {
        // Wake blocked job workers so their threads exit with the registry.
        self.jobs.shutdown();
    }
}

/// What [`EngineRegistry::attach_db`] restored from a freshly opened store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoverySummary {
    /// Datasets re-registered from persisted FIMI payloads.
    pub datasets: usize,
    /// Threshold records preloaded into the shared store (warm cache).
    pub thresholds: usize,
    /// Jobs that were `Queued` at the crash and are waiting again.
    pub jobs_requeued: usize,
    /// Jobs that were `Running` at the crash, now deterministically
    /// `Failed`.
    pub jobs_interrupted: usize,
}

impl EngineRegistry {
    /// An empty registry with a fresh, unbounded shared store.
    pub fn new() -> Self {
        EngineRegistry::default()
    }

    /// An empty registry whose shared store is LRU-bounded at `capacity`
    /// threshold entries.
    pub fn with_cache_capacity(capacity: usize) -> Self {
        EngineRegistry::from_parts(
            ThresholdStore::with_capacity(capacity),
            DEFAULT_QUEUE_CAPACITY,
        )
    }

    /// An empty registry sharing an existing store (e.g. with engines that
    /// live outside the registry).
    pub fn with_store(store: ThresholdStore) -> Self {
        EngineRegistry::from_parts(store, DEFAULT_QUEUE_CAPACITY)
    }

    /// An empty registry whose job queue sheds load (HTTP 429) past
    /// `queue_capacity` pending jobs, with an optionally LRU-bounded store.
    pub fn with_capacities(cache_capacity: Option<usize>, queue_capacity: usize) -> Self {
        EngineRegistry::from_parts(
            match cache_capacity {
                Some(capacity) => ThresholdStore::with_capacity(capacity),
                None => ThresholdStore::default(),
            },
            queue_capacity,
        )
    }

    /// The one real constructor (`Drop` rules out struct-update syntax over
    /// `default()`).
    fn from_parts(store: ThresholdStore, queue_capacity: usize) -> Self {
        EngineRegistry {
            engines: RwLock::default(),
            store,
            analyze_requests: AtomicU64::new(0),
            threshold_requests: AtomicU64::new(0),
            jobs: Arc::new(JobTable::new(queue_capacity)),
            persist: Mutex::new(None),
            engine_config: EngineConfig::default(),
        }
    }

    /// Build every engine this registry makes from a dataset with `config`;
    /// `/v1/stats` reports its residency budget.
    pub fn with_engine_config(mut self, config: EngineConfig) -> Self {
        self.engine_config = config;
        self
    }

    /// A handle to the shared threshold store.
    pub fn store(&self) -> ThresholdStore {
        self.store.clone()
    }

    /// Register `dataset` under `id`, built by the registry's
    /// [`EngineConfig`]: by default with the paper's Bernoulli null derived
    /// from it.
    ///
    /// # Errors
    ///
    /// [`ApiError::InvalidRequest`] when the id is already taken or the
    /// dataset is rejected (empty).
    pub fn register_dataset(
        &self,
        id: impl Into<String>,
        dataset: TransactionDataset,
    ) -> Result<(), ApiError> {
        let engine = self.engine_config.build(dataset).map_err(map_core_error)?;
        self.register_engine(id, engine)
    }

    /// Register a pre-built engine (any null model, any backend/policy
    /// configuration) under `id`. The engine is re-pointed at the registry's
    /// shared threshold store; thresholds it already cached in a private
    /// store are left behind.
    ///
    /// # Errors
    ///
    /// [`ApiError::InvalidRequest`] when the id is already taken.
    pub fn register_engine(
        &self,
        id: impl Into<String>,
        mut engine: DynAnalysisEngine,
    ) -> Result<(), ApiError> {
        let id = id.into();
        engine.set_threshold_store(self.store.clone());
        use sigfim_datasets::random::NullModel;
        let info = EngineInfo {
            id: id.clone(),
            transactions: engine.model().num_transactions(),
            items: engine.model().num_items(),
            has_dataset: engine.dataset().is_some(),
            backend: engine.backend(),
            fingerprint: engine.fingerprint(),
        };
        let mut engines = relock!(self.engines.write());
        if engines.contains_key(&id) {
            return Err(ApiError::InvalidRequest {
                detail: format!("dataset id `{id}` is already registered"),
            });
        }
        engines.insert(
            id,
            Tenant {
                engine: Arc::new(Mutex::new(engine)),
                info,
                last_profile_stats: Arc::new(
                    Mutex::new(sigfim_core::engine::CacheStats::default()),
                ),
            },
        );
        Ok(())
    }

    /// Remove the engine registered under `id`, if any. Its thresholds stay
    /// in the shared store (they are keyed by model fingerprint, not by id).
    pub fn deregister(&self, id: &str) -> bool {
        relock!(self.engines.write()).remove(id).is_some()
    }

    fn engine(&self, id: &str) -> Result<Arc<Mutex<DynAnalysisEngine>>, ApiError> {
        relock!(self.engines.read())
            .get(id)
            .map(|tenant| Arc::clone(&tenant.engine))
            .ok_or_else(|| ApiError::UnknownDataset {
                dataset: id.to_string(),
            })
    }

    /// Run the full pipeline against the engine registered under `dataset`.
    /// Holds that engine's lock for the duration of the run; other datasets
    /// are not blocked.
    ///
    /// # Errors
    ///
    /// [`ApiError::UnknownDataset`] for an unregistered id,
    /// [`ApiError::InvalidRequest`] / [`ApiError::EngineFailure`] for
    /// pipeline rejections and failures.
    pub fn analyze(
        &self,
        dataset: &str,
        request: &AnalysisRequest,
    ) -> Result<AnalysisResponse, ApiError> {
        self.analyze_requests.fetch_add(1, Ordering::Relaxed);
        let engine = self.engine(dataset)?;
        let mut engine = relock!(engine.lock());
        let result = engine.run(request).map_err(map_core_error);
        drop(engine);
        // The run may have written thresholds through the sink; settle the
        // store's dead-byte debt on the worker pool, not a client write.
        if let Some(db) = relock!(self.persist.lock()).clone() {
            self.schedule_compaction_if_needed(&db);
        }
        result
    }

    /// [`EngineRegistry::analyze`] with a progress observer attached — the
    /// job workers' entry point, so `GET /v1/jobs/<id>` polls see live
    /// per-`k` progress.
    ///
    /// # Errors
    ///
    /// Same conditions as [`EngineRegistry::analyze`].
    pub fn analyze_observed(
        &self,
        dataset: &str,
        request: &AnalysisRequest,
        observer: &dyn ProgressObserver,
    ) -> Result<AnalysisResponse, ApiError> {
        self.analyze_requests.fetch_add(1, Ordering::Relaxed);
        let engine = self.engine(dataset)?;
        let mut engine = relock!(engine.lock());
        engine
            .run_observed(request, observer)
            .map_err(map_core_error)
    }

    /// Run Algorithm 1 alone against an inline null model (dataset-less, the
    /// shape of the paper's Table 2). The transient engine is attached to the
    /// shared store, so repeated threshold queries for the same model — from
    /// any tenant — hit the cache.
    ///
    /// # Errors
    ///
    /// [`ApiError::InvalidRequest`] for rejected model parameters or
    /// requests, [`ApiError::EngineFailure`] for Algorithm 1 failures.
    pub fn thresholds(
        &self,
        model: &ModelSpec,
        request: &AnalysisRequest,
    ) -> Result<Vec<ThresholdRun>, ApiError> {
        self.threshold_requests.fetch_add(1, Ordering::Relaxed);
        let model = model.build()?;
        let mut engine = AnalysisEngine::from_model(model).with_threshold_store(self.store.clone());
        engine.thresholds(request).map_err(map_core_error)
    }

    /// Register (or replace) a dataset from a FIMI-format payload and, when
    /// a store is attached, persist the payload so a restarted server
    /// re-registers it. The wire entry point of `PUT /v1/datasets/<id>`.
    ///
    /// Unlike [`EngineRegistry::register_dataset`], an existing id is
    /// *replaced* — PUT semantics — and its thresholds stay shared (they are
    /// keyed by model fingerprint, which changes only if the data did).
    ///
    /// # Errors
    ///
    /// [`ApiError::InvalidRequest`] for unparseable FIMI or an empty
    /// dataset, [`ApiError::EngineFailure`] when the payload cannot be
    /// persisted (the in-memory registration is rolled back — a PUT that
    /// returns success must survive a restart).
    pub fn put_dataset(&self, id: &str, fimi: &str) -> Result<EngineInfo, ApiError> {
        let labeled = sigfim_datasets::fimi::read_fimi_bytes(fimi).map_err(|error| {
            ApiError::InvalidRequest {
                detail: format!("FIMI payload rejected: {error}"),
            }
        })?;
        let replaced = self.deregister(id);
        self.register_dataset(id, labeled.dataset)?;
        let persist = relock!(self.persist.lock()).clone();
        if let Some(db) = persist {
            if let Err(error) = db.put_dataset(id, fimi) {
                // Roll back: a PUT acknowledged durable must be durable.
                self.deregister(id);
                return Err(ApiError::EngineFailure {
                    detail: format!("dataset `{id}` could not be persisted: {error}"),
                });
            }
            self.schedule_compaction_if_needed(&db);
        }
        let _ = replaced;
        Ok(self
            .engine_info(id)
            .expect("the dataset was registered just above"))
    }

    /// Unregister a dataset and drop its persisted payload. The wire entry
    /// point of `DELETE /v1/datasets/<id>`. Shared thresholds survive (other
    /// tenants over the same null model still use them).
    ///
    /// # Errors
    ///
    /// [`ApiError::UnknownDataset`] when no engine holds the id.
    pub fn delete_dataset(&self, id: &str) -> Result<(), ApiError> {
        if !self.deregister(id) {
            return Err(ApiError::UnknownDataset {
                dataset: id.to_string(),
            });
        }
        let persist = relock!(self.persist.lock()).clone();
        if let Some(db) = persist {
            if let Err(error) = db.delete_dataset(id) {
                eprintln!("sigfim-store: failed to drop dataset `{id}` payload: {error}");
            }
            self.schedule_compaction_if_needed(&db);
        }
        Ok(())
    }

    /// Accept an analysis as a background job: validate the dataset id,
    /// enqueue, persist the `Queued` record, and return it immediately —
    /// the submitting connection never waits on the Monte-Carlo run.
    ///
    /// # Errors
    ///
    /// [`ApiError::UnknownDataset`] for an unregistered id (failing fast at
    /// submission beats a job that only fails once claimed),
    /// [`ApiError::Overloaded`] when the queue is at capacity.
    pub fn submit_job(&self, dataset: &str, request: AnalysisRequest) -> Result<JobInfo, ApiError> {
        self.engine(dataset)?;
        let info = self.jobs.submit(dataset, request)?;
        self.persist_job(&info);
        Ok(info)
    }

    /// The current record of a job, with live progress when it is running.
    /// The wire entry point of `GET /v1/jobs/<id>`.
    ///
    /// # Errors
    ///
    /// [`ApiError::UnknownJob`] for an id this process never minted or
    /// recovered.
    pub fn job_status(&self, id: &str) -> Result<JobInfo, ApiError> {
        self.jobs.get(id).ok_or_else(|| ApiError::UnknownJob {
            job: id.to_string(),
        })
    }

    /// Start `workers` background threads draining the job queue (`0` is
    /// coerced to 1). Each claimed job runs through
    /// [`EngineRegistry::analyze_observed`] and is persisted on every
    /// lifecycle transition. The same pool absorbs store maintenance: the
    /// store opens with inline compaction disabled, the write-through paths
    /// request a compaction once dead bytes cross the threshold, and a
    /// worker runs it here ahead of queued jobs — so no client write or
    /// submission ever pays the log-rewrite latency. Threads hold the
    /// registry weakly: dropping the last external `Arc` shuts the queue
    /// down and the workers exit.
    pub fn start_job_workers(self: &Arc<Self>, workers: usize) -> usize {
        let workers = workers.max(1);
        for index in 0..workers {
            let weak = Arc::downgrade(self);
            let jobs = Arc::clone(&self.jobs);
            std::thread::Builder::new()
                .name(format!("sigfim-job-{index}"))
                .spawn(move || loop {
                    // Block on the queue holding only the table, never the
                    // registry — claim_work() returns None once the registry
                    // drops (its Drop shuts the table down).
                    let Some(work) = jobs.claim_work() else {
                        return;
                    };
                    let Some(registry) = weak.upgrade() else {
                        return;
                    };
                    match work {
                        Work::Compaction => {
                            let persist = relock!(registry.persist.lock()).clone();
                            if let Some(db) = persist {
                                if let Err(error) = db.compact() {
                                    eprintln!(
                                        "sigfim-store: background compaction failed: {error}"
                                    );
                                }
                            }
                        }
                        Work::Job(claimed, running) => {
                            registry.persist_job(&running);
                            let outcome = registry.analyze_observed(
                                &claimed.dataset,
                                &claimed.request,
                                claimed.observer.as_ref(),
                            );
                            if let Some(done) = registry.jobs.complete(&claimed.id, outcome) {
                                registry.persist_job(&done);
                            }
                        }
                    }
                })
                .expect("spawning a named worker thread cannot fail");
        }
        workers
    }

    /// Attach an opened store: preload the shared threshold cache from its
    /// records (a re-queried threshold is a [`CacheStatus::Hit`] with zero
    /// new replicates), re-register persisted datasets, recover the job
    /// table (`Queued` re-enqueued in id order, `Running` at the crash
    /// deterministically `Failed`), and write every future threshold,
    /// dataset and job transition through.
    ///
    /// Call once, before serving traffic and before registering
    /// CLI-provided datasets (ids already registered win over persisted
    /// payloads and are skipped).
    ///
    /// # Errors
    ///
    /// Propagates store reads/writes and fails on a persisted dataset whose
    /// FIMI payload no longer parses (store tampering — the writer only
    /// persists payloads it parsed).
    ///
    /// [`CacheStatus::Hit`]: sigfim_core::engine::CacheStatus
    pub fn attach_db(&self, db: ServiceDb) -> io::Result<RecoverySummary> {
        let mut summary = RecoverySummary {
            thresholds: self.store.preload(db.thresholds()?),
            ..RecoverySummary::default()
        };
        self.store.set_persistence(Arc::new(db.clone()));
        for (id, fimi) in db.datasets()? {
            let labeled = sigfim_datasets::fimi::read_fimi_bytes(&fimi).map_err(|error| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("persisted dataset `{id}` is not valid FIMI: {error}"),
                )
            })?;
            if self.register_dataset(&id, labeled.dataset).is_ok() {
                summary.datasets += 1;
            }
        }
        let records = db.jobs()?;
        summary.jobs_requeued = records
            .iter()
            .filter(|job| job.state == JobState::Queued)
            .count();
        let interrupted = self.jobs.recover(records);
        summary.jobs_interrupted = interrupted.len();
        for job in &interrupted {
            db.put_job(job)?;
        }
        *relock!(self.persist.lock()) = Some(db);
        Ok(summary)
    }

    /// The listing snapshot of one registered engine.
    fn engine_info(&self, id: &str) -> Option<EngineInfo> {
        relock!(self.engines.read())
            .get(id)
            .map(|tenant| tenant.info.clone())
    }

    /// Write a job record through to the store, when one is attached.
    /// Persistence failures are reported, not propagated: the in-memory
    /// table still serves polls; only restart durability is degraded.
    fn persist_job(&self, job: &JobInfo) {
        let persist = relock!(self.persist.lock()).clone();
        if let Some(db) = persist {
            if let Err(error) = db.put_job(job) {
                eprintln!("sigfim-store: failed to persist job {}: {error}", job.id);
            }
            self.schedule_compaction_if_needed(&db);
        }
    }

    /// Hand the store's dead-byte debt to the worker pool: once a
    /// write-through (job transition, dataset payload, threshold sink during
    /// an analysis) pushes the store past its compaction threshold, queue a
    /// [`Work::Compaction`] instead of compacting inline on the caller.
    /// Repeated triggers coalesce in the table until a worker drains one.
    fn schedule_compaction_if_needed(&self, db: &ServiceDb) {
        if db.needs_compaction() {
            self.jobs.request_compaction();
        }
    }

    /// The registered engines, sorted by id. Served from the registration
    /// snapshots — never blocks behind a running analysis.
    pub fn engines(&self) -> Vec<EngineInfo> {
        let engines = relock!(self.engines.read());
        let mut infos: Vec<EngineInfo> =
            engines.values().map(|tenant| tenant.info.clone()).collect();
        infos.sort_by(|a, b| a.id.cmp(&b.id));
        infos
    }

    /// Aggregate counters: engines, accepted operations, shared-store stats,
    /// and the per-engine profile caches summed across tenants. Monitoring
    /// must never queue behind analysis work, so the aggregation holds no
    /// lock while waiting: engine handles are cloned out of the registry map
    /// first (as the analyze path does), and an engine whose lock is held by
    /// a running analysis contributes its *last observed* counters instead
    /// of blocking — `/v1/stats` stays O(engines), non-blocking, and
    /// monotonic across polls (counters never regress; a busy tenant's
    /// numbers are merely one poll stale).
    pub fn stats(&self) -> ServiceStats {
        type StatsHandles = (
            Arc<Mutex<DynAnalysisEngine>>,
            Arc<Mutex<sigfim_core::engine::CacheStats>>,
        );
        let (num_engines, handles): (usize, Vec<StatsHandles>) = {
            let engines = relock!(self.engines.read());
            (
                engines.len(),
                engines
                    .values()
                    .map(|tenant| {
                        (
                            Arc::clone(&tenant.engine),
                            Arc::clone(&tenant.last_profile_stats),
                        )
                    })
                    .collect(),
            )
        };
        let mut profile_caches = sigfim_core::engine::CacheStats::default();
        let mut bounded = true;
        let mut capacity_sum = 0usize;
        for (engine, snapshot) in handles {
            let stats = match engine.try_lock() {
                Ok(engine) => {
                    let fresh = engine.profile_cache_stats();
                    *relock!(snapshot.lock()) = fresh;
                    fresh
                }
                Err(std::sync::TryLockError::Poisoned(poisoned)) => {
                    let fresh = poisoned.into_inner().profile_cache_stats();
                    *relock!(snapshot.lock()) = fresh;
                    fresh
                }
                // Mid-analysis: serve the previous observation rather than
                // block the monitoring call behind the replicate loop.
                Err(std::sync::TryLockError::WouldBlock) => *relock!(snapshot.lock()),
            };
            profile_caches.hits += stats.hits;
            profile_caches.misses += stats.misses;
            profile_caches.entries += stats.entries;
            profile_caches.evictions += stats.evictions;
            match stats.capacity {
                Some(capacity) => capacity_sum += capacity,
                None => bounded = false,
            }
        }
        profile_caches.capacity = bounded.then_some(capacity_sum);
        ServiceStats {
            engines: num_engines,
            analyze_requests: self.analyze_requests.load(Ordering::Relaxed),
            threshold_requests: self.threshold_requests.load(Ordering::Relaxed),
            threshold_store: self.store.stats(),
            profile_caches,
            kernels: kernel_stats(),
            miner_dispatch: sigfim_mining::dispatch_counts(),
            replicates: sigfim_core::replicate_stats(),
            jobs: self.jobs.stats(),
            store: relock!(self.persist.lock()).as_ref().map(ServiceDb::stats),
            residency: residency_stats(self.engine_config.residency_budget_bytes()),
        }
    }

    /// Dispatch one protocol envelope: version check, then the operation.
    /// This is the transport-independent entry point — the HTTP layer and
    /// in-process callers route through the same code, which is what makes
    /// loopback responses bit-identical to direct calls.
    pub fn handle(&self, request: &ApiRequest) -> ApiResponse {
        if let Err(error) = request.validate_version() {
            return ApiResponse::error(error);
        }
        let result = match &request.body {
            ApiRequestBody::Analyze {
                dataset,
                request,
                detach: false,
            } => self.analyze(dataset, request).map(ApiResult::Analysis),
            ApiRequestBody::Analyze {
                dataset,
                request,
                detach: true,
            } => self
                .submit_job(dataset, request.clone())
                .map(ApiResult::Job),
            ApiRequestBody::Thresholds { model, request } => {
                self.thresholds(model, request).map(ApiResult::Thresholds)
            }
            ApiRequestBody::JobStatus { id } => self.job_status(id).map(ApiResult::Job),
            ApiRequestBody::PutDataset { id, fimi } => {
                self.put_dataset(id, fimi).map(ApiResult::Dataset)
            }
            ApiRequestBody::DeleteDataset { id } => self
                .delete_dataset(id)
                .map(|()| ApiResult::DatasetDeleted(id.clone())),
        };
        match result {
            Ok(result) => ApiResponse::ok(result),
            Err(error) => ApiResponse::error(error),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sigfim_core::engine::CacheStatus;
    use sigfim_datasets::random::{BernoulliModel, NullModel};

    fn sample_dataset(seed: u64) -> TransactionDataset {
        BernoulliModel::new(200, vec![0.1; 12])
            .unwrap()
            .sample(&mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn registration_routing_and_duplicate_rejection() {
        let registry = EngineRegistry::new();
        registry.register_dataset("a", sample_dataset(1)).unwrap();
        registry.register_dataset("b", sample_dataset(2)).unwrap();
        let duplicate = registry.register_dataset("a", sample_dataset(3));
        assert_eq!(duplicate.unwrap_err().code(), "invalid_request");

        let infos = registry.engines();
        assert_eq!(
            infos.iter().map(|i| i.id.as_str()).collect::<Vec<_>>(),
            vec!["a", "b"]
        );
        assert!(infos.iter().all(|i| i.has_dataset && i.transactions == 200));

        let request = AnalysisRequest::for_k(2).with_replicates(4);
        assert!(registry.analyze("a", &request).is_ok());
        let missing = registry.analyze("nope", &request).unwrap_err();
        assert_eq!(missing.code(), "unknown_dataset");

        assert!(registry.deregister("b"));
        assert!(!registry.deregister("b"));
        assert_eq!(registry.engines().len(), 1);
    }

    #[test]
    fn cross_tenant_threshold_sharing_through_the_registry() {
        // Two ids over byte-identical datasets → same Bernoulli fingerprint:
        // the second tenant's first query is a shared-store hit.
        let registry = EngineRegistry::new();
        let dataset = sample_dataset(7);
        registry.register_dataset("first", dataset.clone()).unwrap();
        registry.register_dataset("second", dataset).unwrap();

        let request = AnalysisRequest::for_k(2).with_replicates(6);
        let cold = registry.analyze("first", &request).unwrap();
        assert_eq!(cold.runs[0].threshold_cache, CacheStatus::Miss);
        let warm = registry.analyze("second", &request).unwrap();
        assert_eq!(warm.runs[0].threshold_cache, CacheStatus::Hit);
        assert_eq!(warm.runs[0].report.threshold, cold.runs[0].report.threshold);

        let stats = registry.stats();
        assert_eq!(stats.engines, 2);
        assert_eq!(stats.analyze_requests, 2);
        assert_eq!(stats.threshold_store.hits, 1);
        assert_eq!(stats.threshold_store.misses, 1);

        // The kernel surface reports the static process-wide configuration:
        // nothing measured, `auto` dispatch on the widest supported kernel,
        // the L2 shard budget, and the static sampler and miner picks.
        assert!(["scalar", "avx2", "avx512"].contains(&stats.kernels.mode.as_str()));
        assert!(!stats.kernels.tuned);
        assert!(stats.kernels.tuner_timings.is_empty());
        assert_eq!(stats.kernels.tuner_kernel, stats.kernels.mode);
        assert_eq!(
            stats.kernels.shard_budget_bytes,
            sigfim_datasets::sharded::SHARD_L2_BUDGET_BYTES
        );
        assert_eq!(stats.kernels.tuner_sampler, "cellwise");
        assert_eq!(stats.kernels.tuner_miner, "eclat");
        // And the analyses above registered in the dispatch counters — both
        // the mining passes and the null replicates they consumed, every
        // replicate drawn by the sampler `tuner_sampler` names.
        assert!(stats.miner_dispatch.total() > 0);
        assert!(stats.replicates.total_sampled() > 0);
        assert_eq!(stats.replicates.sampled_gaps, 0);
        assert!(stats.replicates.sampled_cellwise > 0);
    }

    #[test]
    fn dataset_less_thresholds_share_the_store_too() {
        let registry = EngineRegistry::new();
        let spec = ModelSpec::Bernoulli {
            transactions: 150,
            frequencies: vec![0.12; 10],
        };
        let request = AnalysisRequest::for_k(2).with_replicates(5);
        let cold = registry.thresholds(&spec, &request).unwrap();
        assert_eq!(cold[0].threshold_cache, CacheStatus::Miss);
        // The transient engine is gone, but its thresholds persist in the
        // shared store: a repeat — and any registered engine over the same
        // model — hits.
        let warm = registry.thresholds(&spec, &request).unwrap();
        assert_eq!(warm[0].threshold_cache, CacheStatus::Hit);
        assert_eq!(warm[0].estimate, cold[0].estimate);
        assert_eq!(registry.stats().threshold_requests, 2);

        let bad = ModelSpec::Bernoulli {
            transactions: 10,
            frequencies: vec![2.0],
        };
        assert_eq!(
            registry.thresholds(&bad, &request).unwrap_err().code(),
            "invalid_request"
        );
    }

    #[test]
    fn handle_dispatches_and_checks_versions() {
        let registry = EngineRegistry::new();
        registry.register_dataset("d", sample_dataset(4)).unwrap();

        let ok = registry.handle(&ApiRequest::analyze(
            "d",
            AnalysisRequest::for_k(2).with_replicates(4),
        ));
        assert_eq!(ok.http_status(), 200);
        assert!(matches!(ok.result, ApiResult::Analysis(_)));

        let mut stale = ApiRequest::analyze("d", AnalysisRequest::for_k(2));
        stale.protocol_version = 99;
        let rejected = registry.handle(&stale);
        assert_eq!(
            rejected.as_error().unwrap().code(),
            "unsupported_protocol_version"
        );

        // Validation failures surface as invalid_request through handle too.
        let invalid = registry.handle(&ApiRequest::analyze(
            "d",
            AnalysisRequest::for_ks(Vec::<usize>::new()),
        ));
        assert_eq!(invalid.as_error().unwrap().code(), "invalid_request");
    }

    #[test]
    fn background_compaction_runs_on_the_worker_pool() {
        let dir =
            std::env::temp_dir().join(format!("sigfim-registry-compact-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // A tiny dead-byte threshold with inline compaction off: every
        // write-through past it must queue a Work::Compaction instead.
        let db = ServiceDb::open_with(
            &dir,
            sigfim_store::DbOptions {
                compact_dead_bytes: 256,
                compact_inline: false,
                fsync: false,
                ..sigfim_store::DbOptions::default()
            },
        )
        .unwrap();
        let registry = Arc::new(EngineRegistry::new());
        registry.attach_db(db).unwrap();
        registry.start_job_workers(1);

        // Churn one dataset payload well past the threshold.
        for round in 0..50u32 {
            let fimi = format!("0 1 2\n1 2\n0 {}\n", round % 3);
            registry.put_dataset("churn", &fimi).unwrap();
        }

        // The compaction runs asynchronously on the pool; poll the stats
        // the operator would watch.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let store = registry.stats().store.expect("a store is attached");
            if store.compactions > 0 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "no background compaction ran within 10s"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        // Compaction preserved the live payload.
        assert_eq!(registry.engines().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn registered_datasets_take_the_configured_null_model() {
        let dataset = sample_dataset(10);
        let swap = EngineRegistry::new().with_engine_config(EngineConfig {
            swap_null: Some(2.0),
            ..EngineConfig::default()
        });
        swap.register_dataset("d", dataset.clone()).unwrap();
        let expected = AnalysisEngine::with_swap_null(dataset.clone(), 2.0)
            .unwrap()
            .fingerprint();
        assert_eq!(swap.engines()[0].fingerprint, expected);
        let bernoulli = EngineRegistry::new();
        bernoulli.register_dataset("d", dataset.clone()).unwrap();
        assert_eq!(
            bernoulli.engines()[0].fingerprint,
            BernoulliModel::from_dataset(&dataset).fingerprint()
        );
    }

    #[test]
    fn registered_engines_keep_their_model_identity() {
        // register_engine accepts any dyn engine — here a swap-null one — and
        // re-points it at the shared store.
        let registry = EngineRegistry::new();
        let dataset = sample_dataset(9);
        let engine = AnalysisEngine::with_swap_null(dataset.clone(), 2.0)
            .unwrap()
            .into_dyn();
        let expected_fingerprint = engine.fingerprint();
        registry.register_engine("swap", engine).unwrap();
        let info = &registry.engines()[0];
        assert_eq!(info.fingerprint, expected_fingerprint);
        let engine_handle = registry.engine("swap").unwrap();
        assert!(relock!(engine_handle.lock())
            .threshold_store()
            .shares_with(&registry.store()));
        // And it answers requests.
        let response = registry
            .analyze("swap", &AnalysisRequest::for_k(2).with_replicates(4))
            .unwrap();
        assert_eq!(response.runs.len(), 1);
        // Sanity: the swap fingerprint differs from the Bernoulli one for the
        // same dataset.
        assert_ne!(
            expected_fingerprint,
            BernoulliModel::from_dataset(&dataset).fingerprint()
        );
    }
}
