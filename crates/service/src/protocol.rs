//! The versioned JSON wire protocol of the sigfim service.
//!
//! Every request and response travels inside an envelope carrying the
//! protocol version, so clients and servers from different releases fail
//! loudly (a typed [`ApiError::UnsupportedProtocolVersion`]) instead of
//! misinterpreting each other. The payloads themselves reuse the engine's
//! own serializable types — [`AnalysisRequest`], [`AnalysisResponse`],
//! [`ThresholdRun`] — so a wire round-trip reconstructs exactly what an
//! in-process engine call returns (enforced by the loopback smoke test).
//!
//! The envelopes and the error taxonomy have hand-written `Serialize` /
//! `Deserialize` impls because they are data-carrying enums, which the
//! vendored serde derive does not generate; the wire shape is a tagged map
//! (`"kind"` / `"code"` discriminants) as upstream serde would produce with
//! `#[serde(tag = ...)]`.

use std::fmt;

use serde::{Deserialize, Error as SerdeError, Serialize, Value};
use sigfim_core::engine::{AnalysisRequest, AnalysisResponse, CacheStats, ThresholdRun};
use sigfim_datasets::bitmap::DatasetBackend;
use sigfim_datasets::random::{BernoulliModel, BoxedNullModel};

/// The protocol version this crate speaks. Bump on any incompatible change to
/// the envelopes, the error taxonomy, or the payload types.
pub const PROTOCOL_VERSION: u32 = 1;

/// The typed failure taxonomy of the service: everything a request can die of,
/// each with the fields a client needs to react programmatically. Transported
/// inside an [`ApiResponse`] with `"status": "error"`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApiError {
    /// The request named a protocol version this server does not speak.
    UnsupportedProtocolVersion {
        /// The version the client asked for.
        requested: u32,
        /// The version this server supports.
        supported: u32,
    },
    /// The request body was not a valid protocol envelope (bad JSON, missing
    /// fields, unknown kind, …).
    MalformedRequest {
        /// What failed to parse.
        detail: String,
    },
    /// The request named a dataset id with no registered engine.
    UnknownDataset {
        /// The id that was not found.
        dataset: String,
    },
    /// The envelope was well-formed but the analysis request inside it was
    /// rejected by validation (empty `ks`, zero replicates, …).
    InvalidRequest {
        /// The validation failure.
        detail: String,
    },
    /// The engine accepted the request but the pipeline failed while running
    /// it.
    EngineFailure {
        /// The pipeline error.
        detail: String,
    },
    /// No route at this path.
    NotFound {
        /// The path that was requested.
        path: String,
    },
    /// The path exists but not for this HTTP method.
    MethodNotAllowed {
        /// The method that was used.
        method: String,
        /// The path it was used on.
        path: String,
    },
    /// The job queue is at capacity; retry after backing off. Transported
    /// as HTTP 429 with a `Retry-After` header.
    Overloaded {
        /// How long the client should back off, in seconds.
        retry_after_secs: u64,
    },
    /// The request named a job id this server does not know.
    UnknownJob {
        /// The id that was not found.
        job: String,
    },
}

impl ApiError {
    /// The stable machine-readable discriminant (`"unknown_dataset"`, …).
    pub fn code(&self) -> &'static str {
        match self {
            ApiError::UnsupportedProtocolVersion { .. } => "unsupported_protocol_version",
            ApiError::MalformedRequest { .. } => "malformed_request",
            ApiError::UnknownDataset { .. } => "unknown_dataset",
            ApiError::InvalidRequest { .. } => "invalid_request",
            ApiError::EngineFailure { .. } => "engine_failure",
            ApiError::NotFound { .. } => "not_found",
            ApiError::MethodNotAllowed { .. } => "method_not_allowed",
            ApiError::Overloaded { .. } => "overloaded",
            ApiError::UnknownJob { .. } => "unknown_job",
        }
    }

    /// The HTTP status the transport maps this error to.
    pub fn http_status(&self) -> u16 {
        match self {
            ApiError::UnsupportedProtocolVersion { .. }
            | ApiError::MalformedRequest { .. }
            | ApiError::InvalidRequest { .. } => 400,
            ApiError::UnknownDataset { .. }
            | ApiError::NotFound { .. }
            | ApiError::UnknownJob { .. } => 404,
            ApiError::MethodNotAllowed { .. } => 405,
            ApiError::Overloaded { .. } => 429,
            ApiError::EngineFailure { .. } => 500,
        }
    }
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApiError::UnsupportedProtocolVersion {
                requested,
                supported,
            } => write!(
                f,
                "protocol version {requested} is not supported (this server speaks {supported})"
            ),
            ApiError::MalformedRequest { detail } => write!(f, "malformed request: {detail}"),
            ApiError::UnknownDataset { dataset } => {
                write!(f, "no engine registered for dataset `{dataset}`")
            }
            ApiError::InvalidRequest { detail } => write!(f, "invalid request: {detail}"),
            ApiError::EngineFailure { detail } => write!(f, "analysis failed: {detail}"),
            ApiError::NotFound { path } => write!(f, "no route at `{path}`"),
            ApiError::MethodNotAllowed { method, path } => {
                write!(f, "method {method} is not allowed on `{path}`")
            }
            ApiError::Overloaded { retry_after_secs } => write!(
                f,
                "the job queue is at capacity; retry in {retry_after_secs}s"
            ),
            ApiError::UnknownJob { job } => write!(f, "no job with id `{job}`"),
        }
    }
}

impl std::error::Error for ApiError {}

impl Serialize for ApiError {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("code".to_string(), Value::Str(self.code().to_string())),
            ("message".to_string(), Value::Str(self.to_string())),
        ];
        match self {
            ApiError::UnsupportedProtocolVersion {
                requested,
                supported,
            } => {
                fields.push(("requested".into(), Value::U64(u64::from(*requested))));
                fields.push(("supported".into(), Value::U64(u64::from(*supported))));
            }
            ApiError::MalformedRequest { detail }
            | ApiError::InvalidRequest { detail }
            | ApiError::EngineFailure { detail } => {
                fields.push(("detail".into(), Value::Str(detail.clone())));
            }
            ApiError::UnknownDataset { dataset } => {
                fields.push(("dataset".into(), Value::Str(dataset.clone())));
            }
            ApiError::NotFound { path } => {
                fields.push(("path".into(), Value::Str(path.clone())));
            }
            ApiError::MethodNotAllowed { method, path } => {
                fields.push(("method".into(), Value::Str(method.clone())));
                fields.push(("path".into(), Value::Str(path.clone())));
            }
            ApiError::Overloaded { retry_after_secs } => {
                fields.push(("retry_after_secs".into(), Value::U64(*retry_after_secs)));
            }
            ApiError::UnknownJob { job } => {
                fields.push(("job".into(), Value::Str(job.clone())));
            }
        }
        Value::Map(fields)
    }
}

/// Pull a required field out of an envelope map.
fn field<'a>(
    value: &'a Value,
    ty: &'static str,
    name: &'static str,
) -> Result<&'a Value, SerdeError> {
    value
        .get_field(name)
        .ok_or_else(|| SerdeError::missing_field(ty, name))
}

fn string_field(value: &Value, ty: &'static str, name: &'static str) -> Result<String, SerdeError> {
    Ok(field(value, ty, name)?.as_str()?.to_owned())
}

impl Deserialize for ApiError {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        let code = string_field(value, "ApiError", "code")?;
        match code.as_str() {
            "unsupported_protocol_version" => Ok(ApiError::UnsupportedProtocolVersion {
                requested: field(value, "ApiError", "requested")?.as_u64()? as u32,
                supported: field(value, "ApiError", "supported")?.as_u64()? as u32,
            }),
            "malformed_request" => Ok(ApiError::MalformedRequest {
                detail: string_field(value, "ApiError", "detail")?,
            }),
            "unknown_dataset" => Ok(ApiError::UnknownDataset {
                dataset: string_field(value, "ApiError", "dataset")?,
            }),
            "invalid_request" => Ok(ApiError::InvalidRequest {
                detail: string_field(value, "ApiError", "detail")?,
            }),
            "engine_failure" => Ok(ApiError::EngineFailure {
                detail: string_field(value, "ApiError", "detail")?,
            }),
            "not_found" => Ok(ApiError::NotFound {
                path: string_field(value, "ApiError", "path")?,
            }),
            "method_not_allowed" => Ok(ApiError::MethodNotAllowed {
                method: string_field(value, "ApiError", "method")?,
                path: string_field(value, "ApiError", "path")?,
            }),
            "overloaded" => Ok(ApiError::Overloaded {
                retry_after_secs: field(value, "ApiError", "retry_after_secs")?.as_u64()?,
            }),
            "unknown_job" => Ok(ApiError::UnknownJob {
                job: string_field(value, "ApiError", "job")?,
            }),
            other => Err(SerdeError::unknown_variant("ApiError", other)),
        }
    }
}

/// A null model described *on the wire* — what the dataset-less
/// `POST /v1/thresholds` endpoint takes (the shape of the paper's Table 2,
/// which runs Algorithm 1 against null models alone, no dataset attached).
#[derive(Debug, Clone, PartialEq)]
pub enum ModelSpec {
    /// The paper's Bernoulli reference model: `transactions` rows, item `i`
    /// present independently with probability `frequencies[i]`.
    Bernoulli {
        /// The number of transactions of every generated dataset.
        transactions: usize,
        /// Per-item occurrence frequencies.
        frequencies: Vec<f64>,
    },
}

impl ModelSpec {
    /// Materialize the described model behind the dyn-erased boundary.
    ///
    /// # Errors
    ///
    /// Returns [`ApiError::InvalidRequest`] when the model parameters are
    /// rejected (no items, frequencies outside `[0, 1]`, …).
    pub fn build(&self) -> Result<BoxedNullModel, ApiError> {
        match self {
            ModelSpec::Bernoulli {
                transactions,
                frequencies,
            } => BernoulliModel::new(*transactions, frequencies.clone())
                .map(|model| Box::new(model) as BoxedNullModel)
                .map_err(|error| ApiError::InvalidRequest {
                    detail: error.to_string(),
                }),
        }
    }
}

impl Serialize for ModelSpec {
    fn to_value(&self) -> Value {
        match self {
            ModelSpec::Bernoulli {
                transactions,
                frequencies,
            } => Value::Map(vec![
                ("model".into(), Value::Str("bernoulli".into())),
                ("transactions".into(), transactions.to_value()),
                ("frequencies".into(), frequencies.to_value()),
            ]),
        }
    }
}

impl Deserialize for ModelSpec {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        let model = string_field(value, "ModelSpec", "model")?;
        match model.as_str() {
            "bernoulli" => Ok(ModelSpec::Bernoulli {
                transactions: usize::from_value(field(value, "ModelSpec", "transactions")?)?,
                frequencies: Vec::<f64>::from_value(field(value, "ModelSpec", "frequencies")?)?,
            }),
            other => Err(SerdeError::unknown_variant("ModelSpec", other)),
        }
    }
}

/// The request-side envelope: protocol version plus one typed operation.
#[derive(Debug, Clone, PartialEq)]
pub struct ApiRequest {
    /// The protocol version the client speaks; checked against
    /// [`PROTOCOL_VERSION`] before anything else is interpreted.
    pub protocol_version: u32,
    /// The operation to perform.
    pub body: ApiRequestBody,
}

/// The operations a client can POST.
#[derive(Debug, Clone, PartialEq)]
pub enum ApiRequestBody {
    /// Run the full pipeline against a registered dataset
    /// (`POST /v1/analyze`).
    Analyze {
        /// The registered dataset id to analyze.
        dataset: String,
        /// The analysis request, exactly as the in-process engine takes it.
        request: AnalysisRequest,
        /// When `true`, enqueue the analysis as a background job and return
        /// a [`JobInfo`] immediately instead of holding the connection for
        /// the result. Additive: serialized only when set, absent means
        /// the pre-jobs synchronous behaviour.
        detach: bool,
    },
    /// Run Algorithm 1 alone against an inline null model
    /// (`POST /v1/thresholds`; dataset-less, à la the paper's Table 2).
    Thresholds {
        /// The null model to estimate thresholds for.
        model: ModelSpec,
        /// The threshold request (only the Algorithm 1 fields are consulted).
        request: AnalysisRequest,
    },
    /// Poll a background job (`GET /v1/jobs/<id>`).
    JobStatus {
        /// The job id returned by a detached analyze.
        id: String,
    },
    /// Register (or replace) a dataset from an inline FIMI payload
    /// (`PUT /v1/datasets/<id>`).
    PutDataset {
        /// The registry id the dataset will be served under.
        id: String,
        /// The dataset body in FIMI format (whitespace-separated item ids,
        /// one transaction per line).
        fimi: String,
    },
    /// Unregister a dataset and drop its persisted payload
    /// (`DELETE /v1/datasets/<id>`).
    DeleteDataset {
        /// The registry id to remove.
        id: String,
    },
}

impl ApiRequest {
    /// An analyze envelope at the current protocol version.
    pub fn analyze(dataset: impl Into<String>, request: AnalysisRequest) -> Self {
        ApiRequest {
            protocol_version: PROTOCOL_VERSION,
            body: ApiRequestBody::Analyze {
                dataset: dataset.into(),
                request,
                detach: false,
            },
        }
    }

    /// A detached analyze envelope: enqueue and return a job id.
    pub fn analyze_detached(dataset: impl Into<String>, request: AnalysisRequest) -> Self {
        ApiRequest {
            protocol_version: PROTOCOL_VERSION,
            body: ApiRequestBody::Analyze {
                dataset: dataset.into(),
                request,
                detach: true,
            },
        }
    }

    /// A job-status envelope at the current protocol version.
    pub fn job_status(id: impl Into<String>) -> Self {
        ApiRequest {
            protocol_version: PROTOCOL_VERSION,
            body: ApiRequestBody::JobStatus { id: id.into() },
        }
    }

    /// A dataset-registration envelope at the current protocol version.
    pub fn put_dataset(id: impl Into<String>, fimi: impl Into<String>) -> Self {
        ApiRequest {
            protocol_version: PROTOCOL_VERSION,
            body: ApiRequestBody::PutDataset {
                id: id.into(),
                fimi: fimi.into(),
            },
        }
    }

    /// A dataset-removal envelope at the current protocol version.
    pub fn delete_dataset(id: impl Into<String>) -> Self {
        ApiRequest {
            protocol_version: PROTOCOL_VERSION,
            body: ApiRequestBody::DeleteDataset { id: id.into() },
        }
    }

    /// A thresholds envelope at the current protocol version.
    pub fn thresholds(model: ModelSpec, request: AnalysisRequest) -> Self {
        ApiRequest {
            protocol_version: PROTOCOL_VERSION,
            body: ApiRequestBody::Thresholds { model, request },
        }
    }

    /// Check the envelope's protocol version.
    ///
    /// # Errors
    ///
    /// Returns [`ApiError::UnsupportedProtocolVersion`] when it differs from
    /// [`PROTOCOL_VERSION`].
    pub fn validate_version(&self) -> Result<(), ApiError> {
        if self.protocol_version != PROTOCOL_VERSION {
            return Err(ApiError::UnsupportedProtocolVersion {
                requested: self.protocol_version,
                supported: PROTOCOL_VERSION,
            });
        }
        Ok(())
    }
}

impl Serialize for ApiRequest {
    fn to_value(&self) -> Value {
        let mut fields = vec![(
            "protocol_version".to_string(),
            Value::U64(u64::from(self.protocol_version)),
        )];
        match &self.body {
            ApiRequestBody::Analyze {
                dataset,
                request,
                detach,
            } => {
                fields.push(("kind".into(), Value::Str("analyze".into())));
                fields.push(("dataset".into(), Value::Str(dataset.clone())));
                fields.push(("request".into(), request.to_value()));
                // Additive: absent means synchronous, like pre-jobs clients.
                if *detach {
                    fields.push(("detach".into(), Value::Bool(true)));
                }
            }
            ApiRequestBody::Thresholds { model, request } => {
                fields.push(("kind".into(), Value::Str("thresholds".into())));
                fields.push(("model".into(), model.to_value()));
                fields.push(("request".into(), request.to_value()));
            }
            ApiRequestBody::JobStatus { id } => {
                fields.push(("kind".into(), Value::Str("job_status".into())));
                fields.push(("id".into(), Value::Str(id.clone())));
            }
            ApiRequestBody::PutDataset { id, fimi } => {
                fields.push(("kind".into(), Value::Str("put_dataset".into())));
                fields.push(("id".into(), Value::Str(id.clone())));
                fields.push(("fimi".into(), Value::Str(fimi.clone())));
            }
            ApiRequestBody::DeleteDataset { id } => {
                fields.push(("kind".into(), Value::Str("delete_dataset".into())));
                fields.push(("id".into(), Value::Str(id.clone())));
            }
        }
        Value::Map(fields)
    }
}

impl Deserialize for ApiRequest {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        let protocol_version = field(value, "ApiRequest", "protocol_version")?.as_u64()? as u32;
        let kind = string_field(value, "ApiRequest", "kind")?;
        let body = match kind.as_str() {
            "analyze" => ApiRequestBody::Analyze {
                dataset: string_field(value, "ApiRequest", "dataset")?,
                request: AnalysisRequest::from_value(field(value, "ApiRequest", "request")?)?,
                detach: match value.get_field("detach") {
                    Some(detach) => detach.as_bool()?,
                    None => false,
                },
            },
            "thresholds" => ApiRequestBody::Thresholds {
                model: ModelSpec::from_value(field(value, "ApiRequest", "model")?)?,
                request: AnalysisRequest::from_value(field(value, "ApiRequest", "request")?)?,
            },
            "job_status" => ApiRequestBody::JobStatus {
                id: string_field(value, "ApiRequest", "id")?,
            },
            "put_dataset" => ApiRequestBody::PutDataset {
                id: string_field(value, "ApiRequest", "id")?,
                fimi: string_field(value, "ApiRequest", "fimi")?,
            },
            "delete_dataset" => ApiRequestBody::DeleteDataset {
                id: string_field(value, "ApiRequest", "id")?,
            },
            other => return Err(SerdeError::unknown_variant("ApiRequest", other)),
        };
        Ok(ApiRequest {
            protocol_version,
            body,
        })
    }
}

/// One registered engine, as listed by `GET /v1/engines`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineInfo {
    /// The registry id requests route by.
    pub id: String,
    /// Transactions of the engine's null model (and dataset, when present).
    pub transactions: usize,
    /// Items in the engine's universe.
    pub items: usize,
    /// Whether the engine holds a dataset (false = threshold-only engine).
    pub has_dataset: bool,
    /// The configured physical dataset backend.
    pub backend: DatasetBackend,
    /// The null model's stable fingerprint — the cache-sharing identity: two
    /// engines listing the same fingerprint serve each other's thresholds.
    pub fingerprint: u64,
}

/// One startup measurement, as reported in [`KernelStats`]. Kept for v1 wire
/// compatibility: current servers measure nothing and report none.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TunerTiming {
    /// What was measured: `kernel:<mode>`, `shard_budget_bytes:<n>`,
    /// `sampler:<mode>` or `miner:<kind>`.
    pub subject: String,
    /// Median of the timed repetitions, in nanoseconds.
    pub median_ns: u64,
}

/// The process-wide counting-kernel configuration and static configuration
/// picks, as reported by `GET /v1/stats`.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct KernelStats {
    /// The kernel the process-wide dispatch runs (e.g. `avx512`): the
    /// widest one the CPU supports, so always equal to `tuner_kernel`.
    pub mode: String,
    /// Whether a startup micro-benchmark ran. Always `false` from current
    /// servers: every pick is a static rule.
    pub tuned: bool,
    /// The concrete kernel `auto` dispatch resolves to: the widest one the
    /// CPU supports.
    pub tuner_kernel: String,
    /// The shard budget (bytes of column data per shard) new sharded
    /// datasets are sized by.
    pub shard_budget_bytes: usize,
    /// Startup measurements behind the picks. Always empty from current
    /// servers, which measure nothing.
    pub tuner_timings: Vec<TunerTiming>,
    /// The replicate sampler an `auto` sampler request resolves to, which
    /// every engine runs (`cellwise`). Additive field, defaulted on
    /// deserialization.
    #[serde(default)]
    pub tuner_sampler: String,
    /// The k-itemset miner `--miner auto` picks on the multi-worker bitmap
    /// path. Additive field, defaulted on deserialization.
    #[serde(default)]
    pub tuner_miner: String,
}

/// Aggregate service counters, as reported by `GET /v1/stats`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceStats {
    /// Number of registered engines.
    pub engines: usize,
    /// `analyze` operations accepted since startup.
    pub analyze_requests: u64,
    /// `thresholds` operations accepted since startup.
    pub threshold_requests: u64,
    /// Counters of the process-wide shared threshold store (hits, misses,
    /// entries, evictions, capacity).
    pub threshold_store: CacheStats,
    /// Aggregated counters of every registered engine's per-engine
    /// `SupportProfile` cache (hits/misses/entries/evictions summed across
    /// engines; `capacity` is the summed bound, or `None` if any engine's
    /// cache is unbounded). Defaulted on deserialization so responses from
    /// pre-profile-stats servers (which speak the same protocol version —
    /// the field is additive) still parse, reading as zeroed counters.
    #[serde(default)]
    pub profile_caches: CacheStats,
    /// Resolved counting-kernel mode and the static configuration picks
    /// (`auto` kernel, shard budget, sampler and miner). Additive field,
    /// defaulted on deserialization like `profile_caches`.
    #[serde(default)]
    pub kernels: KernelStats,
    /// Process-wide per-miner dispatch counts: how many mining passes each
    /// entry point (Apriori/Eclat/FP-Growth/brute-force/bitset Eclat/
    /// sharded/par-eclat) has served since startup. Additive field,
    /// defaulted on deserialization.
    #[serde(default)]
    pub miner_dispatch: sigfim_mining::DispatchCounts,
    /// Process-wide replicate-pipeline counters: null datasets sampled per
    /// sampler mode and replicates served straight from `ObservationStore`s
    /// without sampling. Additive field, defaulted on deserialization.
    #[serde(default)]
    pub replicates: sigfim_core::ReplicateStats,
    /// Job-queue counters (queued/running/done/failed plus the configured
    /// queue capacity). Additive field, defaulted on deserialization.
    #[serde(default)]
    pub jobs: JobStats,
    /// Persistence-layer counters of the embedded store backing `--data-dir`
    /// (segment count, live/dead bytes, compactions). `None` when the server
    /// runs without durability. Additive field, defaulted on
    /// deserialization.
    #[serde(default)]
    pub store: Option<sigfim_store::StoreStats>,
    /// Out-of-core shard-residency counters (`--shard-residency`): the
    /// platform's fault path, the server's residency budget, and the
    /// lifetime spill/eviction/refault totals across every spilled store.
    /// Additive field, defaulted on deserialization; the budget and counters
    /// are zero when no residency budget is configured.
    #[serde(default)]
    pub residency: ResidencyStats,
}

/// Out-of-core residency counters inside [`ServiceStats`]. Every field is
/// additive (defaulted on deserialization): the struct postdates wire
/// baseline v1, so pre-spill servers simply omit it.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ResidencyStats {
    /// The platform's fault path for spilled shards: `mmap` where
    /// supported, `read` elsewhere (never `off`).
    #[serde(default)]
    pub mode: String,
    /// The server's `--shard-residency` budget in bytes; 0 when none is set
    /// (sharded stores stay resident).
    #[serde(default)]
    pub budget_bytes: u64,
    /// Datasets whose sharded view has been spilled since startup.
    #[serde(default)]
    pub spilled_datasets: u64,
    /// Shard spill files written since startup.
    #[serde(default)]
    pub spilled_shards: u64,
    /// Shards evicted from residency since startup.
    #[serde(default)]
    pub evictions: u64,
    /// Cold shards faulted back in since startup.
    #[serde(default)]
    pub refaults: u64,
}

/// Job-queue counters inside [`ServiceStats`]. Every field is additive
/// (defaulted on deserialization): the struct itself postdates wire baseline
/// v1, so pre-jobs servers simply omit it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct JobStats {
    /// Jobs waiting in the queue.
    #[serde(default)]
    pub queued: u64,
    /// Jobs currently held by a worker.
    #[serde(default)]
    pub running: u64,
    /// Jobs finished successfully since startup (including recovered ones).
    #[serde(default)]
    pub done: u64,
    /// Jobs that ended in an error since startup.
    #[serde(default)]
    pub failed: u64,
    /// The queue's bound; enqueueing past it yields [`ApiError::Overloaded`].
    #[serde(default)]
    pub capacity: u64,
}

/// The lifecycle state of a background job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is running the analysis.
    Running,
    /// Finished; [`JobInfo::result`] carries the response.
    Done,
    /// Ended in an error; [`JobInfo::error`] carries it.
    Failed,
}

impl JobState {
    /// The stable wire name (`"queued"`, `"running"`, `"done"`, `"failed"`).
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }

    /// Whether the job will never change again.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed)
    }

    fn parse(name: &str) -> Result<Self, SerdeError> {
        match name {
            "queued" => Ok(JobState::Queued),
            "running" => Ok(JobState::Running),
            "done" => Ok(JobState::Done),
            "failed" => Ok(JobState::Failed),
            other => Err(SerdeError::unknown_variant("JobState", other)),
        }
    }
}

impl fmt::Display for JobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Everything `GET /v1/jobs/<id>` reports about a background job: the same
/// record is the durable row in the store's `jobs` namespace, so a restarted
/// server answers polls for jobs it accepted before the crash.
///
/// Hand-written serde: `result`/`error` presence depends on `state`, and the
/// payload types ([`AnalysisRequest`], [`AnalysisResponse`]) have no
/// `Default`, which rules out the derive's `#[serde(default)]` path.
#[derive(Debug, Clone, PartialEq)]
pub struct JobInfo {
    /// The id the job is polled by (`job-00000001`, …).
    pub id: String,
    /// The dataset the analysis runs against.
    pub dataset: String,
    /// The submitted analysis request.
    pub request: AnalysisRequest,
    /// Where the job is in its lifecycle.
    pub state: JobState,
    /// Live per-`k` progress (stage, replicate counts, cache provenance).
    /// Empty until the job starts; frozen at its final value once terminal.
    pub progress: sigfim_core::progress::ProgressSnapshot,
    /// The analysis response, once `state` is [`JobState::Done`].
    pub result: Option<AnalysisResponse>,
    /// The failure, once `state` is [`JobState::Failed`].
    pub error: Option<ApiError>,
}

impl Serialize for JobInfo {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("id".to_string(), Value::Str(self.id.clone())),
            ("dataset".to_string(), Value::Str(self.dataset.clone())),
            ("request".to_string(), self.request.to_value()),
            ("state".to_string(), Value::Str(self.state.name().into())),
            ("progress".to_string(), self.progress.to_value()),
        ];
        if let Some(result) = &self.result {
            fields.push(("result".into(), result.to_value()));
        }
        if let Some(error) = &self.error {
            fields.push(("error".into(), error.to_value()));
        }
        Value::Map(fields)
    }
}

impl Deserialize for JobInfo {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        Ok(JobInfo {
            id: string_field(value, "JobInfo", "id")?,
            dataset: string_field(value, "JobInfo", "dataset")?,
            request: AnalysisRequest::from_value(field(value, "JobInfo", "request")?)?,
            state: JobState::parse(&string_field(value, "JobInfo", "state")?)?,
            progress: sigfim_core::progress::ProgressSnapshot::from_value(field(
                value, "JobInfo", "progress",
            )?)?,
            result: match value.get_field("result") {
                Some(result) => Some(AnalysisResponse::from_value(result)?),
                None => None,
            },
            error: match value.get_field("error") {
                Some(error) => Some(ApiError::from_value(error)?),
                None => None,
            },
        })
    }
}

/// The response-side envelope: protocol version plus either a typed result or
/// a typed error.
#[derive(Debug, Clone, PartialEq)]
pub struct ApiResponse {
    /// The protocol version the server speaks.
    pub protocol_version: u32,
    /// The outcome.
    pub result: ApiResult,
}

/// Everything a [`ApiResponse`] can carry.
///
/// Variant sizes are deliberately asymmetric (`Stats` carries the kernel and
/// dispatch counters inline): one envelope exists per request, so boxing the
/// large variants would buy nothing and cost an allocation per response.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum ApiResult {
    /// The outcome of an analyze operation — exactly the in-process
    /// [`AnalysisResponse`].
    Analysis(AnalysisResponse),
    /// The outcome of a thresholds operation.
    Thresholds(Vec<ThresholdRun>),
    /// The engine listing.
    Engines(Vec<EngineInfo>),
    /// The service counters.
    Stats(ServiceStats),
    /// Liveness (`GET /healthz`).
    Health,
    /// A background job's current state — returned by a detached analyze
    /// (just accepted, `queued`) and by every `GET /v1/jobs/<id>` poll.
    Job(JobInfo),
    /// A dataset was registered; carries its engine listing entry.
    Dataset(EngineInfo),
    /// A dataset was removed; carries the id that is now free.
    DatasetDeleted(String),
    /// A typed failure.
    Error(ApiError),
}

impl ApiResult {
    fn kind(&self) -> &'static str {
        match self {
            ApiResult::Analysis(_) => "analysis",
            ApiResult::Thresholds(_) => "thresholds",
            ApiResult::Engines(_) => "engines",
            ApiResult::Stats(_) => "stats",
            ApiResult::Health => "health",
            ApiResult::Job(_) => "job",
            ApiResult::Dataset(_) => "dataset",
            ApiResult::DatasetDeleted(_) => "dataset_deleted",
            ApiResult::Error(_) => "error",
        }
    }
}

impl ApiResponse {
    /// A success envelope at the current protocol version.
    pub fn ok(result: ApiResult) -> Self {
        debug_assert!(
            !matches!(result, ApiResult::Error(_)),
            "use ApiResponse::error"
        );
        ApiResponse {
            protocol_version: PROTOCOL_VERSION,
            result,
        }
    }

    /// An error envelope at the current protocol version.
    pub fn error(error: ApiError) -> Self {
        ApiResponse {
            protocol_version: PROTOCOL_VERSION,
            result: ApiResult::Error(error),
        }
    }

    /// The HTTP status the transport sends this envelope with.
    pub fn http_status(&self) -> u16 {
        match &self.result {
            ApiResult::Error(error) => error.http_status(),
            _ => 200,
        }
    }

    /// The carried error, if this is an error envelope.
    pub fn as_error(&self) -> Option<&ApiError> {
        match &self.result {
            ApiResult::Error(error) => Some(error),
            _ => None,
        }
    }
}

impl Serialize for ApiResponse {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            (
                "protocol_version".to_string(),
                Value::U64(u64::from(self.protocol_version)),
            ),
            (
                "status".to_string(),
                Value::Str(
                    if matches!(self.result, ApiResult::Error(_)) {
                        "error"
                    } else {
                        "ok"
                    }
                    .into(),
                ),
            ),
            ("kind".to_string(), Value::Str(self.result.kind().into())),
        ];
        match &self.result {
            ApiResult::Analysis(response) => fields.push(("result".into(), response.to_value())),
            ApiResult::Thresholds(runs) => fields.push(("result".into(), runs.to_value())),
            ApiResult::Engines(engines) => fields.push(("result".into(), engines.to_value())),
            ApiResult::Stats(stats) => fields.push(("result".into(), stats.to_value())),
            ApiResult::Health => fields.push(("result".into(), Value::Str("ok".into()))),
            ApiResult::Job(job) => fields.push(("result".into(), job.to_value())),
            ApiResult::Dataset(info) => fields.push(("result".into(), info.to_value())),
            ApiResult::DatasetDeleted(id) => fields.push(("result".into(), Value::Str(id.clone()))),
            ApiResult::Error(error) => fields.push(("error".into(), error.to_value())),
        }
        Value::Map(fields)
    }
}

impl Deserialize for ApiResponse {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        let protocol_version = field(value, "ApiResponse", "protocol_version")?.as_u64()? as u32;
        let kind = string_field(value, "ApiResponse", "kind")?;
        let result = match kind.as_str() {
            "analysis" => ApiResult::Analysis(AnalysisResponse::from_value(field(
                value,
                "ApiResponse",
                "result",
            )?)?),
            "thresholds" => ApiResult::Thresholds(Vec::<ThresholdRun>::from_value(field(
                value,
                "ApiResponse",
                "result",
            )?)?),
            "engines" => ApiResult::Engines(Vec::<EngineInfo>::from_value(field(
                value,
                "ApiResponse",
                "result",
            )?)?),
            "stats" => ApiResult::Stats(ServiceStats::from_value(field(
                value,
                "ApiResponse",
                "result",
            )?)?),
            "health" => ApiResult::Health,
            "job" => ApiResult::Job(JobInfo::from_value(field(value, "ApiResponse", "result")?)?),
            "dataset" => ApiResult::Dataset(EngineInfo::from_value(field(
                value,
                "ApiResponse",
                "result",
            )?)?),
            "dataset_deleted" => ApiResult::DatasetDeleted(
                field(value, "ApiResponse", "result")?.as_str()?.to_owned(),
            ),
            "error" => {
                ApiResult::Error(ApiError::from_value(field(value, "ApiResponse", "error")?)?)
            }
            other => return Err(SerdeError::unknown_variant("ApiResponse", other)),
        };
        Ok(ApiResponse {
            protocol_version,
            result,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_codes_statuses_and_messages_are_consistent() {
        let errors = vec![
            ApiError::UnsupportedProtocolVersion {
                requested: 9,
                supported: PROTOCOL_VERSION,
            },
            ApiError::MalformedRequest {
                detail: "bad json".into(),
            },
            ApiError::UnknownDataset {
                dataset: "retail".into(),
            },
            ApiError::InvalidRequest {
                detail: "ks empty".into(),
            },
            ApiError::EngineFailure {
                detail: "mining blew up".into(),
            },
            ApiError::NotFound {
                path: "/v2/zap".into(),
            },
            ApiError::MethodNotAllowed {
                method: "PUT".into(),
                path: "/v1/analyze".into(),
            },
            ApiError::Overloaded {
                retry_after_secs: 2,
            },
            ApiError::UnknownJob {
                job: "job-00000042".into(),
            },
        ];
        for error in &errors {
            assert!(!error.code().is_empty());
            assert!((400..=599).contains(&error.http_status()), "{error}");
            // The envelope always carries the code and a human message.
            let value = error.to_value();
            assert_eq!(
                value.get_field("code").unwrap().as_str().unwrap(),
                error.code()
            );
            assert!(value.get_field("message").is_some());
        }
        // Distinct variants have distinct codes.
        let codes: std::collections::HashSet<_> = errors.iter().map(|e| e.code()).collect();
        assert_eq!(codes.len(), errors.len());
    }

    #[test]
    fn envelope_versions_are_validated() {
        let request = ApiRequest::analyze("retail", AnalysisRequest::for_k(2));
        assert_eq!(request.protocol_version, PROTOCOL_VERSION);
        assert!(request.validate_version().is_ok());
        let stale = ApiRequest {
            protocol_version: PROTOCOL_VERSION + 1,
            ..request
        };
        let error = stale.validate_version().unwrap_err();
        assert_eq!(error.code(), "unsupported_protocol_version");
        assert_eq!(error.http_status(), 400);
    }

    #[test]
    fn model_spec_builds_and_rejects() {
        let spec = ModelSpec::Bernoulli {
            transactions: 50,
            frequencies: vec![0.2, 0.1],
        };
        let model = spec.build().unwrap();
        use sigfim_datasets::random::NullModel;
        assert_eq!(model.num_transactions(), 50);
        assert_eq!(model.num_items(), 2);
        let bad = ModelSpec::Bernoulli {
            transactions: 50,
            frequencies: vec![1.5],
        };
        assert_eq!(bad.build().unwrap_err().code(), "invalid_request");
    }

    #[test]
    fn job_and_dataset_envelopes_roundtrip() {
        // Detach rides the analyze envelope additively: absent = false.
        let detached = ApiRequest::analyze_detached("retail", AnalysisRequest::for_k(2));
        let text = serde_json::to_string(&detached).unwrap();
        assert!(text.contains("\"detach\""));
        let back: ApiRequest = serde_json::from_str(&text).unwrap();
        assert_eq!(back, detached);
        let sync = ApiRequest::analyze("retail", AnalysisRequest::for_k(2));
        let text = serde_json::to_string(&sync).unwrap();
        assert!(!text.contains("\"detach\""));
        let back: ApiRequest = serde_json::from_str(&text).unwrap();
        assert_eq!(back, sync);

        for request in [
            ApiRequest::job_status("job-00000007"),
            ApiRequest::put_dataset("retail", "1 2 3\n2 3\n"),
            ApiRequest::delete_dataset("retail"),
        ] {
            let text = serde_json::to_string(&request).unwrap();
            let back: ApiRequest = serde_json::from_str(&text).unwrap();
            assert_eq!(back, request);
        }

        // A queued JobInfo (no result, no error) and a failed one survive
        // the wire; state strings are the stable lowercase names.
        let queued = JobInfo {
            id: "job-00000001".into(),
            dataset: "retail".into(),
            request: AnalysisRequest::for_k(2),
            state: JobState::Queued,
            progress: sigfim_core::progress::ProgressSnapshot::default(),
            result: None,
            error: None,
        };
        let response = ApiResponse::ok(ApiResult::Job(queued.clone()));
        let text = serde_json::to_string(&response).unwrap();
        assert!(text.contains("\"queued\""));
        let back: ApiResponse = serde_json::from_str(&text).unwrap();
        assert_eq!(back, response);
        let failed = JobInfo {
            state: JobState::Failed,
            error: Some(ApiError::EngineFailure {
                detail: "mining blew up".into(),
            }),
            ..queued
        };
        assert!(failed.state.is_terminal());
        let text = serde_json::to_string(&failed).unwrap();
        let back: JobInfo = serde_json::from_str(&text).unwrap();
        assert_eq!(back, failed);
    }

    #[test]
    fn response_status_reflects_the_result() {
        let ok = ApiResponse::ok(ApiResult::Health);
        assert_eq!(ok.http_status(), 200);
        assert!(ok.as_error().is_none());
        let err = ApiResponse::error(ApiError::NotFound { path: "/x".into() });
        assert_eq!(err.http_status(), 404);
        assert_eq!(err.as_error().unwrap().code(), "not_found");
    }
}
