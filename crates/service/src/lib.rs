//! # sigfim-service
//!
//! The multi-tenant service front-end of the `sigfim` workspace: the layer
//! that turns the session-oriented [`AnalysisEngine`] into something many
//! users hit over the network.
//!
//! The expensive part of the paper's method — Algorithm 1's Monte-Carlo
//! estimate of the Poisson threshold — is reusable across every query
//! against the same `(null model, k, ε, Δ)`: exactly the shape of a
//! long-lived service. Three pieces deliver that here:
//!
//! * [`registry::EngineRegistry`] — dataset ids → **dyn-erased** engines
//!   ([`sigfim_core::engine::DynAnalysisEngine`]), each behind its own lock,
//!   all attached to one process-wide
//!   [`ThresholdStore`](sigfim_core::engine::ThresholdStore) keyed by the
//!   null-model fingerprint — so two tenants analyzing the same null serve
//!   each other's thresholds, and the store's LRU bound keeps it from
//!   growing without limit.
//! * [`protocol`] — a versioned JSON wire protocol: [`protocol::ApiRequest`]
//!   / [`protocol::ApiResponse`] envelopes with a `protocol_version` field
//!   and a typed error taxonomy ([`protocol::ApiError`]), wrapping the
//!   engine's own serializable request/response types so a wire round-trip
//!   reconstructs exactly what an in-process call returns.
//! * [`http`] — a hand-rolled HTTP/1.1 transport on `std::net` with a
//!   bounded worker pool (no async runtime, no external HTTP stack), exposed
//!   on the CLI as `sigfim serve`.
//!
//! ```no_run
//! use std::sync::Arc;
//! use sigfim_core::engine::AnalysisRequest;
//! use sigfim_service::http::{serve, ServerConfig};
//! use sigfim_service::registry::EngineRegistry;
//! # fn load_dataset() -> sigfim_datasets::transaction::TransactionDataset { unimplemented!() }
//!
//! let registry = Arc::new(EngineRegistry::with_cache_capacity(1024));
//! registry.register_dataset("retail", load_dataset()).unwrap();
//! let server = serve(
//!     Arc::clone(&registry),
//!     &ServerConfig { addr: "127.0.0.1:7878".into(), workers: 4 },
//! )
//! .unwrap();
//! println!("serving on http://{}", server.addr());
//! server.join();
//! ```
//!
//! [`AnalysisEngine`]: sigfim_core::engine::AnalysisEngine

pub mod http;
pub mod jobs;
pub mod persist;
pub mod protocol;
pub mod registry;

pub use http::{serve, ServerConfig, ServerHandle};
pub use jobs::{JobTable, Work, DEFAULT_QUEUE_CAPACITY};
pub use persist::{ObservationMeta, ServiceDb};
pub use protocol::{
    ApiError, ApiRequest, ApiRequestBody, ApiResponse, ApiResult, EngineInfo, JobInfo, JobState,
    JobStats, KernelStats, ModelSpec, ResidencyStats, ServiceStats, TunerTiming, PROTOCOL_VERSION,
};
pub use registry::{EngineConfig, EngineRegistry, RecoverySummary};
pub use sigfim_store::{DbOptions, StoreStats};
