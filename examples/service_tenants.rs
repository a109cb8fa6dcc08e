//! The multi-tenant service surface: dyn-erased engines in a registry, a
//! shared threshold store, and the HTTP/JSON front-end on a loopback port.
//!
//! Run with:
//! ```text
//! cargo run --release --example service_tenants
//! ```
//!
//! Two tenants register datasets drawn from the *same* null model, so their
//! engines share one Bernoulli fingerprint; a third runs under the
//! swap-randomization null. The example shows (1) that engines over different
//! model types unify behind `DynAnalysisEngine`, (2) that the second tenant's
//! first query is served from the first tenant's Monte-Carlo run through the
//! shared `ThresholdStore`, and (3) the same analysis requested over real
//! HTTP, bit-identical to the in-process call.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use sigfim::prelude::*;
use sigfim::service::http::{serve, ServerConfig};
use sigfim::service::{ApiRequest, ApiResponse, ApiResult, EngineRegistry};

fn main() {
    // One shared background model; two tenants sample their own datasets from
    // it. Their derived Bernoulli nulls differ (different empirical
    // frequencies) — so we give both tenants the *same* dataset copy to make
    // the fingerprints collide, which is the cache-sharing scenario.
    let background = BernoulliModel::new(2_000, vec![0.05; 40]).unwrap();
    let shared_dataset = background.sample(&mut StdRng::seed_from_u64(99));

    let registry = Arc::new(EngineRegistry::with_cache_capacity(256));
    registry
        .register_dataset("tenant-a", shared_dataset.clone())
        .unwrap();
    registry
        .register_dataset("tenant-b", shared_dataset.clone())
        .unwrap();
    // A swap-null engine registers alongside the Bernoulli ones: the registry
    // stores DynAnalysisEngine, so the model type never leaks.
    let swap_engine: DynAnalysisEngine = AnalysisEngine::with_swap_null(shared_dataset, 3.0)
        .unwrap()
        .into_dyn();
    registry
        .register_engine("tenant-swap", swap_engine)
        .unwrap();

    println!("registered engines:");
    for info in registry.engines() {
        println!(
            "  {:12} fingerprint {:#018x}  ({} transactions, {} items)",
            info.id, info.fingerprint, info.transactions, info.items
        );
    }

    // Tenant A pays for the Monte-Carlo run; tenant B rides the shared store.
    let request = AnalysisRequest::for_k(2).with_replicates(24);
    let cold = registry.analyze("tenant-a", &request).unwrap();
    let warm = registry.analyze("tenant-b", &request).unwrap();
    println!(
        "\ntenant-a threshold: {:?} (s_min = {})",
        cold.runs[0].threshold_cache, cold.runs[0].report.threshold.s_min
    );
    println!(
        "tenant-b threshold: {:?} (served from tenant-a's run, bit-identical: {})",
        warm.runs[0].threshold_cache,
        warm.runs[0].report.threshold == cold.runs[0].report.threshold
    );
    // The swap tenant has its own fingerprint, hence its own cache entries.
    let swap = registry.analyze("tenant-swap", &request).unwrap();
    println!("tenant-swap threshold: {:?}", swap.runs[0].threshold_cache);

    // The same query over real HTTP: start the bounded worker pool on a
    // loopback port, POST an envelope, compare against the in-process result.
    let server = serve(
        Arc::clone(&registry),
        &ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
        },
    )
    .unwrap();
    let addr = server.addr();
    let body = serde_json::to_string(&ApiRequest::analyze("tenant-b", request)).unwrap();
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "POST /v1/analyze HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let response: ApiResponse =
        serde_json::from_str(raw.split_once("\r\n\r\n").unwrap().1).unwrap();
    let ApiResult::Analysis(over_http) = response.result else {
        panic!("expected an analysis result");
    };
    println!(
        "\nHTTP POST /v1/analyze on {addr}: {:?}, report identical to in-process run: {}",
        over_http.runs[0].threshold_cache,
        over_http.runs[0].report == warm.runs[0].report
    );
    let stats = registry.stats();
    println!(
        "store stats: {} hits / {} misses / {} entries (capacity {:?}, {} evictions)",
        stats.threshold_store.hits,
        stats.threshold_store.misses,
        stats.threshold_store.entries,
        stats.threshold_store.capacity,
        stats.threshold_store.evictions
    );
    server.shutdown();
}
