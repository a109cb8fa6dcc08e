//! Loopback smoke tests for the HTTP transport: a real server on
//! `127.0.0.1`, real sockets, concurrent clients — asserting the acceptance
//! criteria of the service redesign:
//!
//! * `POST /v1/analyze` responses are **bit-identical** to direct in-process
//!   `AnalysisEngine` calls, including under concurrency;
//! * a second tenant registered with the same null model gets
//!   `CacheStatus::Hit` from the shared `ThresholdStore`;
//! * the bounded cache respects its capacity and reports evictions in
//!   `GET /v1/stats`;
//! * the error taxonomy maps to the right HTTP statuses.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use sigfim_core::engine::{AnalysisEngine, AnalysisRequest, CacheStatus};
use sigfim_datasets::random::BernoulliModel;
use sigfim_datasets::transaction::TransactionDataset;
use sigfim_datasets::{DatasetBackend, ShardResidency};
use sigfim_service::http::{serve, ServerConfig, ServerHandle};
use sigfim_service::{
    ApiRequest, ApiResponse, ApiResult, EngineConfig, EngineRegistry, ModelSpec, PROTOCOL_VERSION,
};

fn sample_dataset(seed: u64) -> TransactionDataset {
    BernoulliModel::new(250, vec![0.12; 10])
        .unwrap()
        .sample(&mut StdRng::seed_from_u64(seed))
}

/// A minimal HTTP/1.1 client: one request, the raw response text.
fn http_call_raw(addr: SocketAddr, method: &str, path: &str, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to loopback server");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    raw
}

/// One request, read to EOF (the server closes), split into status + body.
fn http_call(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let raw = http_call_raw(addr, method, path, body);
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .expect("status code in response line")
        .parse()
        .expect("numeric status");
    let body = raw
        .split_once("\r\n\r\n")
        .expect("header/body separator")
        .1
        .to_string();
    (status, body)
}

fn post_envelope(addr: SocketAddr, path: &str, envelope: &ApiRequest) -> (u16, ApiResponse) {
    let body = serde_json::to_string(envelope).unwrap();
    let (status, body) = http_call(addr, "POST", path, &body);
    let response: ApiResponse = serde_json::from_str(&body)
        .unwrap_or_else(|e| panic!("unparseable response body ({e}): {body}"));
    (status, response)
}

fn start_server(registry: Arc<EngineRegistry>, workers: usize) -> ServerHandle {
    serve(
        registry,
        &ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers,
        },
    )
    .expect("bind loopback server")
}

#[test]
fn concurrent_loopback_analyze_is_bit_identical_to_direct_engine_calls() {
    let dataset = sample_dataset(11);
    let registry = Arc::new(EngineRegistry::new());
    registry
        .register_dataset("tenant", dataset.clone())
        .unwrap();
    let server = start_server(Arc::clone(&registry), 4);
    let addr = server.addr();

    let request = AnalysisRequest::for_k_range(2..=3).with_replicates(8);
    // The ground truth: a direct, in-process engine over the same dataset.
    let direct = AnalysisEngine::from_dataset(dataset)
        .unwrap()
        .run(&request)
        .unwrap();

    // Several clients fire the same request concurrently against the server.
    let responses: Vec<ApiResponse> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let request = request.clone();
                scope.spawn(move || {
                    let (status, response) =
                        post_envelope(addr, "/v1/analyze", &ApiRequest::analyze("tenant", request));
                    assert_eq!(status, 200);
                    response
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for response in responses {
        assert_eq!(response.protocol_version, PROTOCOL_VERSION);
        let ApiResult::Analysis(analysis) = response.result else {
            panic!("expected an analysis result");
        };
        // Bit-identical to the in-process run: the full typed reports compare
        // equal (thresholds, curves, p-values, itemsets — every field).
        assert_eq!(analysis.runs.len(), direct.runs.len());
        for (wire, local) in analysis.runs.iter().zip(&direct.runs) {
            assert_eq!(wire.k, local.k);
            assert_eq!(wire.report, local.report);
        }
    }
    server.shutdown();
}

#[test]
fn second_tenant_with_the_same_null_model_hits_the_shared_store() {
    // Two tenants over byte-identical datasets → identical Bernoulli
    // fingerprints → the shared ThresholdStore serves tenant B from tenant
    // A's Monte-Carlo run.
    let dataset = sample_dataset(23);
    let registry = Arc::new(EngineRegistry::new());
    registry.register_dataset("alpha", dataset.clone()).unwrap();
    registry.register_dataset("beta", dataset).unwrap();
    let server = start_server(Arc::clone(&registry), 3);
    let addr = server.addr();

    let request = AnalysisRequest::for_k(2).with_replicates(8);
    let (_, cold) = post_envelope(
        addr,
        "/v1/analyze",
        &ApiRequest::analyze("alpha", request.clone()),
    );
    let ApiResult::Analysis(cold) = cold.result else {
        panic!("expected analysis");
    };
    assert_eq!(cold.runs[0].threshold_cache, CacheStatus::Miss);

    let (_, warm) = post_envelope(
        addr,
        "/v1/analyze",
        &ApiRequest::analyze("beta", request.clone()),
    );
    let ApiResult::Analysis(warm) = warm.result else {
        panic!("expected analysis");
    };
    assert_eq!(warm.runs[0].threshold_cache, CacheStatus::Hit);
    assert_eq!(warm.runs[0].report.threshold, cold.runs[0].report.threshold);

    // A concurrent wave against both tenants now runs entirely warm and
    // bit-identical.
    std::thread::scope(|scope| {
        for tenant in ["alpha", "beta", "alpha", "beta"] {
            let request = request.clone();
            let expected = cold.runs[0].report.threshold.clone();
            scope.spawn(move || {
                let (status, response) =
                    post_envelope(addr, "/v1/analyze", &ApiRequest::analyze(tenant, request));
                assert_eq!(status, 200);
                let ApiResult::Analysis(analysis) = response.result else {
                    panic!("expected analysis");
                };
                assert_eq!(analysis.runs[0].threshold_cache, CacheStatus::Hit);
                assert_eq!(analysis.runs[0].report.threshold, expected);
            });
        }
    });

    // /v1/engines shows both tenants sharing one fingerprint.
    let (status, body) = http_call(addr, "GET", "/v1/engines", "");
    assert_eq!(status, 200);
    let listing: ApiResponse = serde_json::from_str(&body).unwrap();
    let ApiResult::Engines(engines) = listing.result else {
        panic!("expected engine listing");
    };
    assert_eq!(
        engines.iter().map(|e| e.id.as_str()).collect::<Vec<_>>(),
        vec!["alpha", "beta"]
    );
    assert_eq!(engines[0].fingerprint, engines[1].fingerprint);
    server.shutdown();
}

#[test]
fn bounded_store_evicts_and_reports_through_stats() {
    let registry = Arc::new(EngineRegistry::with_cache_capacity(2));
    registry
        .register_dataset("tenant", sample_dataset(31))
        .unwrap();
    let server = start_server(Arc::clone(&registry), 2);
    let addr = server.addr();

    // Three distinct threshold keys through a capacity-2 store.
    for seed in [1u64, 2, 3] {
        let request = AnalysisRequest::for_k(2).with_replicates(6).with_seed(seed);
        let (status, _) =
            post_envelope(addr, "/v1/analyze", &ApiRequest::analyze("tenant", request));
        assert_eq!(status, 200);
    }

    let (status, body) = http_call(addr, "GET", "/v1/stats", "");
    assert_eq!(status, 200);
    let response: ApiResponse = serde_json::from_str(&body).unwrap();
    let ApiResult::Stats(stats) = response.result else {
        panic!("expected stats");
    };
    assert_eq!(stats.engines, 1);
    assert_eq!(stats.analyze_requests, 3);
    assert_eq!(stats.threshold_store.capacity, Some(2));
    assert!(stats.threshold_store.entries <= 2);
    assert!(
        stats.threshold_store.evictions >= 1,
        "expected at least one LRU eviction, got {:?}",
        stats.threshold_store
    );
    // The per-engine profile caches surface over the wire too (ROADMAP open
    // item): three analyze calls over one engine mined at least one floor
    // profile, bounded by the default per-engine capacity.
    assert!(
        stats.profile_caches.entries >= 1,
        "expected mined profiles in the aggregate, got {:?}",
        stats.profile_caches
    );
    assert_eq!(
        stats.profile_caches.capacity,
        Some(sigfim_core::engine::DEFAULT_PROFILE_CACHE_CAPACITY),
        "one tenant with the default bound"
    );
    assert_eq!(
        stats.profile_caches.hits + stats.profile_caches.misses,
        3,
        "every analyze consults the profile cache once"
    );
    server.shutdown();
}

#[test]
fn dataset_less_thresholds_match_a_direct_dataset_less_engine() {
    let registry = Arc::new(EngineRegistry::new());
    let server = start_server(Arc::clone(&registry), 2);
    let addr = server.addr();

    let spec = ModelSpec::Bernoulli {
        transactions: 180,
        frequencies: vec![0.14; 9],
    };
    let request = AnalysisRequest::for_k(2).with_replicates(6);
    let (status, response) = post_envelope(
        addr,
        "/v1/thresholds",
        &ApiRequest::thresholds(spec.clone(), request.clone()),
    );
    assert_eq!(status, 200);
    let ApiResult::Thresholds(wire_runs) = response.result else {
        panic!("expected thresholds");
    };

    // Ground truth: a direct dataset-less engine over the same model.
    let model = BernoulliModel::new(180, vec![0.14; 9]).unwrap();
    let direct = AnalysisEngine::from_model(model)
        .thresholds(&request)
        .unwrap();
    assert_eq!(wire_runs.len(), direct.len());
    for (wire, local) in wire_runs.iter().zip(&direct) {
        assert_eq!(wire.estimate, local.estimate);
    }

    // A repeat is served from the shared store even though the transient
    // engine is gone.
    let (_, warm) = post_envelope(
        addr,
        "/v1/thresholds",
        &ApiRequest::thresholds(spec, request),
    );
    let ApiResult::Thresholds(warm_runs) = warm.result else {
        panic!("expected thresholds");
    };
    assert_eq!(warm_runs[0].threshold_cache, CacheStatus::Hit);
    server.shutdown();
}

#[test]
fn dataset_crud_and_detached_jobs_over_the_wire() {
    use sigfim_service::{ApiError, JobState};

    // Queue capacity 1: the second detached submission is shed with 429.
    let registry = Arc::new(EngineRegistry::with_capacities(None, 1));
    let server = start_server(Arc::clone(&registry), 3);
    let addr = server.addr();

    // PUT a dataset as a raw FIMI body — no JSON envelope, exactly the file
    // an operator would pass to `--dataset`.
    let mut fimi = Vec::new();
    sigfim_datasets::fimi::write_fimi(&sample_dataset(53), &mut fimi).unwrap();
    let fimi = String::from_utf8(fimi).unwrap();
    // FIMI has no representation for empty transactions, so the server sees
    // the round-tripped dataset — compare against that, not the sample.
    let dataset = sigfim_datasets::fimi::read_fimi_bytes(&fimi)
        .unwrap()
        .dataset;
    let (status, body) = http_call(addr, "PUT", "/v1/datasets/uploaded", &fimi);
    assert_eq!(status, 200, "{body}");
    let response: ApiResponse = serde_json::from_str(&body).unwrap();
    let ApiResult::Dataset(info) = response.result else {
        panic!("expected a dataset result: {body}");
    };
    assert_eq!(info.id, "uploaded");
    assert_eq!(info.transactions, dataset.num_transactions());
    assert!(info.has_dataset);

    // Detach an analysis: the submission returns a queued job immediately
    // (no workers are draining yet, so it *stays* queued — proof the
    // submitting socket never waits on the Monte-Carlo run).
    let request = AnalysisRequest::for_k(2).with_replicates(8);
    let (status, response) = post_envelope(
        addr,
        "/v1/analyze",
        &ApiRequest::analyze_detached("uploaded", request.clone()),
    );
    assert_eq!(status, 200);
    let ApiResult::Job(job) = response.result else {
        panic!("expected a job result");
    };
    assert_eq!(job.state, JobState::Queued);
    assert!(job.result.is_none());

    // The queue is full (capacity 1): the next submission is shed with the
    // typed overloaded error AND the standard Retry-After header.
    let shed_body =
        serde_json::to_string(&ApiRequest::analyze_detached("uploaded", request.clone())).unwrap();
    let raw = http_call_raw(addr, "POST", "/v1/analyze", &shed_body);
    assert!(raw.starts_with("HTTP/1.1 429"), "{raw}");
    assert!(raw.contains("Retry-After:"), "{raw}");
    let shed: ApiResponse = serde_json::from_str(raw.split_once("\r\n\r\n").unwrap().1).unwrap();
    assert!(matches!(shed.as_error(), Some(ApiError::Overloaded { .. })));

    // Start a worker and poll the job to completion through the wire.
    registry.start_job_workers(1);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    let done = loop {
        let (status, body) = http_call(addr, "GET", &format!("/v1/jobs/{}", job.id), "");
        assert_eq!(status, 200, "{body}");
        let response: ApiResponse = serde_json::from_str(&body).unwrap();
        let ApiResult::Job(polled) = response.result else {
            panic!("expected a job result: {body}");
        };
        if polled.state.is_terminal() {
            break polled;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "job never finished: {polled:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(25));
    };
    assert_eq!(done.state, JobState::Done);
    let result = done.result.expect("done jobs carry the response");
    // The job's response matches a direct in-process run bit for bit.
    let direct = AnalysisEngine::from_dataset(dataset)
        .unwrap()
        .run(&request)
        .unwrap();
    assert_eq!(result.runs[0].report, direct.runs[0].report);
    // And the frozen progress shows the pipeline ran to completion.
    let progress = done.progress.progress_for(2).expect("k=2 progress");
    assert!(progress
        .completed_stages
        .contains(&"procedure2".to_string()));

    // Unknown job ids are typed 404s.
    let (status, body) = http_call(addr, "GET", "/v1/jobs/job-99999999", "");
    assert_eq!(status, 404);
    let response: ApiResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(response.as_error().unwrap().code(), "unknown_job");

    // Stats expose the queue counters.
    let (_, body) = http_call(addr, "GET", "/v1/stats", "");
    let response: ApiResponse = serde_json::from_str(&body).unwrap();
    let ApiResult::Stats(stats) = response.result else {
        panic!("expected stats");
    };
    assert_eq!(stats.jobs.done, 1);
    assert_eq!(stats.jobs.capacity, 1);
    assert!(stats.store.is_none(), "no --data-dir, no store stats");

    // DELETE the dataset; analyzing it afterwards is unknown_dataset, and a
    // second DELETE 404s.
    let (status, body) = http_call(addr, "DELETE", "/v1/datasets/uploaded", "");
    assert_eq!(status, 200, "{body}");
    let response: ApiResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(
        response.result,
        ApiResult::DatasetDeleted("uploaded".into())
    );
    let (status, _) = post_envelope(
        addr,
        "/v1/analyze",
        &ApiRequest::analyze("uploaded", request),
    );
    assert_eq!(status, 404);
    let (status, _) = http_call(addr, "DELETE", "/v1/datasets/uploaded", "");
    assert_eq!(status, 404);
    // Wrong methods on the new route families are 405s, not 404s.
    let (status, _) = http_call(addr, "POST", "/v1/jobs/job-00000001", "");
    assert_eq!(status, 405);
    let (status, _) = http_call(addr, "POST", "/v1/datasets/x", "");
    assert_eq!(status, 405);

    server.shutdown();
}

#[test]
fn transport_errors_carry_the_typed_taxonomy_and_statuses() {
    let registry = Arc::new(EngineRegistry::new());
    registry
        .register_dataset("known", sample_dataset(41))
        .unwrap();
    let server = start_server(Arc::clone(&registry), 2);
    let addr = server.addr();

    // Liveness.
    let (status, body) = http_call(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    let health: ApiResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(health.result, ApiResult::Health);

    let expect_error = |method: &str, path: &str, body: &str, status: u16, code: &str| {
        let (got_status, got_body) = http_call(addr, method, path, body);
        assert_eq!(got_status, status, "{method} {path}: {got_body}");
        let response: ApiResponse = serde_json::from_str(&got_body).unwrap();
        assert_eq!(
            response.as_error().map(|e| e.code()),
            Some(code),
            "{method} {path}"
        );
    };

    // Routing errors.
    expect_error("GET", "/v2/nothing", "", 404, "not_found");
    expect_error("PUT", "/v1/analyze", "", 405, "method_not_allowed");
    expect_error("DELETE", "/healthz", "", 405, "method_not_allowed");
    // Body errors.
    expect_error(
        "POST",
        "/v1/analyze",
        "this is not json",
        400,
        "malformed_request",
    );
    // A thresholds envelope on the analyze path is a kind mismatch.
    let crossed = serde_json::to_string(&ApiRequest::thresholds(
        ModelSpec::Bernoulli {
            transactions: 10,
            frequencies: vec![0.5],
        },
        AnalysisRequest::for_k(2),
    ))
    .unwrap();
    expect_error("POST", "/v1/analyze", &crossed, 400, "malformed_request");
    // Protocol-version mismatches are typed.
    let mut stale = ApiRequest::analyze("known", AnalysisRequest::for_k(2));
    stale.protocol_version = PROTOCOL_VERSION + 7;
    let (status, response) = post_envelope(addr, "/v1/analyze", &stale);
    assert_eq!(status, 400);
    assert_eq!(
        response.as_error().unwrap().code(),
        "unsupported_protocol_version"
    );
    // ...even when the envelope carries kinds/shapes this server has never
    // heard of — the version is checked on the raw value before the typed
    // parse, so future clients get a negotiable error, not a misparse.
    let (status, body) = http_call(
        addr,
        "POST",
        "/v1/analyze",
        "{\"protocol_version\":2,\"kind\":\"jobs\",\"payload\":{\"new\":true}}",
    );
    assert_eq!(status, 400);
    let response: ApiResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(
        response.as_error().unwrap().code(),
        "unsupported_protocol_version"
    );
    // An envelope with no version at all is malformed.
    let (_, body) = http_call(addr, "POST", "/v1/analyze", "{\"kind\":\"analyze\"}");
    let response: ApiResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(response.as_error().unwrap().code(), "malformed_request");
    // Unknown tenants and invalid requests.
    let (status, response) = post_envelope(
        addr,
        "/v1/analyze",
        &ApiRequest::analyze("ghost", AnalysisRequest::for_k(2).with_replicates(4)),
    );
    assert_eq!(status, 404);
    assert_eq!(response.as_error().unwrap().code(), "unknown_dataset");
    let (status, response) = post_envelope(
        addr,
        "/v1/analyze",
        &ApiRequest::analyze("known", AnalysisRequest::for_k(2).with_replicates(0)),
    );
    assert_eq!(status, 400);
    assert_eq!(response.as_error().unwrap().code(), "invalid_request");

    // A head at the 64 KiB limit with no newline in sight is rejected with a
    // bounded buffer: the server answers 400 as soon as the take-limit is
    // hit, without waiting for a terminator that will never come.
    let mut stream = TcpStream::connect(addr).unwrap();
    let _ = stream.write_all(&vec![b'A'; 64 * 1024]);
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 400"), "{raw}");

    server.shutdown();
}

#[test]
fn uploaded_tenants_take_the_registry_engine_config() {
    // A PUT-uploaded dataset must carry the registry's backend, threads and
    // shard residency, exactly like a tenant listed on the command line.
    let spill_dir =
        std::env::temp_dir().join(format!("sigfim-loopback-config-{}", std::process::id()));
    let config = EngineConfig {
        backend: DatasetBackend::Sharded,
        threads: 1,
        residency: Some(ShardResidency {
            dir: Some(spill_dir.clone()),
            ..ShardResidency::with_budget(4096)
        }),
        ..EngineConfig::default()
    };
    let registry = Arc::new(EngineRegistry::new().with_engine_config(config));
    let server = start_server(Arc::clone(&registry), 2);
    let addr = server.addr();

    let mut fimi = Vec::new();
    sigfim_datasets::fimi::write_fimi(&sample_dataset(61), &mut fimi).unwrap();
    let fimi = String::from_utf8(fimi).unwrap();
    let (status, body) = http_call(addr, "PUT", "/v1/datasets/uploaded", &fimi);
    assert_eq!(status, 200, "{body}");

    let (status, body) = http_call(addr, "GET", "/v1/engines", "");
    assert_eq!(status, 200);
    assert!(body.contains(r#""backend":"Sharded""#), "{body}");
    let (status, body) = http_call(addr, "GET", "/v1/stats", "");
    assert_eq!(status, 200);
    assert!(body.contains(r#""budget_bytes":4096"#), "{body}");

    // The spilled sharded tenant analyzes like any other.
    let request = AnalysisRequest::for_k(2).with_replicates(4);
    let (status, response) = post_envelope(
        addr,
        "/v1/analyze",
        &ApiRequest::analyze("uploaded", request),
    );
    assert_eq!(status, 200, "{response:?}");
    server.shutdown();
    drop(registry);
    let _ = std::fs::remove_dir_all(&spill_dir);
}
