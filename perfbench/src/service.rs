//! The HTTP tier: a minimal loopback client, and the untraced end-to-end run
//! of the `service-mixed` workload — two closed-loop clients against one
//! `serve` instance with two connection workers. Client A sends warm
//! `POST /v1/analyze` requests cycling α/β; client B sends cold
//! `POST /v1/thresholds` requests with an inline Bernoulli model and a fresh
//! seed each time. Every request opens its own connection (the server
//! closes after each response).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use sigfim_core::engine::AnalysisRequest;
use sigfim_service::{ApiRequest, ApiResponse, ApiResult, EngineRegistry, ModelSpec};

use crate::report::{cpu_seconds, median, quantile, Outcome};
use crate::setup;
use crate::workloads::{pumsb_null_model, warm_requests, Workload};

/// One HTTP/1.1 exchange over a fresh connection: the status code and body.
pub fn post(addr: SocketAddr, path: &str, body: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let head = format!(
        "POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()))
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("receive: {e}"))?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| "response without a header/body separator".to_string())?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| format!("unparseable status line in {head:?}"))?;
    Ok((status, body.to_string()))
}

fn envelope_json(envelope: &ApiRequest) -> String {
    serde_json::to_string(envelope).expect("request envelopes always serialize")
}

/// The body the server must send for `envelope`: the in-process
/// `EngineRegistry::handle` of the same envelope, serialized.
pub fn expected_body(registry: &EngineRegistry, envelope: &ApiRequest) -> String {
    serde_json::to_string(&registry.handle(envelope)).expect("responses always serialize")
}

/// Post a warm analyze envelope and check the body byte for byte.
pub fn warm_call(addr: SocketAddr, body: &str, expected: &str) -> Result<(), String> {
    match post(addr, "/v1/analyze", body)? {
        (200, text) if text == expected => Ok(()),
        (200, _) => Err("analyze body differs from the in-process response".into()),
        (status, text) => Err(format!("analyze returned {status}: {text}")),
    }
}

/// The `index`-th cold threshold envelope: the Pumsb* null model inline,
/// with a seed no other request of the run uses.
fn threshold_envelope(workload: Workload, seed: u64, index: u64) -> ApiRequest {
    let model = pumsb_null_model();
    ApiRequest::thresholds(
        ModelSpec::Bernoulli {
            transactions: model.num_transactions(),
            frequencies: model.frequencies().to_vec(),
        },
        AnalysisRequest::for_ks(workload.ks())
            .with_seed(seed.wrapping_mul(1 << 20).wrapping_add(index)),
    )
}

/// Post a cold threshold envelope and return its round-trip latency. The
/// reply must be a cache miss, and its estimates must equal what the
/// registry's in-process `handle` of the same envelope returns afterwards
/// (served from the store the request filled).
fn cold_call(
    addr: SocketAddr,
    registry: &EngineRegistry,
    envelope: &ApiRequest,
) -> (f64, Result<(), String>) {
    let body = envelope_json(envelope);
    let began = Instant::now();
    let reply = post(addr, "/v1/thresholds", &body);
    let latency = began.elapsed().as_secs_f64();
    (
        latency,
        reply.and_then(|reply| check_thresholds(registry, envelope, reply)),
    )
}

fn check_thresholds(
    registry: &EngineRegistry,
    envelope: &ApiRequest,
    (status, text): (u16, String),
) -> Result<(), String> {
    if status != 200 {
        return Err(format!("thresholds returned {status}: {text}"));
    }
    let wire: ApiResponse =
        serde_json::from_str(&text).map_err(|e| format!("unparseable thresholds body: {e}"))?;
    match (wire.result, registry.handle(envelope).result) {
        (ApiResult::Thresholds(wire), ApiResult::Thresholds(local)) => {
            let cold = wire
                .iter()
                .all(|run| run.threshold_cache == sigfim_core::CacheStatus::Miss);
            let same = wire.len() == local.len()
                && wire
                    .iter()
                    .zip(&local)
                    .all(|(a, b)| a.k == b.k && a.estimate == b.estimate);
            match (cold, same) {
                (true, true) => Ok(()),
                (false, _) => Err("a fresh-seed threshold request hit the cache".into()),
                (true, false) => Err("threshold estimates differ from the in-process ones".into()),
            }
        }
        _ => Err("thresholds reply carried no thresholds".into()),
    }
}

#[derive(Default)]
struct Client {
    latencies: Vec<f64>,
    errors: Vec<String>,
}

/// Requests of each kind sent alone after the mixed session, to measure the
/// CPU time one request costs: warm ones per tenant, cold ones in total.
const ALONE_WARM: usize = 24;
const ALONE_COLD: usize = 3;

pub fn run(workload: Workload, seed: u64, seconds: f64, outcome: &mut Outcome) {
    let setup = match setup::service(workload, seed) {
        Ok(setup) => setup,
        Err(error) => return outcome.record(Some(format!("set-up failed: {error}"))),
    };
    let addr = setup.server.addr();
    let registry = &setup.registry;

    // Warm every tenant once (a cold analysis, untimed), then fix the
    // expected body of every warm variant from the in-process entry point.
    let mut variants: Vec<Vec<(String, String)>> = Vec::new();
    for (tenant, request) in &setup.tenants {
        let warm_up = envelope_json(&ApiRequest::analyze(tenant.clone(), request.clone()));
        outcome.record(match post(addr, "/v1/analyze", &warm_up) {
            Ok((200, _)) => None,
            Ok((status, text)) => Some(format!("warm-up analyze returned {status}: {text}")),
            Err(error) => Some(error),
        });
        let envelopes = warm_requests(request).into_iter().map(|variant| {
            let envelope = ApiRequest::analyze(tenant.clone(), variant);
            (envelope_json(&envelope), expected_body(registry, &envelope))
        });
        variants.push(envelopes.collect());
    }
    let all_tenants: Vec<usize> = (0..variants.len()).collect();
    // Warm requests go round `tenants`, each tenant's variants in turn.
    let warm_client = |tenants: &[usize], count: Option<usize>, deadline: Instant| {
        let mut client = Client::default();
        let mut sent = 0;
        while count.map_or(sent == 0 || Instant::now() < deadline, |n| sent < n) {
            let tenant = tenants[sent % tenants.len()];
            let own = &variants[tenant];
            let (body, expected) = &own[sent / tenants.len() % own.len()];
            let began = Instant::now();
            let result = warm_call(addr, body, expected);
            client.latencies.push(began.elapsed().as_secs_f64());
            client.errors.extend(result.err());
            sent += 1;
        }
        client
    };
    let cold_client = |first: u64, count: Option<usize>, deadline: Instant| {
        let mut client = Client::default();
        let mut sent = 0;
        while count.map_or(sent == 0 || Instant::now() < deadline, |n| sent < n) {
            let envelope = threshold_envelope(workload, seed, first + sent as u64);
            let (latency, result) = cold_call(addr, registry, &envelope);
            client.latencies.push(latency);
            client.errors.extend(result.err());
            sent += 1;
        }
        client
    };

    // The mixed session: both clients at once, for the run's seconds.
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let (warm, cold) = std::thread::scope(|scope| {
        let warm = scope.spawn(|| warm_client(&all_tenants, None, deadline));
        let cold = scope.spawn(|| cold_client(0, None, deadline));
        (
            warm.join().expect("the warm client does not panic"),
            cold.join().expect("the cold client does not panic"),
        )
    });
    let elapsed = start.elapsed().as_secs_f64();

    // Each kind alone: the CPU time of one request, warm ones per tenant.
    let mut warm_cpu = Vec::new();
    let mut warm_alone = Vec::new();
    for &tenant in &all_tenants {
        let cpu = cpu_seconds();
        warm_alone.push(warm_client(&[tenant], Some(ALONE_WARM), start));
        warm_cpu.push((cpu_seconds() - cpu) / ALONE_WARM as f64);
    }
    let cpu = cpu_seconds();
    let cold_alone = cold_client(cold.latencies.len() as u64, Some(ALONE_COLD), start);
    let cold_cpu = (cpu_seconds() - cpu) / ALONE_COLD as f64;
    setup.server.shutdown();

    for client in [&warm, &cold, &cold_alone].into_iter().chain(&warm_alone) {
        outcome.attempted += client.latencies.len() as u64;
        for error in &client.errors {
            outcome.fail(error.clone());
        }
    }
    eprintln!(
        "{}: {} warm analyze and {} cold threshold requests {:.3?} s in {elapsed:.1} s",
        workload.name(),
        warm.latencies.len(),
        cold.latencies.len(),
        cold.latencies,
    );
    let (warm_n, cold_n) = (warm.latencies.len(), cold.latencies.len());
    eprintln!("warm CPU per request, per tenant: {warm_cpu:.4?} s");
    outcome.note(
        "request_p50_ms",
        median(&warm.latencies) * 1e3,
        "ms",
        warm_n,
    );
    outcome.note(
        "request_p90_ms",
        quantile(&warm.latencies, 0.9) * 1e3,
        "ms",
        warm_n,
    );
    outcome.note("requests_per_s", warm_n as f64 / elapsed, "1/s", warm_n);
    outcome.note("cold_request_s", median(&cold.latencies), "s", cold_n);
    outcome.push("setup_s", setup.seconds, "s");
    outcome.push("cold_cpu_s", cold_cpu, "s");
    outcome.push("warm_cpu_ms", median(&warm_cpu) * 1e3, "ms");
}
