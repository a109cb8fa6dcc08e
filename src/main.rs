//! `sigfim` — command-line significance analysis of a transactional dataset.
//!
//! ```text
//! sigfim <dataset.dat> [--k <size|a,b,c|lo..hi>] [--alpha <a>] [--beta <b>]
//!        [--epsilon <e>] [--replicates <n>] [--threads <n>] [--seed <n>]
//!        [--miner apriori|eclat|fp-growth|par-eclat|auto]
//!        [--backend auto|csr|bitmap|sharded]
//!        [--kernels scalar|avx2|avx512|auto]
//!        [--sampler cellwise|gaps|auto]
//!        [--shard-residency <bytes[K|M|G]>]
//!        [--max-restarts <n>] [--swap-null [<swaps-per-entry>]]
//!        [--cache-capacity <n>] [--conservative-lambda] [--no-baseline]
//!        [--list <n>]
//!
//! sigfim serve [<id>=]<dataset.dat>... [--addr <host:port>] [--workers <n>]
//!        [--cache-capacity <n>] [--threads <n>] [--backend auto|csr|bitmap|sharded]
//!        [--kernels scalar|avx2|avx512|auto]
//!        [--sampler cellwise|gaps|auto]
//!        [--shard-residency <bytes[K|M|G]>]
//!        [--swap-null [<swaps-per-entry>]]
//!        [--data-dir <dir>] [--queue-capacity <n>] [--job-workers <n>]
//! ```
//!
//! The dataset must be in the FIMI `.dat` format (one whitespace-separated
//! transaction per line, arbitrary integer item labels). The tool runs the full
//! pipeline of Kirsch et al. (PODS 2009) through the session-oriented
//! [`AnalysisEngine`]: Algorithm 1 to find the Poisson threshold `s_min`,
//! Procedure 2 to pick the significance threshold `s*` with FDR control, and
//! (unless `--no-baseline`) the Benjamini–Yekutieli baseline of Procedure 1 for
//! comparison.
//!
//! `--k` accepts a single size (`--k 3`), a comma list (`--k 2,3,4`), or an
//! inclusive range (`--k 2..5`, equivalently `2..=5`): a range runs as **one
//! multi-k batch** on the engine, which builds the dataset view once and serves
//! repeated thresholds from its cache. The exit code is 0 if the analysis ran,
//! regardless of whether any significant itemsets were found.
//!
//! `sigfim serve` registers each dataset as a tenant of a multi-tenant
//! HTTP/JSON service (one dyn-erased engine per dataset, one shared
//! LRU-bounded threshold store across all of them) and serves
//! `POST /v1/analyze`, `POST /v1/thresholds`, `PUT|DELETE /v1/datasets/<id>`,
//! `GET /v1/jobs/<id>`, `GET /v1/engines`, `GET /v1/stats` and `GET /healthz`
//! until killed. With `--data-dir` the service opens a [`sigfim-store`]
//! database there: uploaded datasets, estimated thresholds and job records
//! are persisted, and a restarted server replays them — same datasets, warm
//! threshold cache, queued jobs re-enqueued, interrupted jobs failed
//! deterministically. Detached analyses (`"detach": true` on the analyze
//! envelope) return a job id immediately; `--job-workers` background threads
//! drain the queue, which sheds with HTTP 429 + `Retry-After` past
//! `--queue-capacity` pending jobs.
//!
//! [`sigfim-store`]: sigfim::service::ServiceDb

use std::process::ExitCode;
use std::sync::Arc;

use sigfim::core::engine::DEFAULT_SEED;
use sigfim::core::ExecutionPolicy;
use sigfim::datasets::bitmap::{DatasetBackend, ResolvedBackend};
use sigfim::datasets::fimi::read_fimi_file;
use sigfim::datasets::kernels::{configure_kernels, KernelMode};
use sigfim::datasets::transaction::TransactionDataset;
use sigfim::datasets::{
    configure_sampler, parse_budget_bytes, sweep_stale_spill_dirs, SamplerMode, ShardResidency,
};
use sigfim::mining::miner::MinerKind;
use sigfim::mining::tuned_miner;
use sigfim::prelude::{
    AnalysisEngine, AnalysisRequest, CacheStatus, DatasetSummary, DynAnalysisEngine, LambdaMode,
};
use sigfim::service::http::{serve, ServerConfig};
use sigfim::service::{EngineConfig, EngineRegistry};

#[derive(Debug)]
struct CliOptions {
    path: String,
    ks: Vec<usize>,
    alpha: f64,
    beta: f64,
    epsilon: f64,
    replicates: usize,
    seed: u64,
    /// `--miner` selection; `None` is `auto`, resolved after the dataset
    /// loads: the sequential bitset Eclat when the resolved backend is dense
    /// (bitmap/sharded) and more than one worker is available, Apriori
    /// otherwise. Every choice yields bit-identical reports.
    miner: Option<MinerKind>,
    /// Physical dataset backend ({auto, csr, bitmap, sharded}); `auto` resolves per
    /// workload from the density/size heuristic. The analysis result is
    /// identical either way.
    backend: DatasetBackend,
    /// Monte-Carlo worker threads: 0 = all cores (the default), 1 = strictly
    /// sequential. The result is bit-identical either way.
    threads: usize,
    max_restarts: usize,
    swap_null: Option<f64>,
    /// LRU bound on the engine's threshold cache (None = unbounded; mostly
    /// relevant for scripted multi-invocation loops and the serve mode).
    cache_capacity: Option<usize>,
    conservative_lambda: bool,
    baseline: bool,
    list: usize,
    /// `--kernels` counting-kernel selection, validated against this CPU at
    /// startup. `None` defers to `SIGFIM_KERNELS`, then `auto` (the widest
    /// kernel the CPU supports); a flag that conflicts with a set
    /// `SIGFIM_KERNELS` is a startup error.
    kernels: Option<KernelMode>,
    /// `--sampler` replicate-sampler selection. `None` defers to
    /// `SIGFIM_SAMPLER` (default `cellwise`); a flag that conflicts with a
    /// set `SIGFIM_SAMPLER` is a startup error, mirroring `--kernels`.
    sampler: Option<SamplerMode>,
    /// `--shard-residency <bytes>`: byte budget on resident shards of the
    /// sharded backend — beyond it, shards spill to per-shard files and
    /// fault back in on demand (LRU). `None` keeps every shard resident;
    /// results are bit-identical at every budget.
    shard_residency: Option<u64>,
}

const USAGE: &str = "usage: sigfim <dataset.dat> [--k <size|a,b,c|lo..hi>] [--alpha <a>] \
    [--beta <b>] [--epsilon <e>] [--replicates <n>] [--threads <n>] [--seed <n>] \
    [--miner apriori|eclat|fp-growth|par-eclat|auto] [--backend auto|csr|bitmap|sharded] \
    [--kernels scalar|avx2|avx512|auto] [--sampler cellwise|gaps|auto] \
    [--shard-residency <bytes[K|M|G]>] [--max-restarts <n>] \
    [--swap-null [<swaps-per-entry>]] [--cache-capacity <n>] [--conservative-lambda] \
    [--no-baseline] [--list <n>]\n\
    \n\
    sigfim serve [<id>=]<dataset.dat>... [--addr <host:port>] [--workers <n>]\n\
    \x20       [--cache-capacity <n>] [--threads <n>] [--backend auto|csr|bitmap|sharded]\n\
    \x20       [--kernels scalar|avx2|avx512|auto] [--sampler cellwise|gaps|auto]\n\
    \x20       [--shard-residency <bytes[K|M|G]>] [--swap-null [<swaps-per-entry>]]\n\
    \x20       [--data-dir <dir>] [--queue-capacity <n>] [--job-workers <n>]\n\
    \n\
    --k accepts a single itemset size, a comma list (2,3,4), or an inclusive\n\
    range (2..5 == 2..=5) that runs as one cached multi-k batch.\n\
    --seed defaults to the library default 0x51F1D009, so the CLI, the engine\n\
    API and the service all reproduce each other bit for bit.\n\
    --miner auto picks the sequential bitset Eclat on dense (bitmap/sharded)\n\
    datasets when more than one worker thread is available, Apriori\n\
    otherwise; every miner produces bit-identical reports.\n\
    --kernels selects the counting kernel, validated against this CPU at\n\
    startup; it mirrors SIGFIM_KERNELS, and a conflicting combination of flag\n\
    and environment is an error rather than a silent preference.\n\
    --sampler selects the null-replicate sampler (mirrors SIGFIM_SAMPLER):\n\
    cellwise is the legacy per-cell Bernoulli draw, gaps draws only the set\n\
    bits via geometric jumps (a different RNG stream, so estimates differ\n\
    numerically but not statistically), auto picks gaps per run when the\n\
    model supports it and its density is at most 0.05.\n\
    --shard-residency bounds the bytes of sharded-backend shards kept in\n\
    memory (suffixes K/M/G, powers of 1024): cold shards spill to per-shard\n\
    files and fault back on demand (via mmap where the platform supports it),\n\
    with bit-identical reports at every budget. In serve mode with --data-dir\n\
    the spill files live under <data-dir>/spill.\n\
    `serve` starts the multi-tenant HTTP/JSON front-end: one engine per\n\
    dataset, one shared LRU threshold store (--cache-capacity bounds it),\n\
    endpoints POST /v1/analyze, POST /v1/thresholds, PUT|DELETE\n\
    /v1/datasets/<id>, GET /v1/jobs/<id>, GET /v1/engines, GET /v1/stats,\n\
    GET /healthz. --data-dir makes the service durable: uploaded datasets,\n\
    thresholds and job records persist there and a restarted server replays\n\
    them (warm cache, re-queued jobs); with it, the dataset list may be\n\
    empty. Detached analyses queue up to --queue-capacity jobs (shed with\n\
    429 beyond that) drained by --job-workers background threads.";

/// Parse a `--k` specification: `3`, `2,3,4`, `2..5` or `2..=5` (both
/// range forms are inclusive of the upper bound).
fn parse_k_spec(spec: &str) -> Result<Vec<usize>, String> {
    let parse_one = |s: &str| -> Result<usize, String> {
        s.trim()
            .parse::<usize>()
            .map_err(|_| format!("--k: could not parse `{s}` as an itemset size"))
    };
    if let Some((lo, hi)) = spec.split_once("..") {
        let hi = hi.strip_prefix('=').unwrap_or(hi);
        let (lo, hi) = (parse_one(lo)?, parse_one(hi)?);
        if lo > hi {
            return Err(format!("--k: empty range `{spec}` (lo > hi)"));
        }
        return Ok((lo..=hi).collect());
    }
    // split(',') yields at least one piece, so the list is never empty (an
    // empty spec fails inside parse_one).
    spec.split(',').map(parse_one).collect()
}

fn parse_options<I: Iterator<Item = String>>(mut args: I) -> Result<CliOptions, String> {
    let _program = args.next();
    let mut options = CliOptions {
        path: String::new(),
        ks: vec![2],
        alpha: 0.05,
        beta: 0.05,
        epsilon: 0.01,
        replicates: 64,
        seed: DEFAULT_SEED,
        miner: Some(MinerKind::Apriori),
        backend: DatasetBackend::Auto,
        threads: 0,
        max_restarts: 4,
        swap_null: None,
        cache_capacity: None,
        conservative_lambda: false,
        baseline: true,
        list: 25,
        kernels: None,
        sampler: None,
        shard_residency: None,
    };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => return Err(USAGE.to_string()),
            "--k" => {
                let spec = args.next().ok_or("--k requires a value")?;
                options.ks = parse_k_spec(&spec)?;
            }
            "--alpha" => options.alpha = parse_value(&mut args, "--alpha")?,
            "--beta" => options.beta = parse_value(&mut args, "--beta")?,
            "--epsilon" => options.epsilon = parse_value(&mut args, "--epsilon")?,
            "--replicates" => options.replicates = parse_value(&mut args, "--replicates")?,
            "--threads" => options.threads = parse_value(&mut args, "--threads")?,
            "--seed" => options.seed = parse_value(&mut args, "--seed")?,
            "--max-restarts" => options.max_restarts = parse_value(&mut args, "--max-restarts")?,
            "--cache-capacity" => {
                options.cache_capacity = Some(parse_value(&mut args, "--cache-capacity")?)
            }
            "--list" => options.list = parse_value(&mut args, "--list")?,
            "--no-baseline" => options.baseline = false,
            "--conservative-lambda" => options.conservative_lambda = true,
            "--swap-null" => {
                // Optional numeric argument (swaps per incidence); default 3.
                let swaps = match args.peek() {
                    Some(next) if !next.starts_with("--") => {
                        let parsed = next
                            .parse::<f64>()
                            .map_err(|_| format!("--swap-null expects a number, got `{next}`"))?;
                        args.next();
                        parsed
                    }
                    _ => 3.0,
                };
                options.swap_null = Some(swaps);
            }
            "--backend" => {
                let name = args.next().ok_or("--backend requires a value")?;
                options.backend = name.parse::<DatasetBackend>()?;
            }
            "--miner" => {
                let name = args.next().ok_or("--miner requires a value")?;
                options.miner = match name.as_str() {
                    "apriori" => Some(MinerKind::Apriori),
                    "eclat" => Some(MinerKind::Eclat),
                    "fp-growth" | "fpgrowth" => Some(MinerKind::FpGrowth),
                    "par-eclat" | "pareclat" => Some(MinerKind::ParEclat),
                    "auto" => None,
                    other => return Err(format!("unknown miner `{other}`")),
                };
            }
            "--kernels" => {
                let name = args.next().ok_or("--kernels requires a value")?;
                options.kernels = Some(name.parse::<KernelMode>()?);
            }
            "--sampler" => {
                let name = args.next().ok_or("--sampler requires a value")?;
                options.sampler = Some(name.parse::<SamplerMode>()?);
            }
            "--shard-residency" => {
                let value = args.next().ok_or("--shard-residency requires a value")?;
                options.shard_residency = Some(
                    parse_budget_bytes(&value)
                        .map_err(|error| format!("--shard-residency: {error}"))?,
                );
            }
            path if !path.starts_with("--") && options.path.is_empty() => {
                options.path = path.to_string();
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if options.path.is_empty() {
        return Err(USAGE.to_string());
    }
    Ok(options)
}

fn parse_value<T: std::str::FromStr, I: Iterator<Item = String>>(
    args: &mut std::iter::Peekable<I>,
    flag: &str,
) -> Result<T, String> {
    let value = args
        .next()
        .ok_or_else(|| format!("{flag} requires a value"))?;
    value
        .parse()
        .map_err(|_| format!("{flag}: could not parse `{value}`"))
}

/// Validate the kernel and sampler configuration (the `--kernels` /
/// `--sampler` flags against `SIGFIM_KERNELS` / `SIGFIM_SAMPLER` and this
/// CPU) at startup, so misconfiguration is a clean error here instead of a
/// panic at the first dispatch deep inside the analysis.
fn configure_kernel_startup(
    kernels: Option<KernelMode>,
    sampler: Option<SamplerMode>,
) -> Result<(), String> {
    configure_kernels(kernels)?;
    configure_sampler(sampler)?;
    Ok(())
}

/// Resolve `--miner auto` once the dataset is loaded: the static
/// [`tuned_miner`] rule (the sequential bitset Eclat) on a dense (bitmap or
/// sharded) resolved backend with more than one worker, and the Apriori
/// default otherwise.
fn resolve_miner(options: &CliOptions, dataset: &TransactionDataset) -> MinerKind {
    match options.miner {
        Some(miner) => miner,
        None => {
            let dense = options.backend.resolve_for_dataset(dataset) != ResolvedBackend::Csr;
            let workers = ExecutionPolicy::from_threads(options.threads).worker_threads();
            if dense && workers > 1 {
                tuned_miner(true, workers)
            } else {
                MinerKind::Apriori
            }
        }
    }
}

fn request_from(options: &CliOptions, miner: MinerKind) -> AnalysisRequest {
    AnalysisRequest::for_ks(options.ks.iter().copied())
        .with_alpha(options.alpha)
        .with_beta(options.beta)
        .with_epsilon(options.epsilon)
        .with_replicates(options.replicates)
        .with_seed(options.seed)
        .with_miner(miner)
        .with_lambda_mode(if options.conservative_lambda {
            LambdaMode::Conservative
        } else {
            LambdaMode::Faithful
        })
        .with_baseline(options.baseline)
        .with_max_restarts(options.max_restarts)
}

/// Options of the `sigfim serve` subcommand.
#[derive(Debug)]
struct ServeOptions {
    /// `(id, path)` dataset registrations; the id defaults to the file stem.
    datasets: Vec<(String, String)>,
    addr: String,
    /// Connection worker threads (0 = one per core, the ExecutionPolicy
    /// thread-accounting convention).
    workers: usize,
    /// LRU bound of the shared threshold store (None = unbounded).
    cache_capacity: Option<usize>,
    /// Monte-Carlo worker threads per engine.
    threads: usize,
    backend: DatasetBackend,
    swap_null: Option<f64>,
    /// `--kernels` counting-kernel selection (see [`CliOptions::kernels`]).
    kernels: Option<KernelMode>,
    /// `--sampler` replicate-sampler selection (see [`CliOptions::sampler`]).
    sampler: Option<SamplerMode>,
    /// `--shard-residency` byte budget (see [`CliOptions::shard_residency`]).
    shard_residency: Option<u64>,
    /// `--data-dir`: directory of the durable store. `None` runs the service
    /// purely in memory, exactly as before the store existed.
    data_dir: Option<String>,
    /// `--queue-capacity`: pending detached jobs before submissions shed
    /// with 429.
    queue_capacity: usize,
    /// `--job-workers`: background threads draining the job queue.
    job_workers: usize,
}

/// Split a `id=path` registration spec; a bare path registers under its file
/// stem (`data/retail.dat` → `retail`).
fn parse_dataset_spec(spec: &str) -> Result<(String, String), String> {
    if let Some((id, path)) = spec.split_once('=') {
        if id.is_empty() || path.is_empty() {
            return Err(format!("serve: malformed dataset spec `{spec}`"));
        }
        return Ok((id.to_string(), path.to_string()));
    }
    let stem = std::path::Path::new(spec)
        .file_stem()
        .and_then(|stem| stem.to_str())
        .filter(|stem| !stem.is_empty())
        .ok_or_else(|| format!("serve: cannot derive a dataset id from `{spec}`"))?;
    Ok((stem.to_string(), spec.to_string()))
}

fn parse_serve_options<I: Iterator<Item = String>>(args: I) -> Result<ServeOptions, String> {
    let mut options = ServeOptions {
        datasets: Vec::new(),
        addr: "127.0.0.1:7878".to_string(),
        workers: 0,
        cache_capacity: None,
        threads: 0,
        backend: DatasetBackend::Auto,
        swap_null: None,
        kernels: None,
        sampler: None,
        shard_residency: None,
        data_dir: None,
        queue_capacity: sigfim::service::DEFAULT_QUEUE_CAPACITY,
        job_workers: 1,
    };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => return Err(USAGE.to_string()),
            "--addr" => options.addr = args.next().ok_or("--addr requires a value")?,
            "--data-dir" => {
                options.data_dir = Some(args.next().ok_or("--data-dir requires a value")?)
            }
            "--queue-capacity" => {
                options.queue_capacity = parse_value(&mut args, "--queue-capacity")?
            }
            "--job-workers" => options.job_workers = parse_value(&mut args, "--job-workers")?,
            "--kernels" => {
                let name = args.next().ok_or("--kernels requires a value")?;
                options.kernels = Some(name.parse::<KernelMode>()?);
            }
            "--sampler" => {
                let name = args.next().ok_or("--sampler requires a value")?;
                options.sampler = Some(name.parse::<SamplerMode>()?);
            }
            "--shard-residency" => {
                let value = args.next().ok_or("--shard-residency requires a value")?;
                options.shard_residency = Some(
                    parse_budget_bytes(&value)
                        .map_err(|error| format!("--shard-residency: {error}"))?,
                );
            }
            "--workers" => options.workers = parse_value(&mut args, "--workers")?,
            "--cache-capacity" => {
                options.cache_capacity = Some(parse_value(&mut args, "--cache-capacity")?)
            }
            "--threads" => options.threads = parse_value(&mut args, "--threads")?,
            "--backend" => {
                let name = args.next().ok_or("--backend requires a value")?;
                options.backend = name.parse::<DatasetBackend>()?;
            }
            "--swap-null" => {
                let swaps = match args.peek() {
                    Some(next) if !next.starts_with("--") && next.parse::<f64>().is_ok() => {
                        let parsed = next.parse::<f64>().expect("checked above");
                        args.next();
                        parsed
                    }
                    _ => 3.0,
                };
                options.swap_null = Some(swaps);
            }
            spec if !spec.starts_with("--") => options.datasets.push(parse_dataset_spec(spec)?),
            other => return Err(format!("serve: unknown argument `{other}`\n{USAGE}")),
        }
    }
    if options.datasets.is_empty() && options.data_dir.is_none() {
        return Err(format!(
            "serve: at least one dataset (or --data-dir) is required\n{USAGE}"
        ));
    }
    Ok(options)
}

/// Run the service front-end until killed.
fn serve_main(options: &ServeOptions) -> Result<(), String> {
    configure_kernel_startup(options.kernels, options.sampler)?;
    // Spill files belong next to the rest of the service state: under
    // --data-dir they survive operator inspection and share the volume's
    // capacity planning. A server stopped by a signal leaves its spill
    // directories behind, so startup sweeps those of dead processes.
    let spill_dir = options
        .data_dir
        .as_ref()
        .map(|dir| std::path::Path::new(dir).join("spill"));
    if let Some(dir) = &spill_dir {
        match sweep_stale_spill_dirs(dir) {
            Ok(0) => {}
            Ok(removed) => println!(
                "removed {removed} stale spill directories under `{}`",
                dir.display()
            ),
            Err(error) => eprintln!("warning: cannot sweep `{}`: {error}", dir.display()),
        }
    }
    let engine_config = EngineConfig {
        swap_null: options.swap_null,
        backend: options.backend,
        threads: options.threads,
        residency: options.shard_residency.map(|budget| ShardResidency {
            dir: spill_dir,
            ..ShardResidency::with_budget(budget)
        }),
    };
    let registry = Arc::new(
        EngineRegistry::with_capacities(options.cache_capacity, options.queue_capacity)
            .with_engine_config(engine_config),
    );
    for (id, path) in &options.datasets {
        let labeled =
            read_fimi_file(path).map_err(|error| format!("cannot read `{path}`: {error}"))?;
        let dataset = labeled.dataset;
        let summary = DatasetSummary::from_dataset(&dataset);
        registry
            .register_dataset(id.clone(), dataset)
            .map_err(|error| format!("cannot register `{id}`: {error}"))?;
        println!(
            "registered `{id}`: {} transactions, {} items, avg length {:.2}",
            summary.num_transactions, summary.num_items, summary.avg_transaction_len
        );
    }

    // Durable mode: replay the store *after* the CLI datasets register, so a
    // file passed on the command line wins over a stale persisted copy of
    // the same id, then start the workers so recovered jobs drain.
    if let Some(dir) = &options.data_dir {
        let db = sigfim::service::ServiceDb::open(dir)
            .map_err(|error| format!("cannot open --data-dir `{dir}`: {error}"))?;
        let summary = registry
            .attach_db(db)
            .map_err(|error| format!("cannot replay --data-dir `{dir}`: {error}"))?;
        println!(
            "restored from `{dir}`: {} datasets, {} thresholds, {} jobs re-queued, {} interrupted",
            summary.datasets, summary.thresholds, summary.jobs_requeued, summary.jobs_interrupted
        );
    }
    registry.start_job_workers(options.job_workers);

    let server = serve(
        Arc::clone(&registry),
        &ServerConfig {
            addr: options.addr.clone(),
            workers: options.workers,
        },
    )
    .map_err(|error| format!("cannot bind `{}`: {error}", options.addr))?;
    println!("sigfim service listening on http://{}", server.addr());
    println!("  POST /v1/analyze     {{protocol_version, kind: \"analyze\", dataset, request}}");
    println!("                       (+ \"detach\": true to queue a background job)");
    println!("  POST /v1/thresholds  {{protocol_version, kind: \"thresholds\", model, request}}");
    println!("  PUT|DELETE /v1/datasets/<id>   (PUT body: raw FIMI)");
    println!("  GET  /v1/jobs/<id> | /v1/engines | /v1/stats | /healthz");
    server.join();
    Ok(())
}

fn main() -> ExitCode {
    let mut args = std::env::args();
    let _program = args.next();
    let mut args = args.peekable();
    if args.peek().map(String::as_str) == Some("serve") {
        args.next();
        let result = parse_serve_options(args).and_then(|options| serve_main(&options));
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("{message}");
                ExitCode::FAILURE
            }
        };
    }

    let options = match parse_options(std::iter::once("sigfim".to_string()).chain(args)) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(message) = configure_kernel_startup(options.kernels, options.sampler) {
        eprintln!("sigfim: {message}");
        return ExitCode::FAILURE;
    }

    let labeled = match read_fimi_file(&options.path) {
        Ok(labeled) => labeled,
        Err(error) => {
            eprintln!("sigfim: cannot read `{}`: {error}", options.path);
            return ExitCode::FAILURE;
        }
    };
    let dataset = &labeled.dataset;
    let summary = DatasetSummary::from_dataset(dataset);
    println!("{}", summary.table1_row(&options.path));
    println!();

    // One engine per invocation: the dataset view is built once and shared by
    // every k of the sweep, and the threshold cache collapses duplicate keys.
    let request = request_from(&options, resolve_miner(&options, dataset));
    let configure = |mut engine: DynAnalysisEngine| {
        if let Some(budget) = options.shard_residency {
            engine = engine.with_shard_residency(ShardResidency::with_budget(budget));
        }
        engine = engine
            .with_backend(options.backend)
            .with_threads(options.threads);
        if let Some(capacity) = options.cache_capacity {
            engine = engine.with_cache_capacity(capacity);
        }
        engine
            .run(&request)
            .map_err(|e| format!("analysis failed: {e}"))
    };
    let response = match options.swap_null {
        Some(swaps) => AnalysisEngine::with_swap_null(dataset.clone(), swaps)
            .map(AnalysisEngine::into_dyn)
            .map_err(|e| format!("cannot build the swap-randomization null model: {e}"))
            .and_then(configure),
        None => AnalysisEngine::from_dataset(dataset.clone())
            .map(AnalysisEngine::into_dyn)
            .map_err(|e| format!("analysis failed: {e}"))
            .and_then(configure),
    };
    let response = match response {
        Ok(response) => response,
        Err(message) => {
            eprintln!("sigfim: {message}");
            return ExitCode::FAILURE;
        }
    };

    let multi_k = response.runs.len() > 1;
    for run in &response.runs {
        if multi_k {
            println!("==== k = {} ====", run.k);
        }
        print!("{}", run.report);
        if run.threshold_cache == CacheStatus::Hit {
            println!("  (threshold served from the engine cache)");
        }
        let significant = &run.report.procedure2.significant;
        if !significant.is_empty() {
            println!();
            println!(
                "top {} significant {}-itemsets (original item labels):",
                options.list.min(significant.len()),
                run.k
            );
            let mut ranked = significant.clone();
            ranked.sort_by_key(|m| std::cmp::Reverse(m.support));
            for itemset in ranked.iter().take(options.list) {
                println!(
                    "  {:?}  support {}",
                    labeled.labels_of(&itemset.items),
                    itemset.support
                );
            }
        }
        if multi_k {
            println!();
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CliOptions, String> {
        parse_options(
            std::iter::once("sigfim".to_string()).chain(args.iter().map(|s| s.to_string())),
        )
    }

    #[test]
    fn k_spec_forms() {
        assert_eq!(parse_k_spec("3").unwrap(), vec![3]);
        assert_eq!(parse_k_spec("2,4,3").unwrap(), vec![2, 4, 3]);
        assert_eq!(parse_k_spec("2..5").unwrap(), vec![2, 3, 4, 5]);
        assert_eq!(parse_k_spec("2..=5").unwrap(), vec![2, 3, 4, 5]);
        assert_eq!(parse_k_spec("4..4").unwrap(), vec![4]);
        assert!(parse_k_spec("5..2").is_err());
        assert!(parse_k_spec("two").is_err());
        assert!(parse_k_spec("2..x").is_err());
    }

    #[test]
    fn cli_defaults_match_the_library() {
        let options = parse(&["data.dat"]).unwrap();
        // The satellite contract: the CLI inherits the library default seed
        // instead of carrying its own.
        assert_eq!(options.seed, DEFAULT_SEED);
        assert_eq!(options.ks, vec![2]);
        assert_eq!(options.max_restarts, 4);
        assert_eq!(options.miner, Some(MinerKind::Apriori));
        assert_eq!(options.kernels, None);
        let request = request_from(&options, MinerKind::Apriori);
        assert_eq!(request, AnalysisRequest::for_k(2));
    }

    #[test]
    fn cli_flags_reach_the_request() {
        let options = parse(&[
            "data.dat",
            "--k",
            "2..4",
            "--alpha",
            "0.01",
            "--replicates",
            "128",
            "--seed",
            "7",
            "--max-restarts",
            "2",
            "--conservative-lambda",
            "--no-baseline",
        ])
        .unwrap();
        let request = request_from(&options, options.miner.unwrap());
        assert_eq!(request.ks, vec![2, 3, 4]);
        assert!((request.alpha - 0.01).abs() < 1e-15);
        assert_eq!(request.replicates, 128);
        assert_eq!(request.seed, 7);
        assert_eq!(request.max_restarts, 2);
        assert_eq!(request.lambda_mode, LambdaMode::Conservative);
        assert!(!request.baseline);
    }

    #[test]
    fn usage_documents_the_default_seed() {
        assert!(USAGE.contains("0x51F1D009"));
        assert!(parse(&["--help"]).unwrap_err().contains("0x51F1D009"));
    }

    #[test]
    fn miner_flag_accepts_par_eclat_and_auto() {
        let explicit = parse(&["data.dat", "--miner", "par-eclat"]).unwrap();
        assert_eq!(explicit.miner, Some(MinerKind::ParEclat));
        let auto = parse(&["data.dat", "--miner", "auto"]).unwrap();
        assert_eq!(auto.miner, None);
        assert!(parse(&["data.dat", "--miner", "warp"]).is_err());

        // `auto` resolution: the sequential bitset Eclat when the backend is
        // dense AND more than one worker is available; Apriori otherwise. A
        // forced bitmap backend makes the density check deterministic.
        let dataset = TransactionDataset::from_transactions(
            3,
            vec![vec![0, 1, 2], vec![0, 1], vec![1, 2], vec![0, 2]],
        )
        .unwrap();
        let parallel = CliOptions {
            backend: DatasetBackend::Bitmap,
            threads: 4,
            ..auto
        };
        assert_eq!(resolve_miner(&parallel, &dataset), MinerKind::Eclat);
        let sequential = CliOptions {
            backend: DatasetBackend::Bitmap,
            threads: 1,
            ..parallel
        };
        assert_eq!(resolve_miner(&sequential, &dataset), MinerKind::Apriori);
        let csr = CliOptions {
            backend: DatasetBackend::Csr,
            threads: 4,
            ..sequential
        };
        assert_eq!(resolve_miner(&csr, &dataset), MinerKind::Apriori);
        // An explicit miner always wins over the heuristic.
        let explicit = CliOptions {
            miner: Some(MinerKind::Eclat),
            ..csr
        };
        assert_eq!(resolve_miner(&explicit, &dataset), MinerKind::Eclat);
    }

    #[test]
    fn kernels_flag_is_parsed_on_both_subcommands() {
        let options = parse(&["data.dat", "--kernels", "scalar"]).unwrap();
        assert_eq!(options.kernels, Some(KernelMode::Scalar));
        let auto = parse(&["data.dat", "--kernels", "auto"]).unwrap();
        assert_eq!(auto.kernels, Some(KernelMode::Auto));
        let err = parse(&["data.dat", "--kernels", "sse9"]).unwrap_err();
        assert!(err.contains("sse9"), "{err}");
        assert!(parse(&["data.dat", "--kernels"]).is_err());

        let serve = parse_serve(&["x.dat", "--kernels", "avx2"]).unwrap();
        assert_eq!(serve.kernels, Some(KernelMode::Avx2));
        assert!(parse_serve(&["x.dat", "--kernels", "unrolled"]).is_err());
        assert!(parse_serve(&["x.dat", "--kernels", "fast"]).is_err());
        assert!(USAGE.contains("--kernels"));
    }

    #[test]
    fn sampler_flag_is_parsed_on_both_subcommands() {
        assert_eq!(parse(&["data.dat"]).unwrap().sampler, None);
        let options = parse(&["data.dat", "--sampler", "gaps"]).unwrap();
        assert_eq!(options.sampler, Some(SamplerMode::Gaps));
        let cellwise = parse(&["data.dat", "--sampler", "cellwise"]).unwrap();
        assert_eq!(cellwise.sampler, Some(SamplerMode::Cellwise));
        let auto = parse(&["data.dat", "--sampler", "auto"]).unwrap();
        assert_eq!(auto.sampler, Some(SamplerMode::Auto));
        let err = parse(&["data.dat", "--sampler", "dense"]).unwrap_err();
        assert!(err.contains("dense"), "{err}");
        assert!(parse(&["data.dat", "--sampler"]).is_err());

        let serve = parse_serve(&["x.dat", "--sampler", "gaps"]).unwrap();
        assert_eq!(serve.sampler, Some(SamplerMode::Gaps));
        assert!(parse_serve(&["x.dat", "--sampler", "jump"]).is_err());
        assert!(USAGE.contains("--sampler"));
    }

    #[test]
    fn shard_residency_flag_is_parsed_on_both_subcommands() {
        assert_eq!(parse(&["data.dat"]).unwrap().shard_residency, None);
        let bytes = parse(&["data.dat", "--shard-residency", "4096"]).unwrap();
        assert_eq!(bytes.shard_residency, Some(4096));
        // Suffixes are powers of 1024, case-insensitive.
        let mega = parse(&["data.dat", "--shard-residency", "64M"]).unwrap();
        assert_eq!(mega.shard_residency, Some(64 << 20));
        let giga = parse(&["data.dat", "--shard-residency", "2g"]).unwrap();
        assert_eq!(giga.shard_residency, Some(2 << 30));
        let err = parse(&["data.dat", "--shard-residency", "lots"]).unwrap_err();
        assert!(err.contains("--shard-residency"), "{err}");
        assert!(parse(&["data.dat", "--shard-residency"]).is_err());

        let serve = parse_serve(&["x.dat", "--shard-residency", "512K"]).unwrap();
        assert_eq!(serve.shard_residency, Some(512 << 10));
        assert!(parse_serve(&["x.dat", "--shard-residency", "-3"]).is_err());
        assert!(USAGE.contains("--shard-residency"));
        // Residency is a per-engine value built from the flag: the only
        // environment variables the usage text names are the kernel and
        // sampler mirrors.
        let named: std::collections::BTreeSet<&str> = USAGE
            .match_indices("SIGFIM_")
            .map(|(at, _)| {
                let tail = &USAGE[at..];
                let end = tail
                    .find(|c: char| !(c.is_ascii_uppercase() || c == '_'))
                    .unwrap_or(tail.len());
                &tail[..end]
            })
            .collect();
        assert_eq!(
            named.into_iter().collect::<Vec<_>>(),
            ["SIGFIM_KERNELS", "SIGFIM_SAMPLER"]
        );
    }

    #[test]
    fn cache_capacity_flag_is_parsed() {
        assert_eq!(parse(&["data.dat"]).unwrap().cache_capacity, None);
        let options = parse(&["data.dat", "--cache-capacity", "64"]).unwrap();
        assert_eq!(options.cache_capacity, Some(64));
        assert!(parse(&["data.dat", "--cache-capacity", "lots"]).is_err());
    }

    fn parse_serve(args: &[&str]) -> Result<ServeOptions, String> {
        parse_serve_options(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn dataset_specs_split_ids_and_paths() {
        assert_eq!(
            parse_dataset_spec("retail=data/retail.dat").unwrap(),
            ("retail".into(), "data/retail.dat".into())
        );
        assert_eq!(
            parse_dataset_spec("data/retail.dat").unwrap(),
            ("retail".into(), "data/retail.dat".into())
        );
        assert!(parse_dataset_spec("=x.dat").is_err());
        assert!(parse_dataset_spec("name=").is_err());
    }

    #[test]
    fn serve_options_parse_and_validate() {
        let options = parse_serve(&[
            "a=one.dat",
            "two.dat",
            "--addr",
            "0.0.0.0:9000",
            "--workers",
            "8",
            "--cache-capacity",
            "256",
            "--threads",
            "2",
            "--backend",
            "bitmap",
        ])
        .unwrap();
        assert_eq!(
            options.datasets,
            vec![
                ("a".to_string(), "one.dat".to_string()),
                ("two".to_string(), "two.dat".to_string())
            ]
        );
        assert_eq!(options.addr, "0.0.0.0:9000");
        assert_eq!(options.workers, 8);
        assert_eq!(options.cache_capacity, Some(256));
        assert_eq!(options.threads, 2);
        assert_eq!(options.backend, DatasetBackend::Bitmap);
        assert_eq!(options.swap_null, None);

        // Defaults, the optional swap-null argument, and failure modes.
        let defaults = parse_serve(&["x.dat"]).unwrap();
        assert_eq!(defaults.addr, "127.0.0.1:7878");
        assert_eq!(defaults.workers, 0);
        assert_eq!(defaults.cache_capacity, None);
        let swap = parse_serve(&["x.dat", "--swap-null", "2.5"]).unwrap();
        assert_eq!(swap.swap_null, Some(2.5));
        let swap_default = parse_serve(&["--swap-null", "x.dat"]).unwrap();
        assert_eq!(swap_default.swap_null, Some(3.0));
        assert!(parse_serve(&[]).is_err());
        assert!(parse_serve(&["x.dat", "--nope"]).is_err());
        assert!(parse_serve(&["--help"]).unwrap_err().contains("serve"));
    }

    #[test]
    fn serve_durability_flags_are_parsed() {
        let defaults = parse_serve(&["x.dat"]).unwrap();
        assert_eq!(defaults.data_dir, None);
        assert_eq!(
            defaults.queue_capacity,
            sigfim::service::DEFAULT_QUEUE_CAPACITY
        );
        assert_eq!(defaults.job_workers, 1);

        let durable = parse_serve(&[
            "x.dat",
            "--data-dir",
            "/var/lib/sigfim",
            "--queue-capacity",
            "16",
            "--job-workers",
            "3",
        ])
        .unwrap();
        assert_eq!(durable.data_dir.as_deref(), Some("/var/lib/sigfim"));
        assert_eq!(durable.queue_capacity, 16);
        assert_eq!(durable.job_workers, 3);

        // With a data dir the dataset list may be empty (persisted datasets
        // come back on their own); without one it may not.
        let storeless = parse_serve(&["--data-dir", "/tmp/sigfim"]).unwrap();
        assert!(storeless.datasets.is_empty());
        assert!(parse_serve(&["--queue-capacity", "8"]).is_err());
        assert!(parse_serve(&["x.dat", "--data-dir"]).is_err());
        assert!(parse_serve(&["x.dat", "--queue-capacity", "many"]).is_err());
        assert!(USAGE.contains("--data-dir"));
        assert!(USAGE.contains("--job-workers"));
    }
}
