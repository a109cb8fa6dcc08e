//! `perfbench`: the end-to-end and per-stage benchmark of sigfim.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics of one workload with
//! nothing attached to the program; with `--trace 1` it makes a traced run
//! of the same workload and reports the per-layer metrics instead. Either
//! way it checks every output it measures and prints, as its last line, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. See
//! `README.md` for the workloads and metrics.

mod batch;
mod check;
mod report;
mod service;
mod setup;
mod trace;
mod workloads;

use report::Outcome;
use workloads::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                });
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some(setup::PROBE_TUNER) {
        println!("{}", setup::force_tuner());
        return;
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            std::process::exit(2);
        }
    };
    let mut outcome = Outcome::default();
    match (args.trace, args.workload) {
        (false, Workload::ServiceMixed) => {
            service::run(args.workload, args.seed, args.seconds, &mut outcome);
        }
        (false, workload) => batch::run(workload, args.seed, args.seconds, &mut outcome),
        (true, workload) => trace::run(workload, args.seed, &mut outcome),
    }
    if !args.trace {
        // Peak resident set of this process, which ran only this workload.
        let peak = report::peak_rss_mb().unwrap_or(f64::NAN);
        outcome.push("peak_rss_mb", peak, "MB");
    }
    let failed_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    let attempted = outcome.attempted as usize;
    outcome.note("failed_frac", failed_frac, "ratio", attempted);
    for problem in &outcome.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    for note in &outcome.notes {
        println!("{note}");
    }
    println!("{}", outcome.result_line());
}
