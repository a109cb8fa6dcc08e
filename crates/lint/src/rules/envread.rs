//! `env-read-centralized`: `SIGFIM_*` environment variables are read only in
//! the designated config modules.
//!
//! Runtime configuration changes dispatch (kernels, samplers), and dispatch
//! changes must stay visible in one place per axis — a stray
//! `std::env::var("SIGFIM_...")` deep inside a caller bypasses the startup
//! validation (`configure_kernels` / `configure_sampler`) that turns
//! misconfiguration into a clean error instead of a panic at first dispatch.
//! Everything else must go through the typed accessors those modules export.
//! Shard residency is a per-engine value, so the spill module is not a seam.

use super::report;
use crate::scan::SourceFile;
use crate::Diagnostic;

const RULE: &str = "env-read-centralized";

/// The designated config seams (the only files allowed to read `SIGFIM_*`).
const ALLOWED_FILES: [&str; 2] = [
    "crates/datasets/src/sampler.rs",
    "crates/datasets/src/kernels.rs",
];

pub fn check(files: &[SourceFile], out: &mut Vec<Diagnostic>) {
    for file in files {
        if ALLOWED_FILES.contains(&file.path.as_str()) {
            continue;
        }
        for (lineno, line) in file.lines.iter().enumerate() {
            let reads_env = line.code.contains("env::var");
            let sigfim = line
                .strings
                .iter()
                .find(|s| s.starts_with("SIGFIM_"))
                .cloned();
            if let (true, Some(var)) = (reads_env, sigfim) {
                report(
                    file,
                    lineno,
                    RULE,
                    format!(
                        "`{var}` read outside the designated config modules ({}); route it \
                         through a typed accessor there",
                        ALLOWED_FILES.join(", ")
                    ),
                    out,
                );
            }
        }
    }
}
