//! `env-read-centralized`: no `SIGFIM_*` environment variable is read
//! anywhere in the workspace.
//!
//! Every dispatch axis is a static rule (kernels) or a per-run or
//! per-engine value (sampler, backend, miner, shard residency), so there is
//! no process-wide configuration seam left to read the environment. A
//! `std::env::var("SIGFIM_...")` would bring back a hidden process-global
//! switch that no report, cache key or stats endpoint shows; pass the value
//! through the typed configuration of the engine or request instead.

use super::report;
use crate::scan::SourceFile;
use crate::Diagnostic;

const RULE: &str = "env-read-centralized";

pub fn check(files: &[SourceFile], out: &mut Vec<Diagnostic>) {
    for file in files {
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
                        "`{var}` read from the environment; sigfim has no process-wide \
                         switches, so pass it through the engine or request configuration"
                    ),
                    out,
                );
            }
        }
    }
}
