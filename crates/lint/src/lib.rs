//! `sigfim-lint`: workspace-aware static analysis enforcing the repo's
//! determinism, unsafe-SIMD, configuration and locking invariants.
//!
//! The repo's headline guarantee — Algorithm 1 estimates bit-identical
//! across backends × kernels × samplers × thread counts — is enforced
//! dynamically by the parity suites, but the invariant *surface* (no
//! hash-order iteration in result paths, `#[target_feature]` fns confined to
//! detection-gated dispatch, no `SIGFIM_*` environment reads,
//! additive wire evolution, reviewable lock discipline, checked store I/O)
//! is structural. This
//! crate checks it at CI time, before a parity test can flake, with a small
//! hand-rolled token-level scanner ([`scan`]) and seven named rules
//! ([`rules::RULE_NAMES`]), each individually suppressible at a site with
//!
//! ```text
//! // sigfim-lint: allow(<rule>, reason = "why this site is sound")
//! ```
//!
//! Run it as `cargo run -p sigfim-lint --release -- --deny-all` (the CI
//! invocation), or with `--json` for machine-readable output.

pub mod report;
pub mod rules;
pub mod scan;

use std::path::{Path, PathBuf};

pub use report::{Diagnostic, JsonReport, JSON_SCHEMA_VERSION};
use scan::SourceFile;

/// Linter configuration: globally disabled rules.
#[derive(Debug, Default, Clone)]
pub struct LintConfig {
    /// Rule names to skip entirely (from repeated `--allow <rule>` flags).
    pub disabled: Vec<String>,
}

/// Lint in-memory sources. `sources` pairs workspace-relative paths (forward
/// slashes — rule scoping matches on them) with file contents. This is the
/// seam the fixture tests drive.
pub fn lint_sources(sources: &[(String, String)], config: &LintConfig) -> Vec<Diagnostic> {
    let files: Vec<SourceFile> = sources
        .iter()
        .map(|(path, text)| scan::scan_source(path, text))
        .collect();
    let mut out = Vec::new();
    rules::check_all(&files, &config.disabled, &mut out);
    out.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    out
}

/// Collect every workspace `.rs` file under `root`, skipping `target/`,
/// `vendor/` (external shims are not our invariant surface) and VCS
/// internals. Paths come back workspace-relative, sorted, with forward
/// slashes.
///
/// # Errors
///
/// Any I/O error while walking or reading.
pub fn collect_workspace_sources(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut paths: Vec<PathBuf> = Vec::new();
    walk(root, root, &mut paths)?;
    paths.sort();
    let mut sources = Vec::with_capacity(paths.len());
    for path in paths {
        let text = std::fs::read_to_string(root.join(&path))?;
        let rel = path
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/");
        sources.push((rel, text));
    }
    Ok(sources)
}

const SKIPPED_DIRS: [&str; 4] = ["target", "vendor", ".git", ".github"];

fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIPPED_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .expect("walked path is under root")
                .to_path_buf();
            out.push(rel);
        }
    }
    Ok(())
}

/// Lint the workspace rooted at `root`.
///
/// # Errors
///
/// Any I/O error while collecting sources.
pub fn lint_workspace(
    root: &Path,
    config: &LintConfig,
) -> std::io::Result<(usize, Vec<Diagnostic>)> {
    let sources = collect_workspace_sources(root)?;
    let diagnostics = lint_sources(&sources, config);
    Ok((sources.len(), diagnostics))
}

/// Find the workspace root: the nearest ancestor of `start` (inclusive)
/// holding a `Cargo.toml` that declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
