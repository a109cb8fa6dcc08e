//! Runtime-selected null-model sampling strategy for the replicate loop.
//!
//! Every Monte-Carlo replicate of Algorithm 1 materializes one random dataset
//! from the null model. Two strategies are provided:
//!
//! * `cellwise` — the legacy column-wise sampler: one `Binomial(t, f_i)` draw
//!   per item plus a distinct-index sample of that size. Cost is
//!   `O(n·m·p)` draws but `O(count)` hash-set bookkeeping per item, and its
//!   RNG consumption is pinned by the PR 2–6 parity suites, so it is the
//!   **default**: with `SIGFIM_SAMPLER` unset every estimate is bit-identical
//!   to earlier releases.
//! * `gaps` — the geometric-jump sparse sampler: per item, successive skip
//!   distances `⌊ln(1−U)/ln(1−p)⌋` visit exactly the set bits in increasing
//!   transaction order, writing them word-wise straight into the bitmap
//!   scratch and accumulating the column popcount as it goes (the fused
//!   k = 1 support pass). Cost is `O(set bits)` with no per-item allocation.
//!   Its RNG stream differs from `cellwise`, so estimates differ numerically
//!   (both are exact draws from the same model) — selecting it is an explicit
//!   opt-in.
//! * `auto` — pick per run by a static rule: `gaps` when the model supports
//!   it and the expected density is at most [`GAPS_DENSITY_THRESHOLD`];
//!   `cellwise` otherwise.
//!
//! Selection mirrors the kernels vtable discipline ([`mod@crate::kernels`]): a
//! process-wide mode resolved **once** from the [`configure_sampler`] override
//! or the `SIGFIM_SAMPLER` environment variable, read at first use. Unlike
//! kernels — where every mode computes identical counts — sampler modes
//! change the RNG stream, so determinism holds *within* a mode: for a fixed
//! mode, estimates are bit-identical at any thread count, backend, and worker
//! split, because each replicate `i` derives its ChaCha12 substream from
//! `(batch_key, i)` alone.

use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

/// Expected-density ceiling for `auto` to pick `gaps`: above this the
/// geometric jumps are short enough that the cellwise sampler's batched
/// binomial draw is competitive, and dense models are not where replicate
/// sampling hurts.
pub const GAPS_DENSITY_THRESHOLD: f64 = 0.05;

/// Which null-model sampling strategy the replicate loop uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum SamplerMode {
    /// Defer to the process-wide mode (`SIGFIM_SAMPLER` / [`configure_sampler`]),
    /// which itself defaults to `cellwise`.
    #[default]
    Auto,
    /// The legacy column-wise binomial + distinct-index sampler (the PR 2–6
    /// RNG stream; parity suites pin this path).
    Cellwise,
    /// The geometric-jump sparse sampler with fused column counting.
    Gaps,
}

impl SamplerMode {
    /// Every mode, for configuration surfaces and test matrices.
    pub const ALL: [SamplerMode; 3] = [SamplerMode::Auto, SamplerMode::Cellwise, SamplerMode::Gaps];

    /// Environment-variable / command-line name.
    pub fn name(&self) -> &'static str {
        match self {
            SamplerMode::Auto => "auto",
            SamplerMode::Cellwise => "cellwise",
            SamplerMode::Gaps => "gaps",
        }
    }
}

impl std::str::FromStr for SamplerMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(SamplerMode::Auto),
            "cellwise" => Ok(SamplerMode::Cellwise),
            "gaps" => Ok(SamplerMode::Gaps),
            other => Err(format!(
                "unknown sampler mode `{other}` (expected auto, cellwise or gaps)"
            )),
        }
    }
}

impl std::fmt::Display for SamplerMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The concrete sampler a replicate run dispatches to after resolution:
/// `auto` never survives to the sampling loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ResolvedSampler {
    /// The legacy column-wise sampler.
    Cellwise,
    /// The geometric-jump sparse sampler.
    Gaps,
}

impl ResolvedSampler {
    /// Telemetry / cache-key name (`"cellwise"` or `"gaps"`).
    pub fn name(&self) -> &'static str {
        match self {
            ResolvedSampler::Cellwise => "cellwise",
            ResolvedSampler::Gaps => "gaps",
        }
    }
}

impl std::fmt::Display for ResolvedSampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Explicit process-wide mode override installed by [`configure_sampler`];
/// read before the environment variable by [`process_sampler_mode`].
static MODE_OVERRIDE: OnceLock<SamplerMode> = OnceLock::new();

static PROCESS_MODE: OnceLock<SamplerMode> = OnceLock::new();

/// The process-wide sampler mode: the [`configure_sampler`] override if
/// installed, otherwise `SIGFIM_SAMPLER` if set (one of `cellwise`, `gaps`,
/// `auto`), otherwise `cellwise`. The environment variable is read once, at
/// the first call.
///
/// The unset default is `cellwise` — not `auto` — because sampler modes
/// change RNG streams and therefore estimate values; automatic selection must
/// be requested explicitly to keep unconfigured runs reproducible against
/// earlier releases.
///
/// # Panics
///
/// Panics (at first use) when `SIGFIM_SAMPLER` names an unknown mode.
/// Front-ends should call [`configure_sampler`] at startup to turn that panic
/// into a readable argument error.
pub fn process_sampler_mode() -> SamplerMode {
    *PROCESS_MODE.get_or_init(|| match MODE_OVERRIDE.get().copied() {
        Some(mode) => mode,
        None => match std::env::var("SIGFIM_SAMPLER") {
            Ok(value) => value
                .parse::<SamplerMode>()
                .unwrap_or_else(|error| panic!("SIGFIM_SAMPLER: {error}")),
            Err(_) => SamplerMode::Cellwise,
        },
    })
}

/// Resolve a per-run sampler request to the concrete sampler the replicate
/// loop dispatches, given what the model can do.
///
/// A [`SamplerMode::Auto`] request defers to [`process_sampler_mode`]; a
/// process-wide `auto` then picks `gaps` exactly when the model supports
/// gap sampling and its expected density is at most
/// [`GAPS_DENSITY_THRESHOLD`]. An explicit `gaps` request on a model without
/// gap support falls back to `cellwise` (the only sampler every model has).
pub fn resolve_sampler(
    requested: SamplerMode,
    supports_gaps: bool,
    expected_density: f64,
) -> ResolvedSampler {
    let mode = match requested {
        SamplerMode::Auto => process_sampler_mode(),
        explicit => explicit,
    };
    resolve_with(mode, supports_gaps, expected_density)
}

/// The pure resolution rule, with the process mode supplied explicitly
/// (unit-testable without touching process-global state).
fn resolve_with(mode: SamplerMode, supports_gaps: bool, expected_density: f64) -> ResolvedSampler {
    match mode {
        SamplerMode::Cellwise => ResolvedSampler::Cellwise,
        SamplerMode::Gaps => {
            if supports_gaps {
                ResolvedSampler::Gaps
            } else {
                ResolvedSampler::Cellwise
            }
        }
        SamplerMode::Auto => {
            if supports_gaps && expected_density <= GAPS_DENSITY_THRESHOLD {
                ResolvedSampler::Gaps
            } else {
                ResolvedSampler::Cellwise
            }
        }
    }
}

/// Pure startup-validation step: combine an optional `--sampler` flag value
/// with an optional `SIGFIM_SAMPLER` environment value into the mode the
/// process should use. The flag wins, but a *conflicting* pair (both set,
/// different modes) is an error rather than a silent preference, mirroring
/// [`crate::kernels::resolve_kernel_request`].
pub fn resolve_sampler_request(
    flag: Option<SamplerMode>,
    env: Option<&str>,
) -> Result<SamplerMode, String> {
    let env_mode = match env {
        Some(value) => Some(
            value
                .parse::<SamplerMode>()
                .map_err(|error| format!("SIGFIM_SAMPLER: {error}"))?,
        ),
        None => None,
    };
    match (flag, env_mode) {
        (Some(flag), Some(env)) if flag != env => Err(format!(
            "--sampler {flag} conflicts with SIGFIM_SAMPLER={env}; unset one or make them agree"
        )),
        (Some(flag), _) => Ok(flag),
        (None, Some(env)) => Ok(env),
        (None, None) => Ok(SamplerMode::Cellwise),
    }
}

/// Install `mode` as the process-wide sampler, resolving it immediately.
/// Fails (instead of silently losing) when the mode already resolved to
/// something else — either via an earlier install or because a replicate run
/// read the mode before configuration.
pub fn install_sampler_mode(mode: SamplerMode) -> Result<SamplerMode, String> {
    let installed = *MODE_OVERRIDE.get_or_init(|| mode);
    if installed != mode {
        return Err(format!(
            "sampler mode already configured as `{installed}`; cannot re-configure as `{mode}`"
        ));
    }
    let resolved = process_sampler_mode();
    if resolved != mode {
        return Err(format!(
            "sampler mode already resolved to `{resolved}` before configuration; \
             configure the sampler before the first replicate run"
        ));
    }
    Ok(resolved)
}

/// Startup entry point for the CLI and server: validate the `--sampler` flag
/// against `SIGFIM_SAMPLER` ([`resolve_sampler_request`]) and install the
/// result as the process-wide mode. Returns the installed mode so the caller
/// can report what will run.
pub fn configure_sampler(flag: Option<SamplerMode>) -> Result<SamplerMode, String> {
    let env = std::env::var("SIGFIM_SAMPLER").ok();
    let requested = resolve_sampler_request(flag, env.as_deref())?;
    install_sampler_mode(requested)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parsing_round_trips() {
        for mode in SamplerMode::ALL {
            assert_eq!(mode.name().parse::<SamplerMode>().unwrap(), mode);
            assert_eq!(mode.to_string(), mode.name());
        }
        assert!("pairwise".parse::<SamplerMode>().is_err());
        assert_eq!(SamplerMode::default(), SamplerMode::Auto);
        assert_eq!(ResolvedSampler::Cellwise.to_string(), "cellwise");
        assert_eq!(ResolvedSampler::Gaps.to_string(), "gaps");
    }

    #[test]
    fn resolution_rule() {
        use SamplerMode as M;
        let r = resolve_with;
        // Explicit modes are honored; gaps degrades gracefully without support.
        assert_eq!(r(M::Cellwise, true, 0.01), ResolvedSampler::Cellwise);
        assert_eq!(r(M::Gaps, true, 0.9), ResolvedSampler::Gaps);
        assert_eq!(r(M::Gaps, false, 0.01), ResolvedSampler::Cellwise);
        // Auto needs support + sparsity, both.
        assert_eq!(r(M::Auto, true, 0.01), ResolvedSampler::Gaps);
        assert_eq!(
            r(M::Auto, true, GAPS_DENSITY_THRESHOLD),
            ResolvedSampler::Gaps
        );
        assert_eq!(r(M::Auto, true, 0.2), ResolvedSampler::Cellwise);
        assert_eq!(r(M::Auto, false, 0.01), ResolvedSampler::Cellwise);
    }

    #[test]
    fn startup_validation_resolves_flag_and_env() {
        assert_eq!(
            resolve_sampler_request(Some(SamplerMode::Gaps), None).unwrap(),
            SamplerMode::Gaps
        );
        assert_eq!(
            resolve_sampler_request(None, Some("gaps")).unwrap(),
            SamplerMode::Gaps
        );
        // Unset everything: the legacy sampler, not auto-selection.
        assert_eq!(
            resolve_sampler_request(None, None).unwrap(),
            SamplerMode::Cellwise
        );
        assert_eq!(
            resolve_sampler_request(Some(SamplerMode::Auto), Some("auto")).unwrap(),
            SamplerMode::Auto
        );
        let conflict =
            resolve_sampler_request(Some(SamplerMode::Cellwise), Some("gaps")).unwrap_err();
        assert!(conflict.contains("--sampler cellwise"), "{conflict}");
        assert!(conflict.contains("SIGFIM_SAMPLER=gaps"), "{conflict}");
        let unknown = resolve_sampler_request(None, Some("rowwise")).unwrap_err();
        assert!(unknown.contains("SIGFIM_SAMPLER"), "{unknown}");
        assert!(unknown.contains("cellwise"), "{unknown}");
    }

    #[test]
    fn serde_round_trip() {
        for mode in SamplerMode::ALL {
            let value = serde::Serialize::to_value(&mode);
            let back: SamplerMode = serde::Deserialize::from_value(&value).unwrap();
            assert_eq!(back, mode);
        }
    }
}
