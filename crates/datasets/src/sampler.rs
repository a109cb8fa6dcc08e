//! Null-model sampling strategy for the replicate loop.
//!
//! Every Monte-Carlo replicate of Algorithm 1 materializes one random dataset
//! from the null model. Two strategies are provided:
//!
//! * `cellwise` — the legacy column-wise sampler: one `Binomial(t, f_i)` draw
//!   per item plus a distinct-index sample of that size. Cost is
//!   `O(n·m·p)` draws but `O(count)` hash-set bookkeeping per item, and its
//!   RNG consumption is pinned by the PR 2–6 parity suites, so it is the
//!   **default**: an [`SamplerMode::Auto`] request resolves to it, and every
//!   estimate is bit-identical to earlier releases.
//! * `gaps` — the geometric-jump sparse sampler: per item, successive skip
//!   distances `⌊ln(1−U)/ln(1−p)⌋` visit exactly the set bits in increasing
//!   transaction order, writing them word-wise straight into the bitmap
//!   scratch and accumulating the column popcount as it goes (the fused
//!   k = 1 support pass). Cost is `O(set bits)` with no per-item allocation.
//!   Its RNG stream differs from `cellwise`, so estimates differ numerically
//!   (both are exact draws from the same model) — selecting it is an explicit
//!   per-run opt-in through `FindPoissonThreshold::sampler`.
//!
//! There is no process-wide switch: the sampler is a per-run value. Sampler
//! modes change the RNG stream, so determinism holds *within* a mode: for a
//! fixed mode, estimates are bit-identical at any thread count, backend, and
//! worker split, because each replicate `i` derives its ChaCha12 substream
//! from `(batch_key, i)` alone.

use serde::{Deserialize, Serialize};

/// Which null-model sampling strategy the replicate loop uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum SamplerMode {
    /// The default sampler, `cellwise`.
    #[default]
    Auto,
    /// The legacy column-wise binomial + distinct-index sampler (the PR 2–6
    /// RNG stream; parity suites pin this path).
    Cellwise,
    /// The geometric-jump sparse sampler with fused column counting.
    Gaps,
}

impl SamplerMode {
    /// Every mode, for test matrices.
    pub const ALL: [SamplerMode; 3] = [SamplerMode::Auto, SamplerMode::Cellwise, SamplerMode::Gaps];

    /// The mode's name (`auto`, `cellwise` or `gaps`).
    pub fn name(&self) -> &'static str {
        match self {
            SamplerMode::Auto => "auto",
            SamplerMode::Cellwise => "cellwise",
            SamplerMode::Gaps => "gaps",
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

/// Resolve a per-run sampler request to the concrete sampler the replicate
/// loop dispatches, given what the model can do.
///
/// [`SamplerMode::Auto`] and [`SamplerMode::Cellwise`] resolve to `cellwise`.
/// An explicit `gaps` request resolves to `gaps` when the model supports gap
/// sampling and falls back to `cellwise` (the only sampler every model has)
/// otherwise. The expected density does not enter the rule; the parameter
/// keeps the signature callers already use.
pub fn resolve_sampler(
    requested: SamplerMode,
    supports_gaps: bool,
    _expected_density: f64,
) -> ResolvedSampler {
    match requested {
        SamplerMode::Gaps if supports_gaps => ResolvedSampler::Gaps,
        _ => ResolvedSampler::Cellwise,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_names_and_display() {
        for mode in SamplerMode::ALL {
            assert_eq!(mode.to_string(), mode.name());
        }
        assert_eq!(SamplerMode::default(), SamplerMode::Auto);
        assert_eq!(ResolvedSampler::Cellwise.to_string(), "cellwise");
        assert_eq!(ResolvedSampler::Gaps.to_string(), "gaps");
    }

    #[test]
    fn resolution_rule() {
        use SamplerMode as M;
        let r = resolve_sampler;
        // Explicit modes are honored; gaps degrades gracefully without support.
        assert_eq!(r(M::Cellwise, true, 0.01), ResolvedSampler::Cellwise);
        assert_eq!(r(M::Gaps, true, 0.9), ResolvedSampler::Gaps);
        assert_eq!(r(M::Gaps, false, 0.01), ResolvedSampler::Cellwise);
        // Auto is the cellwise default whatever the model and its density.
        for supports_gaps in [true, false] {
            for density in [0.001, 0.05, 0.9] {
                assert_eq!(
                    r(M::Auto, supports_gaps, density),
                    ResolvedSampler::Cellwise
                );
            }
        }
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
