//! The process's static configuration picks: the kernel `auto` dispatch runs
//! and the replicate sampler an `auto` sampler request prefers.
//!
//! Nothing is measured at startup. Every kernel computes exact counts, so the
//! pick only changes speed, and the widest kernel the CPU supports
//! ([`crate::kernels::kernels_for`] with [`KernelMode::Auto`]) beats the
//! narrower ones on the dense candidate batch (the `kernels/*` groups of
//! `crates/bench/benches/counting_backends.rs`). Shard width is the static L2
//! rule [`crate::sharded::ShardedBitmapDataset::default_shard_rows`].

use crate::kernels::{static_auto_mode, KernelMode};
use crate::sampler::SamplerMode;

/// The process's configuration picks, as reported by [`decision`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TuneDecision {
    /// Whether anything was measured: always `false`, every pick is a static
    /// rule.
    pub tuned: bool,
    /// The concrete kernel `auto` dispatch resolves to: the widest one this
    /// CPU supports (AVX-512, then AVX2, then scalar).
    pub kernel: KernelMode,
    /// The replicate sampler an `auto` sampler request prefers on sparse
    /// models: always [`SamplerMode::Gaps`], so the model and density gate in
    /// [`crate::sampler::resolve_sampler`] decides alone.
    pub sampler: SamplerMode,
}

/// The process's configuration picks. A static rule: it measures nothing and
/// returns the same value on every call.
pub fn decision() -> TuneDecision {
    TuneDecision {
        tuned: false,
        kernel: static_auto_mode(),
        sampler: SamplerMode::Gaps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::kernels_for;

    #[test]
    fn decision_is_the_static_rule() {
        let first = decision();
        assert_eq!(first, decision());
        assert!(!first.tuned);
        assert!(first.kernel.is_supported());
        assert_ne!(first.kernel, KernelMode::Auto);
        assert_eq!(
            kernels_for(first.kernel).name(),
            kernels_for(KernelMode::Auto).name()
        );
        assert_eq!(first.sampler, SamplerMode::Gaps);
    }
}
