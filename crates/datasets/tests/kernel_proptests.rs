//! Property-based parity for the counting kernels: every kernel the machine
//! supports (scalar, AVX2 and AVX-512 where detected) must return identical
//! values — and write identical words — for random lengths (including 0, 1,
//! and non-multiple-of-4 word tails) and random bit patterns, on all four
//! vtable operations. CI runs this suite under both `SIGFIM_KERNELS=scalar`
//! and `SIGFIM_KERNELS=auto`, so the process-wide dispatch path is exercised
//! against the forced baseline too.

use proptest::collection::vec;
use proptest::prelude::*;

use sigfim_datasets::kernels::{kernels, kernels_for, KernelMode};

/// Random word slices whose lengths straddle the 256-bit (4-word) and
/// 512-bit (8-word) vector widths, with full-range bit patterns (the inclusive range
/// covers all-zeros and all-ones words).
fn words() -> impl Strategy<Value = Vec<u64>> {
    vec(0u64..=u64::MAX, 0..67)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_supported_kernel_agrees_with_scalar(a in words(), b in words()) {
        let len = a.len().min(b.len());
        let (a, b) = (&a[..len], &b[..len]);
        let scalar = kernels_for(KernelMode::Scalar);
        let expected_count = scalar.and_count(a, b);
        let expected_words: Vec<u64> = a.iter().zip(b).map(|(x, y)| x & y).collect();
        let expected_pop = scalar.popcount_slice(a);

        for mode in KernelMode::supported() {
            let k = kernels_for(mode);
            prop_assert_eq!(k.and_count(a, b), expected_count, "{} and_count", mode);
            prop_assert_eq!(k.popcount_slice(a), expected_pop, "{} popcount", mode);

            let mut dst = a.to_vec();
            prop_assert_eq!(k.and_count_into(&mut dst, b), expected_count, "{}", mode);
            prop_assert_eq!(&dst, &expected_words, "{} and_count_into words", mode);

            let mut out = vec![!0u64; len];
            prop_assert_eq!(k.and_into(&mut out, a, b), expected_count, "{}", mode);
            prop_assert_eq!(&out, &expected_words, "{} and_into words", mode);
        }

        // The process-wide dispatch (whatever SIGFIM_KERNELS selected for this
        // run) agrees with the forced baseline too.
        prop_assert_eq!(kernels().and_count(a, b), expected_count);
        prop_assert_eq!(kernels().popcount_slice(b), scalar.popcount_slice(b));
    }

    #[test]
    fn counts_are_consistent_with_each_other(a in words()) {
        // Self-AND is the identity: and_count(a, a) == popcount(a), under
        // every kernel.
        for mode in KernelMode::supported() {
            let k = kernels_for(mode);
            prop_assert_eq!(k.and_count(&a, &a), k.popcount_slice(&a), "{}", mode);
            let mut dst = a.clone();
            prop_assert_eq!(k.and_count_into(&mut dst, &a), k.popcount_slice(&a));
            prop_assert_eq!(&dst, &a, "{} self-AND must not change the words", mode);
        }
    }
}
