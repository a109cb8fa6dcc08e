//! Runtime-dispatched counting kernels for the dense bitmap path.
//!
//! Every hot popcount/AND loop of the bitmap backend — `and_count`,
//! `and_count_into`, `and_into` and whole-slice popcounts — funnels through a
//! [`Kernels`] vtable selected **once** per process. Three implementations are
//! provided:
//!
//! * `scalar` — the straightforward `u64::count_ones` loop (the portable
//!   fallback, which LLVM autovectorizes, and the baseline the others are
//!   tested against),
//! * `avx2` — 256-bit `VPAND` plus the classic `PSHUFB` nibble-lookup
//!   popcount (accumulated with `VPSADBW`), processing four words per
//!   instruction; compiled with `#[target_feature(enable = "avx2")]` and only
//!   ever selected when `is_x86_feature_detected!("avx2")` says the CPU has
//!   it, and
//! * `avx512` — 512-bit `VPANDQ` plus the native `VPOPCNTDQ` per-lane
//!   popcount, processing eight words per instruction; compiled with
//!   `#[target_feature(enable = "avx512f,avx512vpopcntdq")]` and only ever
//!   selected when `is_x86_feature_detected!("avx512vpopcntdq")` (plus
//!   `avx512f`) succeeds.
//!
//! All kernels compute **exact integer popcounts**, so every dispatch choice
//! returns bit-identical results. The process-wide [`kernels`] dispatch is a
//! static rule with no override: `auto`, the widest kernel the CPU supports
//! (AVX-512, then AVX2, then scalar). Tests and benchmarks reach a specific
//! kernel through [`kernels_for`]; the parity suites loop over every
//! [`KernelMode::supported`] mode in-process.

use std::sync::OnceLock;

/// Which kernel implementation to dispatch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelMode {
    /// Detect at runtime: the widest kernel the CPU supports (AVX-512, then
    /// AVX2, then scalar).
    #[default]
    Auto,
    /// The plain one-word-at-a-time loop.
    Scalar,
    /// The AVX2 wide-AND + `PSHUFB`-lookup popcount kernel. Only selectable on
    /// x86-64 CPUs that report AVX2 support.
    Avx2,
    /// The AVX-512 wide-AND + `VPOPCNTDQ` native popcount kernel. Only
    /// selectable on x86-64 CPUs that report both `avx512f` and
    /// `avx512vpopcntdq`.
    Avx512,
}

impl KernelMode {
    /// Every mode, for test and benchmark matrices.
    pub const ALL: [KernelMode; 4] = [
        KernelMode::Auto,
        KernelMode::Scalar,
        KernelMode::Avx2,
        KernelMode::Avx512,
    ];

    /// The mode's name (`auto`, `scalar`, `avx2` or `avx512`).
    pub fn name(&self) -> &'static str {
        match self {
            KernelMode::Auto => "auto",
            KernelMode::Scalar => "scalar",
            KernelMode::Avx2 => "avx2",
            KernelMode::Avx512 => "avx512",
        }
    }

    /// Whether this mode can run on the current CPU. `Auto` and `Scalar`
    /// always can; `Avx2` requires runtime AVX2 detection to
    /// succeed and `Avx512` requires `avx512f` + `avx512vpopcntdq`.
    pub fn is_supported(&self) -> bool {
        match self {
            KernelMode::Avx2 => avx2_supported(),
            KernelMode::Avx512 => avx512_supported(),
            _ => true,
        }
    }

    /// The modes that can actually run on this machine — the axis kernel
    /// parity tests iterate over.
    pub fn supported() -> Vec<KernelMode> {
        KernelMode::ALL
            .into_iter()
            .filter(KernelMode::is_supported)
            .collect()
    }
}

impl std::fmt::Display for KernelMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(target_arch = "x86_64")]
fn avx2_supported() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx2_supported() -> bool {
    false
}

#[cfg(target_arch = "x86_64")]
fn avx512_supported() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx512_supported() -> bool {
    false
}

/// The one `auto` rule, shared by [`kernels_for`] and the process-wide
/// [`kernels`] dispatch: the widest kernel the CPU supports wins (AVX-512 over
/// AVX2 over scalar).
pub(crate) fn static_auto_mode() -> KernelMode {
    if avx512_supported() {
        KernelMode::Avx512
    } else if avx2_supported() {
        KernelMode::Avx2
    } else {
        KernelMode::Scalar
    }
}

/// The word-level counting vtable. All four operations are exact, so every
/// kernel returns identical values; the vtable only selects *how fast* they
/// are computed. Obtain one with [`kernels`] (process-wide dispatch) or
/// [`kernels_for`] (explicit mode, for tests and benchmarks).
#[derive(Clone, Copy)]
pub struct Kernels {
    name: &'static str,
    and_count: fn(&[u64], &[u64]) -> u64,
    and_count_into: fn(&mut [u64], &[u64]) -> u64,
    and_into: fn(&mut [u64], &[u64], &[u64]) -> u64,
    popcount_slice: fn(&[u64]) -> u64,
}

impl std::fmt::Debug for Kernels {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernels").field("name", &self.name).finish()
    }
}

impl Kernels {
    /// The implementation name (`"scalar"`, `"avx2"` or `"avx512"`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Popcount of `a AND b` without materializing the intersection.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    #[inline]
    pub fn and_count(&self, a: &[u64], b: &[u64]) -> u64 {
        assert_eq!(a.len(), b.len());
        (self.and_count)(a, b)
    }

    /// `dst &= src`, returning the popcount of the result.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    #[inline]
    pub fn and_count_into(&self, dst: &mut [u64], src: &[u64]) -> u64 {
        assert_eq!(dst.len(), src.len());
        (self.and_count_into)(dst, src)
    }

    /// `dst = a AND b`, returning the popcount of the result.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    #[inline]
    pub fn and_into(&self, dst: &mut [u64], a: &[u64], b: &[u64]) -> u64 {
        assert_eq!(dst.len(), a.len());
        assert_eq!(dst.len(), b.len());
        (self.and_into)(dst, a, b)
    }

    /// Total popcount of a word slice.
    #[inline]
    pub fn popcount_slice(&self, words: &[u64]) -> u64 {
        (self.popcount_slice)(words)
    }
}

static SCALAR: Kernels = Kernels {
    name: "scalar",
    and_count: scalar::and_count,
    and_count_into: scalar::and_count_into,
    and_into: scalar::and_into,
    popcount_slice: scalar::popcount_slice,
};

#[cfg(target_arch = "x86_64")]
static AVX2: Kernels = Kernels {
    name: "avx2",
    and_count: avx2::and_count,
    and_count_into: avx2::and_count_into,
    and_into: avx2::and_into,
    popcount_slice: avx2::popcount_slice,
};

#[cfg(target_arch = "x86_64")]
static AVX512: Kernels = Kernels {
    name: "avx512",
    and_count: avx512::and_count,
    and_count_into: avx512::and_count_into,
    and_into: avx512::and_into,
    popcount_slice: avx512::popcount_slice,
};

/// The kernels implementing `mode`. `Auto` resolves to the widest kernel the
/// CPU supports, the same rule the process-wide [`kernels`] dispatch uses.
///
/// # Panics
///
/// Panics when `mode` is [`KernelMode::Avx2`] or [`KernelMode::Avx512`] on a
/// machine without the feature — dispatching the kernel there would be
/// undefined behaviour, so the request is refused loudly instead (check
/// [`KernelMode::is_supported`] first).
pub fn kernels_for(mode: KernelMode) -> &'static Kernels {
    match mode {
        KernelMode::Scalar => &SCALAR,
        KernelMode::Avx2 => {
            assert!(
                mode.is_supported(),
                "kernel mode avx2 requested but this CPU does not report AVX2"
            );
            #[cfg(target_arch = "x86_64")]
            {
                &AVX2
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("is_supported() is false off x86_64")
        }
        KernelMode::Avx512 => {
            assert!(
                mode.is_supported(),
                "kernel mode avx512 requested but this CPU does not report avx512f + avx512vpopcntdq"
            );
            #[cfg(target_arch = "x86_64")]
            {
                &AVX512
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("is_supported() is false off x86_64")
        }
        KernelMode::Auto => kernels_for(static_auto_mode()),
    }
}

static DISPATCH: OnceLock<&'static Kernels> = OnceLock::new();

/// The process-wide dispatched kernels: `kernels_for(KernelMode::Auto)`, the
/// widest kernel the CPU supports, resolved at the first call and cached,
/// so every later call is one atomic load. Nothing overrides it: every kernel
/// computes the same exact counts, so the pick only changes speed; tests and
/// benchmarks that want a specific kernel call [`kernels_for`].
pub fn kernels() -> &'static Kernels {
    DISPATCH.get_or_init(|| kernels_for(KernelMode::Auto))
}

mod scalar {
    pub(super) fn and_count(a: &[u64], b: &[u64]) -> u64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x & y).count_ones() as u64)
            .sum()
    }

    pub(super) fn and_count_into(dst: &mut [u64], src: &[u64]) -> u64 {
        let mut count = 0u64;
        for (d, s) in dst.iter_mut().zip(src) {
            *d &= s;
            count += d.count_ones() as u64;
        }
        count
    }

    pub(super) fn and_into(dst: &mut [u64], a: &[u64], b: &[u64]) -> u64 {
        let mut count = 0u64;
        for ((d, x), y) in dst.iter_mut().zip(a).zip(b) {
            *d = x & y;
            count += d.count_ones() as u64;
        }
        count
    }

    pub(super) fn popcount_slice(words: &[u64]) -> u64 {
        words.iter().map(|w| w.count_ones() as u64).sum()
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! 256-bit wide-AND plus the `PSHUFB` nibble-lookup popcount (Muła's
    //! `vpopcnt` emulation): each 32-byte vector is split into low/high
    //! nibbles, both looked up in a 16-entry bit-count table, and the byte
    //! counts are horizontally folded into four 64-bit lanes with `VPSADBW`.
    //! Per-byte counts never exceed 8, so no intermediate can overflow.
    //!
    //! Every public function here is a **safe** wrapper around a
    //! `#[target_feature(enable = "avx2")]` implementation. That is sound
    //! because the only paths that hand these function pointers out —
    //! [`super::kernels_for`] and therefore [`super::kernels`] — refuse the
    //! AVX2 vtable unless `is_x86_feature_detected!("avx2")` succeeded.

    use std::arch::x86_64::{
        __m256i, _mm256_add_epi64, _mm256_add_epi8, _mm256_and_si256, _mm256_extract_epi64,
        _mm256_loadu_si256, _mm256_sad_epu8, _mm256_set1_epi8, _mm256_setr_epi8,
        _mm256_setzero_si256, _mm256_shuffle_epi8, _mm256_srli_epi32, _mm256_storeu_si256,
    };

    /// Words per 256-bit vector.
    const LANES: usize = 4;

    // SAFETY: unsafe only because of `#[target_feature]` — executing without
    // AVX2 is UB. Called solely from the AVX2-enabled fns below, which are
    // reachable only through the feature-detected vtable (see module docs).
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn nibble_table() -> __m256i {
        _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2,
            3, 3, 4,
        )
    }

    /// Popcount of each byte of `v`, folded into the four 64-bit lanes.
    // SAFETY: unsafe only because of `#[target_feature]`; callers below are
    // themselves AVX2-enabled and gated by the feature-detected vtable.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn byte_popcount_to_lanes(v: __m256i) -> __m256i {
        let table = nibble_table();
        let low_mask = _mm256_set1_epi8(0x0f);
        let lo = _mm256_and_si256(v, low_mask);
        let hi = _mm256_and_si256(_mm256_srli_epi32::<4>(v), low_mask);
        let counts = _mm256_add_epi8(
            _mm256_shuffle_epi8(table, lo),
            _mm256_shuffle_epi8(table, hi),
        );
        _mm256_sad_epu8(counts, _mm256_setzero_si256())
    }

    // SAFETY: unsafe only because of `#[target_feature]`; callers below are
    // themselves AVX2-enabled and gated by the feature-detected vtable.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn horizontal_sum(acc: __m256i) -> u64 {
        (_mm256_extract_epi64::<0>(acc) as u64)
            .wrapping_add(_mm256_extract_epi64::<1>(acc) as u64)
            .wrapping_add(_mm256_extract_epi64::<2>(acc) as u64)
            .wrapping_add(_mm256_extract_epi64::<3>(acc) as u64)
    }

    // SAFETY: unsafe only because of `#[target_feature]` — the safe wrapper
    // below is handed out exclusively by the AVX2-detected vtable.
    #[target_feature(enable = "avx2")]
    unsafe fn and_count_impl(a: &[u64], b: &[u64]) -> u64 {
        let vectors = a.len() / LANES;
        let mut acc = _mm256_setzero_si256();
        for i in 0..vectors {
            // SAFETY: i * LANES + LANES <= a.len() == b.len(); unaligned loads.
            let va = _mm256_loadu_si256(a.as_ptr().add(i * LANES).cast());
            let vb = _mm256_loadu_si256(b.as_ptr().add(i * LANES).cast());
            acc = _mm256_add_epi64(acc, byte_popcount_to_lanes(_mm256_and_si256(va, vb)));
        }
        let tail = vectors * LANES;
        horizontal_sum(acc) + super::scalar::and_count(&a[tail..], &b[tail..])
    }

    // SAFETY: unsafe only because of `#[target_feature]` — the safe wrapper
    // below is handed out exclusively by the AVX2-detected vtable.
    #[target_feature(enable = "avx2")]
    unsafe fn and_count_into_impl(dst: &mut [u64], src: &[u64]) -> u64 {
        let vectors = dst.len() / LANES;
        let mut acc = _mm256_setzero_si256();
        for i in 0..vectors {
            // SAFETY: i * LANES + LANES <= dst.len() == src.len(); unaligned.
            let d = _mm256_loadu_si256(dst.as_ptr().add(i * LANES).cast());
            let s = _mm256_loadu_si256(src.as_ptr().add(i * LANES).cast());
            let v = _mm256_and_si256(d, s);
            _mm256_storeu_si256(dst.as_mut_ptr().add(i * LANES).cast(), v);
            acc = _mm256_add_epi64(acc, byte_popcount_to_lanes(v));
        }
        let tail = vectors * LANES;
        horizontal_sum(acc) + super::scalar::and_count_into(&mut dst[tail..], &src[tail..])
    }

    // SAFETY: unsafe only because of `#[target_feature]` — the safe wrapper
    // below is handed out exclusively by the AVX2-detected vtable.
    #[target_feature(enable = "avx2")]
    unsafe fn and_into_impl(dst: &mut [u64], a: &[u64], b: &[u64]) -> u64 {
        let vectors = dst.len() / LANES;
        let mut acc = _mm256_setzero_si256();
        for i in 0..vectors {
            // SAFETY: i * LANES + LANES <= dst.len() == a.len() == b.len().
            let va = _mm256_loadu_si256(a.as_ptr().add(i * LANES).cast());
            let vb = _mm256_loadu_si256(b.as_ptr().add(i * LANES).cast());
            let v = _mm256_and_si256(va, vb);
            _mm256_storeu_si256(dst.as_mut_ptr().add(i * LANES).cast(), v);
            acc = _mm256_add_epi64(acc, byte_popcount_to_lanes(v));
        }
        let tail = vectors * LANES;
        horizontal_sum(acc) + super::scalar::and_into(&mut dst[tail..], &a[tail..], &b[tail..])
    }

    // SAFETY: unsafe only because of `#[target_feature]` — the safe wrapper
    // below is handed out exclusively by the AVX2-detected vtable.
    #[target_feature(enable = "avx2")]
    unsafe fn popcount_slice_impl(words: &[u64]) -> u64 {
        let vectors = words.len() / LANES;
        let mut acc = _mm256_setzero_si256();
        for i in 0..vectors {
            // SAFETY: i * LANES + LANES <= words.len(); unaligned load.
            let v = _mm256_loadu_si256(words.as_ptr().add(i * LANES).cast());
            acc = _mm256_add_epi64(acc, byte_popcount_to_lanes(v));
        }
        let tail = vectors * LANES;
        horizontal_sum(acc) + super::scalar::popcount_slice(&words[tail..])
    }

    pub(super) fn and_count(a: &[u64], b: &[u64]) -> u64 {
        // SAFETY: reachable only through the AVX2-detected vtable (see module
        // docs); slice lengths are validated by the `Kernels` wrapper.
        unsafe { and_count_impl(a, b) }
    }

    pub(super) fn and_count_into(dst: &mut [u64], src: &[u64]) -> u64 {
        // SAFETY: as above.
        unsafe { and_count_into_impl(dst, src) }
    }

    pub(super) fn and_into(dst: &mut [u64], a: &[u64], b: &[u64]) -> u64 {
        // SAFETY: as above.
        unsafe { and_into_impl(dst, a, b) }
    }

    pub(super) fn popcount_slice(words: &[u64]) -> u64 {
        // SAFETY: as above.
        unsafe { popcount_slice_impl(words) }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    //! 512-bit wide-AND plus the native `VPOPCNTDQ` per-lane popcount: where
    //! AVX2 emulates popcount with a nibble table, AVX-512 VPOPCNTDQ counts
    //! all eight 64-bit lanes in one instruction, so the loop body is just
    //! AND → POPCNT → lane-wise accumulate.
    //!
    //! Every public function here is a **safe** wrapper around a
    //! `#[target_feature(enable = "avx512f,avx512vpopcntdq")]` implementation.
    //! That is sound because the only paths that hand these function pointers
    //! out — [`super::kernels_for`] and therefore [`super::kernels`] — refuse
    //! the AVX-512 vtable unless `is_x86_feature_detected!` confirmed both
    //! features.

    use std::arch::x86_64::{
        _mm512_add_epi64, _mm512_and_si512, _mm512_loadu_si512, _mm512_popcnt_epi64,
        _mm512_reduce_add_epi64, _mm512_setzero_si512, _mm512_storeu_si512,
    };

    /// Words per 512-bit vector.
    const LANES: usize = 8;

    // SAFETY: unsafe only because of `#[target_feature]` — the safe wrapper
    // below is handed out exclusively by the AVX-512-detected vtable.
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    unsafe fn and_count_impl(a: &[u64], b: &[u64]) -> u64 {
        let vectors = a.len() / LANES;
        let mut acc = _mm512_setzero_si512();
        for i in 0..vectors {
            // SAFETY: i * LANES + LANES <= a.len() == b.len(); unaligned loads.
            let va = _mm512_loadu_si512(a.as_ptr().add(i * LANES).cast());
            let vb = _mm512_loadu_si512(b.as_ptr().add(i * LANES).cast());
            acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(_mm512_and_si512(va, vb)));
        }
        let tail = vectors * LANES;
        (_mm512_reduce_add_epi64(acc) as u64) + super::scalar::and_count(&a[tail..], &b[tail..])
    }

    // SAFETY: unsafe only because of `#[target_feature]` — the safe wrapper
    // below is handed out exclusively by the AVX-512-detected vtable.
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    unsafe fn and_count_into_impl(dst: &mut [u64], src: &[u64]) -> u64 {
        let vectors = dst.len() / LANES;
        let mut acc = _mm512_setzero_si512();
        for i in 0..vectors {
            // SAFETY: i * LANES + LANES <= dst.len() == src.len(); unaligned.
            let d = _mm512_loadu_si512(dst.as_ptr().add(i * LANES).cast());
            let s = _mm512_loadu_si512(src.as_ptr().add(i * LANES).cast());
            let v = _mm512_and_si512(d, s);
            _mm512_storeu_si512(dst.as_mut_ptr().add(i * LANES).cast(), v);
            acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
        }
        let tail = vectors * LANES;
        (_mm512_reduce_add_epi64(acc) as u64)
            + super::scalar::and_count_into(&mut dst[tail..], &src[tail..])
    }

    // SAFETY: unsafe only because of `#[target_feature]` — the safe wrapper
    // below is handed out exclusively by the AVX-512-detected vtable.
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    unsafe fn and_into_impl(dst: &mut [u64], a: &[u64], b: &[u64]) -> u64 {
        let vectors = dst.len() / LANES;
        let mut acc = _mm512_setzero_si512();
        for i in 0..vectors {
            // SAFETY: i * LANES + LANES <= dst.len() == a.len() == b.len().
            let va = _mm512_loadu_si512(a.as_ptr().add(i * LANES).cast());
            let vb = _mm512_loadu_si512(b.as_ptr().add(i * LANES).cast());
            let v = _mm512_and_si512(va, vb);
            _mm512_storeu_si512(dst.as_mut_ptr().add(i * LANES).cast(), v);
            acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
        }
        let tail = vectors * LANES;
        (_mm512_reduce_add_epi64(acc) as u64)
            + super::scalar::and_into(&mut dst[tail..], &a[tail..], &b[tail..])
    }

    // SAFETY: unsafe only because of `#[target_feature]` — the safe wrapper
    // below is handed out exclusively by the AVX-512-detected vtable.
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    unsafe fn popcount_slice_impl(words: &[u64]) -> u64 {
        let vectors = words.len() / LANES;
        let mut acc = _mm512_setzero_si512();
        for i in 0..vectors {
            // SAFETY: i * LANES + LANES <= words.len(); unaligned load.
            let v = _mm512_loadu_si512(words.as_ptr().add(i * LANES).cast());
            acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
        }
        let tail = vectors * LANES;
        (_mm512_reduce_add_epi64(acc) as u64) + super::scalar::popcount_slice(&words[tail..])
    }

    pub(super) fn and_count(a: &[u64], b: &[u64]) -> u64 {
        // SAFETY: reachable only through the feature-detected vtable (see
        // module docs); slice lengths are validated by the `Kernels` wrapper.
        unsafe { and_count_impl(a, b) }
    }

    pub(super) fn and_count_into(dst: &mut [u64], src: &[u64]) -> u64 {
        // SAFETY: as above.
        unsafe { and_count_into_impl(dst, src) }
    }

    pub(super) fn and_into(dst: &mut [u64], a: &[u64], b: &[u64]) -> u64 {
        // SAFETY: as above.
        unsafe { and_into_impl(dst, a, b) }
    }

    pub(super) fn popcount_slice(words: &[u64]) -> u64 {
        // SAFETY: as above.
        unsafe { popcount_slice_impl(words) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic word pattern exercising all nibble values, sign bits
    /// and zero/full words.
    fn pattern(len: usize, salt: u64) -> Vec<u64> {
        (0..len as u64)
            .map(|i| {
                let mut z = (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
                z ^= z >> 29;
                z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                match i % 7 {
                    0 => 0,
                    1 => u64::MAX,
                    _ => z,
                }
            })
            .collect()
    }

    #[test]
    fn all_supported_kernels_agree_on_every_operation() {
        // Lengths cover empty, single, the 4-word AVX2 and 8-word AVX-512
        // vector boundaries and odd tails beyond them.
        for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 31, 64, 127] {
            let a = pattern(len, 11);
            let b = pattern(len, 97);
            let expected_and = kernels_for(KernelMode::Scalar).and_count(&a, &b);
            let expected_pop = kernels_for(KernelMode::Scalar).popcount_slice(&a);
            for mode in KernelMode::supported() {
                let k = kernels_for(mode);
                assert_eq!(k.and_count(&a, &b), expected_and, "{mode} len {len}");
                assert_eq!(k.popcount_slice(&a), expected_pop, "{mode} len {len}");

                let mut dst = a.clone();
                assert_eq!(k.and_count_into(&mut dst, &b), expected_and, "{mode}");
                let reference: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x & y).collect();
                assert_eq!(dst, reference, "{mode} len {len}");

                let mut out = vec![u64::MAX; len];
                assert_eq!(k.and_into(&mut out, &a, &b), expected_and, "{mode}");
                assert_eq!(out, reference, "{mode} len {len}");
            }
        }
    }

    #[test]
    fn mode_names_and_support() {
        for mode in KernelMode::ALL {
            assert_eq!(mode.to_string(), mode.name());
        }
        assert_eq!(KernelMode::default(), KernelMode::Auto);
        assert!(KernelMode::Scalar.is_supported());
        assert!(KernelMode::supported().contains(&KernelMode::Auto));
        assert!(KernelMode::supported().contains(&KernelMode::Scalar));
    }

    #[test]
    fn dispatch_resolves_to_a_named_kernel() {
        let dispatched = kernels();
        assert!(["scalar", "avx2", "avx512"].contains(&dispatched.name()));
        // Auto resolves to a concrete implementation, never a fourth name.
        let auto = kernels_for(KernelMode::Auto);
        assert_eq!(auto.name(), static_auto_mode().name());
        assert_eq!(kernels_for(KernelMode::Scalar).name(), "scalar");
        assert!(format!("{auto:?}").contains(auto.name()));
        // Process dispatch and `kernels_for(Auto)` are one rule: nothing
        // measured or configured at startup can make them disagree.
        assert!(std::ptr::eq(dispatched, auto));
    }
}
