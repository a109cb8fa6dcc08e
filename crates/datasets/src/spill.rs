//! Out-of-core shard spilling: cold shards on disk, an LRU residency set,
//! and on-demand fault-in for counting.
//!
//! A [`crate::sharded::ShardedBitmapDataset`] keeps every shard resident,
//! which caps dataset size at RAM. This module moves the *bytes* without
//! changing the *math*: each shard's column matrix is written once to a
//! per-shard **spill file** (a word-exact little-endian dump behind a
//! CRC-checked header, the same framing discipline as `sigfim-store`), and a
//! [`ResidencySet`] enforces a byte budget over which shards are currently
//! loaded. A counting pass acquires shards through [`SpilledShards::shard`],
//! which returns a pinned [`ShardGuard`]; cold shards are faulted back in
//! either by
//!
//! * `mmap` — the payload is mapped read-only straight out of the file
//!   (64-bit little-endian unix targets; a small `SAFETY:`-documented wrapper
//!   over the `mmap`/`munmap`/`madvise` syscalls, no `libc` crate), with
//!   `madvise(WILLNEED)` sequential prefetch on refaults, or
//! * `read` — a portable buffered read into an owned heap vector,
//!
//! selected by `SIGFIM_SPILL=mmap|read|off` / [`configure_spill`]. The
//! budget comes from `--shard-residency` / `SIGFIM_RESIDENCY` /
//! [`configure_residency`]. Shard contents and the fixed-order exact
//! reduction are untouched, so every count — and therefore every report —
//! is **bit-identical** to the fully-resident path at any budget, worker
//! count, or kernel.
//!
//! Eviction never races a counting worker: a worker pins its shard with a
//! read guard, and the evictor only reclaims slots it can `try_write` —
//! pinned shards are skipped, so the worst-case overshoot is the budget plus
//! one pinned shard per worker.

use std::fs::{self, File};
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, RwLock, RwLockReadGuard};

use serde::{Deserialize, Serialize};
use sigfim_store::crc32;

use crate::bitmap::{BitmapDataset, ColumnsRef, WORD_BITS};
use crate::sharded::ShardedBitmapDataset;
use crate::transaction::TransactionDataset;

/// Whether the direct-mapping fast path is available on this target: the
/// spill payload is a little-endian `u64` dump, so mapping it in place
/// requires a 64-bit little-endian unix target. Elsewhere
/// [`SpillMode::Mmap`] silently degrades to the portable read path.
pub const MMAP_SUPPORTED: bool = cfg!(all(
    unix,
    target_pointer_width = "64",
    target_endian = "little"
));

/// How cold shards are faulted back from their spill files.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum SpillMode {
    /// Map the spill file read-only and count straight out of the page
    /// cache ([`MMAP_SUPPORTED`] targets; elsewhere behaves like `Read`).
    #[default]
    Mmap,
    /// Portable fallback: read the payload into an owned heap buffer.
    Read,
    /// Disable spilling entirely — shards stay resident even when a
    /// residency budget is configured.
    Off,
}

impl SpillMode {
    /// Every mode, for configuration surfaces and test matrices.
    pub const ALL: [SpillMode; 3] = [SpillMode::Mmap, SpillMode::Read, SpillMode::Off];

    /// Environment-variable / command-line name.
    pub fn name(&self) -> &'static str {
        match self {
            SpillMode::Mmap => "mmap",
            SpillMode::Read => "read",
            SpillMode::Off => "off",
        }
    }
}

impl std::str::FromStr for SpillMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "mmap" => Ok(SpillMode::Mmap),
            "read" => Ok(SpillMode::Read),
            "off" => Ok(SpillMode::Off),
            other => Err(format!(
                "unknown spill mode `{other}` (expected mmap, read or off)"
            )),
        }
    }
}

impl std::fmt::Display for SpillMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The platform default: `mmap` where the direct mapping is sound, the
/// portable read path elsewhere.
fn default_spill_mode() -> SpillMode {
    if MMAP_SUPPORTED {
        SpillMode::Mmap
    } else {
        SpillMode::Read
    }
}

/// Collapse [`SpillMode::Mmap`] to [`SpillMode::Read`] on targets where the
/// in-place mapping is unsound; explicit modes pass through.
fn effective_mode(mode: SpillMode) -> SpillMode {
    match mode {
        SpillMode::Mmap if !MMAP_SUPPORTED => SpillMode::Read,
        other => other,
    }
}

/// Explicit process-wide mode override installed by [`configure_spill`];
/// read before the environment variable by [`process_spill_mode`].
static MODE_OVERRIDE: OnceLock<SpillMode> = OnceLock::new();

static PROCESS_MODE: OnceLock<SpillMode> = OnceLock::new();

/// The process-wide spill mode: the [`configure_spill`] override if
/// installed, otherwise `SIGFIM_SPILL` if set (one of `mmap`, `read`, `off`),
/// otherwise the platform default (`mmap` where supported). The environment
/// variable is read once, at the first call.
///
/// # Panics
///
/// Panics (at first use) when `SIGFIM_SPILL` names an unknown mode.
/// Front-ends should call [`configure_spill`] at startup to turn that panic
/// into a readable argument error.
pub fn process_spill_mode() -> SpillMode {
    *PROCESS_MODE.get_or_init(|| match MODE_OVERRIDE.get().copied() {
        Some(mode) => mode,
        None => match std::env::var("SIGFIM_SPILL") {
            Ok(value) => value
                .parse::<SpillMode>()
                .unwrap_or_else(|error| panic!("SIGFIM_SPILL: {error}")),
            Err(_) => default_spill_mode(),
        },
    })
}

/// Pure startup-validation step: combine an optional `--spill` flag value
/// with an optional `SIGFIM_SPILL` environment value into the mode the
/// process should use. The flag wins, but a *conflicting* pair (both set,
/// different modes) is an error rather than a silent preference, mirroring
/// [`crate::sampler::resolve_sampler_request`].
pub fn resolve_spill_request(
    flag: Option<SpillMode>,
    env: Option<&str>,
) -> Result<SpillMode, String> {
    let env_mode = match env {
        Some(value) => Some(
            value
                .parse::<SpillMode>()
                .map_err(|error| format!("SIGFIM_SPILL: {error}"))?,
        ),
        None => None,
    };
    match (flag, env_mode) {
        (Some(flag), Some(env)) if flag != env => Err(format!(
            "--spill {flag} conflicts with SIGFIM_SPILL={env}; unset one or make them agree"
        )),
        (Some(flag), _) => Ok(flag),
        (None, Some(env)) => Ok(env),
        (None, None) => Ok(default_spill_mode()),
    }
}

/// Install `mode` as the process-wide spill mode, resolving it immediately.
/// Fails (instead of silently losing) when the mode already resolved to
/// something else.
pub fn install_spill_mode(mode: SpillMode) -> Result<SpillMode, String> {
    let installed = *MODE_OVERRIDE.get_or_init(|| mode);
    if installed != mode {
        return Err(format!(
            "spill mode already configured as `{installed}`; cannot re-configure as `{mode}`"
        ));
    }
    let resolved = process_spill_mode();
    if resolved != mode {
        return Err(format!(
            "spill mode already resolved to `{resolved}` before configuration; \
             configure spilling before the first sharded view is built"
        ));
    }
    Ok(resolved)
}

/// Startup entry point for the CLI and server: validate an (optional) flag
/// against `SIGFIM_SPILL` and install the result as the process-wide mode.
pub fn configure_spill(flag: Option<SpillMode>) -> Result<SpillMode, String> {
    let env = std::env::var("SIGFIM_SPILL").ok();
    let requested = resolve_spill_request(flag, env.as_deref())?;
    install_spill_mode(requested)
}

/// Parse a byte budget: a plain integer with an optional `k`/`m`/`g`
/// power-of-1024 suffix (case-insensitive), e.g. `8388608`, `8m`, `512K`.
pub fn parse_budget_bytes(value: &str) -> Result<u64, String> {
    let trimmed = value.trim();
    let (digits, multiplier) = match trimmed.char_indices().last() {
        Some((at, 'k' | 'K')) => (&trimmed[..at], 1u64 << 10),
        Some((at, 'm' | 'M')) => (&trimmed[..at], 1u64 << 20),
        Some((at, 'g' | 'G')) => (&trimmed[..at], 1u64 << 30),
        _ => (trimmed, 1u64),
    };
    let base: u64 = digits.parse().map_err(|_| {
        format!("invalid byte budget `{value}` (expected bytes, e.g. 8388608 or 8m)")
    })?;
    base.checked_mul(multiplier)
        .ok_or_else(|| format!("byte budget `{value}` overflows u64"))
}

/// Explicit process-wide residency-budget override installed by
/// [`configure_residency`]; read before the environment variable by
/// [`process_residency_budget`].
static BUDGET_OVERRIDE: OnceLock<Option<u64>> = OnceLock::new();

static PROCESS_BUDGET: OnceLock<Option<u64>> = OnceLock::new();

/// The process-wide shard-residency budget in bytes: the
/// [`configure_residency`] override if installed, otherwise
/// `SIGFIM_RESIDENCY` if set, otherwise `None` (shards stay fully resident).
/// The environment variable is read once, at the first call.
///
/// # Panics
///
/// Panics (at first use) when `SIGFIM_RESIDENCY` is not a valid byte budget.
/// Front-ends should call [`configure_residency`] at startup to turn that
/// panic into a readable argument error.
pub fn process_residency_budget() -> Option<u64> {
    *PROCESS_BUDGET.get_or_init(|| match BUDGET_OVERRIDE.get().copied() {
        Some(budget) => budget,
        None => match std::env::var("SIGFIM_RESIDENCY") {
            Ok(value) => Some(
                parse_budget_bytes(&value)
                    .unwrap_or_else(|error| panic!("SIGFIM_RESIDENCY: {error}")),
            ),
            Err(_) => None,
        },
    })
}

/// Pure startup-validation step for the residency budget: the
/// `--shard-residency` flag wins, but a conflicting pair (both set,
/// different values) is an error, mirroring [`resolve_spill_request`].
pub fn resolve_residency_request(
    flag: Option<u64>,
    env: Option<&str>,
) -> Result<Option<u64>, String> {
    let env_budget = match env {
        Some(value) => {
            Some(parse_budget_bytes(value).map_err(|error| format!("SIGFIM_RESIDENCY: {error}"))?)
        }
        None => None,
    };
    match (flag, env_budget) {
        (Some(flag), Some(env)) if flag != env => Err(format!(
            "--shard-residency {flag} conflicts with SIGFIM_RESIDENCY={env}; \
             unset one or make them agree"
        )),
        (Some(flag), _) => Ok(Some(flag)),
        (None, env) => Ok(env),
    }
}

/// Install `budget` as the process-wide residency budget, resolving it
/// immediately; fails when the budget already resolved differently.
pub fn install_residency_budget(budget: Option<u64>) -> Result<Option<u64>, String> {
    let installed = *BUDGET_OVERRIDE.get_or_init(|| budget);
    if installed != budget {
        return Err(format!(
            "shard-residency budget already configured as `{installed:?}`; \
             cannot re-configure as `{budget:?}`"
        ));
    }
    let resolved = process_residency_budget();
    if resolved != budget {
        return Err(format!(
            "shard-residency budget already resolved to `{resolved:?}` before \
             configuration; configure residency before the first sharded view is built"
        ));
    }
    Ok(resolved)
}

/// Startup entry point for the CLI and server: validate `--shard-residency`
/// against `SIGFIM_RESIDENCY` and install the result process-wide.
pub fn configure_residency(flag: Option<u64>) -> Result<Option<u64>, String> {
    let env = std::env::var("SIGFIM_RESIDENCY").ok();
    let requested = resolve_residency_request(flag, env.as_deref())?;
    install_residency_budget(requested)
}

/// Process-wide default directory for spill files, installed once by the
/// server (`--data-dir <dir>/spill`) or left to the system temp dir.
static SPILL_DIR: OnceLock<PathBuf> = OnceLock::new();

/// Install the process-wide default spill directory (each spilled dataset
/// creates a unique subdirectory underneath and removes it on drop). Fails
/// when a different default was already installed.
pub fn set_default_spill_dir(dir: impl Into<PathBuf>) -> Result<(), String> {
    let dir = dir.into();
    let installed = SPILL_DIR.get_or_init(|| dir.clone());
    if *installed != dir {
        return Err(format!(
            "spill directory already configured as `{}`; cannot re-configure as `{}`",
            installed.display(),
            dir.display()
        ));
    }
    Ok(())
}

/// The process-wide default spill directory: the [`set_default_spill_dir`]
/// value if installed, otherwise `<system temp>/sigfim-spill`.
pub fn default_spill_dir() -> PathBuf {
    match SPILL_DIR.get() {
        Some(dir) => dir.clone(),
        None => std::env::temp_dir().join("sigfim-spill"),
    }
}

/// A per-engine shard-residency policy: spill shards of sharded views to
/// `dir` and keep at most `budget_bytes` of them resident, faulting via
/// `mode`. Engines without one fall back to the process-wide configuration
/// ([`ShardResidency::from_process_config`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardResidency {
    /// Maximum bytes of shard payload kept resident at once. Pinned shards
    /// are never evicted, so the hard ceiling is `budget_bytes` plus one
    /// shard per concurrently-counting worker.
    pub budget_bytes: u64,
    /// How cold shards are faulted back in; [`SpillMode::Off`] disables
    /// spilling (shards stay resident).
    pub mode: SpillMode,
    /// Base directory for spill files; `None` means [`default_spill_dir`].
    pub dir: Option<PathBuf>,
}

impl ShardResidency {
    /// A policy with the given budget, the process-wide spill mode, and the
    /// default spill directory.
    pub fn with_budget(budget_bytes: u64) -> Self {
        ShardResidency {
            budget_bytes,
            mode: process_spill_mode(),
            dir: None,
        }
    }

    /// The policy implied by the process-wide configuration: `Some` exactly
    /// when a residency budget is configured and spilling is not `off`.
    pub fn from_process_config() -> Option<Self> {
        let budget_bytes = process_residency_budget()?;
        let mode = process_spill_mode();
        if mode == SpillMode::Off {
            return None;
        }
        Some(ShardResidency {
            budget_bytes,
            mode,
            dir: None,
        })
    }

    /// Whether this policy actually spills (mode is not `off`).
    pub fn is_active(&self) -> bool {
        self.mode != SpillMode::Off
    }
}

// ---------------------------------------------------------------------------
// Spill file format
// ---------------------------------------------------------------------------

/// Spill file magic: format name + version, 8 bytes.
const SPILL_MAGIC: [u8; 8] = *b"SFSP0001";

/// Fixed header length. A multiple of 8 so the `u64` payload that follows
/// stays 8-byte aligned inside a (page-aligned) mapping.
///
/// Layout, all little-endian: magic (8) | `num_items` u32 | reserved u32 |
/// `rows` u64 | payload CRC32 u32 | header CRC32 u32 (over bytes `0..28`).
const HEADER_LEN: usize = 32;

fn encode_header(num_items: u32, rows: usize, payload_crc: u32) -> [u8; HEADER_LEN] {
    let mut header = [0u8; HEADER_LEN];
    header[0..8].copy_from_slice(&SPILL_MAGIC);
    header[8..12].copy_from_slice(&num_items.to_le_bytes());
    // Bytes 12..16 are reserved (zero).
    header[16..24].copy_from_slice(&(rows as u64).to_le_bytes());
    header[24..28].copy_from_slice(&payload_crc.to_le_bytes());
    let header_crc = crc32(&header[0..28]);
    header[28..32].copy_from_slice(&header_crc.to_le_bytes());
    header
}

fn corrupt(path: &Path, what: impl std::fmt::Display) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("spill file {}: {what}", path.display()),
    )
}

/// Validate a spill-file header against the shard's expected shape and
/// return the payload CRC it declares.
fn verify_header(bytes: &[u8], num_items: u32, rows: usize, path: &Path) -> io::Result<u32> {
    if bytes.len() < HEADER_LEN {
        return Err(corrupt(path, "truncated header"));
    }
    let field_u32 = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
    if bytes[0..8] != SPILL_MAGIC {
        return Err(corrupt(path, "bad magic"));
    }
    if field_u32(28) != crc32(&bytes[0..28]) {
        return Err(corrupt(path, "header CRC mismatch"));
    }
    let file_items = field_u32(8);
    let file_rows = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    if file_items != num_items || file_rows != rows as u64 {
        return Err(corrupt(
            path,
            format!(
                "shape mismatch: file says {file_items} items x {file_rows} rows, \
                 expected {num_items} x {rows}"
            ),
        ));
    }
    Ok(field_u32(24))
}

/// Write one shard's column matrix to `path`. Returns `(file_len,
/// payload_crc)`. Spill files are re-creatable scratch, so no fsync.
fn write_spill_file(
    path: &Path,
    num_items: u32,
    rows: usize,
    words: &[u64],
) -> io::Result<(u64, u32)> {
    let mut payload = Vec::with_capacity(words.len() * 8);
    for word in words {
        payload.extend_from_slice(&word.to_le_bytes());
    }
    let payload_crc = crc32(&payload);
    let header = encode_header(num_items, rows, payload_crc);
    let mut file = File::create(path)?;
    file.write_all(&header)?;
    file.write_all(&payload)?;
    Ok(((HEADER_LEN + payload.len()) as u64, payload_crc))
}

/// Read one shard's payload back as host `u64` words (the portable path:
/// explicit little-endian decode, CRC-verified on every load).
fn read_spill_file(meta: &ShardMeta, num_items: u32) -> io::Result<Vec<u64>> {
    let mut file = File::open(&meta.path)?;
    let mut header = [0u8; HEADER_LEN];
    file.read_exact(&mut header)?;
    let payload_crc = verify_header(&header, num_items, meta.rows, &meta.path)?;
    let mut payload = vec![0u8; meta.payload_words * 8];
    file.read_exact(&mut payload)?;
    if crc32(&payload) != payload_crc {
        return Err(corrupt(&meta.path, "payload CRC mismatch"));
    }
    Ok(payload
        .chunks_exact(8)
        .map(|chunk| u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")))
        .collect())
}

// ---------------------------------------------------------------------------
// mmap wrapper (no libc crate: raw syscall declarations)
// ---------------------------------------------------------------------------

#[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
mod mmap_region {
    use std::ffi::{c_int, c_void};
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;

    use super::HEADER_LEN;

    /// `PROT_READ` — the only protection the spill reader ever asks for.
    const PROT_READ: c_int = 1;
    /// `MAP_PRIVATE` (value 2 on every supported unix).
    const MAP_PRIVATE: c_int = 2;
    /// `MADV_WILLNEED` — sequential prefetch hint for batch refaults.
    const MADV_WILLNEED: c_int = 3;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }

    /// A read-only private mapping of a whole spill file. The payload
    /// (everything past the fixed header) is exposed as a `u64` slice:
    /// mappings are page-aligned and the header length is a multiple of 8,
    /// so the payload pointer is always 8-byte aligned.
    pub(super) struct MmapRegion {
        ptr: *mut c_void,
        len: usize,
        /// Number of `u64` payload words after the header.
        payload_words: usize,
    }

    // SAFETY: the region is immutable for its whole lifetime (PROT_READ,
    // MAP_PRIVATE, never written through), so shared references to it may
    // move across and be used from any thread; unmapping is sole-owner
    // (`Drop` takes `&mut self`).
    unsafe impl Send for MmapRegion {}
    // SAFETY: as above — the mapping is read-only shared state.
    unsafe impl Sync for MmapRegion {}

    impl MmapRegion {
        /// Map `len` bytes of `file` (the whole spill file, header
        /// included) read-only.
        pub(super) fn map(file: &File, len: usize, payload_words: usize) -> io::Result<Self> {
            assert!(
                len >= HEADER_LEN && (len - HEADER_LEN) == payload_words * 8,
                "mapping length {len} does not cover header + {payload_words} words"
            );
            // SAFETY: plain FFI call; `fd` is a live descriptor borrowed from
            // `file`, the kernel validates `len`/`offset`, and we only accept
            // the mapping after checking for MAP_FAILED. The resulting pages
            // are read-only and private, so no Rust aliasing rule can be
            // violated through them.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as usize == usize::MAX {
                return Err(io::Error::last_os_error());
            }
            Ok(MmapRegion {
                ptr,
                len,
                payload_words,
            })
        }

        /// The whole mapped file, header included.
        pub(super) fn bytes(&self) -> &[u8] {
            // SAFETY: `ptr` is a live PROT_READ mapping of exactly `len`
            // bytes (held until `Drop`), and `u8` has no validity invariants.
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }

        /// The payload as host words (the dump is little-endian and this
        /// module only compiles on little-endian targets, so the words can
        /// be read in place).
        pub(super) fn words(&self) -> &[u64] {
            // SAFETY: the mapping is live and page-aligned, `HEADER_LEN` is a
            // multiple of 8 so the payload pointer is 8-byte aligned, and the
            // constructor asserted the mapping covers exactly
            // `payload_words` words past the header.
            unsafe {
                std::slice::from_raw_parts(
                    (self.ptr as *const u8).add(HEADER_LEN) as *const u64,
                    self.payload_words,
                )
            }
        }

        /// Hint the kernel to read the whole file ahead sequentially
        /// (`madvise(WILLNEED)`); advisory, failures are ignored.
        pub(super) fn prefetch(&self) {
            // SAFETY: plain FFI call over a live mapping; the hint cannot
            // invalidate memory and its result is advisory.
            let _ = unsafe { madvise(self.ptr, self.len, MADV_WILLNEED) };
        }
    }

    impl Drop for MmapRegion {
        fn drop(&mut self) {
            // SAFETY: `ptr`/`len` came from a successful `mmap` and this is
            // the single owner's only unmap (no `bytes()`/`words()` borrow
            // can outlive `self`).
            let _ = unsafe { munmap(self.ptr, self.len) };
        }
    }

    impl std::fmt::Debug for MmapRegion {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("MmapRegion")
                .field("len", &self.len)
                .field("payload_words", &self.payload_words)
                .finish()
        }
    }
}

#[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
use mmap_region::MmapRegion;

// ---------------------------------------------------------------------------
// Residency set
// ---------------------------------------------------------------------------

/// LRU bookkeeping over the fixed shard order: which shards are loaded, how
/// many payload bytes they hold, and when each was last touched. Purely a
/// policy object — the slots themselves live in [`SpilledShards`]; keeping
/// the bookkeeping separate makes the LRU order unit-testable without disk.
#[derive(Debug)]
pub struct ResidencySet {
    budget_bytes: u64,
    state: Mutex<ResidencyState>,
}

#[derive(Debug)]
struct ResidencyState {
    /// `Some` for resident shards, indexed by shard id.
    shards: Vec<Option<ShardUse>>,
    /// Logical clock; bumped on every touch so `last_use` orders recency.
    clock: u64,
    resident_bytes: u64,
}

#[derive(Debug, Clone, Copy)]
struct ShardUse {
    bytes: u64,
    last_use: u64,
}

impl ResidencySet {
    /// An all-cold set over `num_shards` shards with the given byte budget.
    pub fn new(num_shards: usize, budget_bytes: u64) -> Self {
        ResidencySet {
            budget_bytes,
            state: Mutex::new(ResidencyState {
                shards: vec![None; num_shards],
                clock: 0,
                resident_bytes: 0,
            }),
        }
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> u64 {
        self.budget_bytes
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, ResidencyState> {
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Mark `shard` resident with `bytes` of payload (also touches it).
    pub fn note_loaded(&self, shard: usize, bytes: u64) {
        let mut state = self.locked();
        state.clock += 1;
        let last_use = state.clock;
        if let Some(previous) = state.shards[shard].replace(ShardUse { bytes, last_use }) {
            state.resident_bytes -= previous.bytes;
        }
        state.resident_bytes += bytes;
    }

    /// Mark `shard` cold again.
    pub fn note_evicted(&self, shard: usize) {
        let mut state = self.locked();
        if let Some(previous) = state.shards[shard].take() {
            state.resident_bytes -= previous.bytes;
        }
    }

    /// Record a use of (resident) `shard`, moving it to the MRU end.
    pub fn touch(&self, shard: usize) {
        let mut state = self.locked();
        state.clock += 1;
        let now = state.clock;
        if let Some(entry) = state.shards[shard].as_mut() {
            entry.last_use = now;
        }
    }

    /// Whether resident bytes currently exceed the budget.
    pub fn over_budget(&self) -> bool {
        self.locked().resident_bytes > self.budget_bytes
    }

    /// Total payload bytes currently resident.
    pub fn resident_bytes(&self) -> u64 {
        self.locked().resident_bytes
    }

    /// Number of resident shards.
    pub fn resident_count(&self) -> usize {
        self.locked().shards.iter().flatten().count()
    }

    /// Whether `shard` is currently resident.
    pub fn is_resident(&self, shard: usize) -> bool {
        self.locked().shards[shard].is_some()
    }

    /// Resident shards except `protect`, coldest (least recently used)
    /// first — the eviction candidate order.
    pub fn victims_lru(&self, protect: usize) -> Vec<usize> {
        let state = self.locked();
        let mut victims: Vec<(u64, usize)> = state
            .shards
            .iter()
            .enumerate()
            .filter(|&(shard, _)| shard != protect)
            .filter_map(|(shard, entry)| entry.map(|e| (e.last_use, shard)))
            .collect();
        victims.sort_unstable();
        victims.into_iter().map(|(_, shard)| shard).collect()
    }

    /// Every shard id, resident ones first (each group in ascending shard
    /// order, so the schedule is deterministic). Counting passes visit
    /// shards in this order: hot shards are counted while cold ones fault
    /// in, and each cold shard is touched exactly once per batch.
    pub fn resident_first_schedule(&self) -> Vec<usize> {
        let state = self.locked();
        let mut schedule: Vec<usize> = (0..state.shards.len())
            .filter(|&shard| state.shards[shard].is_some())
            .collect();
        schedule.extend((0..state.shards.len()).filter(|&shard| state.shards[shard].is_none()));
        schedule
    }
}

// ---------------------------------------------------------------------------
// Spilled shards
// ---------------------------------------------------------------------------

/// Process-wide spill telemetry (all spilled datasets), surfaced by the
/// service's `/v1/stats`.
static GLOBAL_SPILLED_DATASETS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_SPILLED_SHARDS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_EVICTIONS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_REFAULTS: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the process-wide spill counters (monotone).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillCounters {
    /// Datasets spilled since process start.
    pub spilled_datasets: u64,
    /// Shard spill files written since process start.
    pub spilled_shards: u64,
    /// Shards evicted back to cold since process start.
    pub evictions: u64,
    /// Shards faulted in from spill files since process start.
    pub refaults: u64,
}

/// Snapshot the process-wide spill counters.
pub fn spill_counters() -> SpillCounters {
    SpillCounters {
        spilled_datasets: GLOBAL_SPILLED_DATASETS.load(Ordering::Relaxed),
        spilled_shards: GLOBAL_SPILLED_SHARDS.load(Ordering::Relaxed),
        evictions: GLOBAL_EVICTIONS.load(Ordering::Relaxed),
        refaults: GLOBAL_REFAULTS.load(Ordering::Relaxed),
    }
}

/// Per-shard spill-file metadata.
#[derive(Debug, Clone)]
struct ShardMeta {
    path: PathBuf,
    /// Transactions in this shard (`shard_rows`, shorter for the last).
    rows: usize,
    /// `u64` words in the shard's whole column matrix.
    payload_words: usize,
    /// Header + payload, in bytes (what a mapping must cover).
    file_len: u64,
    /// Payload bytes, charged against the residency budget.
    bytes: u64,
}

/// Where one shard's column words currently live.
#[derive(Debug)]
enum Slot {
    /// On disk only.
    Cold,
    /// Owned heap copy (the portable `read` fault path).
    Heap(Vec<u64>),
    /// Mapped read-only straight out of the spill file.
    #[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
    Mapped(MmapRegion),
}

fn slot_words(slot: &Slot) -> Option<&[u64]> {
    match slot {
        Slot::Cold => None,
        Slot::Heap(words) => Some(words),
        #[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
        Slot::Mapped(region) => Some(region.words()),
    }
}

/// A [`crate::sharded::ShardedBitmapDataset`] whose shard bytes live in
/// per-shard spill files, with at most a budget's worth resident at a time.
/// Same shard widths, same fixed reduction order, same counts — see the
/// [module docs](self).
///
/// Shared across workers behind an `Arc`; the spill directory and its files
/// are removed on drop.
#[derive(Debug)]
pub struct SpilledShards {
    num_items: u32,
    num_transactions: usize,
    shard_rows: usize,
    entries: usize,
    /// Effective fault mode (never `Mmap` on targets without support).
    mode: SpillMode,
    /// This dataset's private spill directory (removed on drop).
    dir: PathBuf,
    shards: Vec<ShardMeta>,
    slots: Vec<RwLock<Slot>>,
    /// Per-shard "payload CRC verified at least once" markers: the mmap path
    /// verifies lazily on first fault (the verification read doubles as the
    /// initial prefetch) and trusts the page cache afterwards.
    verified: Vec<AtomicBool>,
    residency: ResidencySet,
    /// Per-shard item supports in fixed shard order, computed once at spill
    /// time — they seed level-wise mining and rarest-first candidate
    /// ordering without faulting anything in.
    per_shard_supports: Vec<Vec<u64>>,
    /// Item supports summed over shards in fixed order.
    totals: Vec<u64>,
    evictions: AtomicU64,
    refaults: AtomicU64,
}

/// A pinned, loaded shard: holds the slot's read guard, so the evictor's
/// `try_write` fails and the shard cannot go cold while counting.
pub struct ShardGuard<'a> {
    slot: RwLockReadGuard<'a, Slot>,
    num_items: u32,
    rows: usize,
}

impl ShardGuard<'_> {
    /// The pinned shard's bit-columns.
    pub fn columns(&self) -> ColumnsRef<'_> {
        let words = slot_words(&self.slot).expect("a ShardGuard always pins a loaded slot");
        ColumnsRef::new(self.num_items, self.rows, words)
    }
}

impl std::fmt::Debug for ShardGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardGuard")
            .field("num_items", &self.num_items)
            .field("rows", &self.rows)
            .finish()
    }
}

/// Accumulates shard spill files during construction.
struct SpillBuilder {
    dir: PathBuf,
    num_items: u32,
    num_transactions: usize,
    shard_rows: usize,
    num_shards: usize,
    entries: usize,
    metas: Vec<ShardMeta>,
    per_shard_supports: Vec<Vec<u64>>,
    totals: Vec<u64>,
}

/// Sequence number making concurrent spill directories unique within a
/// process (the directory name also carries the pid).
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

impl SpillBuilder {
    fn create(
        num_items: u32,
        num_transactions: usize,
        shard_rows: usize,
        residency: &ShardResidency,
    ) -> crate::Result<Self> {
        assert!(
            shard_rows > 0 && shard_rows.is_multiple_of(WORD_BITS),
            "shard width must be a positive multiple of {WORD_BITS}, got {shard_rows}"
        );
        let base = residency.dir.clone().unwrap_or_else(default_spill_dir);
        fs::create_dir_all(&base)?;
        let dir = base.join(format!(
            "spill-{}-{}",
            std::process::id(),
            SPILL_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir)?;
        Ok(SpillBuilder {
            dir,
            num_items,
            num_transactions,
            shard_rows,
            num_shards: num_transactions.div_ceil(shard_rows).max(1),
            entries: 0,
            metas: Vec::new(),
            per_shard_supports: Vec::new(),
            totals: vec![0u64; num_items as usize],
        })
    }

    /// Rows of shard `index` (the last shard may be shorter).
    fn rows_of(&self, index: usize) -> usize {
        let start = index * self.shard_rows;
        self.shard_rows
            .min(self.num_transactions - start.min(self.num_transactions))
    }

    /// Write shard `metas.len()`'s spill file and fold its supports in.
    fn add_shard(&mut self, shard: &BitmapDataset) -> crate::Result<()> {
        let index = self.metas.len();
        debug_assert_eq!(shard.num_transactions(), self.rows_of(index));
        let path = self.dir.join(format!("shard-{index:06}.bin"));
        let (file_len, _crc) = write_spill_file(
            &path,
            self.num_items,
            shard.num_transactions(),
            shard.words(),
        )?;
        let words = shard.words().len();
        self.metas.push(ShardMeta {
            path,
            rows: shard.num_transactions(),
            payload_words: words,
            file_len,
            bytes: (words * 8) as u64,
        });
        self.entries += shard.num_entries();
        let supports = shard.item_supports();
        for (total, partial) in self.totals.iter_mut().zip(&supports) {
            *total += partial;
        }
        self.per_shard_supports.push(supports);
        Ok(())
    }

    fn finish(self, residency: &ShardResidency) -> SpilledShards {
        debug_assert_eq!(self.metas.len(), self.num_shards);
        let num_shards = self.metas.len();
        GLOBAL_SPILLED_DATASETS.fetch_add(1, Ordering::Relaxed);
        GLOBAL_SPILLED_SHARDS.fetch_add(num_shards as u64, Ordering::Relaxed);
        SpilledShards {
            num_items: self.num_items,
            num_transactions: self.num_transactions,
            shard_rows: self.shard_rows,
            entries: self.entries,
            mode: effective_mode(residency.mode),
            dir: self.dir,
            shards: self.metas,
            slots: (0..num_shards).map(|_| RwLock::new(Slot::Cold)).collect(),
            verified: (0..num_shards).map(|_| AtomicBool::new(false)).collect(),
            residency: ResidencySet::new(num_shards, residency.budget_bytes),
            per_shard_supports: self.per_shard_supports,
            totals: self.totals,
            evictions: AtomicU64::new(0),
            refaults: AtomicU64::new(0),
        }
    }
}

/// A point-in-time view of one spilled dataset's residency state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillSnapshot {
    /// Total shards (resident + cold).
    pub shards: usize,
    /// Currently resident shards.
    pub resident_shards: usize,
    /// Currently resident payload bytes.
    pub resident_bytes: u64,
    /// The configured residency budget.
    pub budget_bytes: u64,
    /// Evictions over this dataset's lifetime.
    pub evictions: u64,
    /// Fault-ins over this dataset's lifetime.
    pub refaults: u64,
}

impl SpilledShards {
    /// Spill `dataset` at the default shard width
    /// ([`ShardedBitmapDataset::default_shard_rows`], the same width
    /// [`ShardedBitmapDataset::from_dataset`] picks, so spilled and resident
    /// views shard identically).
    ///
    /// # Errors
    ///
    /// Returns [`crate::DatasetError::Io`] when the spill directory or a
    /// shard file cannot be written.
    pub fn spill_dataset(
        dataset: &TransactionDataset,
        residency: &ShardResidency,
    ) -> crate::Result<Self> {
        let shard_rows = ShardedBitmapDataset::default_shard_rows(
            dataset.num_items(),
            dataset.num_transactions(),
        );
        Self::spill_dataset_with_rows(dataset, shard_rows, residency)
    }

    /// Spill `dataset` at an explicit shard width. Shards are materialized
    /// **one at a time** from the CSR rows — peak construction memory is one
    /// shard, never the whole bit matrix (the point of spilling).
    ///
    /// # Errors
    ///
    /// Returns [`crate::DatasetError::Io`] on spill-file I/O failure.
    ///
    /// # Panics
    ///
    /// Panics unless `shard_rows` is a positive multiple of 64, like
    /// [`ShardedBitmapDataset::with_shard_rows`].
    pub fn spill_dataset_with_rows(
        dataset: &TransactionDataset,
        shard_rows: usize,
        residency: &ShardResidency,
    ) -> crate::Result<Self> {
        let num_items = dataset.num_items();
        let mut builder =
            SpillBuilder::create(num_items, dataset.num_transactions(), shard_rows, residency)?;
        let num_shards = builder.num_shards;
        let mut current = BitmapDataset::new(num_items, builder.rows_of(0));
        let mut built = 0usize;
        for (tid, txn) in dataset.iter().enumerate() {
            let shard = tid / shard_rows;
            while built < shard {
                builder.add_shard(&current)?;
                built += 1;
                current.reset(num_items, builder.rows_of(built));
            }
            let local = (tid % shard_rows) as u32;
            for &item in txn {
                current.set(item, local);
            }
        }
        while built < num_shards {
            builder.add_shard(&current)?;
            built += 1;
            if built < num_shards {
                current.reset(num_items, builder.rows_of(built));
            }
        }
        Ok(builder.finish(residency))
    }

    /// Spill an already-built sharded view (same widths, same contents).
    /// Mostly for parity tests; production construction goes through
    /// [`SpilledShards::spill_dataset`] to avoid materializing the matrix.
    ///
    /// # Errors
    ///
    /// Returns [`crate::DatasetError::Io`] on spill-file I/O failure.
    pub fn spill_sharded(
        sharded: &ShardedBitmapDataset,
        residency: &ShardResidency,
    ) -> crate::Result<Self> {
        let mut builder = SpillBuilder::create(
            sharded.num_items(),
            sharded.num_transactions(),
            sharded.shard_rows(),
            residency,
        )?;
        for shard in sharded.shards() {
            builder.add_shard(shard)?;
        }
        Ok(builder.finish(residency))
    }

    /// Number of items in the universe.
    #[inline]
    pub fn num_items(&self) -> u32 {
        self.num_items
    }

    /// Number of transactions (summed over shards).
    #[inline]
    pub fn num_transactions(&self) -> usize {
        self.num_transactions
    }

    /// The shard width (transactions per shard, multiple of 64).
    #[inline]
    pub fn shard_rows(&self) -> usize {
        self.shard_rows
    }

    /// Number of shards (at least 1, even for an empty dataset).
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Transactions in shard `index`.
    #[inline]
    pub fn shard_transactions(&self, index: usize) -> usize {
        self.shards[index].rows
    }

    /// Total (transaction, item) incidences, recorded at spill time.
    #[inline]
    pub fn num_entries(&self) -> usize {
        self.entries
    }

    /// The effective fault mode (`mmap` or `read`).
    #[inline]
    pub fn mode(&self) -> SpillMode {
        self.mode
    }

    /// The residency budget in bytes.
    #[inline]
    pub fn budget_bytes(&self) -> u64 {
        self.residency.budget_bytes()
    }

    /// Whether the budget covers every shard's payload at once — if so, a
    /// depth-first miner may pin all shards and never refault.
    pub fn budget_holds_all(&self) -> bool {
        let total: u64 = self.shards.iter().map(|meta| meta.bytes).sum();
        total <= self.residency.budget_bytes()
    }

    /// Item supports of shard `index` (fixed shard order), computed once at
    /// spill time.
    #[inline]
    pub fn shard_item_supports(&self, index: usize) -> &[u64] {
        &self.per_shard_supports[index]
    }

    /// Supports of all items, summed over shards in fixed order.
    pub fn item_supports(&self) -> Vec<u64> {
        self.totals.clone()
    }

    /// Maximum support of any single item.
    pub fn max_item_support(&self) -> u64 {
        self.totals.iter().copied().max().unwrap_or(0)
    }

    /// Average transaction length; zero for an empty dataset.
    pub fn avg_transaction_len(&self) -> f64 {
        if self.num_transactions == 0 {
            0.0
        } else {
            self.entries as f64 / self.num_transactions as f64
        }
    }

    /// The order a counting pass should visit shards in: resident first,
    /// then cold (each group ascending). Recomputed per batch, so a
    /// level-wise miner touches every cold shard exactly once per level.
    pub fn schedule(&self) -> Vec<usize> {
        self.residency.resident_first_schedule()
    }

    /// Pin shard `index` for counting, faulting it in if cold. The returned
    /// guard keeps the shard resident (eviction skips pinned slots) until
    /// dropped.
    ///
    /// # Panics
    ///
    /// Panics when the shard's spill file has been deleted or corrupted
    /// underneath the process — that is unrecoverable data loss, not a
    /// recoverable condition for a counting worker.
    pub fn shard(&self, index: usize) -> ShardGuard<'_> {
        loop {
            {
                let slot = self.slots[index]
                    .read()
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                if slot_words(&slot).is_some() {
                    self.residency.touch(index);
                    return ShardGuard {
                        slot,
                        num_items: self.num_items,
                        rows: self.shards[index].rows,
                    };
                }
            }
            self.fault_in(index);
            // Loop: re-acquire the read guard. In the tiny window between
            // releasing the write guard and re-reading, another worker's
            // eviction scan may have re-evicted the shard; then we simply
            // fault it in again.
        }
    }

    /// Fault shard `index` in under its write lock, then shed colder shards
    /// until the budget holds again.
    fn fault_in(&self, index: usize) {
        let mut slot = self.slots[index]
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if slot_words(&slot).is_some() {
            return; // another worker faulted it in while we waited
        }
        let loaded = self.load_slot(index).unwrap_or_else(|error| {
            panic!(
                "sigfim spill: cannot fault shard {index} back in: {error} \
                 (spill files are live state while their dataset is loaded)"
            )
        });
        *slot = loaded;
        self.residency.note_loaded(index, self.shards[index].bytes);
        self.refaults.fetch_add(1, Ordering::Relaxed);
        GLOBAL_REFAULTS.fetch_add(1, Ordering::Relaxed);
        // Evict while still holding `index`'s write guard: other workers'
        // evictors see the slot write-locked and skip it, so the shard we
        // just paid to load cannot be stolen before the caller pins it.
        self.evict_over_budget(index);
    }

    /// Evict cold-able shards (LRU first, never `protect`, never a pinned
    /// slot) until resident bytes fit the budget or no victim remains.
    fn evict_over_budget(&self, protect: usize) {
        if !self.residency.over_budget() {
            return;
        }
        for victim in self.residency.victims_lru(protect) {
            if !self.residency.over_budget() {
                break;
            }
            let Ok(mut slot) = self.slots[victim].try_write() else {
                // Pinned by a counting worker's read guard (or being loaded):
                // never evict a shard mid-batch; try the next-coldest.
                continue;
            };
            if slot_words(&slot).is_some() {
                *slot = Slot::Cold;
                self.residency.note_evicted(victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                GLOBAL_EVICTIONS.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Load shard `index`'s payload according to the effective mode.
    fn load_slot(&self, index: usize) -> io::Result<Slot> {
        let meta = &self.shards[index];
        match self.mode {
            #[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
            SpillMode::Mmap => {
                let file = File::open(&meta.path)?;
                let len = file.metadata()?.len();
                if len != meta.file_len {
                    return Err(corrupt(
                        &meta.path,
                        format!("length changed: {len} vs expected {}", meta.file_len),
                    ));
                }
                let region = MmapRegion::map(&file, len as usize, meta.payload_words)?;
                if self.verified[index].load(Ordering::Acquire) {
                    // Already integrity-checked once; just hint sequential
                    // readahead so the counting pass does not fault page by
                    // page.
                    region.prefetch();
                } else {
                    // First fault: walk the mapping once to verify both CRCs
                    // — the verification read doubles as the prefetch.
                    let bytes = region.bytes();
                    let payload_crc =
                        verify_header(&bytes[..HEADER_LEN], self.num_items, meta.rows, &meta.path)?;
                    if crc32(&bytes[HEADER_LEN..]) != payload_crc {
                        return Err(corrupt(&meta.path, "payload CRC mismatch"));
                    }
                    self.verified[index].store(true, Ordering::Release);
                }
                Ok(Slot::Mapped(region))
            }
            _ => Ok(Slot::Heap(read_spill_file(meta, self.num_items)?)),
        }
    }

    /// Current residency state and lifetime counters.
    pub fn snapshot(&self) -> SpillSnapshot {
        SpillSnapshot {
            shards: self.shards.len(),
            resident_shards: self.residency.resident_count(),
            resident_bytes: self.residency.resident_bytes(),
            budget_bytes: self.residency.budget_bytes(),
            evictions: self.evictions.load(Ordering::Relaxed),
            refaults: self.refaults.load(Ordering::Relaxed),
        }
    }
}

impl Drop for SpilledShards {
    fn drop(&mut self) {
        // Spill files are scratch tied to this dataset's lifetime; best-effort
        // cleanup (a dirty temp dir is not worth failing a drop over).
        for meta in &self.shards {
            let _ = fs::remove_file(&meta.path);
        }
        let _ = fs::remove_dir(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t: usize) -> TransactionDataset {
        TransactionDataset::from_transactions(
            6,
            (0..t)
                .map(|i| {
                    (0..6u32)
                        .filter(|&j| (i + j as usize).is_multiple_of(j as usize + 2))
                        .collect()
                })
                .collect(),
        )
        .unwrap()
    }

    fn test_residency(budget: u64, mode: SpillMode) -> ShardResidency {
        ShardResidency {
            budget_bytes: budget,
            mode,
            dir: Some(std::env::temp_dir().join("sigfim-spill-tests")),
        }
    }

    fn modes() -> Vec<SpillMode> {
        if MMAP_SUPPORTED {
            vec![SpillMode::Mmap, SpillMode::Read]
        } else {
            vec![SpillMode::Read]
        }
    }

    #[test]
    fn mode_parsing_round_trips() {
        for mode in SpillMode::ALL {
            assert_eq!(mode.name().parse::<SpillMode>().unwrap(), mode);
            assert_eq!(mode.to_string(), mode.name());
        }
        assert!("disk".parse::<SpillMode>().is_err());
    }

    #[test]
    fn budget_parsing() {
        assert_eq!(parse_budget_bytes("8388608").unwrap(), 8 << 20);
        assert_eq!(parse_budget_bytes("8m").unwrap(), 8 << 20);
        assert_eq!(parse_budget_bytes("512K").unwrap(), 512 << 10);
        assert_eq!(parse_budget_bytes("2G").unwrap(), 2 << 30);
        assert_eq!(parse_budget_bytes(" 64 ").unwrap(), 64);
        assert!(parse_budget_bytes("").is_err());
        assert!(parse_budget_bytes("8q").is_err());
        assert!(parse_budget_bytes("m").is_err());
        assert!(parse_budget_bytes("99999999999999999999g").is_err());
    }

    #[test]
    fn startup_validation_resolves_flag_and_env() {
        assert_eq!(
            resolve_spill_request(Some(SpillMode::Read), None).unwrap(),
            SpillMode::Read
        );
        assert_eq!(
            resolve_spill_request(None, Some("off")).unwrap(),
            SpillMode::Off
        );
        assert_eq!(
            resolve_spill_request(None, None).unwrap(),
            default_spill_mode()
        );
        let conflict = resolve_spill_request(Some(SpillMode::Mmap), Some("read")).unwrap_err();
        assert!(conflict.contains("--spill mmap"), "{conflict}");
        assert!(conflict.contains("SIGFIM_SPILL=read"), "{conflict}");
        assert!(resolve_spill_request(None, Some("disk")).is_err());

        assert_eq!(
            resolve_residency_request(Some(1024), None).unwrap(),
            Some(1024)
        );
        assert_eq!(
            resolve_residency_request(None, Some("4m")).unwrap(),
            Some(4 << 20)
        );
        assert_eq!(resolve_residency_request(None, None).unwrap(), None);
        assert_eq!(
            resolve_residency_request(Some(2048), Some("2k")).unwrap(),
            Some(2048)
        );
        let conflict = resolve_residency_request(Some(1), Some("2")).unwrap_err();
        assert!(conflict.contains("--shard-residency 1"), "{conflict}");
        assert!(resolve_residency_request(None, Some("x")).is_err());
    }

    #[test]
    fn header_round_trip_and_corruption_detection() {
        let words = [0xdead_beef_u64, 42, u64::MAX];
        let dir = std::env::temp_dir().join("sigfim-spill-tests");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("header-rt-{}.bin", std::process::id()));
        let (file_len, _) = write_spill_file(&path, 3, 64, &words).unwrap();
        assert_eq!(file_len, (HEADER_LEN + 24) as u64);
        let meta = ShardMeta {
            path: path.clone(),
            rows: 64,
            payload_words: 3,
            file_len,
            bytes: 24,
        };
        assert_eq!(read_spill_file(&meta, 3).unwrap(), words);
        // Wrong declared shape is caught by the header check.
        assert!(read_spill_file(
            &ShardMeta {
                rows: 128,
                ..meta.clone()
            },
            3
        )
        .is_err());
        // Flip a payload byte: CRC mismatch.
        let mut bytes = fs::read(&path).unwrap();
        bytes[HEADER_LEN + 1] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let error = read_spill_file(&meta, 3).unwrap_err();
        assert!(error.to_string().contains("payload CRC"), "{error}");
        // Flip a header byte: header CRC mismatch.
        bytes[HEADER_LEN + 1] ^= 0x40;
        bytes[9] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let error = read_spill_file(&meta, 3).unwrap_err();
        assert!(error.to_string().contains("header CRC"), "{error}");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn spilled_counts_match_the_resident_shards() {
        let csr = sample(300);
        let sharded = ShardedBitmapDataset::with_shard_rows(&csr, 64);
        for mode in modes() {
            // A budget of one shard's payload forces eviction traffic.
            let one_shard = (sharded.shards()[0].words().len() * 8) as u64;
            let spilled =
                SpilledShards::spill_dataset_with_rows(&csr, 64, &test_residency(one_shard, mode))
                    .unwrap();
            assert_eq!(spilled.num_shards(), sharded.num_shards());
            assert_eq!(spilled.num_entries(), sharded.num_entries());
            assert_eq!(spilled.item_supports(), sharded.item_supports());
            assert_eq!(spilled.max_item_support(), sharded.max_item_support());
            for index in 0..spilled.num_shards() {
                assert_eq!(
                    spilled.shard_item_supports(index),
                    sharded.shards()[index].item_supports(),
                    "shard {index} supports ({mode})"
                );
                let guard = spilled.shard(index);
                let columns = guard.columns();
                for item in 0..csr.num_items() {
                    assert_eq!(
                        columns.column(item),
                        sharded.shards()[index].column(item),
                        "shard {index} item {item} ({mode})"
                    );
                }
            }
            let snapshot = spilled.snapshot();
            assert!(snapshot.refaults >= spilled.num_shards() as u64);
            assert!(snapshot.evictions > 0, "1-shard budget must evict ({mode})");
            assert!(!spilled.budget_holds_all());
        }
    }

    #[test]
    fn spill_sharded_matches_spill_dataset() {
        let csr = sample(200);
        let sharded = ShardedBitmapDataset::with_shard_rows(&csr, 128);
        let a =
            SpilledShards::spill_sharded(&sharded, &test_residency(1, SpillMode::Read)).unwrap();
        let b =
            SpilledShards::spill_dataset_with_rows(&csr, 128, &test_residency(1, SpillMode::Read))
                .unwrap();
        assert_eq!(a.num_shards(), b.num_shards());
        for index in 0..a.num_shards() {
            let (ga, gb) = (a.shard(index), b.shard(index));
            for item in 0..csr.num_items() {
                assert_eq!(ga.columns().column(item), gb.columns().column(item));
            }
        }
    }

    #[test]
    fn generous_budget_keeps_everything_resident() {
        let csr = sample(256);
        let spilled = SpilledShards::spill_dataset_with_rows(
            &csr,
            64,
            &test_residency(1 << 20, SpillMode::Read),
        )
        .unwrap();
        assert!(spilled.budget_holds_all());
        for index in 0..spilled.num_shards() {
            let _ = spilled.shard(index);
        }
        let snapshot = spilled.snapshot();
        assert_eq!(snapshot.resident_shards, spilled.num_shards());
        assert_eq!(snapshot.evictions, 0);
        // Refaulting a resident shard is free (touch only).
        let _ = spilled.shard(0);
        assert_eq!(spilled.snapshot().refaults, snapshot.refaults);
    }

    #[test]
    fn schedule_visits_resident_shards_first() {
        let csr = sample(300);
        let spilled = SpilledShards::spill_dataset_with_rows(
            &csr,
            64,
            &test_residency(1 << 20, SpillMode::Read),
        )
        .unwrap();
        assert_eq!(spilled.schedule(), vec![0, 1, 2, 3, 4]);
        let _ = spilled.shard(3);
        let _ = spilled.shard(1);
        assert_eq!(spilled.schedule(), vec![1, 3, 0, 2, 4]);
    }

    #[test]
    fn pinned_shards_survive_eviction_pressure() {
        let csr = sample(300);
        let spilled =
            SpilledShards::spill_dataset_with_rows(&csr, 64, &test_residency(1, SpillMode::Read))
                .unwrap();
        let expected: Vec<u64> = ShardedBitmapDataset::with_shard_rows(&csr, 64).shards()[0]
            .column(2)
            .to_vec();
        let pinned = spilled.shard(0);
        // Fault every other shard through a 1-byte budget: shard 0 is the LRU
        // victim every time, but the held guard must keep it loaded.
        for index in 1..spilled.num_shards() {
            let _ = spilled.shard(index);
        }
        assert_eq!(pinned.columns().column(2), expected.as_slice());
        let snapshot = spilled.snapshot();
        assert!(snapshot.evictions > 0);
        drop(pinned);
        // Unpinned now: the next over-budget fault may evict shard 0.
        let _ = spilled.shard(1);
        assert!(
            spilled.snapshot().resident_bytes
                <= spilled.budget_bytes().max(spilled.shards[1].bytes)
        );
    }

    #[test]
    fn residency_set_tracks_lru_order() {
        let set = ResidencySet::new(4, 100);
        assert_eq!(set.resident_count(), 0);
        assert!(!set.over_budget());
        set.note_loaded(0, 60);
        set.note_loaded(1, 60);
        assert!(set.over_budget());
        assert_eq!(set.resident_bytes(), 120);
        // LRU order: 0 loaded first, so it is the coldest victim.
        assert_eq!(set.victims_lru(3), vec![0, 1]);
        // Touching 0 moves it to the MRU end.
        set.touch(0);
        assert_eq!(set.victims_lru(3), vec![1, 0]);
        // The protected shard never appears.
        assert_eq!(set.victims_lru(0), vec![1]);
        set.note_evicted(1);
        assert_eq!(set.resident_bytes(), 60);
        assert!(!set.over_budget());
        assert!(set.is_resident(0));
        assert!(!set.is_resident(1));
        // Re-loading an already-resident shard replaces its accounting.
        set.note_loaded(0, 70);
        assert_eq!(set.resident_bytes(), 70);
        // Touching or evicting a cold shard is a no-op.
        set.touch(2);
        set.note_evicted(2);
        assert_eq!(set.resident_count(), 1);
        assert_eq!(set.resident_first_schedule(), vec![0, 1, 2, 3]);
        set.note_loaded(3, 1);
        assert_eq!(set.resident_first_schedule(), vec![0, 3, 1, 2]);
    }

    #[test]
    fn empty_and_single_shard_datasets_spill_cleanly() {
        let empty = TransactionDataset::empty(4);
        for mode in modes() {
            let spilled = SpilledShards::spill_dataset(&empty, &test_residency(0, mode)).unwrap();
            assert_eq!(spilled.num_shards(), 1);
            assert_eq!(spilled.num_transactions(), 0);
            assert_eq!(spilled.num_entries(), 0);
            let guard = spilled.shard(0);
            assert_eq!(guard.columns().num_transactions(), 0);
        }
        let tiny = sample(10);
        let spilled =
            SpilledShards::spill_dataset(&tiny, &test_residency(0, SpillMode::Read)).unwrap();
        assert_eq!(spilled.num_shards(), 1);
        assert_eq!(spilled.item_supports(), tiny.item_supports());
    }

    #[test]
    fn spill_dataset_uses_the_static_default_width() {
        // 2048 items × 4096 transactions: every candidate shard budget gives
        // a different width here, so only the static L2 budget matches.
        let csr = TransactionDataset::from_transactions(
            2048,
            (0..4096u32).map(|tid| vec![tid % 2048]).collect(),
        )
        .unwrap();
        let spilled =
            SpilledShards::spill_dataset(&csr, &test_residency(1 << 30, SpillMode::Read)).unwrap();
        assert_eq!(
            spilled.shard_rows(),
            ShardedBitmapDataset::default_shard_rows(2048, 4096)
        );
        assert_eq!(
            spilled.shard_rows(),
            ShardedBitmapDataset::from_dataset(&csr).shard_rows()
        );
    }

    #[test]
    fn drop_removes_the_spill_directory() {
        let csr = sample(100);
        let spilled =
            SpilledShards::spill_dataset_with_rows(&csr, 64, &test_residency(0, SpillMode::Read))
                .unwrap();
        let dir = spilled.dir.clone();
        assert!(dir.is_dir());
        drop(spilled);
        assert!(!dir.exists());
    }

    #[test]
    fn process_config_surface() {
        // `from_process_config` depends on process-global OnceLocks shared
        // with other tests, so only the invariants stable under any order are
        // asserted here; the pure resolvers have their own tests above.
        let policy = ShardResidency::with_budget(4096);
        assert_eq!(policy.budget_bytes, 4096);
        assert!(policy.dir.is_none());
        if let Some(config) = ShardResidency::from_process_config() {
            assert!(config.is_active());
        }
        let counters = spill_counters();
        let _ =
            SpilledShards::spill_dataset(&sample(50), &test_residency(0, SpillMode::Read)).unwrap();
        let after = spill_counters();
        assert!(after.spilled_datasets > counters.spilled_datasets);
        assert!(after.spilled_shards > counters.spilled_shards);
    }
}
