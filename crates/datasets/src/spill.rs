//! Out-of-core shards: spill files, an LRU residency set, and on-demand
//! fault-in for counting.
//!
//! A [`crate::sharded::ShardedBitmapDataset`] built with a
//! [`ShardResidency`] writes each shard's column matrix once to a per-shard
//! **spill file** (a word-exact little-endian dump behind a CRC-checked
//! header, the same framing discipline as `sigfim-store`) instead of keeping
//! it in memory, and a [`ResidencySet`] enforces a byte budget over which
//! shards are currently loaded. Counting passes pin shards through
//! [`crate::sharded::ShardedBitmapDataset::shard`], which returns a
//! [`ShardGuard`]; cold shards are faulted back in either by
//!
//! * `mmap` — the payload is mapped read-only straight out of the file
//!   (64-bit little-endian unix targets; a small `SAFETY:`-documented wrapper
//!   over the `mmap`/`munmap`/`madvise` syscalls, no `libc` crate), with
//!   `madvise(WILLNEED)` sequential prefetch on refaults, or
//! * `read` — a portable buffered read into an owned heap vector.
//!
//! The fault path is [`ShardResidency::mode`], which defaults to what the
//! platform supports. Shard contents and the fixed-order exact reduction are
//! untouched, so every count — and therefore every report — is
//! **bit-identical** to the fully-resident store at any budget, worker count,
//! or kernel.
//!
//! Eviction never races a counting worker: a worker pins its shard with a
//! read guard, and the evictor only reclaims slots it can `try_write` —
//! pinned shards are skipped, so the worst-case overshoot is the budget plus
//! one pinned shard per worker.

use std::fs::{self, File};
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, RwLock, RwLockReadGuard};

use sigfim_store::crc32;

use crate::bitmap::{BitmapDataset, ColumnsRef};

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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpillMode {
    /// Map the spill file read-only and count straight out of the page
    /// cache ([`MMAP_SUPPORTED`] targets; elsewhere behaves like `Read`).
    Mmap,
    /// Portable fallback: read the payload into an owned heap buffer.
    Read,
}

impl SpillMode {
    /// Every mode, for test matrices.
    pub const ALL: [SpillMode; 2] = [SpillMode::Mmap, SpillMode::Read];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            SpillMode::Mmap => "mmap",
            SpillMode::Read => "read",
        }
    }
}

/// The platform's fault path: `mmap` where the direct mapping is sound, the
/// portable read path elsewhere.
impl Default for SpillMode {
    fn default() -> Self {
        if MMAP_SUPPORTED {
            SpillMode::Mmap
        } else {
            SpillMode::Read
        }
    }
}

impl std::fmt::Display for SpillMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
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

/// The spill directory used when a [`ShardResidency`] names none:
/// `<system temp>/sigfim-spill`.
pub fn default_spill_dir() -> PathBuf {
    std::env::temp_dir().join("sigfim-spill")
}

/// A shard-residency policy: spill the shards of a sharded store to `dir`
/// and keep at most `budget_bytes` of them resident, faulting via `mode`.
/// Engines carry one as a plain value; an engine without one keeps its
/// shards resident.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardResidency {
    /// Maximum bytes of shard payload kept resident at once. Pinned shards
    /// are never evicted, so the hard ceiling is `budget_bytes` plus one
    /// shard per concurrently-counting worker.
    pub budget_bytes: u64,
    /// How cold shards are faulted back in.
    pub mode: SpillMode,
    /// Base directory for spill files; `None` means [`default_spill_dir`].
    pub dir: Option<PathBuf>,
}

impl ShardResidency {
    /// A policy with the given budget, the platform's fault path, and the
    /// default spill directory.
    pub fn with_budget(budget_bytes: u64) -> Self {
        ShardResidency {
            budget_bytes,
            mode: SpillMode::default(),
            dir: None,
        }
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
    pub(crate) struct MmapRegion {
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
/// policy object — the slots themselves live in the sharded store; keeping
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
// Spill files behind a sharded store
// ---------------------------------------------------------------------------

/// Process-wide spill telemetry (all spilled stores), surfaced by the
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
pub(crate) enum Slot {
    /// On disk only.
    Cold,
    /// Owned heap words: a resident shard, or one faulted in by the
    /// portable `read` path.
    Heap(Vec<u64>),
    /// Mapped read-only straight out of the spill file.
    #[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
    Mapped(MmapRegion),
}

impl Slot {
    fn words(&self) -> Option<&[u64]> {
        match self {
            Slot::Cold => None,
            Slot::Heap(words) => Some(words),
            #[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
            Slot::Mapped(region) => Some(region.words()),
        }
    }

    /// Whether the slot holds words (a guard may pin it).
    pub(crate) fn is_loaded(&self) -> bool {
        self.words().is_some()
    }
}

/// A pinned, loaded shard: holds the slot's read guard, so the evictor's
/// `try_write` fails and the shard cannot go cold while counting.
pub struct ShardGuard<'a> {
    slot: RwLockReadGuard<'a, Slot>,
    num_items: u32,
    rows: usize,
}

impl<'a> ShardGuard<'a> {
    /// Pin a loaded slot holding a `num_items × rows` column matrix.
    pub(crate) fn new(slot: RwLockReadGuard<'a, Slot>, num_items: u32, rows: usize) -> Self {
        debug_assert!(slot.is_loaded(), "a ShardGuard only pins loaded slots");
        ShardGuard {
            slot,
            num_items,
            rows,
        }
    }

    /// The pinned shard's bit-columns.
    pub fn columns(&self) -> ColumnsRef<'_> {
        let words = self
            .slot
            .words()
            .expect("a ShardGuard always pins a loaded slot");
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

/// A store's private spill directory. Removed with everything in it on
/// drop — both when the store goes away and when construction fails
/// half-way, so a failed spill leaves nothing behind.
#[derive(Debug)]
struct SpillDir(PathBuf);

impl Drop for SpillDir {
    fn drop(&mut self) {
        // Spill files are scratch tied to their store's lifetime; best-effort
        // cleanup (a dirty temp dir is not worth failing a drop over).
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// The pid in a spill directory name `spill-<pid>-<seq>` (both decimal), or
/// `None` for any other name.
fn spill_dir_pid(name: &str) -> Option<u32> {
    let (pid, seq) = name.strip_prefix("spill-")?.split_once('-')?;
    let decimal = |part: &str| !part.is_empty() && part.bytes().all(|b| b.is_ascii_digit());
    if decimal(pid) && decimal(seq) {
        pid.parse().ok()
    } else {
        None
    }
}

/// Remove the spill directories under `base` that dead processes left
/// behind. A process stopped by a signal never drops its stores, so its
/// `spill-<pid>-<seq>/` directories outlive it; a server sweeps its spill
/// base at startup. Only directories named exactly `spill-<pid>-<seq>` are
/// touched, and only when `<pid>` is neither this process nor a live one.
/// Liveness is read from `/proc/<pid>`; where `/proc` does not exist nothing
/// is removed. Returns the number of directories removed.
///
/// # Errors
///
/// Propagates failures to list `base` (a missing `base` sweeps nothing) or
/// to remove a stale directory.
pub fn sweep_stale_spill_dirs(base: &Path) -> io::Result<usize> {
    let proc_root = Path::new("/proc");
    if !proc_root.join("self").exists() {
        return Ok(0);
    }
    let entries = match fs::read_dir(base) {
        Ok(entries) => entries,
        Err(error) if error.kind() == io::ErrorKind::NotFound => return Ok(0),
        Err(error) => return Err(error),
    };
    let own = std::process::id();
    let mut removed = 0;
    for entry in entries {
        let entry = entry?;
        let Some(pid) = entry.file_name().to_str().and_then(spill_dir_pid) else {
            continue;
        };
        let alive = pid == own || proc_root.join(pid.to_string()).exists();
        if !alive && entry.file_type()?.is_dir() {
            fs::remove_dir_all(entry.path())?;
            removed += 1;
        }
    }
    Ok(removed)
}

/// Sequence number making concurrent spill directories unique within a
/// process (the directory name also carries the pid).
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// Writes a store's shard spill files, one shard at a time, during
/// construction.
#[derive(Debug)]
pub(crate) struct SpillWriter {
    dir: SpillDir,
    num_items: u32,
    mode: SpillMode,
    budget_bytes: u64,
    metas: Vec<ShardMeta>,
}

impl SpillWriter {
    /// Create a fresh spill directory under `residency.dir` for a store over
    /// `num_items` items.
    pub(crate) fn create(residency: &ShardResidency, num_items: u32) -> crate::Result<Self> {
        let base = residency.dir.clone().unwrap_or_else(default_spill_dir);
        fs::create_dir_all(&base)?;
        let dir = base.join(format!(
            "spill-{}-{}",
            std::process::id(),
            SPILL_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir)?;
        Ok(SpillWriter {
            dir: SpillDir(dir),
            num_items,
            mode: residency.mode,
            budget_bytes: residency.budget_bytes,
            metas: Vec::new(),
        })
    }

    /// Write the next shard's spill file.
    pub(crate) fn add_shard(&mut self, shard: &BitmapDataset) -> crate::Result<()> {
        let path = self
            .dir
            .0
            .join(format!("shard-{:06}.bin", self.metas.len()));
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
        Ok(())
    }

    /// Every shard is written: hand the files over to their store.
    pub(crate) fn finish(self) -> SpillFiles {
        let num_shards = self.metas.len();
        GLOBAL_SPILLED_DATASETS.fetch_add(1, Ordering::Relaxed);
        GLOBAL_SPILLED_SHARDS.fetch_add(num_shards as u64, Ordering::Relaxed);
        SpillFiles {
            num_items: self.num_items,
            mode: self.mode,
            _dir: self.dir,
            metas: self.metas,
            verified: (0..num_shards).map(|_| AtomicBool::new(false)).collect(),
            residency: ResidencySet::new(num_shards, self.budget_bytes),
            evictions: AtomicU64::new(0),
            refaults: AtomicU64::new(0),
        }
    }
}

/// A point-in-time view of one spilled store's residency state.
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
    /// Evictions over this store's lifetime.
    pub evictions: u64,
    /// Fault-ins over this store's lifetime.
    pub refaults: u64,
}

/// The spill side of a sharded store: its shard files, the residency set
/// over them, and the fault/evict machinery that moves shards between the
/// files and the store's slots.
#[derive(Debug)]
pub(crate) struct SpillFiles {
    num_items: u32,
    mode: SpillMode,
    /// Owns the spill directory: removed, files and all, on drop.
    _dir: SpillDir,
    metas: Vec<ShardMeta>,
    /// Per-shard "payload CRC verified at least once" markers: the mmap path
    /// verifies lazily on first fault (the verification read doubles as the
    /// initial prefetch) and trusts the page cache afterwards.
    verified: Vec<AtomicBool>,
    residency: ResidencySet,
    evictions: AtomicU64,
    refaults: AtomicU64,
}

impl SpillFiles {
    /// Whether the budget covers every shard's payload at once.
    pub(crate) fn budget_holds_all(&self) -> bool {
        let total: u64 = self.metas.iter().map(|meta| meta.bytes).sum();
        total <= self.residency.budget_bytes()
    }

    /// Resident shards first, then cold ones (each group ascending).
    pub(crate) fn schedule(&self) -> Vec<usize> {
        self.residency.resident_first_schedule()
    }

    /// Record a use of resident shard `index`.
    pub(crate) fn touch(&self, index: usize) {
        self.residency.touch(index);
    }

    /// Fault shard `index` into `slots[index]` under its write lock, then
    /// shed colder shards until the budget holds again.
    ///
    /// # Panics
    ///
    /// Panics when the shard's spill file has been deleted or corrupted
    /// underneath the process — that is unrecoverable data loss, not a
    /// recoverable condition for a counting worker.
    pub(crate) fn fault_in(&self, slots: &[RwLock<Slot>], index: usize) {
        let mut slot = slots[index]
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if slot.is_loaded() {
            return; // another worker faulted it in while we waited
        }
        *slot = self.load_slot(index).unwrap_or_else(|error| {
            panic!(
                "sigfim spill: cannot fault shard {index} back in: {error} \
                 (spill files are live state while their dataset is loaded)"
            )
        });
        self.residency.note_loaded(index, self.metas[index].bytes);
        self.refaults.fetch_add(1, Ordering::Relaxed);
        GLOBAL_REFAULTS.fetch_add(1, Ordering::Relaxed);
        // Evict while still holding `index`'s write guard: other workers'
        // evictors see the slot write-locked and skip it, so the shard we
        // just paid to load cannot be stolen before the caller pins it.
        self.evict_over_budget(slots, index);
    }

    /// Evict cold-able shards (LRU first, never `protect`, never a pinned
    /// slot) until resident bytes fit the budget or no victim remains.
    fn evict_over_budget(&self, slots: &[RwLock<Slot>], protect: usize) {
        if !self.residency.over_budget() {
            return;
        }
        for victim in self.residency.victims_lru(protect) {
            if !self.residency.over_budget() {
                break;
            }
            let Ok(mut slot) = slots[victim].try_write() else {
                // Pinned by a counting worker's read guard (or being loaded):
                // never evict a shard mid-batch; try the next-coldest.
                continue;
            };
            if slot.is_loaded() {
                *slot = Slot::Cold;
                self.residency.note_evicted(victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                GLOBAL_EVICTIONS.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Load shard `index`'s payload according to the fault mode.
    fn load_slot(&self, index: usize) -> io::Result<Slot> {
        let meta = &self.metas[index];
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
    pub(crate) fn snapshot(&self) -> SpillSnapshot {
        SpillSnapshot {
            shards: self.metas.len(),
            resident_shards: self.residency.resident_count(),
            resident_bytes: self.residency.resident_bytes(),
            budget_bytes: self.residency.budget_bytes(),
            evictions: self.evictions.load(Ordering::Relaxed),
            refaults: self.refaults.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::ShardedBitmapDataset;
    use crate::transaction::TransactionDataset;

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

    fn spilled(csr: &TransactionDataset, rows: usize, budget: u64) -> ShardedBitmapDataset {
        ShardedBitmapDataset::spill_dataset_with_rows(
            csr,
            rows,
            &test_residency(budget, SpillMode::Read),
        )
        .unwrap()
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
        let resident = ShardedBitmapDataset::with_shard_rows(&csr, 64);
        for mode in SpillMode::ALL {
            // A budget of one shard's payload forces eviction traffic.
            let one_shard = (csr.num_items() as u64) * 8;
            let spilled = ShardedBitmapDataset::spill_dataset_with_rows(
                &csr,
                64,
                &test_residency(one_shard, mode),
            )
            .unwrap();
            assert_eq!(spilled.num_shards(), resident.num_shards());
            assert_eq!(spilled.num_entries(), resident.num_entries());
            assert_eq!(spilled.item_supports(), resident.item_supports());
            assert_eq!(spilled.max_item_support(), resident.max_item_support());
            for index in 0..spilled.num_shards() {
                assert_eq!(
                    spilled.shard_item_supports(index),
                    resident.shard_item_supports(index),
                    "shard {index} supports ({mode})"
                );
                let (guard, expected) = (spilled.shard(index), resident.shard(index));
                for item in 0..csr.num_items() {
                    assert_eq!(
                        guard.columns().column(item),
                        expected.columns().column(item),
                        "shard {index} item {item} ({mode})"
                    );
                }
            }
            let snapshot = spilled.spill_snapshot().unwrap();
            assert!(snapshot.refaults >= spilled.num_shards() as u64);
            assert!(snapshot.evictions > 0, "1-shard budget must evict ({mode})");
            assert!(!spilled.budget_holds_all());
        }
    }

    #[test]
    fn generous_budget_keeps_everything_resident() {
        let csr = sample(256);
        let spilled = spilled(&csr, 64, 1 << 20);
        assert!(spilled.budget_holds_all());
        for index in 0..spilled.num_shards() {
            let _ = spilled.shard(index);
        }
        let snapshot = spilled.spill_snapshot().unwrap();
        assert_eq!(snapshot.resident_shards, spilled.num_shards());
        assert_eq!(snapshot.evictions, 0);
        // Refaulting a resident shard is free (touch only).
        let _ = spilled.shard(0);
        assert_eq!(
            spilled.spill_snapshot().unwrap().refaults,
            snapshot.refaults
        );
    }

    #[test]
    fn schedule_visits_resident_shards_first() {
        let csr = sample(300);
        let spilled = spilled(&csr, 64, 1 << 20);
        assert_eq!(spilled.schedule(), vec![0, 1, 2, 3, 4]);
        let _ = spilled.shard(3);
        let _ = spilled.shard(1);
        assert_eq!(spilled.schedule(), vec![1, 3, 0, 2, 4]);
    }

    #[test]
    fn pinned_shards_survive_eviction_pressure() {
        let csr = sample(300);
        let spilled = spilled(&csr, 64, 1);
        let resident = ShardedBitmapDataset::with_shard_rows(&csr, 64);
        let expected = resident.shard(0).columns().column(2).to_vec();
        let pinned = spilled.shard(0);
        // Fault every other shard through a 1-byte budget: shard 0 is the LRU
        // victim every time, but the held guard must keep it loaded.
        for index in 1..spilled.num_shards() {
            let _ = spilled.shard(index);
        }
        assert_eq!(pinned.columns().column(2), expected.as_slice());
        assert!(spilled.spill_snapshot().unwrap().evictions > 0);
        drop(pinned);
        // Unpinned now: the next over-budget fault may evict shard 0, so
        // only the shard just faulted stays resident.
        let _ = spilled.shard(1);
        assert!(spilled.spill_snapshot().unwrap().resident_shards <= 1);
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
        for mode in SpillMode::ALL {
            let spilled =
                ShardedBitmapDataset::spill_dataset(&empty, &test_residency(0, mode)).unwrap();
            assert_eq!(spilled.num_shards(), 1);
            assert_eq!(spilled.num_transactions(), 0);
            assert_eq!(spilled.num_entries(), 0);
            let guard = spilled.shard(0);
            assert_eq!(guard.columns().num_transactions(), 0);
        }
        let tiny = sample(10);
        let spilled =
            ShardedBitmapDataset::spill_dataset(&tiny, &test_residency(0, SpillMode::Read))
                .unwrap();
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
            ShardedBitmapDataset::spill_dataset(&csr, &test_residency(1 << 30, SpillMode::Read))
                .unwrap();
        assert_eq!(
            spilled.shard_rows(),
            ShardedBitmapDataset::default_shard_rows(2048, 4096)
        );
        assert_eq!(
            spilled.shard_rows(),
            ShardedBitmapDataset::from_dataset(&csr).shard_rows()
        );
    }

    /// A spill base directory private to one test, so it can assert the
    /// directory ends up empty.
    fn private_residency(name: &str) -> ShardResidency {
        let base = std::env::temp_dir()
            .join("sigfim-spill-tests")
            .join(format!("{name}-{}", std::process::id()));
        ShardResidency {
            budget_bytes: 0,
            mode: SpillMode::Read,
            dir: Some(base),
        }
    }

    fn is_empty_dir(dir: &Path) -> bool {
        fs::read_dir(dir).unwrap().next().is_none()
    }

    #[test]
    fn drop_removes_the_spill_directory() {
        let residency = private_residency("drop");
        let spilled =
            ShardedBitmapDataset::spill_dataset_with_rows(&sample(100), 64, &residency).unwrap();
        let base = residency.dir.clone().unwrap();
        assert!(!is_empty_dir(&base));
        drop(spilled);
        assert!(is_empty_dir(&base));
        fs::remove_dir(&base).unwrap();
    }

    #[test]
    fn an_abandoned_spill_removes_its_directory() {
        // A shard write that fails half-way returns through `?` and drops
        // the writer without `finish`: the files written so far must go too.
        let residency = private_residency("abandoned");
        let mut writer = SpillWriter::create(&residency, 6).unwrap();
        writer
            .add_shard(&BitmapDataset::from_dataset(&sample(64)))
            .unwrap();
        let dir = writer.dir.0.clone();
        assert!(dir.join("shard-000000.bin").is_file());
        drop(writer);
        assert!(!dir.exists());
        let base = residency.dir.unwrap();
        assert!(is_empty_dir(&base));
        fs::remove_dir(&base).unwrap();
    }

    #[test]
    fn spill_dir_names_parse_exactly() {
        assert_eq!(spill_dir_pid("spill-123-0"), Some(123));
        assert_eq!(spill_dir_pid("spill-7-42"), Some(7));
        for name in [
            "spill-123",
            "spill--0",
            "spill-123-",
            "spill-12a-0",
            "spill-123-0x",
            "spill-123-0-1",
            "xspill-123-0",
            "shard-000000.bin",
            "spill-99999999999-0",
        ] {
            assert_eq!(spill_dir_pid(name), None, "{name}");
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn sweeping_removes_only_dead_processes_spill_dirs() {
        let base = std::env::temp_dir()
            .join("sigfim-spill-tests")
            .join(format!("sweep-{}", std::process::id()));
        let _ = fs::remove_dir_all(&base);
        fs::create_dir_all(&base).unwrap();
        // A pid that is certainly dead: a child that has exited and been
        // reaped.
        let mut child = std::process::Command::new(std::env::current_exe().unwrap())
            .arg("--list")
            .stdout(std::process::Stdio::null())
            .spawn()
            .unwrap();
        let dead = child.id();
        child.wait().unwrap();
        assert!(!Path::new(&format!("/proc/{dead}")).exists());
        let own = std::process::id();

        let stale = [format!("spill-{dead}-0"), format!("spill-{dead}-17")];
        for name in &stale {
            fs::create_dir(base.join(name)).unwrap();
        }
        fs::write(base.join(&stale[0]).join("shard-000000.bin"), b"x").unwrap();
        let kept_dirs = [
            format!("spill-{own}-0"),
            format!("spill-{dead}-x"),
            format!("spill-{dead}"),
            format!("notes-{dead}-0"),
        ];
        for name in &kept_dirs {
            fs::create_dir(base.join(name)).unwrap();
        }
        let kept_file = format!("spill-{dead}-3");
        fs::write(base.join(&kept_file), b"not a directory").unwrap();

        assert_eq!(sweep_stale_spill_dirs(&base).unwrap(), 2);
        for name in &stale {
            assert!(!base.join(name).exists(), "{name} should be swept");
        }
        for name in kept_dirs.iter().chain([&kept_file]) {
            assert!(base.join(name).exists(), "{name} should survive");
        }
        assert_eq!(sweep_stale_spill_dirs(&base.join("missing")).unwrap(), 0);
        fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn spilling_advances_the_process_counters() {
        let before = spill_counters();
        let _ = spilled(&sample(50), 64, 0);
        let after = spill_counters();
        assert!(after.spilled_datasets > before.spilled_datasets);
        assert!(after.spilled_shards > before.spilled_shards);
        assert_eq!(ShardResidency::with_budget(4096).mode, SpillMode::default());
    }
}
