//! Support counting utilities.
//!
//! The paper's procedures never need *all* frequent itemsets of every size — they
//! need, for a fixed size `k`:
//!
//! * the supports of an explicit list of candidate k-itemsets (Algorithm 1 tracks the
//!   supports of the itemset pool `W` across Δ random datasets), and
//! * the count `Q_{k,s}` of k-itemsets with support at least `s`, for a whole range
//!   of thresholds `s` (Procedure 2 probes `s_i = s_min + 2^i`).
//!
//! Both are served here. [`supports_of`] batch-counts explicit candidates by
//! intersecting the vertical tid-lists of their items; [`SupportProfile`] materializes
//! every k-itemset above a floor threshold once and then answers `Q_{k,s}` queries
//! for any `s` above the floor in `O(log)` time and `F_k(s)` queries as a filter.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};
use sigfim_datasets::bitmap::{
    and_count, and_count_into, BitmapDataset, ColumnsRef, DatasetBackend,
};
use sigfim_datasets::sharded::ShardedBitmapDataset;
use sigfim_datasets::transaction::{ItemId, TransactionDataset, TransactionId};
use sigfim_datasets::view::DatasetView;
use sigfim_datasets::ResolvedBackend;
use sigfim_exec::ExecutionPolicy;

use crate::apriori::Apriori;
use crate::eclat::Eclat;
use crate::itemset::{sort_canonical, ItemsetSupport};
use crate::miner::KItemsetMiner;
use crate::Result;

/// Length ratio beyond which intersections switch from a linear merge to
/// galloping (exponential) search through the longer list: at ≥8× skew the
/// `O(short · log(long/short))` gallop beats walking the long list element by
/// element.
const GALLOP_SKEW: usize = 8;

/// Upper bound on the eagerly reserved capacity of a materialized
/// intersection. Real intersections are usually far smaller than
/// `min(|a|, |b|)`, so reserving that much up front wastes memory on dense
/// datasets; beyond this cap the vector simply grows geometrically.
const INTERSECT_CAPACITY_CAP: usize = 1024;

/// The first index `>= from` at which `list` holds a value `>= target`, found
/// by exponential (galloping) probing followed by a binary search of the
/// bracketed window. `list` must be sorted ascending.
#[inline]
fn first_index_ge(list: &[TransactionId], from: usize, target: TransactionId) -> usize {
    if from >= list.len() || list[from] >= target {
        return from;
    }
    // Invariant entering the binary search: list[from + bound/2] < target.
    let mut bound = 1usize;
    while from + bound < list.len() && list[from + bound] < target {
        bound <<= 1;
    }
    let lo = from + bound / 2 + 1;
    let hi = (from + bound).min(list.len());
    lo + list[lo..hi].partition_point(|&y| y < target)
}

/// Walk the shorter list, galloping through the longer one, invoking `found`
/// on every common element (in ascending order). Requires `short.len() <=
/// long.len()`; both lists sorted ascending.
#[inline]
fn gallop_common<F: FnMut(TransactionId)>(
    short: &[TransactionId],
    long: &[TransactionId],
    mut found: F,
) {
    let mut from = 0usize;
    for &x in short {
        from = first_index_ge(long, from, x);
        if from == long.len() {
            return;
        }
        if long[from] == x {
            found(x);
            from += 1;
        }
    }
}

/// Intersect two sorted transaction-id lists: a linear merge for comparable
/// lengths, galloping search through the longer list at ≥8× skew.
pub fn intersect_tids(a: &[TransactionId], b: &[TransactionId]) -> Vec<TransactionId> {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(short.len().min(INTERSECT_CAPACITY_CAP));
    if long.len() >= GALLOP_SKEW * short.len() {
        gallop_common(short, long, |x| out.push(x));
        return out;
    }
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Size of the intersection of two sorted tid-lists without materializing it
/// (same linear/galloping dispatch as [`intersect_tids`]).
pub fn intersection_size(a: &[TransactionId], b: &[TransactionId]) -> usize {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut count = 0usize;
    if long.len() >= GALLOP_SKEW * short.len() {
        gallop_common(short, long, |_| count += 1);
        return count;
    }
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// Batch support counting for an explicit list of itemsets, dispatched through
/// [`SupportCounter`]: when all itemsets share one (positive) size, the counting
/// path is selected from the dataset's density via
/// [`CountingStrategy::for_dataset`]; mixed-size lists always take the tid-list
/// path (the horizontal pass requires a uniform subset size).
///
/// Itemsets must be sorted and duplicate-free (as produced by every miner in this
/// crate). Empty itemsets get support `t` by convention.
pub fn supports_of(dataset: &TransactionDataset, itemsets: &[Vec<ItemId>]) -> Vec<u64> {
    let uniform_k = itemsets
        .first()
        .map(|set| set.len())
        .filter(|&k| k > 0 && itemsets.iter().all(|set| set.len() == k));
    match uniform_k {
        Some(k) => CountingStrategy::for_dataset(dataset, k, itemsets.len())
            .counter()
            .count(dataset, itemsets),
        None => TidListCounter.count(dataset, itemsets),
    }
}

/// Support of one itemset given pre-built tid-lists. Intersections are performed
/// starting from the rarest item so the working list shrinks as fast as possible.
pub fn support_from_tidlists(
    tid_lists: &[Vec<TransactionId>],
    itemset: &[ItemId],
    num_transactions: usize,
) -> u64 {
    if itemset.is_empty() {
        return num_transactions as u64;
    }
    // Order the items by ascending tid-list length.
    let mut order: Vec<&Vec<TransactionId>> =
        itemset.iter().map(|&i| &tid_lists[i as usize]).collect();
    order.sort_by_key(|l| l.len());
    if order.len() == 1 {
        return order[0].len() as u64;
    }
    if order.len() == 2 {
        return intersection_size(order[0], order[1]) as u64;
    }
    let mut current = intersect_tids(order[0], order[1]);
    for list in &order[2..] {
        if current.is_empty() {
            return 0;
        }
        current = intersect_tids(&current, list);
    }
    current.len() as u64
}

/// Count, for each candidate, the number of transactions containing it, using a
/// horizontal pass over the dataset and a hash lookup per transaction k-subset.
/// Used by the Apriori miner when subset enumeration is cheaper than per-candidate
/// scans; exposed for testing and benchmarking against the vertical strategy.
pub fn count_candidates_horizontal(
    dataset: &TransactionDataset,
    candidates: &[Vec<ItemId>],
) -> Vec<u64> {
    if candidates.is_empty() {
        return Vec::new();
    }
    let k = candidates[0].len();
    debug_assert!(candidates.iter().all(|c| c.len() == k));
    // Duplicate candidates all alias the first occurrence's counter (and are
    // copied back out at the end), so repeats in the input list do not lose
    // their counts to the hash lookup keeping only one slot per itemset.
    let mut index: HashMap<&[ItemId], usize> = HashMap::with_capacity(candidates.len());
    for (i, c) in candidates.iter().enumerate() {
        index.entry(c.as_slice()).or_insert(i);
    }
    let mut counts = vec![0u64; candidates.len()];
    // Only items that occur in some candidate can contribute to a match.
    let mut relevant = vec![false; dataset.num_items() as usize];
    for c in candidates {
        for &i in c {
            relevant[i as usize] = true;
        }
    }
    let mut restricted: Vec<ItemId> = Vec::new();
    for txn in dataset.iter() {
        restricted.clear();
        restricted.extend(txn.iter().copied().filter(|&i| relevant[i as usize]));
        if restricted.len() < k {
            continue;
        }
        crate::itemset::for_each_k_subset(&restricted, k, |subset| {
            if let Some(&idx) = index.get(subset) {
                counts[idx] += 1;
            }
        });
    }
    for (i, c) in candidates.iter().enumerate() {
        counts[i] = counts[index[c.as_slice()]];
    }
    counts
}

/// The unified interface over the two support-counting paths: a horizontal pass
/// hashing transaction subsets, or vertical tid-list intersections.
///
/// Every consumer that needs candidate supports — the miners' level counting,
/// [`supports_of`], and through the miners Procedures 1 and 2 — goes through
/// this trait, selecting an implementation per dataset density via
/// [`CountingStrategy::for_density`] (or forcing one for ablations).
pub trait SupportCounter {
    /// Human-readable name for benchmark output and reports.
    fn name(&self) -> &'static str;

    /// Exact support of each candidate itemset. Candidates must be sorted and
    /// duplicate-free; for [`HorizontalCounter`] they must also share one size.
    fn count(&self, dataset: &TransactionDataset, candidates: &[Vec<ItemId>]) -> Vec<u64>;

    /// Like [`SupportCounter::count`], reusing pre-built tid-lists when the
    /// implementation can (the horizontal path ignores them).
    fn count_with_tidlists(
        &self,
        dataset: &TransactionDataset,
        _tid_lists: &[Vec<TransactionId>],
        candidates: &[Vec<ItemId>],
    ) -> Vec<u64> {
        self.count(dataset, candidates)
    }
}

/// Support counting by one horizontal pass over the transactions, hashing each
/// transaction's k-subsets into the candidate table. Cheap when transactions
/// restricted to frequent items are short but candidates are many (dense,
/// short-transaction datasets).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HorizontalCounter;

impl SupportCounter for HorizontalCounter {
    fn name(&self) -> &'static str {
        "horizontal"
    }

    fn count(&self, dataset: &TransactionDataset, candidates: &[Vec<ItemId>]) -> Vec<u64> {
        count_candidates_horizontal(dataset, candidates)
    }
}

/// Support counting by intersecting the vertical tid-lists of each candidate's
/// items. Cheap when there are few candidates relative to the transaction count
/// (sparse datasets at high thresholds — the regime the paper's procedures
/// operate in).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TidListCounter;

impl SupportCounter for TidListCounter {
    fn name(&self) -> &'static str {
        "tid-list"
    }

    fn count(&self, dataset: &TransactionDataset, candidates: &[Vec<ItemId>]) -> Vec<u64> {
        self.count_with_tidlists(dataset, &dataset.tid_lists(), candidates)
    }

    fn count_with_tidlists(
        &self,
        dataset: &TransactionDataset,
        tid_lists: &[Vec<TransactionId>],
        candidates: &[Vec<ItemId>],
    ) -> Vec<u64> {
        candidates
            .iter()
            .map(|c| support_from_tidlists(tid_lists, c, dataset.num_transactions()))
            .collect()
    }
}

/// Support counting by AND + popcount over vertical bit-columns. Cheap on
/// dense datasets, where a tid-list walk touches ~64× more memory than the
/// word-parallel bitmap; the CSR entry point pays one bitmap build per batch,
/// so it wants enough candidates to amortize (callers holding a
/// [`BitmapDataset`] already should use [`count_candidates_bitmap`] directly).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BitmapCounter;

impl SupportCounter for BitmapCounter {
    fn name(&self) -> &'static str {
        "bitmap"
    }

    fn count(&self, dataset: &TransactionDataset, candidates: &[Vec<ItemId>]) -> Vec<u64> {
        let bitmap = BitmapDataset::from_dataset(dataset);
        count_candidates_bitmap(&bitmap, candidates)
    }
}

/// Batch support counting for candidates against a vertical bitmap: AND +
/// popcount over each candidate's bit-columns, rarest column first. One word
/// buffer and one ordering buffer are reused across the whole batch, so the
/// count allocates nothing per candidate. Handles mixed sizes; empty itemsets
/// get support `t` by convention.
pub fn count_candidates_bitmap(bitmap: &BitmapDataset, candidates: &[Vec<ItemId>]) -> Vec<u64> {
    count_candidates_bitmap_with_supports(bitmap, &bitmap.item_supports(), candidates)
}

/// Like [`count_candidates_bitmap`], but with the per-item supports (used for
/// the rarest-first ordering and as the answers for singleton candidates)
/// supplied by the caller — so a level-wise miner that counts many batches
/// against the same bitmap scans its columns for supports only once.
pub fn count_candidates_bitmap_with_supports(
    bitmap: &BitmapDataset,
    item_supports: &[u64],
    candidates: &[Vec<ItemId>],
) -> Vec<u64> {
    count_candidates_columns_with_supports(bitmap.as_columns(), item_supports, candidates)
}

/// The representation-free core of [`count_candidates_bitmap_with_supports`]:
/// counts against any borrowed [`ColumnsRef`], so the same loop serves an
/// owned [`BitmapDataset`] and one pinned shard of a sharded store (a shard
/// mapped back from a spill file is counted straight out of the mapping, no
/// copy). `item_supports` are the supports *within these columns*
/// (used for rarest-first ordering and as singleton answers).
pub fn count_candidates_columns_with_supports(
    columns: ColumnsRef<'_>,
    item_supports: &[u64],
    candidates: &[Vec<ItemId>],
) -> Vec<u64> {
    debug_assert_eq!(item_supports.len(), columns.num_items() as usize);
    let mut scratch: Vec<u64> = Vec::with_capacity(columns.words_per_column());
    let mut order: Vec<ItemId> = Vec::new();
    candidates
        .iter()
        .map(|candidate| match candidate.as_slice() {
            [] => columns.num_transactions() as u64,
            [single] => item_supports[*single as usize],
            [a, b] => and_count(columns.column(*a), columns.column(*b)),
            items => {
                order.clear();
                order.extend_from_slice(items);
                order.sort_unstable_by_key(|&i| item_supports[i as usize]);
                scratch.clear();
                scratch.extend_from_slice(columns.column(order[0]));
                let mut support = item_supports[order[0] as usize];
                for &item in &order[1..] {
                    if support == 0 {
                        break;
                    }
                    support = and_count_into(&mut scratch, columns.column(item));
                }
                support
            }
        })
        .collect()
}

/// [`supports_of`] over a [`DatasetView`]: the CSR side keeps its
/// density-dispatched counting, the bitmap side counts by AND + popcount
/// directly on the columns it already has, and the sharded side reduces
/// per-shard partial counts (sequentially here — callers that want the
/// fan-out use [`crate::sharded::count_candidates_sharded`] with a policy).
pub fn supports_of_view(view: DatasetView<'_>, itemsets: &[Vec<ItemId>]) -> Vec<u64> {
    match view {
        DatasetView::Csr(dataset) => supports_of(dataset, itemsets),
        DatasetView::Bitmap(bitmap) => count_candidates_bitmap(bitmap, itemsets),
        DatasetView::Sharded(sharded) => {
            crate::sharded::count_candidates_sharded(sharded, itemsets, ExecutionPolicy::Sequential)
        }
    }
}

/// How candidate supports are counted within one mining level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CountingStrategy {
    /// Intersect vertical tid-lists per candidate ([`TidListCounter`]).
    Vertical,
    /// Hash each transaction's subsets into the candidate table
    /// ([`HorizontalCounter`]).
    Horizontal,
    /// AND + popcount over vertical bit-columns ([`BitmapCounter`]).
    Bitmap,
}

impl CountingStrategy {
    /// The counter implementing this strategy.
    pub fn counter(self) -> &'static dyn SupportCounter {
        match self {
            CountingStrategy::Vertical => &TidListCounter,
            CountingStrategy::Horizontal => &HorizontalCounter,
            CountingStrategy::Bitmap => &BitmapCounter,
        }
    }

    /// Choose a strategy from the dataset's density profile: compare the
    /// estimated subset-enumeration work of a horizontal pass (`t · C(len, k)`
    /// per transaction restricted to relevant items), the tid-list walks of a
    /// vertical pass (`candidates · k` lists of average length `t · density`),
    /// and the word-parallel AND + popcount of a bitmap pass
    /// (`candidates · k · ⌈t/64⌉` words, plus the one-time column build of
    /// `n · ⌈t/64⌉ + entries` words when no bitmap exists yet).
    ///
    /// This is the *per-level* choice used inside a running miner, which
    /// already holds tid-lists. It selects [`CountingStrategy::Bitmap`] only
    /// once the level's candidate count amortizes the bitmap build — and a
    /// miner that has already built (and kept) a bitmap for an earlier level
    /// passes `bitmap_ready = true`, making the build free and the bitmap
    /// correspondingly easier to justify for the remaining levels.
    /// Whole-batch counting against a cold dataset goes through the three-way
    /// [`CountingStrategy::for_dataset`] instead.
    pub fn for_density(
        num_candidates: usize,
        avg_restricted_len: f64,
        num_transactions: usize,
        num_items: usize,
        level: usize,
        bitmap_ready: bool,
    ) -> CountingStrategy {
        let horizontal_work = num_transactions as f64
            * crate::itemset::binomial_u64(avg_restricted_len.round() as u64, level as u64) as f64;
        let vertical_work =
            num_candidates as f64 * level as f64 * (num_transactions as f64 * 0.1).max(16.0);
        let words = num_transactions.div_ceil(64);
        let build_work = if bitmap_ready {
            0.0
        } else {
            // Column build: touch every word once plus one strided store per
            // incidence (≈ t · avg restricted length entries).
            (num_items * words) as f64 + num_transactions as f64 * avg_restricted_len
        };
        let bitmap_work = build_work + num_candidates as f64 * level as f64 * words.max(16) as f64;
        if horizontal_work <= vertical_work && horizontal_work <= bitmap_work {
            CountingStrategy::Horizontal
        } else if bitmap_work < vertical_work {
            CountingStrategy::Bitmap
        } else {
            CountingStrategy::Vertical
        }
    }

    /// Choose a strategy for counting `num_candidates` k-itemset candidates
    /// against a whole dataset, deriving the density from the dataset itself.
    ///
    /// Three-way comparison of estimated work (in touched-word units):
    ///
    /// * horizontal — `t · C(avg_len, k)` subset enumerations,
    /// * tid-list — `entries` to build the lists plus `k · density · t` ids
    ///   walked per candidate,
    /// * bitmap — `n · ⌈t/64⌉ + entries` to build the columns plus
    ///   `k · ⌈t/64⌉` words ANDed per candidate; the word-parallel factor of 64
    ///   is what makes it win on dense matrices with enough candidates to
    ///   amortize the build.
    pub fn for_dataset(
        dataset: &TransactionDataset,
        k: usize,
        num_candidates: usize,
    ) -> CountingStrategy {
        let t = dataset.num_transactions();
        let n = dataset.num_items() as usize;
        let entries = dataset.num_entries();
        let avg_len = if t == 0 {
            0.0
        } else {
            entries as f64 / t as f64
        };
        let level = k.max(1);

        let horizontal_work =
            t as f64 * crate::itemset::binomial_u64(avg_len.round() as u64, level as u64) as f64;
        let density = if n * t == 0 {
            0.0
        } else {
            entries as f64 / (n * t) as f64
        };
        let tidlist_work =
            entries as f64 + num_candidates as f64 * level as f64 * (density * t as f64).max(16.0);
        let words = t.div_ceil(64);
        let bitmap_work = (n * words + entries) as f64
            + num_candidates as f64 * level as f64 * words.max(16) as f64;

        if horizontal_work <= tidlist_work && horizontal_work <= bitmap_work {
            CountingStrategy::Horizontal
        } else if bitmap_work < tidlist_work {
            CountingStrategy::Bitmap
        } else {
            CountingStrategy::Vertical
        }
    }
}

/// The number of k-itemsets with support at least `s` in the dataset (`Q_{k,s}` in
/// the paper), computed by mining at threshold `s` with Apriori.
///
/// # Errors
///
/// Propagates miner errors (invalid `k` or threshold).
pub fn q_k_s(dataset: &TransactionDataset, k: usize, s: u64) -> Result<u64> {
    Ok(Apriori::default().mine_k(dataset, k, s)?.len() as u64)
}

/// The family `F_k(floor)` of every k-itemset whose support is at least a floor
/// threshold, kept in canonical order with a count of its itemsets per
/// distinct support: `Q_{k,s}` for any `s ≥ floor` is a binary search and
/// `F_k(s)` is a filter, so one mining pass at the floor serves every
/// threshold above it.
///
/// Memory: `4k + 8` bytes per itemset (its items, flat, and its support) plus
/// 16 bytes per distinct support value.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SupportProfile {
    k: usize,
    floor: u64,
    /// The items of every k-itemset with support ≥ `floor`, `k` per itemset,
    /// the itemsets in canonical order.
    items: Vec<ItemId>,
    /// `supports[j]` is the support of the `j`-th itemset of `items`.
    supports: Vec<u64>,
    /// `(s, Q_{k,s})` for every distinct support `s` of the family, in
    /// descending order of `s`.
    tail_counts: Vec<(u64, u64)>,
}

impl SupportProfile {
    /// Mine the dataset once at threshold `floor` and record the support of every
    /// frequent k-itemset.
    ///
    /// # Errors
    ///
    /// Propagates miner errors (e.g. `k = 0` or `floor = 0`).
    pub fn new(dataset: &TransactionDataset, k: usize, floor: u64) -> Result<Self> {
        Self::with_miner(crate::miner::MinerKind::Apriori, dataset, k, floor)
    }

    /// Like [`SupportProfile::new`], but mining with an explicitly selected
    /// algorithm (each of which counts through the density-selected
    /// [`SupportCounter`]).
    ///
    /// # Errors
    ///
    /// Propagates miner errors (e.g. `k = 0` or `floor = 0`).
    pub fn with_miner(
        miner: crate::miner::MinerKind,
        dataset: &TransactionDataset,
        k: usize,
        floor: u64,
    ) -> Result<Self> {
        let mined = miner.mine_k(dataset, k, floor)?;
        Ok(Self::from_itemsets(k, floor, mined))
    }

    /// Like [`SupportProfile::with_miner`], but honoring a dataset-backend
    /// choice: when `backend` resolves to the bitmap for this dataset, the
    /// profile is mined by the bitset Eclat variant
    /// ([`Eclat::mine_k_bitmap`]) over a bitmap built once from the CSR data —
    /// the requested `miner` only applies on the CSR path. All miners and
    /// backends return identical profiles; the choice is purely about speed.
    ///
    /// # Errors
    ///
    /// Propagates miner errors (e.g. `k = 0` or `floor = 0`).
    pub fn with_backend(
        miner: crate::miner::MinerKind,
        dataset: &TransactionDataset,
        k: usize,
        floor: u64,
        backend: DatasetBackend,
    ) -> Result<Self> {
        match backend.resolve_for_dataset(dataset) {
            ResolvedBackend::Csr => Self::with_miner(miner, dataset, k, floor),
            ResolvedBackend::Bitmap => {
                Self::from_bitmap(&BitmapDataset::from_dataset(dataset), k, floor)
            }
            ResolvedBackend::ShardedBitmap => Self::from_sharded(
                &ShardedBitmapDataset::from_dataset(dataset),
                k,
                floor,
                ExecutionPolicy::Sequential,
            ),
        }
    }

    /// Mine the profile from an existing vertical bitmap with the bitset Eclat
    /// variant.
    ///
    /// # Errors
    ///
    /// Propagates miner errors (e.g. `k = 0` or `floor = 0`).
    pub fn from_bitmap(bitmap: &BitmapDataset, k: usize, floor: u64) -> Result<Self> {
        let mined = Eclat.mine_k_bitmap(bitmap, k, floor)?;
        Ok(Self::from_itemsets(k, floor, mined))
    }

    /// Mine the profile from a transaction-sharded bitmap, resident or
    /// spilled: the level-wise sweep of [`crate::sharded::mine_k_sharded`],
    /// whose per-level counting pass fans each shard out to a worker under
    /// `policy`. Identical profiles at any shard width, worker count and
    /// residency budget (partial counts are exact and reduced in fixed shard
    /// order).
    ///
    /// # Errors
    ///
    /// Propagates miner errors (e.g. `k = 0` or `floor = 0`).
    pub fn from_sharded(
        sharded: &ShardedBitmapDataset,
        k: usize,
        floor: u64,
        policy: ExecutionPolicy,
    ) -> Result<Self> {
        let mined = crate::sharded::mine_k_sharded(sharded, k, floor, policy)?;
        Ok(Self::from_itemsets(k, floor, mined))
    }

    /// Like [`SupportProfile::from_bitmap`], but mining with the
    /// subtree-parallel [`crate::par_eclat::ParallelEclat`] under `policy`.
    /// The profile is bit-identical to [`SupportProfile::from_bitmap`] at any
    /// worker count — the parallel miner's output equals the sequential one
    /// exactly, and [`SupportProfile::from_itemsets`] only re-lays it out.
    ///
    /// # Errors
    ///
    /// Propagates miner errors (e.g. `k = 0` or `floor = 0`).
    pub fn from_bitmap_parallel(
        bitmap: &BitmapDataset,
        k: usize,
        floor: u64,
        policy: ExecutionPolicy,
    ) -> Result<Self> {
        let mined = crate::par_eclat::ParallelEclat::new(policy).mine_k_bitmap(bitmap, k, floor)?;
        Ok(Self::from_itemsets(k, floor, mined))
    }

    /// Like [`SupportProfile::from_sharded`], but mining with the
    /// subtree-parallel [`crate::par_eclat::ParallelEclat`] composed with the
    /// sharded layout (subtree × shard) when every shard can be pinned, and
    /// with the level-wise sweep when a residency budget cannot hold them
    /// all. Bit-identical to every other constructor at any worker count,
    /// shard width and budget.
    ///
    /// # Errors
    ///
    /// Propagates miner errors (e.g. `k = 0` or `floor = 0`).
    pub fn from_sharded_parallel(
        sharded: &ShardedBitmapDataset,
        k: usize,
        floor: u64,
        policy: ExecutionPolicy,
    ) -> Result<Self> {
        let mined =
            crate::par_eclat::ParallelEclat::new(policy).mine_k_sharded(sharded, k, floor)?;
        Ok(Self::from_itemsets(k, floor, mined))
    }

    /// Build a profile from an already-mined list of k-itemsets (all with support
    /// ≥ `floor`). Every miner already emits canonical order, so the canonical
    /// sort here is a linear pass over one sorted run.
    pub fn from_itemsets(k: usize, floor: u64, mut itemsets: Vec<ItemsetSupport>) -> Self {
        assert!(
            itemsets.iter().all(|i| i.len() == k && i.support >= floor),
            "a profile holds k-itemsets with support >= its floor only"
        );
        sort_canonical(&mut itemsets);
        let items: Vec<ItemId> = itemsets
            .iter()
            .flat_map(|i| i.items.iter().copied())
            .collect();
        let supports: Vec<u64> = itemsets.iter().map(|i| i.support).collect();
        drop(itemsets);
        let mut descending = supports.clone();
        descending.sort_unstable_by(|a, b| b.cmp(a));
        let mut tail_counts: Vec<(u64, u64)> = Vec::new();
        for (q, &support) in (1..).zip(&descending) {
            match tail_counts.last_mut() {
                Some(last) if last.0 == support => last.1 = q,
                _ => tail_counts.push((support, q)),
            }
        }
        SupportProfile {
            k,
            floor,
            items,
            supports,
            tail_counts,
        }
    }

    /// The itemset size this profile describes.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The floor threshold below which the profile has no information.
    pub fn floor(&self) -> u64 {
        self.floor
    }

    /// `Q_{k,s}`: the number of k-itemsets with support at least `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s < floor` — the profile holds no information below its floor, and
    /// silently returning a wrong count would corrupt the statistics downstream.
    pub fn q_at(&self, s: u64) -> u64 {
        self.assert_covers(s);
        // The last distinct support that is still >= s carries Q_{k,s}.
        let reached = self
            .tail_counts
            .partition_point(|&(support, _)| support >= s);
        reached.checked_sub(1).map_or(0, |i| self.tail_counts[i].1)
    }

    /// `F_k(s)`: the k-itemsets with support at least `s` as `(items, support)`
    /// pairs, in canonical order (exactly what every miner's
    /// `mine_k(dataset, k, s)` returns).
    ///
    /// # Panics
    ///
    /// Panics if `s < floor`, like [`SupportProfile::q_at`].
    pub fn family_at(&self, s: u64) -> impl Iterator<Item = (&[ItemId], u64)> + '_ {
        self.assert_covers(s);
        let k = self.k;
        self.supports
            .iter()
            .enumerate()
            .filter(move |&(_, &support)| support >= s)
            .map(move |(j, &support)| (&self.items[j * k..(j + 1) * k], support))
    }

    fn assert_covers(&self, s: u64) {
        assert!(
            s >= self.floor,
            "SupportProfile was built with floor {} but was queried at s = {s}",
            self.floor
        );
    }

    /// The largest support of any k-itemset (0 if none reach the floor).
    pub fn max_support(&self) -> u64 {
        self.tail_counts.first().map_or(0, |&(support, _)| support)
    }

    /// Number of itemsets at or above the floor.
    pub fn len(&self) -> usize {
        self.supports.len()
    }

    /// True if no itemset reaches the floor.
    pub fn is_empty(&self) -> bool {
        self.supports.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> TransactionDataset {
        // Items 0,1 co-occur in 4 transactions; 0,1,2 in 2; item 3 is rare.
        TransactionDataset::from_transactions(
            4,
            vec![
                vec![0, 1, 2],
                vec![0, 1, 2],
                vec![0, 1],
                vec![0, 1, 3],
                vec![0],
                vec![1],
                vec![2, 3],
            ],
        )
        .unwrap()
    }

    #[test]
    fn tid_intersections() {
        assert_eq!(intersect_tids(&[1, 3, 5, 7], &[2, 3, 5, 8]), vec![3, 5]);
        assert_eq!(intersect_tids(&[], &[1, 2]), Vec::<TransactionId>::new());
        assert_eq!(intersection_size(&[1, 3, 5, 7], &[2, 3, 5, 8]), 2);
        assert_eq!(intersection_size(&[1, 2, 3], &[4, 5]), 0);
    }

    #[test]
    fn galloping_path_matches_linear_merge() {
        // A long list (0, 3, 6, …) against short lists of various shapes: the
        // ≥8× skew triggers the galloping path, which must agree with a plain
        // merge in content, order and count — in both argument orders.
        let long: Vec<TransactionId> = (0..4000).map(|i| i * 3).collect();
        let reference = |a: &[TransactionId], b: &[TransactionId]| -> Vec<TransactionId> {
            a.iter().copied().filter(|x| b.contains(x)).collect()
        };
        let shorts: Vec<Vec<TransactionId>> = vec![
            vec![],
            vec![0],
            vec![1],
            vec![11999],
            vec![12000],
            vec![0, 2999, 3000, 3001, 11997, 20000],
            (0..40).map(|i| i * 301).collect(),
            (5990..6010).collect(),
        ];
        for short in &shorts {
            let expected = reference(short, &long);
            assert_eq!(intersect_tids(short, &long), expected, "short = {short:?}");
            assert_eq!(intersect_tids(&long, short), expected, "short = {short:?}");
            assert_eq!(intersection_size(short, &long), expected.len());
            assert_eq!(intersection_size(&long, short), expected.len());
        }
    }

    #[test]
    fn first_index_ge_brackets_correctly() {
        let list: Vec<TransactionId> = vec![2, 4, 4, 8, 16, 32, 64];
        assert_eq!(first_index_ge(&list, 0, 0), 0);
        assert_eq!(first_index_ge(&list, 0, 2), 0);
        assert_eq!(first_index_ge(&list, 0, 3), 1);
        assert_eq!(first_index_ge(&list, 0, 4), 1);
        assert_eq!(first_index_ge(&list, 2, 4), 2);
        assert_eq!(first_index_ge(&list, 0, 5), 3);
        assert_eq!(first_index_ge(&list, 0, 64), 6);
        assert_eq!(first_index_ge(&list, 0, 65), 7);
        assert_eq!(first_index_ge(&list, 7, 1), 7);
    }

    #[test]
    fn bitmap_counter_matches_other_paths() {
        let d = toy();
        let candidates = vec![
            vec![0, 1],
            vec![0, 2],
            vec![1, 2],
            vec![2, 3],
            vec![0, 1, 2],
            vec![0, 1, 3],
        ];
        let expected: Vec<u64> = candidates.iter().map(|c| d.itemset_support(c)).collect();
        assert_eq!(BitmapCounter.count(&d, &candidates), expected);
        // Mixed sizes and the empty itemset go through the batch path too.
        let mixed = vec![vec![], vec![2], vec![0, 1], vec![0, 1, 2]];
        let bitmap = sigfim_datasets::BitmapDataset::from_dataset(&d);
        let got = count_candidates_bitmap(&bitmap, &mixed);
        let expected: Vec<u64> = mixed.iter().map(|c| d.itemset_support(c)).collect();
        assert_eq!(got, expected);
        assert_eq!(BitmapCounter.name(), "bitmap");
    }

    #[test]
    fn view_counting_dispatches_to_both_backends() {
        let d = toy();
        let bitmap = sigfim_datasets::BitmapDataset::from_dataset(&d);
        let sets = vec![vec![0, 1], vec![0, 1, 2], vec![]];
        let expected: Vec<u64> = sets.iter().map(|s| d.itemset_support(s)).collect();
        assert_eq!(supports_of_view(DatasetView::Csr(&d), &sets), expected);
        assert_eq!(
            supports_of_view(DatasetView::Bitmap(&bitmap), &sets),
            expected
        );
    }

    #[test]
    fn strategy_counter_round_trip() {
        for strategy in [
            CountingStrategy::Vertical,
            CountingStrategy::Horizontal,
            CountingStrategy::Bitmap,
        ] {
            let d = toy();
            let candidates = vec![vec![0, 1], vec![1, 2]];
            let expected: Vec<u64> = candidates.iter().map(|c| d.itemset_support(c)).collect();
            assert_eq!(
                strategy.counter().count(&d, &candidates),
                expected,
                "{}",
                strategy.counter().name()
            );
        }
    }

    #[test]
    fn for_dataset_prefers_bitmap_on_dense_many_candidate_batches() {
        // Dense matrix, many candidates: bitmap. (400 transactions, 20 items,
        // density ~0.5 — a tid-list walk is ~200 ids per item, the bitmap 7
        // words.)
        let dense = TransactionDataset::from_transactions(
            20,
            (0..400)
                .map(|i| (0..20).filter(|j| (i + j) % 2 == 0).collect())
                .collect(),
        )
        .unwrap();
        assert_eq!(
            CountingStrategy::for_dataset(&dense, 3, 500),
            CountingStrategy::Bitmap
        );
        // Sparse data keeps the tid-list walks short, so the word-parallel
        // payoff never materializes there: with ~1% density the per-candidate
        // cost floors are equal and the bitmap's larger build cost loses.
        let sparse = TransactionDataset::from_transactions(
            200,
            (0..500)
                .map(|i| vec![(i % 200) as ItemId, ((i * 7) % 200) as ItemId])
                .collect(),
        )
        .unwrap();
        assert_ne!(
            CountingStrategy::for_dataset(&sparse, 2, 50),
            CountingStrategy::Bitmap
        );
        // Degenerate empty datasets never pick the bitmap either.
        assert_ne!(
            CountingStrategy::for_dataset(&TransactionDataset::empty(5), 2, 10),
            CountingStrategy::Bitmap
        );
    }

    #[test]
    fn batch_supports_match_reference() {
        let d = toy();
        let sets = vec![
            vec![0],
            vec![0, 1],
            vec![0, 1, 2],
            vec![0, 3],
            vec![2, 3],
            vec![],
        ];
        let got = supports_of(&d, &sets);
        let expected: Vec<u64> = sets.iter().map(|s| d.itemset_support(s)).collect();
        assert_eq!(got, expected);
        assert_eq!(got, vec![5, 4, 2, 1, 1, 7]);
    }

    #[test]
    fn horizontal_counting_matches_vertical() {
        let d = toy();
        let candidates = vec![vec![0, 1], vec![0, 2], vec![1, 2], vec![2, 3]];
        let horizontal = count_candidates_horizontal(&d, &candidates);
        let vertical = supports_of(&d, &candidates);
        assert_eq!(horizontal, vertical);
    }

    #[test]
    fn duplicate_candidates_each_get_their_full_support() {
        // A repeated candidate must report its support at every position under
        // both counting paths (the horizontal hash index aliases duplicates).
        let d = toy();
        let candidates = vec![vec![0, 1], vec![1, 2], vec![0, 1]];
        let expected: Vec<u64> = candidates.iter().map(|c| d.itemset_support(c)).collect();
        assert_eq!(
            expected[0], expected[2],
            "sanity: duplicates share a support"
        );
        assert_eq!(count_candidates_horizontal(&d, &candidates), expected);
        assert_eq!(TidListCounter.count(&d, &candidates), expected);
        assert_eq!(supports_of(&d, &candidates), expected);
    }

    #[test]
    fn q_counts() {
        let d = toy();
        assert_eq!(q_k_s(&d, 2, 4).unwrap(), 1); // only {0,1}
        assert_eq!(q_k_s(&d, 2, 2).unwrap(), 3); // {0,1}, {0,2}, {1,2}
        assert_eq!(q_k_s(&d, 3, 2).unwrap(), 1); // {0,1,2}
        assert_eq!(q_k_s(&d, 3, 3).unwrap(), 0);
    }

    #[test]
    fn support_profile_answers_q_queries() {
        let d = toy();
        let profile = SupportProfile::new(&d, 2, 1).unwrap();
        assert_eq!(profile.k(), 2);
        assert_eq!(profile.floor(), 1);
        assert_eq!(profile.q_at(1), 6); // {0,1},{0,2},{0,3},{1,2},{1,3},{2,3}
        assert_eq!(profile.q_at(2), 3);
        assert_eq!(profile.q_at(4), 1);
        assert_eq!(profile.q_at(5), 0);
        assert_eq!(profile.max_support(), 4);
        assert_eq!(profile.len(), 6);
        assert!(!profile.is_empty());
    }

    #[test]
    #[should_panic(expected = "floor")]
    fn support_profile_rejects_queries_below_floor() {
        let d = toy();
        let profile = SupportProfile::new(&d, 2, 3).unwrap();
        let _ = profile.q_at(1);
    }

    #[test]
    fn support_profile_from_explicit_itemsets() {
        let sets = vec![
            ItemsetSupport::new(vec![1, 2], 10),
            ItemsetSupport::new(vec![1, 3], 7),
            ItemsetSupport::new(vec![2, 3], 7),
        ];
        let profile = SupportProfile::from_itemsets(2, 5, sets);
        assert_eq!(profile.q_at(5), 3);
        assert_eq!(profile.q_at(7), 3);
        assert_eq!(profile.q_at(8), 1);
        assert_eq!(profile.q_at(10), 1);
        assert_eq!(profile.q_at(11), 0);
        assert_eq!(profile.max_support(), 10);
        let family: Vec<_> = profile.family_at(7).collect();
        assert_eq!(
            family,
            vec![(&[1, 2][..], 10), (&[1, 3][..], 7), (&[2, 3][..], 7)]
        );
        assert_eq!(
            profile.family_at(8).collect::<Vec<_>>(),
            vec![(&[1, 2][..], 10)]
        );
    }

    #[test]
    fn empty_profile() {
        let d = toy();
        let profile = SupportProfile::new(&d, 4, 3).unwrap();
        assert!(profile.is_empty());
        assert_eq!(profile.max_support(), 0);
        assert_eq!(profile.q_at(10), 0);
    }
}
