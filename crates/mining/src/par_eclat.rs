//! Subtree-parallel depth-first bitset Eclat.
//!
//! [`Eclat::mine_k_bitmap`](crate::eclat::Eclat::mine_k_bitmap) walks the
//! prefix tree of frequent items strictly sequentially. [`ParallelEclat`]
//! fans the *item subtrees* of the same search out across workers: every
//! frequent item roots a `(prefix, covering-column)` frame on a shared work
//! queue ([`ExecutionPolicy::run_tasks`]); a worker claiming a frame either
//! mines its whole subtree inline with the exact sequential recursion, or —
//! while the queue is shallow and siblings are hungry — splits its children
//! off as fresh frames so idle workers can steal them.
//!
//! The output is **bit-identical** to the sequential miner at any worker
//! count, with or without transaction sharding, because three things hold:
//!
//! 1. every frame's covering column is the exact AND of its prefix's item
//!    columns, so every emitted support is the same exact popcount the
//!    sequential walk computes;
//! 2. the set of emitted `k`-itemsets is the set of frequent `k`-extensions
//!    of the frequent-item tail, independent of which worker visits which
//!    subtree or how subtrees are split into frames;
//! 3. the merged result is sorted canonically ([`sort_canonical`]) exactly
//!    like the sequential miner sorts its own output, and canonical order is
//!    a total order on `(items, support)` pairs.
//!
//! Under [`ExecutionPolicy::Sequential`] the single worker drains frames in
//! FIFO seed order without ever splitting beyond the roots, so even the
//! *traversal* is deterministic; under `Rayon` only the pre-sort merge order
//! varies, which the canonical sort erases.

use std::sync::atomic::{AtomicUsize, Ordering};

use sigfim_datasets::bitmap::{and_into, BitmapDataset, ColumnsRef};
use sigfim_datasets::sharded::ShardedBitmapDataset;
use sigfim_datasets::spill::ShardGuard;
use sigfim_datasets::transaction::{ItemId, TransactionDataset};
use sigfim_exec::{ExecutionPolicy, TaskQueue};

use crate::dispatch::{self, DispatchPath};
use crate::itemset::{sort_canonical, ItemsetSupport};
use crate::miner::{validate_mining_args, KItemsetMiner};
use crate::Result;

/// A vertical column source the subtree search ANDs against: either one
/// contiguous bitmap or every shard of a sharded store, pinned for the whole
/// search and addressed as the concatenation of their per-shard segments
/// (per-shard widths are word-aligned, so the concatenated popcount equals
/// the unsharded one exactly — the search cannot tell whether the columns
/// stayed resident or came back from spill files).
enum Columns<'a> {
    Bitmap(&'a BitmapDataset),
    Sharded {
        shards: &'a [ColumnsRef<'a>],
        /// Word offset of each shard's segment within a concatenated column.
        offsets: Vec<usize>,
        total_words: usize,
        item_supports: &'a [u64],
    },
}

impl<'a> Columns<'a> {
    fn sharded(shards: &'a [ColumnsRef<'a>], item_supports: &'a [u64]) -> Self {
        let mut offsets = Vec::with_capacity(shards.len());
        let mut total_words = 0usize;
        for shard in shards {
            offsets.push(total_words);
            total_words += shard.words_per_column();
        }
        Columns::Sharded {
            shards,
            offsets,
            total_words,
            item_supports,
        }
    }

    /// Words in one (concatenated) column.
    fn total_words(&self) -> usize {
        match self {
            Columns::Bitmap(dataset) => dataset.words_per_column(),
            Columns::Sharded { total_words, .. } => *total_words,
        }
    }

    /// `(item, support)` for every item with support at least `min_support`,
    /// in ascending item order — the same tail the sequential miner builds.
    fn frequent_tail(&self, min_support: u64) -> Vec<(ItemId, u64)> {
        match self {
            Columns::Bitmap(dataset) => (0..dataset.num_items())
                .map(|item| (item, dataset.item_support(item)))
                .filter(|&(_, support)| support >= min_support)
                .collect(),
            Columns::Sharded { item_supports, .. } => item_supports
                .iter()
                .enumerate()
                .map(|(item, &support)| (item as ItemId, support))
                .filter(|&(_, support)| support >= min_support)
                .collect(),
        }
    }

    /// `dst = covering AND column(item)`, returning the exact popcount.
    fn and_item_into(&self, dst: &mut [u64], covering: &[u64], item: ItemId) -> u64 {
        match self {
            Columns::Bitmap(dataset) => and_into(dst, covering, dataset.column(item)),
            Columns::Sharded {
                shards, offsets, ..
            } => {
                let mut total = 0u64;
                for (shard, &offset) in shards.iter().zip(offsets) {
                    let words = shard.words_per_column();
                    total += and_into(
                        &mut dst[offset..offset + words],
                        &covering[offset..offset + words],
                        shard.column(item),
                    );
                }
                total
            }
        }
    }

    /// Materialize `column(item)` into `dst` (used for root frames).
    fn copy_item_into(&self, dst: &mut [u64], item: ItemId) {
        match self {
            Columns::Bitmap(dataset) => dst.copy_from_slice(dataset.column(item)),
            Columns::Sharded {
                shards, offsets, ..
            } => {
                for (shard, &offset) in shards.iter().zip(offsets) {
                    let words = shard.words_per_column();
                    dst[offset..offset + words].copy_from_slice(shard.column(item));
                }
            }
        }
    }
}

/// One unit of queued work: mine the subtree below `prefix`, extending it
/// with tail items at index `tail_start` and later.
struct Frame {
    prefix: Vec<ItemId>,
    support: u64,
    /// AND of the prefix's item columns (concatenated layout when sharded).
    covering: Vec<u64>,
    tail_start: usize,
}

/// Live split-threshold controller: an exponentially-weighted moving average
/// of the queue depth observed at each frame claim, kept in ×8 fixed point
/// (one `AtomicUsize`, relaxed — the statistic only steers a performance
/// heuristic; output is bit-identical whatever it decides, see the module
/// docs). A persistently *deep* queue pulls the split threshold down toward
/// `workers` (splitting is pure overhead when nobody is idle); a persistently
/// *shallow* one pushes it up toward `4 × workers` (keep feeding stealers).
/// The fixed `pending < 2 × workers` rule this replaces is the controller's
/// exact initial state.
struct SplitController {
    /// EWMA of `queue.pending()` in ×8 fixed point (α = 1/8).
    ewma8: AtomicUsize,
}

impl SplitController {
    fn new(workers: usize) -> Self {
        SplitController {
            // Start at 2·workers so the first frames see the legacy
            // threshold: target = 4w − 2w = 2w.
            ewma8: AtomicUsize::new(2 * workers * 8),
        }
    }

    /// Fold one queue-depth observation in and return the current split
    /// threshold. Racy read-modify-write is fine: every interleaving yields
    /// a valid smoothed depth, and the decision it steers is correctness-free.
    fn split_target(&self, pending: usize, workers: usize) -> usize {
        let prev = self.ewma8.load(Ordering::Relaxed);
        let next = prev - prev / 8 + pending;
        self.ewma8.store(next, Ordering::Relaxed);
        (4 * workers)
            .saturating_sub(next / 8)
            .clamp(workers, 4 * workers)
    }
}

/// Shared read-only search parameters for the worker closures.
struct Search<'a> {
    columns: &'a Columns<'a>,
    tail: &'a [(ItemId, u64)],
    k: usize,
    min_support: u64,
    workers: usize,
    split: SplitController,
}

impl Search<'_> {
    /// Execute one frame: emit, split into child frames, or mine inline.
    fn run_frame(&self, frame: Frame, queue: &TaskQueue<'_, Frame>) -> Vec<ItemsetSupport> {
        let Frame {
            mut prefix,
            support,
            covering,
            tail_start,
        } = frame;
        let mut out = Vec::new();
        let depth = prefix.len();
        if depth == self.k {
            out.push(ItemsetSupport {
                items: prefix,
                support,
            });
            return out;
        }
        // Split only while it buys parallelism: more than one worker, the
        // children root real subtrees (a frame per leaf is pure overhead),
        // and the queue is shallow enough — judged against the live
        // queue-depth statistic, not a fixed constant — that someone may
        // actually be idle.
        let pending = queue.pending();
        let split = self.workers > 1
            && depth + 1 < self.k
            && pending < self.split.split_target(pending, self.workers);
        if split {
            let words = covering.len();
            for j in tail_start..self.tail.len() {
                let (item, _) = self.tail[j];
                let mut child = vec![0u64; words];
                let child_support = self.columns.and_item_into(&mut child, &covering, item);
                if child_support < self.min_support {
                    continue;
                }
                let mut child_prefix = prefix.clone();
                child_prefix.push(item);
                queue.push(Frame {
                    prefix: child_prefix,
                    support: child_support,
                    covering: child,
                    tail_start: j + 1,
                });
            }
        } else {
            // Mine the subtree inline with the sequential recursion: one
            // scratch column per remaining depth, exactly like
            // `Eclat::mine_k_bitmap`'s `dfs_bitmap`.
            let words = covering.len();
            let mut scratch = vec![vec![0u64; words]; self.k - depth];
            self.dfs(&covering, tail_start, &mut prefix, &mut scratch, &mut out);
        }
        out
    }

    /// Sequential depth-first extension below `covering`/`prefix`.
    fn dfs(
        &self,
        covering: &[u64],
        tail_start: usize,
        prefix: &mut Vec<ItemId>,
        scratch: &mut [Vec<u64>],
        out: &mut Vec<ItemsetSupport>,
    ) {
        for j in tail_start..self.tail.len() {
            let (item, _) = self.tail[j];
            let (level, deeper) = scratch.split_at_mut(1);
            let combined = &mut level[0];
            let support = self.columns.and_item_into(combined, covering, item);
            if support < self.min_support {
                continue;
            }
            prefix.push(item);
            if prefix.len() == self.k {
                out.push(ItemsetSupport {
                    items: prefix.clone(),
                    support,
                });
            } else {
                self.dfs(combined, j + 1, prefix, deeper, out);
            }
            prefix.pop();
        }
    }
}

/// Subtree-parallel depth-first bitset Eclat (see the module docs).
///
/// Bit-identical to [`Eclat::mine_k_bitmap`](crate::eclat::Eclat) at any
/// worker count; the policy only chooses how many workers drain the frame
/// queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ParallelEclat {
    /// How frames are executed; [`ExecutionPolicy::Sequential`] degenerates
    /// to a deterministic single-worker drain.
    pub policy: ExecutionPolicy,
}

impl ParallelEclat {
    /// A parallel miner running frames under `policy`.
    pub fn new(policy: ExecutionPolicy) -> Self {
        Self { policy }
    }

    /// Mine all `k`-itemsets with support at least `min_support` from a
    /// bitmap dataset. Output is bit-identical to
    /// [`Eclat::mine_k_bitmap`](crate::eclat::Eclat) at any worker count.
    pub fn mine_k_bitmap(
        &self,
        dataset: &BitmapDataset,
        k: usize,
        min_support: u64,
    ) -> Result<Vec<ItemsetSupport>> {
        validate_mining_args(k, min_support)?;
        dispatch::record(DispatchPath::ParEclat);
        self.mine(&Columns::Bitmap(dataset), k, min_support)
    }

    /// Mine from a transaction-sharded bitmap: subtree parallelism composed
    /// with the sharded layout. When every shard can be loaded at once (a
    /// resident store, or a spilled one whose budget covers all shards), all
    /// shards are pinned for the whole search — depth-first subtree mining
    /// revisits columns constantly, so paging them would thrash — and
    /// columns are addressed as the concatenation of per-shard segments;
    /// since shard widths are word-aligned the popcounts, and therefore the
    /// output, match the unsharded miner exactly. Under a smaller budget the
    /// search delegates to the level-wise residency-aware sweep
    /// ([`crate::sharded::mine_k_sharded`]), which touches each cold shard
    /// once per level — the output is bit-identical either way.
    pub fn mine_k_sharded(
        &self,
        sharded: &ShardedBitmapDataset,
        k: usize,
        min_support: u64,
    ) -> Result<Vec<ItemsetSupport>> {
        validate_mining_args(k, min_support)?;
        if !sharded.budget_holds_all() {
            return crate::sharded::mine_k_sharded(sharded, k, min_support, self.policy);
        }
        dispatch::record(DispatchPath::ParEclatSharded);
        let guards: Vec<ShardGuard<'_>> = (0..sharded.num_shards())
            .map(|index| sharded.shard(index))
            .collect();
        let shards: Vec<ColumnsRef<'_>> = guards.iter().map(ShardGuard::columns).collect();
        let item_supports = sharded.item_supports();
        self.mine(&Columns::sharded(&shards, &item_supports), k, min_support)
    }

    fn mine(
        &self,
        columns: &Columns<'_>,
        k: usize,
        min_support: u64,
    ) -> Result<Vec<ItemsetSupport>> {
        let tail = columns.frequent_tail(min_support);
        if k == 1 {
            let mut output: Vec<ItemsetSupport> = tail
                .into_iter()
                .map(|(item, support)| ItemsetSupport {
                    items: vec![item],
                    support,
                })
                .collect();
            sort_canonical(&mut output);
            return Ok(output);
        }
        let workers = self.policy.worker_threads();
        let search = Search {
            columns,
            tail: &tail,
            k,
            min_support,
            workers,
            split: SplitController::new(workers),
        };
        let words = columns.total_words();
        let seeds: Vec<Frame> = tail
            .iter()
            .enumerate()
            .map(|(index, &(item, support))| {
                let mut covering = vec![0u64; words];
                columns.copy_item_into(&mut covering, item);
                Frame {
                    prefix: vec![item],
                    support,
                    covering,
                    tail_start: index + 1,
                }
            })
            .collect();
        let mut output = self
            .policy
            .run_tasks(seeds, |frame, queue| search.run_frame(frame, queue));
        sort_canonical(&mut output);
        Ok(output)
    }
}

impl KItemsetMiner for ParallelEclat {
    fn mine_k(
        &self,
        dataset: &TransactionDataset,
        k: usize,
        min_support: u64,
    ) -> Result<Vec<ItemsetSupport>> {
        validate_mining_args(k, min_support)?;
        let bitmap = BitmapDataset::from_dataset(dataset);
        self.mine_k_bitmap(&bitmap, k, min_support)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eclat::Eclat;

    fn sample() -> TransactionDataset {
        TransactionDataset::from_transactions(
            6,
            vec![
                vec![0, 1, 2, 4],
                vec![0, 1, 3],
                vec![0, 2, 4, 5],
                vec![1, 2, 3, 4],
                vec![0, 1, 2],
                vec![2, 3, 5],
                vec![0, 1, 2, 4, 5],
                vec![4, 5],
            ],
        )
        .unwrap()
    }

    fn policies() -> [ExecutionPolicy; 3] {
        [
            ExecutionPolicy::from_threads(1),
            ExecutionPolicy::from_threads(2),
            ExecutionPolicy::from_threads(8),
        ]
    }

    #[test]
    fn matches_sequential_bitmap_eclat_at_every_worker_count() {
        let data = sample();
        let bitmap = BitmapDataset::from_dataset(&data);
        for k in 1..=4 {
            for min_support in 1..=3 {
                let expected = Eclat.mine_k_bitmap(&bitmap, k, min_support).unwrap();
                for policy in policies() {
                    let got = ParallelEclat::new(policy)
                        .mine_k_bitmap(&bitmap, k, min_support)
                        .unwrap();
                    assert_eq!(got, expected, "k={k} s={min_support} policy={policy:?}");
                }
            }
        }
    }

    #[test]
    fn sharded_mining_matches_unsharded_at_every_worker_count() {
        let data = sample();
        let bitmap = BitmapDataset::from_dataset(&data);
        // Force several small shards so the segmented path actually runs.
        let sharded = ShardedBitmapDataset::with_shard_rows(&data, 64);
        assert!(sharded.num_shards() > 0);
        for k in 1..=3 {
            let expected = Eclat.mine_k_bitmap(&bitmap, k, 2).unwrap();
            for policy in policies() {
                let got = ParallelEclat::new(policy)
                    .mine_k_sharded(&sharded, k, 2)
                    .unwrap();
                assert_eq!(got, expected, "k={k} policy={policy:?}");
            }
        }
    }

    #[test]
    fn spilled_mining_matches_unsharded_on_both_budget_branches() {
        use sigfim_datasets::spill::{ShardResidency, SpillMode};

        let data = sample();
        let bitmap = BitmapDataset::from_dataset(&data);
        // budget 1 byte → level-wise delegation; huge budget → pinned
        // depth-first search. Both must be bit-identical to the reference.
        for budget in [1u64, 1 << 30] {
            let residency = ShardResidency {
                budget_bytes: budget,
                mode: SpillMode::Read,
                dir: Some(std::env::temp_dir().join("sigfim-spill-tests")),
            };
            let spilled =
                ShardedBitmapDataset::spill_dataset_with_rows(&data, 64, &residency).unwrap();
            assert_eq!(spilled.budget_holds_all(), budget > 1);
            for k in 1..=3 {
                let expected = Eclat.mine_k_bitmap(&bitmap, k, 2).unwrap();
                for policy in policies() {
                    let got = ParallelEclat::new(policy)
                        .mine_k_sharded(&spilled, k, 2)
                        .unwrap();
                    assert_eq!(got, expected, "budget {budget}, k={k}, policy={policy:?}");
                }
            }
        }
    }

    #[test]
    fn trait_entry_point_matches_the_csr_eclat() {
        let data = sample();
        let expected = Eclat.mine_k(&data, 3, 2).unwrap();
        let got = ParallelEclat::default().mine_k(&data, 3, 2).unwrap();
        assert_eq!(got, expected);
    }

    #[test]
    fn invalid_arguments_are_rejected() {
        let data = sample();
        let bitmap = BitmapDataset::from_dataset(&data);
        assert!(ParallelEclat::default()
            .mine_k_bitmap(&bitmap, 0, 1)
            .is_err());
        assert!(ParallelEclat::default()
            .mine_k_bitmap(&bitmap, 2, 0)
            .is_err());
    }

    #[test]
    fn empty_and_infrequent_datasets_mine_to_empty() {
        let data = TransactionDataset::from_transactions(3, vec![vec![0], vec![1]]).unwrap();
        let bitmap = BitmapDataset::from_dataset(&data);
        let got = ParallelEclat::default()
            .mine_k_bitmap(&bitmap, 2, 2)
            .unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn dispatch_counters_track_both_entry_points() {
        let data = sample();
        let bitmap = BitmapDataset::from_dataset(&data);
        let sharded = ShardedBitmapDataset::with_shard_rows(&data, 64);
        let before = dispatch::dispatch_counts();
        ParallelEclat::default()
            .mine_k_bitmap(&bitmap, 2, 2)
            .unwrap();
        ParallelEclat::default()
            .mine_k_sharded(&sharded, 2, 2)
            .unwrap();
        let after = dispatch::dispatch_counts();
        assert!(after.par_eclat > before.par_eclat);
        assert!(after.par_eclat_sharded > before.par_eclat_sharded);
    }
}
