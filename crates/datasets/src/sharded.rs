//! Transaction-sharded vertical bitmaps: [`ShardedBitmapDataset`], the one
//! shard store.
//!
//! A [`crate::bitmap::BitmapDataset`] is one contiguous bit matrix, so a
//! counting pass over it is inherently single-threaded: whoever holds the
//! columns walks all `⌈t/64⌉` words of every column. This module splits the
//! **transaction axis** into fixed-width, word-aligned row-range shards
//! (shard width a multiple of 64, so no bit ever straddles two shards), each
//! a self-contained column matrix over the same item universe:
//!
//! * the support of any itemset is the **sum of its per-shard supports** —
//!   exact integer addition, reduced in fixed shard order, so a sharded count
//!   is bit-identical to the unsharded one at any shard width and any worker
//!   count;
//! * one dataset's counting pass can fan out shard-by-shard across workers
//!   (see `count_candidates_sharded` in `sigfim-mining`), where previously
//!   parallelism existed only *across* Monte-Carlo replicates;
//! * each shard's columns are small enough to stay cache-resident while a
//!   whole candidate batch is counted against them (the default width targets
//!   the L2 budget of [`SHARD_L2_BUDGET_BYTES`]), and per-shard memory is
//!   bounded.
//!
//! Shards sit in slots. A store built with [`ShardedBitmapDataset::from_dataset`]
//! keeps every slot resident; one built with
//! [`ShardedBitmapDataset::spill_dataset`] writes each shard to a spill file
//! and keeps at most a [`ShardResidency`] budget's worth loaded, faulting cold
//! shards back in on demand (see [`crate::spill`]). Consumers cannot tell the
//! two apart: they read shards only through [`ShardedBitmapDataset::shard`]
//! in the order of [`ShardedBitmapDataset::schedule`], and the per-shard and
//! total item supports are computed once, at construction, for both.
//!
//! Select it with [`crate::bitmap::DatasetBackend::Sharded`]; `Auto` never
//! picks it (sharding one dataset only pays when intra-dataset parallelism is
//! wanted).

use std::sync::RwLock;

use crate::bitmap::{BitmapDataset, WORD_BITS};
use crate::spill::{ShardGuard, ShardResidency, Slot, SpillFiles, SpillSnapshot, SpillWriter};
use crate::transaction::{ItemId, TransactionDataset, TransactionId};

/// Per-shard cache budget targeted by [`ShardedBitmapDataset::default_shard_rows`]:
/// a shard's whole column set should fit comfortably in a typical 512 KiB–1 MiB
/// L2, leaving room for the candidate scratch. 256 KiB of columns keeps every
/// AND + popcount of a batch in-cache after the first touch.
pub const SHARD_L2_BUDGET_BYTES: usize = 256 * 1024;

/// A transactional dataset as word-aligned row-range shards of vertical
/// bitmaps, resident or spilled. See the [module docs](self).
///
/// Shared across workers by reference (or behind an `Arc`); a spilled
/// store's spill directory and files are removed on drop.
#[derive(Debug)]
pub struct ShardedBitmapDataset {
    num_items: u32,
    num_transactions: usize,
    /// Transactions per shard — always a multiple of 64; the last shard holds
    /// the (possibly shorter) remainder.
    shard_rows: usize,
    entries: usize,
    /// One slot per shard, in transaction order.
    slots: Vec<RwLock<Slot>>,
    /// Item supports of each shard, in fixed shard order — they seed
    /// level-wise mining and rarest-first candidate ordering without
    /// touching a shard.
    per_shard_supports: Vec<Vec<u64>>,
    /// Item supports summed over shards in fixed order.
    totals: Vec<u64>,
    /// The spill files behind the slots; `None` for a resident store.
    spill: Option<SpillFiles>,
}

impl ShardedBitmapDataset {
    /// Shard `dataset` at the default width
    /// ([`ShardedBitmapDataset::default_shard_rows`]), keeping every shard
    /// resident.
    pub fn from_dataset(dataset: &TransactionDataset) -> Self {
        Self::with_shard_rows(
            dataset,
            Self::default_shard_rows(dataset.num_items(), dataset.num_transactions()),
        )
    }

    /// Shard `dataset` into resident row ranges of `shard_rows` transactions
    /// each.
    ///
    /// # Panics
    ///
    /// Panics unless `shard_rows` is a positive multiple of 64 — word
    /// alignment is what guarantees no bit-column word straddles two shards.
    pub fn with_shard_rows(dataset: &TransactionDataset, shard_rows: usize) -> Self {
        Self::build(dataset, shard_rows, None).expect("a resident store does no I/O")
    }

    /// Shard `dataset` at the default width (the width
    /// [`ShardedBitmapDataset::from_dataset`] picks, so spilled and resident
    /// stores shard identically) into spill files under `residency`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::DatasetError::Io`] when the spill directory or a
    /// shard file cannot be written; nothing is left on disk then.
    pub fn spill_dataset(
        dataset: &TransactionDataset,
        residency: &ShardResidency,
    ) -> crate::Result<Self> {
        let shard_rows = Self::default_shard_rows(dataset.num_items(), dataset.num_transactions());
        Self::spill_dataset_with_rows(dataset, shard_rows, residency)
    }

    /// Like [`ShardedBitmapDataset::spill_dataset`], at an explicit shard
    /// width.
    ///
    /// # Errors
    ///
    /// Returns [`crate::DatasetError::Io`] on spill-file I/O failure.
    ///
    /// # Panics
    ///
    /// Panics unless `shard_rows` is a positive multiple of 64.
    pub fn spill_dataset_with_rows(
        dataset: &TransactionDataset,
        shard_rows: usize,
        residency: &ShardResidency,
    ) -> crate::Result<Self> {
        Self::build(dataset, shard_rows, Some(residency))
    }

    /// The one construction loop: shards are materialized **one at a time**
    /// from the CSR rows, then either kept (resident) or written to a spill
    /// file and dropped — so a spilled store's peak construction memory is
    /// one shard, never the whole bit matrix.
    fn build(
        dataset: &TransactionDataset,
        shard_rows: usize,
        residency: Option<&ShardResidency>,
    ) -> crate::Result<Self> {
        assert!(
            shard_rows > 0 && shard_rows.is_multiple_of(WORD_BITS),
            "shard width must be a positive multiple of {WORD_BITS}, got {shard_rows}"
        );
        let num_items = dataset.num_items();
        let num_transactions = dataset.num_transactions();
        let num_shards = num_transactions.div_ceil(shard_rows).max(1);
        let mut writer = residency
            .map(|residency| SpillWriter::create(residency, num_items))
            .transpose()?;
        let mut slots = Vec::with_capacity(num_shards);
        let mut per_shard_supports = Vec::with_capacity(num_shards);
        let mut totals = vec![0u64; num_items as usize];
        let mut entries = 0;
        let mut transactions = dataset.iter();
        for index in 0..num_shards {
            let rows = shard_rows.min(num_transactions - index * shard_rows);
            let mut shard = BitmapDataset::new(num_items, rows);
            for (local, txn) in transactions.by_ref().take(rows).enumerate() {
                for &item in txn {
                    shard.set(item, local as TransactionId);
                }
            }
            let supports = shard.item_supports();
            for (total, partial) in totals.iter_mut().zip(&supports) {
                *total += partial;
            }
            per_shard_supports.push(supports);
            entries += shard.num_entries();
            let slot = match writer.as_mut() {
                Some(writer) => {
                    writer.add_shard(&shard)?;
                    Slot::Cold
                }
                None => Slot::Heap(shard.into_words()),
            };
            slots.push(RwLock::new(slot));
        }
        Ok(ShardedBitmapDataset {
            num_items,
            num_transactions,
            shard_rows,
            entries,
            slots,
            per_shard_supports,
            totals,
            spill: writer.map(SpillWriter::finish),
        })
    }

    /// The default shard width for a dataset of this shape: the largest
    /// multiple of 64 transactions whose column set
    /// (`num_items · shard_rows / 8` bytes) fits [`SHARD_L2_BUDGET_BYTES`],
    /// at least 64 so every shard holds a whole word, and capped at the
    /// (word-rounded) dataset height. Any width yields bit-identical results —
    /// the fixed-order exact reduction makes the choice a pure speed knob.
    pub fn default_shard_rows(num_items: u32, num_transactions: usize) -> usize {
        let words_per_shard_column = (SHARD_L2_BUDGET_BYTES / 8) / num_items.max(1) as usize;
        let rows = words_per_shard_column.max(1) * WORD_BITS;
        // Never shard wider than the dataset itself (rounded up to a word).
        rows.min(num_transactions.div_ceil(WORD_BITS).max(1) * WORD_BITS)
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

    /// The shard width (transactions per shard, multiple of 64; the last
    /// shard may be shorter).
    #[inline]
    pub fn shard_rows(&self) -> usize {
        self.shard_rows
    }

    /// Number of shards (at least 1, even for an empty dataset).
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.slots.len()
    }

    /// Transactions in shard `index`: tids `index · shard_rows ..
    /// min((index+1) · shard_rows, t)`.
    #[inline]
    pub fn shard_transactions(&self, index: usize) -> usize {
        self.shard_rows
            .min(self.num_transactions - index * self.shard_rows)
    }

    /// Total number of (transaction, item) incidences, recorded at
    /// construction.
    #[inline]
    pub fn num_entries(&self) -> usize {
        self.entries
    }

    /// Item supports of shard `index`, computed once at construction.
    #[inline]
    pub fn shard_item_supports(&self, index: usize) -> &[u64] {
        &self.per_shard_supports[index]
    }

    /// Supports of all items, indexed by item id (summed over shards in
    /// fixed order at construction).
    pub fn item_supports(&self) -> Vec<u64> {
        self.totals.clone()
    }

    /// Maximum support of any single item.
    pub fn max_item_support(&self) -> u64 {
        self.totals.iter().copied().max().unwrap_or(0)
    }

    /// Support of a sorted, duplicate-free itemset: sum of per-shard
    /// AND + popcount intersections (empty itemsets get `t` by convention).
    ///
    /// # Panics
    ///
    /// Panics if an item id is out of range; debug-asserts sortedness.
    pub fn itemset_support(&self, itemset: &[ItemId]) -> u64 {
        let mut scratch = Vec::new();
        (0..self.num_shards())
            .map(|index| {
                self.shard(index)
                    .columns()
                    .itemset_support_with(itemset, &mut scratch)
            })
            .sum()
    }

    /// Average transaction length; zero for an empty dataset.
    pub fn avg_transaction_len(&self) -> f64 {
        if self.num_transactions == 0 {
            0.0
        } else {
            self.entries as f64 / self.num_transactions as f64
        }
    }

    /// Whether every shard can be loaded at once: always for a resident
    /// store, and for a spilled one when its budget covers every shard's
    /// payload — then a depth-first miner may pin all shards and never
    /// refault.
    pub fn budget_holds_all(&self) -> bool {
        self.spill.as_ref().is_none_or(SpillFiles::budget_holds_all)
    }

    /// The order a counting pass should visit shards in: `0..n` for a
    /// resident store; resident shards first, then cold ones (each group
    /// ascending) for a spilled one. Recomputed per batch, so a level-wise
    /// miner touches every cold shard exactly once per level. Partial counts
    /// must still be reduced in fixed shard order.
    pub fn schedule(&self) -> Vec<usize> {
        match &self.spill {
            None => (0..self.num_shards()).collect(),
            Some(spill) => spill.schedule(),
        }
    }

    /// Pin shard `index` for counting, faulting it in if it is cold. The
    /// returned guard keeps the shard loaded (eviction skips pinned slots)
    /// until dropped.
    ///
    /// # Panics
    ///
    /// Panics when a spilled shard's file has been deleted or corrupted
    /// underneath the process (see [`crate::spill`]).
    pub fn shard(&self, index: usize) -> ShardGuard<'_> {
        let rows = self.shard_transactions(index);
        loop {
            let slot = self.slots[index]
                .read()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            if slot.is_loaded() {
                if let Some(spill) = &self.spill {
                    spill.touch(index);
                }
                return ShardGuard::new(slot, self.num_items, rows);
            }
            drop(slot);
            self.spill
                .as_ref()
                .expect("only spilled shards go cold")
                .fault_in(&self.slots, index);
            // Loop: re-acquire the read guard. In the tiny window between
            // the fault's write guard and this read, another worker's
            // eviction scan may have re-evicted the shard; then we simply
            // fault it in again.
        }
    }

    /// The spill residency state and lifetime counters; `None` for a
    /// resident store.
    pub fn spill_snapshot(&self) -> Option<SpillSnapshot> {
        self.spill.as_ref().map(SpillFiles::snapshot)
    }
}

impl<'a> From<&'a ShardedBitmapDataset> for crate::view::DatasetView<'a> {
    fn from(dataset: &'a ShardedBitmapDataset) -> Self {
        crate::view::DatasetView::Sharded(dataset)
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

    #[test]
    fn sharding_is_word_aligned_and_covers_every_transaction() {
        let csr = sample(300);
        let bitmap = BitmapDataset::from_dataset(&csr);
        let sharded = ShardedBitmapDataset::with_shard_rows(&csr, 128);
        assert_eq!(sharded.num_shards(), 3);
        assert_eq!(sharded.shard_rows(), 128);
        assert_eq!(
            (0..3)
                .map(|index| sharded.shard_transactions(index))
                .collect::<Vec<_>>(),
            vec![128, 128, 44]
        );
        assert_eq!(sharded.num_transactions(), 300);
        assert_eq!(sharded.num_entries(), csr.num_entries());
        // Shard `i` holds the words of tids `i·128 ..`, i.e. two words per
        // column of the unsharded bitmap.
        for index in 0..sharded.num_shards() {
            let guard = sharded.shard(index);
            assert_eq!(
                guard.columns().num_transactions(),
                sharded.shard_transactions(index)
            );
            for item in 0..csr.num_items() {
                let words = guard.columns().column(item);
                assert_eq!(
                    words,
                    &bitmap.column(item)[2 * index..2 * index + words.len()]
                );
            }
        }
    }

    #[test]
    fn supports_match_the_unsharded_reference_at_every_width() {
        let csr = sample(200);
        let bitmap = BitmapDataset::from_dataset(&csr);
        for shard_rows in [64, 128, 256, 1024] {
            let sharded = ShardedBitmapDataset::with_shard_rows(&csr, shard_rows);
            assert_eq!(sharded.item_supports(), csr.item_supports());
            assert_eq!(sharded.max_item_support(), csr.max_item_support());
            for itemset in [vec![], vec![3], vec![0, 1], vec![0, 2, 4], vec![1, 3, 5]] {
                assert_eq!(
                    sharded.itemset_support(&itemset),
                    bitmap.itemset_support(&itemset),
                    "itemset {itemset:?} at width {shard_rows}"
                );
            }
            assert!((sharded.avg_transaction_len() - bitmap.avg_transaction_len()).abs() < 1e-12);
            assert!(sharded.budget_holds_all());
            assert!(sharded.spill_snapshot().is_none());
            assert_eq!(
                sharded.schedule(),
                (0..sharded.num_shards()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn default_width_targets_the_l2_budget() {
        // 100 items: budget/8/100 = 327 words → 20 928 rows... capped by the
        // dataset height (rounded up to a word).
        let rows = ShardedBitmapDataset::default_shard_rows(100, 1_000_000);
        assert_eq!(rows % 64, 0);
        assert!(rows * 100 / 8 <= SHARD_L2_BUDGET_BYTES);
        // Small datasets collapse to a single shard.
        assert_eq!(ShardedBitmapDataset::default_shard_rows(100, 100), 128);
        let tiny = ShardedBitmapDataset::from_dataset(&sample(100));
        assert_eq!(tiny.num_shards(), 1);
        // A huge universe still shards by at least one word.
        assert_eq!(
            ShardedBitmapDataset::default_shard_rows(10_000_000, 1 << 20),
            64
        );
    }

    #[test]
    fn from_dataset_uses_the_static_default_width() {
        // 2048 items × 4096 transactions: budgets of 128 KiB, 256 KiB,
        // 512 KiB and 1 MiB give four different widths here, so nothing but
        // the static L2 budget yields the default width.
        let csr = TransactionDataset::from_transactions(
            2048,
            (0..4096u32).map(|tid| vec![tid % 2048]).collect(),
        )
        .unwrap();
        let rows = ShardedBitmapDataset::default_shard_rows(2048, 4096);
        assert_eq!(rows, 1024);
        let sharded = ShardedBitmapDataset::from_dataset(&csr);
        assert_eq!(sharded.shard_rows(), rows);
        assert_eq!(sharded.num_shards(), 4);
    }

    #[test]
    fn degenerate_shapes() {
        let empty = ShardedBitmapDataset::from_dataset(&TransactionDataset::empty(4));
        assert_eq!(empty.num_shards(), 1);
        assert_eq!(empty.num_transactions(), 0);
        assert_eq!(empty.num_entries(), 0);
        assert_eq!(empty.avg_transaction_len(), 0.0);
        assert_eq!(empty.itemset_support(&[0, 1]), 0);
        assert_eq!(empty.max_item_support(), 0);
        assert_eq!(empty.shard(0).columns().num_transactions(), 0);
    }

    #[test]
    #[should_panic(expected = "multiple of 64")]
    fn unaligned_widths_are_rejected() {
        let _ = ShardedBitmapDataset::with_shard_rows(&sample(10), 100);
    }
}
