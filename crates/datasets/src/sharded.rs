//! Transaction-sharded vertical bitmaps: [`ShardedBitmapDataset`].
//!
//! A [`crate::bitmap::BitmapDataset`] is one contiguous bit matrix, so a
//! counting pass over it is inherently single-threaded: whoever holds the
//! columns walks all `⌈t/64⌉` words of every column. This module splits the
//! **transaction axis** into fixed-width, word-aligned row-range shards
//! (shard width a multiple of 64, so no bit ever straddles two shards), each
//! a self-contained `BitmapDataset` over the same item universe:
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
//!   bounded — the stepping stone to out-of-core and multi-node operation
//!   named in the roadmap.
//!
//! Select it with [`crate::bitmap::DatasetBackend::Sharded`]; `Auto` never
//! picks it (sharding one dataset only pays when intra-dataset parallelism is
//! wanted).

use serde::{Deserialize, Serialize};

use crate::bitmap::{BitmapDataset, WORD_BITS};
use crate::transaction::{ItemId, TransactionDataset};

/// Per-shard cache budget targeted by [`ShardedBitmapDataset::default_shard_rows`]:
/// a shard's whole column set should fit comfortably in a typical 512 KiB–1 MiB
/// L2, leaving room for the candidate scratch. 256 KiB of columns keeps every
/// AND + popcount of a batch in-cache after the first touch.
pub const SHARD_L2_BUDGET_BYTES: usize = 256 * 1024;

/// A transactional dataset as word-aligned row-range shards of vertical
/// bitmaps. See the [module docs](self).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ShardedBitmapDataset {
    num_items: u32,
    num_transactions: usize,
    /// Transactions per shard — always a multiple of 64; the last shard holds
    /// the (possibly shorter) remainder.
    shard_rows: usize,
    shards: Vec<BitmapDataset>,
}

/// Hand-written so deserialization enforces the same invariants
/// [`ShardedBitmapDataset::with_shard_rows`] asserts — word-aligned shard
/// width and shards whose shapes tile the declared `num_items ×
/// num_transactions` matrix exactly. (Each shard's own bit/entry consistency
/// is already enforced by [`BitmapDataset`]'s hardened deserializer.)
impl Deserialize for ShardedBitmapDataset {
    fn from_value(value: &serde::Value) -> std::result::Result<Self, serde::Error> {
        let field = |name: &'static str| {
            value
                .get_field(name)
                .ok_or_else(|| serde::Error::missing_field("ShardedBitmapDataset", name))
        };
        let num_items = u32::from_value(field("num_items")?)?;
        let num_transactions = usize::from_value(field("num_transactions")?)?;
        let shard_rows = usize::from_value(field("shard_rows")?)?;
        let shards = Vec::<BitmapDataset>::from_value(field("shards")?)?;
        if shard_rows == 0 || !shard_rows.is_multiple_of(WORD_BITS) {
            return Err(serde::Error::custom(format!(
                "shard width {shard_rows} is not a positive multiple of {WORD_BITS}"
            )));
        }
        if shards.len() != num_transactions.div_ceil(shard_rows).max(1) {
            return Err(serde::Error::custom(format!(
                "{} shards cannot tile {num_transactions} transactions at width {shard_rows}",
                shards.len()
            )));
        }
        for (index, shard) in shards.iter().enumerate() {
            let start = index * shard_rows;
            let rows = shard_rows.min(num_transactions - start.min(num_transactions));
            if shard.num_items() != num_items || shard.num_transactions() != rows {
                return Err(serde::Error::custom(format!(
                    "shard {index} is {} items x {} transactions, expected {num_items} x {rows}",
                    shard.num_items(),
                    shard.num_transactions()
                )));
            }
        }
        Ok(ShardedBitmapDataset {
            num_items,
            num_transactions,
            shard_rows,
            shards,
        })
    }
}

impl ShardedBitmapDataset {
    /// Shard `dataset` at the default width
    /// ([`ShardedBitmapDataset::default_shard_rows`]).
    pub fn from_dataset(dataset: &TransactionDataset) -> Self {
        Self::with_shard_rows(
            dataset,
            Self::default_shard_rows(dataset.num_items(), dataset.num_transactions()),
        )
    }

    /// Shard `dataset` into row ranges of `shard_rows` transactions each.
    ///
    /// # Panics
    ///
    /// Panics unless `shard_rows` is a positive multiple of 64 — word
    /// alignment is what guarantees no bit-column word straddles two shards.
    pub fn with_shard_rows(dataset: &TransactionDataset, shard_rows: usize) -> Self {
        assert!(
            shard_rows > 0 && shard_rows.is_multiple_of(WORD_BITS),
            "shard width must be a positive multiple of {WORD_BITS}, got {shard_rows}"
        );
        let num_items = dataset.num_items();
        let t = dataset.num_transactions();
        let num_shards = t.div_ceil(shard_rows).max(1);
        let mut shards: Vec<BitmapDataset> = (0..num_shards)
            .map(|shard| {
                let start = shard * shard_rows;
                let rows = shard_rows.min(t - start.min(t));
                BitmapDataset::new(num_items, rows)
            })
            .collect();
        for (tid, txn) in dataset.iter().enumerate() {
            let shard = tid / shard_rows;
            let local = (tid % shard_rows) as u32;
            for &item in txn {
                shards[shard].set(item, local);
            }
        }
        ShardedBitmapDataset {
            num_items,
            num_transactions: t,
            shard_rows,
            shards,
        }
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
        self.shards.len()
    }

    /// The shards, in transaction order: shard `i` covers tids
    /// `i · shard_rows .. min((i+1) · shard_rows, t)`. Partial counts over
    /// them must be reduced in this fixed order (every consumer in the
    /// workspace does), which is what keeps sharded counting bit-identical
    /// at any worker count.
    #[inline]
    pub fn shards(&self) -> &[BitmapDataset] {
        &self.shards
    }

    /// Total number of (transaction, item) incidences (`O(num_shards)`: each
    /// shard's count is cached).
    pub fn num_entries(&self) -> usize {
        self.shards.iter().map(BitmapDataset::num_entries).sum()
    }

    /// Support of a single item: sum of its per-shard column popcounts.
    pub fn item_support(&self, item: ItemId) -> u64 {
        self.shards
            .iter()
            .map(|shard| shard.item_support(item))
            .sum()
    }

    /// Supports of all items, indexed by item id (one pass per shard, reduced
    /// in shard order).
    pub fn item_supports(&self) -> Vec<u64> {
        let mut totals = vec![0u64; self.num_items as usize];
        for shard in &self.shards {
            for (total, partial) in totals.iter_mut().zip(shard.item_supports()) {
                *total += partial;
            }
        }
        totals
    }

    /// Maximum support of any single item.
    pub fn max_item_support(&self) -> u64 {
        self.item_supports().into_iter().max().unwrap_or(0)
    }

    /// Support of a sorted, duplicate-free itemset: sum of per-shard
    /// AND + popcount intersections (empty itemsets get `t` by convention).
    ///
    /// # Panics
    ///
    /// Panics if an item id is out of range; debug-asserts sortedness.
    pub fn itemset_support(&self, itemset: &[ItemId]) -> u64 {
        let mut scratch = Vec::new();
        self.shards
            .iter()
            .map(|shard| shard.itemset_support_with(itemset, &mut scratch))
            .sum()
    }

    /// Average transaction length; zero for an empty dataset.
    pub fn avg_transaction_len(&self) -> f64 {
        if self.num_transactions == 0 {
            0.0
        } else {
            self.num_entries() as f64 / self.num_transactions as f64
        }
    }

    /// Fraction of set bits in the incidence matrix; zero for a degenerate
    /// matrix.
    pub fn density(&self) -> f64 {
        let cells = self.num_items as usize * self.num_transactions;
        if cells == 0 {
            0.0
        } else {
            self.num_entries() as f64 / cells as f64
        }
    }

    /// Convert back to the CSR representation (shards concatenated in
    /// transaction order).
    pub fn to_transaction_dataset(&self) -> TransactionDataset {
        let mut transactions: Vec<Vec<ItemId>> = Vec::with_capacity(self.num_transactions);
        for shard in &self.shards {
            let csr = shard.to_transaction_dataset();
            transactions.extend(csr.iter().map(<[ItemId]>::to_vec));
        }
        TransactionDataset::from_transactions(self.num_items, transactions)
            .expect("shard items are in range by construction")
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
        let sharded = ShardedBitmapDataset::with_shard_rows(&csr, 128);
        assert_eq!(sharded.num_shards(), 3);
        assert_eq!(sharded.shard_rows(), 128);
        assert_eq!(
            sharded
                .shards()
                .iter()
                .map(BitmapDataset::num_transactions)
                .collect::<Vec<_>>(),
            vec![128, 128, 44]
        );
        assert_eq!(sharded.num_transactions(), 300);
        assert_eq!(sharded.num_entries(), csr.num_entries());
        assert_eq!(sharded.to_transaction_dataset(), csr);
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
            assert!((sharded.density() - bitmap.density()).abs() < 1e-12);
            assert!((sharded.avg_transaction_len() - bitmap.avg_transaction_len()).abs() < 1e-12);
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
        assert_eq!(empty.density(), 0.0);
        assert_eq!(empty.avg_transaction_len(), 0.0);
        assert_eq!(empty.itemset_support(&[0, 1]), 0);
        assert_eq!(empty.max_item_support(), 0);
        assert_eq!(empty.to_transaction_dataset().num_transactions(), 0);
    }

    #[test]
    #[should_panic(expected = "multiple of 64")]
    fn unaligned_widths_are_rejected() {
        let _ = ShardedBitmapDataset::with_shard_rows(&sample(10), 100);
    }

    #[test]
    fn serde_round_trip() {
        let sharded = ShardedBitmapDataset::with_shard_rows(&sample(130), 64);
        let value = serde::Serialize::to_value(&sharded);
        let back: ShardedBitmapDataset = serde::Deserialize::from_value(&value).unwrap();
        assert_eq!(back, sharded);
    }

    #[test]
    fn deserialization_enforces_constructor_invariants() {
        // The hand-written deserializer must reject everything
        // `with_shard_rows` would have refused to build: unaligned widths and
        // shards that do not tile the declared matrix.
        let sharded = ShardedBitmapDataset::with_shard_rows(&sample(130), 64);
        let tamper = |field: &str, replacement: serde::Value| {
            let serde::Value::Map(mut fields) = serde::Serialize::to_value(&sharded) else {
                panic!("sharded datasets serialize as maps");
            };
            for (key, value) in &mut fields {
                if key == field {
                    *value = replacement.clone();
                }
            }
            <ShardedBitmapDataset as serde::Deserialize>::from_value(&serde::Value::Map(fields))
        };
        let unaligned = tamper("shard_rows", serde::Value::U64(100)).unwrap_err();
        assert!(unaligned.to_string().contains("multiple of 64"));
        let wrong_tiling = tamper("num_transactions", serde::Value::U64(9_999)).unwrap_err();
        assert!(wrong_tiling.to_string().contains("tile"));
        let wrong_universe = tamper("num_items", serde::Value::U64(99)).unwrap_err();
        assert!(wrong_universe.to_string().contains("expected 99"));
        assert!(
            <ShardedBitmapDataset as serde::Deserialize>::from_value(&serde::Value::Null).is_err()
        );
    }
}
