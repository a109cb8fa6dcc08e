//! Vertical bitmap dataset backend.
//!
//! A [`BitmapDataset`] stores the same incidence matrix as a
//! [`TransactionDataset`], but *vertically and word-parallel*: one bit-column of
//! `⌈t/64⌉` `u64` words per item, bit `tid` of column `i` set iff transaction
//! `tid` contains item `i`. Support counting becomes `AND` + `popcount` over
//! whole words — 64 transactions per instruction instead of a merge step per
//! tid — which is the representation of choice for dense datasets and for the
//! Monte-Carlo null-model replicates of Algorithm 1 (their density is exactly
//! the item-frequency profile, known up front).
//!
//! The container is deliberately *reusable*: [`BitmapDataset::reset`] re-shapes
//! it without shrinking the backing buffer, so a per-thread scratch bitmap can
//! absorb one null-model replicate after another with zero allocations once
//! warm (see [`with_bitmap_scratch`]).

use serde::{Deserialize, Serialize};

use crate::kernels::kernels;
use crate::transaction::{DatasetBuilder, ItemId, TransactionDataset, TransactionId};
use crate::view::DatasetView;

/// Number of transaction slots per bitmap word.
pub(crate) const WORD_BITS: usize = 64;

/// A transactional dataset in vertical bitmap (bit-column per item) layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitmapDataset {
    num_items: u32,
    num_transactions: usize,
    /// `⌈num_transactions / 64⌉`.
    words_per_column: usize,
    /// Column-major bit matrix: `bits[i * words_per_column ..][..words_per_column]`
    /// is the bit-column of item `i`. Bits at positions `>= num_transactions` in
    /// the last word of each column are always zero (so popcounts are exact).
    bits: Vec<u64>,
    /// Total number of set bits, maintained incrementally by every mutation
    /// (`set`/`clear`/`reset`) so the density heuristics never rescan the
    /// whole matrix. Invariant: always equals the popcount of `bits` — every
    /// constructor and the hand-written [`Deserialize`] below enforce it,
    /// which is why deriving `PartialEq`/`Eq` over it stays sound.
    entries: usize,
}

/// A borrowed, shape-annotated view of item-major bit-columns: the common
/// counting surface over columns that live in a resident [`BitmapDataset`]
/// ([`BitmapDataset::as_columns`]) *or* in a spill file mapped back from disk
/// ([`crate::spill::ShardGuard::columns`]). Counting code written against
/// this view is residency-agnostic — same words, same popcounts, wherever
/// the bytes happen to live.
#[derive(Debug, Clone, Copy)]
pub struct ColumnsRef<'a> {
    num_items: u32,
    num_transactions: usize,
    words_per_column: usize,
    /// Column-major bit matrix with the same layout (and padding invariant)
    /// as [`BitmapDataset`]'s backing buffer.
    words: &'a [u64],
}

impl<'a> ColumnsRef<'a> {
    /// View `words` as the column-major bit matrix of a `num_items ×
    /// num_transactions` dataset.
    ///
    /// # Panics
    ///
    /// Panics unless `words.len() == num_items · ⌈num_transactions/64⌉`.
    pub fn new(num_items: u32, num_transactions: usize, words: &'a [u64]) -> Self {
        let words_per_column = num_transactions.div_ceil(WORD_BITS);
        assert_eq!(
            words.len(),
            num_items as usize * words_per_column,
            "column matrix of {num_items} items x {num_transactions} transactions \
             needs {} words",
            num_items as usize * words_per_column
        );
        ColumnsRef {
            num_items,
            num_transactions,
            words_per_column,
            words,
        }
    }

    /// Number of items in the universe.
    #[inline]
    pub fn num_items(&self) -> u32 {
        self.num_items
    }

    /// Number of transactions.
    #[inline]
    pub fn num_transactions(&self) -> usize {
        self.num_transactions
    }

    /// Number of `u64` words in each item's bit-column.
    #[inline]
    pub fn words_per_column(&self) -> usize {
        self.words_per_column
    }

    /// The bit-column of `item`.
    ///
    /// # Panics
    ///
    /// Panics if `item >= num_items()`.
    #[inline]
    pub fn column(&self, item: ItemId) -> &'a [u64] {
        let start = item as usize * self.words_per_column;
        &self.words[start..start + self.words_per_column]
    }

    /// Support of a single item (popcount of its column).
    pub fn item_support(&self, item: ItemId) -> u64 {
        kernels().popcount_slice(self.column(item))
    }

    /// Support of a sorted, duplicate-free itemset by AND + popcount over
    /// its columns, rarest column first so sparse intersections can exit
    /// early, reusing `scratch` as the word buffer. Empty itemsets get
    /// support `t` by the usual convention.
    ///
    /// # Panics
    ///
    /// Panics if an item id is out of range; debug-asserts sortedness.
    pub fn itemset_support_with(&self, itemset: &[ItemId], scratch: &mut Vec<u64>) -> u64 {
        debug_assert!(
            itemset.windows(2).all(|w| w[0] < w[1]),
            "itemset must be sorted and distinct"
        );
        match itemset {
            [] => self.num_transactions as u64,
            [single] => self.item_support(*single),
            [a, b] => and_count(self.column(*a), self.column(*b)),
            _ => {
                // Rarest-first ordering makes the working set sparse as early as
                // possible, which lets the early-exit below fire sooner. Each
                // item's popcount is taken once up front — a sort key closure
                // would re-walk whole columns on every comparison.
                let mut order: Vec<(u64, ItemId)> =
                    itemset.iter().map(|&i| (self.item_support(i), i)).collect();
                order.sort_unstable();
                scratch.clear();
                scratch.extend_from_slice(self.column(order[0].1));
                let mut support = order[0].0;
                for &(_, item) in &order[1..] {
                    if support == 0 {
                        return 0;
                    }
                    support = and_count_into(scratch, self.column(item));
                }
                support
            }
        }
    }
}

/// The wire format carries only the genuine state (`num_items`,
/// `num_transactions`, `words_per_column`, `bits`) — the shape PR 2's derived
/// impl produced. The derived `entries` count is deliberately **not**
/// serialized: it is recomputed from the bit matrix on deserialization, so no
/// payload (stale or hand-crafted) can install a count that disagrees with
/// the bits.
impl Serialize for BitmapDataset {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("num_items".into(), self.num_items.to_value()),
            ("num_transactions".into(), self.num_transactions.to_value()),
            ("words_per_column".into(), self.words_per_column.to_value()),
            ("bits".into(), self.bits.to_value()),
        ])
    }
}

impl Deserialize for BitmapDataset {
    fn from_value(value: &serde::Value) -> std::result::Result<Self, serde::Error> {
        let field = |name: &'static str| {
            value
                .get_field(name)
                .ok_or_else(|| serde::Error::missing_field("BitmapDataset", name))
        };
        let num_items = u32::from_value(field("num_items")?)?;
        let num_transactions = usize::from_value(field("num_transactions")?)?;
        let words_per_column = usize::from_value(field("words_per_column")?)?;
        let bits = Vec::<u64>::from_value(field("bits")?)?;
        if words_per_column != num_transactions.div_ceil(WORD_BITS)
            || bits.len() != num_items as usize * words_per_column
        {
            return Err(serde::Error::custom(format!(
                "inconsistent BitmapDataset shape: {num_items} items x \
                 {words_per_column} words/column (t = {num_transactions}) \
                 vs {} bit words",
                bits.len()
            )));
        }
        // Enforce the padding invariant the struct documents: bits at
        // positions >= num_transactions in each column's last word must be
        // zero, or popcounts (and the entry count computed below) would
        // include phantom transactions.
        let tail_bits = num_transactions % WORD_BITS;
        if words_per_column > 0 && tail_bits != 0 {
            let padding_mask = !0u64 << tail_bits;
            for item in 0..num_items as usize {
                let last = bits[item * words_per_column + words_per_column - 1];
                if last & padding_mask != 0 {
                    return Err(serde::Error::custom(format!(
                        "BitmapDataset column {item} has set bits beyond \
                         transaction {num_transactions} in its last word"
                    )));
                }
            }
        }
        let entries = kernels().popcount_slice(&bits) as usize;
        Ok(BitmapDataset {
            num_items,
            num_transactions,
            words_per_column,
            bits,
            entries,
        })
    }
}

impl BitmapDataset {
    /// An all-zeros bitmap for `num_transactions` transactions over `num_items`
    /// items.
    pub fn new(num_items: u32, num_transactions: usize) -> Self {
        let words_per_column = num_transactions.div_ceil(WORD_BITS);
        BitmapDataset {
            num_items,
            num_transactions,
            words_per_column,
            bits: vec![0u64; num_items as usize * words_per_column],
            entries: 0,
        }
    }

    /// Re-shape this bitmap to the given dimensions and clear every bit, keeping
    /// the backing allocation whenever it is already large enough. This is the
    /// zero-allocation path the Monte-Carlo replicate loop relies on.
    pub fn reset(&mut self, num_items: u32, num_transactions: usize) {
        let words_per_column = num_transactions.div_ceil(WORD_BITS);
        let needed = num_items as usize * words_per_column;
        self.num_items = num_items;
        self.num_transactions = num_transactions;
        self.words_per_column = words_per_column;
        self.entries = 0;
        self.bits.clear();
        self.bits.resize(needed, 0);
        // `clear` + `resize` never shrinks the capacity, and fills the live
        // prefix with zeros without reallocating once `capacity >= needed`.
    }

    /// Build a bitmap from a CSR dataset.
    pub fn from_dataset(dataset: &TransactionDataset) -> Self {
        let mut bitmap = BitmapDataset::new(dataset.num_items(), dataset.num_transactions());
        bitmap.fill_from_dataset(dataset);
        bitmap
    }

    /// Re-shape to `dataset`'s dimensions and copy its incidences in (reusing
    /// the allocation, see [`BitmapDataset::reset`]).
    pub fn fill_from_dataset(&mut self, dataset: &TransactionDataset) {
        self.reset(dataset.num_items(), dataset.num_transactions());
        for (tid, txn) in dataset.iter().enumerate() {
            for &item in txn {
                self.set(item, tid as TransactionId);
            }
        }
    }

    /// Build a bitmap directly from explicit transactions.
    ///
    /// # Errors
    ///
    /// Returns [`crate::DatasetError::ItemOutOfRange`] like the CSR constructor.
    pub fn from_transactions(
        num_items: u32,
        transactions: Vec<Vec<ItemId>>,
    ) -> crate::Result<Self> {
        let csr = TransactionDataset::from_transactions(num_items, transactions)?;
        Ok(Self::from_dataset(&csr))
    }

    /// Convert back to the CSR representation (transactions sorted ascending, as
    /// the CSR container guarantees).
    pub fn to_transaction_dataset(&self) -> TransactionDataset {
        let mut builder = DatasetBuilder::with_capacity(
            self.num_items,
            self.num_transactions,
            self.num_entries(),
        );
        let mut txn: Vec<ItemId> = Vec::new();
        for tid in 0..self.num_transactions {
            txn.clear();
            let (word, bit) = (tid / WORD_BITS, tid % WORD_BITS);
            for item in 0..self.num_items {
                if self.column(item)[word] >> bit & 1 == 1 {
                    txn.push(item);
                }
            }
            builder
                .add_sorted_transaction(&txn)
                .expect("bitmap items are in range by construction");
        }
        builder.build()
    }

    /// Number of items in the universe.
    #[inline]
    pub fn num_items(&self) -> u32 {
        self.num_items
    }

    /// Number of transactions.
    #[inline]
    pub fn num_transactions(&self) -> usize {
        self.num_transactions
    }

    /// Number of `u64` words in each item's bit-column.
    #[inline]
    pub fn words_per_column(&self) -> usize {
        self.words_per_column
    }

    /// The bit-column of `item`.
    ///
    /// # Panics
    ///
    /// Panics if `item >= num_items()`.
    #[inline]
    pub fn column(&self, item: ItemId) -> &[u64] {
        let start = item as usize * self.words_per_column;
        &self.bits[start..start + self.words_per_column]
    }

    /// The whole column-major bit matrix, item-major: column `i` occupies
    /// `words()[i * words_per_column() ..][.. words_per_column()]`. This is
    /// the exact byte layout the spill files of [`crate::spill`] persist
    /// (little-endian word dump), so spilling a shard is a straight copy.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// The bit matrix, consumed (see [`BitmapDataset::words`]).
    pub(crate) fn into_words(self) -> Vec<u64> {
        self.bits
    }

    /// This bitmap's columns as a borrowed [`ColumnsRef`] — the shared
    /// counting surface that also serves shards mapped back from spill files.
    #[inline]
    pub fn as_columns(&self) -> ColumnsRef<'_> {
        ColumnsRef {
            num_items: self.num_items,
            num_transactions: self.num_transactions,
            words_per_column: self.words_per_column,
            words: &self.bits,
        }
    }

    /// Mutable access to the bit-column of `item`, for samplers that build a
    /// column word-wise instead of bit-by-bit. Every bit newly set through
    /// the returned slice must be accounted with
    /// [`BitmapDataset::add_entries`] to keep the entry-count invariant.
    ///
    /// # Panics
    ///
    /// Panics if `item >= num_items()`.
    #[inline]
    pub(crate) fn column_mut(&mut self, item: ItemId) -> &mut [u64] {
        let start = item as usize * self.words_per_column;
        &mut self.bits[start..start + self.words_per_column]
    }

    /// Account for `added` bits newly set through
    /// [`BitmapDataset::column_mut`] (all of which must have been zero
    /// before, or the entry count desyncs from the bit matrix).
    #[inline]
    pub(crate) fn add_entries(&mut self, added: usize) {
        self.entries += added;
    }

    /// Set the `(item, tid)` incidence bit.
    ///
    /// # Panics
    ///
    /// Panics if `item` or `tid` is out of range.
    #[inline]
    pub fn set(&mut self, item: ItemId, tid: TransactionId) {
        assert!(
            (tid as usize) < self.num_transactions,
            "transaction id {tid} out of range 0..{}",
            self.num_transactions
        );
        let idx = item as usize * self.words_per_column + tid as usize / WORD_BITS;
        let mask = 1u64 << (tid as usize % WORD_BITS);
        if self.bits[idx] & mask == 0 {
            self.entries += 1;
            self.bits[idx] |= mask;
        }
    }

    /// Clear the `(item, tid)` incidence bit. The margin-preserving swaps of the
    /// swap-randomization null model are implemented directly on the bit-columns
    /// as paired [`BitmapDataset::set`]/[`BitmapDataset::clear`] flips.
    ///
    /// # Panics
    ///
    /// Panics if `item` or `tid` is out of range.
    #[inline]
    pub fn clear(&mut self, item: ItemId, tid: TransactionId) {
        assert!(
            (tid as usize) < self.num_transactions,
            "transaction id {tid} out of range 0..{}",
            self.num_transactions
        );
        let idx = item as usize * self.words_per_column + tid as usize / WORD_BITS;
        let mask = 1u64 << (tid as usize % WORD_BITS);
        if self.bits[idx] & mask != 0 {
            self.entries -= 1;
            self.bits[idx] &= !mask;
        }
    }

    /// Whether transaction `tid` contains `item`.
    #[inline]
    pub fn contains(&self, item: ItemId, tid: TransactionId) -> bool {
        self.column(item)[tid as usize / WORD_BITS] >> (tid as usize % WORD_BITS) & 1 == 1
    }

    /// Support of a single item (popcount of its column, through the
    /// dispatched [`crate::kernels::Kernels`]).
    pub fn item_support(&self, item: ItemId) -> u64 {
        kernels().popcount_slice(self.column(item))
    }

    /// Supports of all items, indexed by item id.
    pub fn item_supports(&self) -> Vec<u64> {
        (0..self.num_items).map(|i| self.item_support(i)).collect()
    }

    /// Total number of (transaction, item) incidences. `O(1)`: the count is
    /// maintained incrementally by every mutation, so the density heuristics
    /// ([`DatasetBackend::resolve`], the per-level counting strategy) never
    /// pay a whole-matrix popcount scan.
    pub fn num_entries(&self) -> usize {
        debug_assert_eq!(
            self.entries as u64,
            kernels().popcount_slice(&self.bits),
            "cached entry count out of sync with the bit matrix"
        );
        self.entries
    }

    /// Maximum support of any single item.
    pub fn max_item_support(&self) -> u64 {
        (0..self.num_items)
            .map(|i| self.item_support(i))
            .max()
            .unwrap_or(0)
    }

    /// Average transaction length; zero for an empty dataset.
    pub fn avg_transaction_len(&self) -> f64 {
        if self.num_transactions == 0 {
            0.0
        } else {
            self.num_entries() as f64 / self.num_transactions as f64
        }
    }

    /// Fraction of set bits in the incidence matrix (`entries / (n·t)`); zero
    /// for a degenerate matrix.
    pub fn density(&self) -> f64 {
        let cells = self.num_items as usize * self.num_transactions;
        if cells == 0 {
            0.0
        } else {
            self.num_entries() as f64 / cells as f64
        }
    }

    /// Support of an arbitrary sorted, duplicate-free itemset by AND + popcount
    /// over its columns, rarest column first so sparse intersections can exit
    /// early. Empty itemsets get support `t` by the usual convention.
    ///
    /// # Panics
    ///
    /// Panics if an item id is out of range; debug-asserts sortedness.
    pub fn itemset_support(&self, itemset: &[ItemId]) -> u64 {
        let mut scratch = Vec::new();
        self.itemset_support_with(itemset, &mut scratch)
    }

    /// Like [`BitmapDataset::itemset_support`], reusing a caller-provided word
    /// buffer so batch counting allocates nothing per candidate.
    pub fn itemset_support_with(&self, itemset: &[ItemId], scratch: &mut Vec<u64>) -> u64 {
        self.as_columns().itemset_support_with(itemset, scratch)
    }
}

/// Popcount of `a AND b` without materializing the intersection. Dispatches
/// through the process-wide [`crate::kernels::Kernels`] (scalar, AVX2 or
/// AVX-512 — identical results, see the module docs there).
#[inline]
pub fn and_count(a: &[u64], b: &[u64]) -> u64 {
    kernels().and_count(a, b)
}

/// `dst &= src`, returning the popcount of the result (kernel-dispatched).
#[inline]
pub fn and_count_into(dst: &mut [u64], src: &[u64]) -> u64 {
    kernels().and_count_into(dst, src)
}

/// `dst = a AND b`, returning the popcount of the result (kernel-dispatched).
#[inline]
pub fn and_into(dst: &mut [u64], a: &[u64], b: &[u64]) -> u64 {
    kernels().and_into(dst, a, b)
}

/// Which physical representation the pipeline materializes datasets in.
///
/// `Auto` resolves per workload from a density/size heuristic (see
/// [`DatasetBackend::resolve`]); `Csr` and `Bitmap` force a representation for
/// ablations and benchmarks. Whatever the backend, supports — and therefore
/// every statistic derived from them — are identical; only speed and memory
/// differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum DatasetBackend {
    /// Pick per dataset: bitmap for dense matrices that fit the memory budget,
    /// CSR tid-lists otherwise.
    #[default]
    Auto,
    /// Always the CSR / tid-list representation.
    Csr,
    /// Always the vertical bitmap representation.
    Bitmap,
    /// The transaction-sharded vertical bitmap
    /// ([`crate::sharded::ShardedBitmapDataset`]): word-aligned row-range
    /// shards whose per-shard partial counts are reduced in fixed shard
    /// order, so one dataset's counting pass can fan out across workers with
    /// bit-identical results at any thread count. Opt-in (never chosen by
    /// `Auto`), because it only pays off when intra-dataset parallelism is
    /// wanted — the Monte-Carlo replicate loop already saturates workers
    /// across replicates.
    Sharded,
}

/// A [`DatasetBackend`] with `Auto` resolved away: the representation actually
/// used for one concrete workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResolvedBackend {
    /// CSR / tid-lists.
    Csr,
    /// Vertical bitmaps.
    Bitmap,
    /// Transaction-sharded vertical bitmaps.
    ShardedBitmap,
}

/// `Auto` prefers the bitmap once the average tid-list is at least as long as a
/// bit-column: a tid-list intersection walks ~`density · t` ids per item while
/// the bitmap always touches `t/64` words, so the break-even density is `1/64`.
const BITMAP_DENSITY_THRESHOLD: f64 = 1.0 / 64.0;

/// `Auto` never chooses a bitmap larger than this many bytes (the CSR
/// representation of a sparse matrix can be arbitrarily smaller).
const BITMAP_MEMORY_BUDGET_BYTES: usize = 1 << 30;

impl DatasetBackend {
    /// Every backend choice, for configuration surfaces and test matrices.
    pub const ALL: [DatasetBackend; 4] = [
        DatasetBackend::Auto,
        DatasetBackend::Csr,
        DatasetBackend::Bitmap,
        DatasetBackend::Sharded,
    ];

    /// Command-line name.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetBackend::Auto => "auto",
            DatasetBackend::Csr => "csr",
            DatasetBackend::Bitmap => "bitmap",
            DatasetBackend::Sharded => "sharded",
        }
    }

    /// Resolve the choice for a dataset of the given shape. `density` is the
    /// expected fraction of set bits (`entries / (n·t)`); for a null model this
    /// is the mean item frequency, known before any dataset is generated.
    pub fn resolve(
        &self,
        num_items: u32,
        num_transactions: usize,
        density: f64,
    ) -> ResolvedBackend {
        match self {
            DatasetBackend::Csr => ResolvedBackend::Csr,
            DatasetBackend::Bitmap => ResolvedBackend::Bitmap,
            DatasetBackend::Sharded => ResolvedBackend::ShardedBitmap,
            DatasetBackend::Auto => {
                let words = num_transactions.div_ceil(WORD_BITS);
                let bytes = (num_items as usize).saturating_mul(words).saturating_mul(8);
                if num_transactions > 0
                    && density >= BITMAP_DENSITY_THRESHOLD
                    && bytes <= BITMAP_MEMORY_BUDGET_BYTES
                {
                    ResolvedBackend::Bitmap
                } else {
                    ResolvedBackend::Csr
                }
            }
        }
    }

    /// Resolve against a concrete dataset (density measured, not assumed).
    pub fn resolve_for_dataset(&self, dataset: &TransactionDataset) -> ResolvedBackend {
        let cells = dataset.num_items() as usize * dataset.num_transactions();
        let density = if cells == 0 {
            0.0
        } else {
            dataset.num_entries() as f64 / cells as f64
        };
        self.resolve(dataset.num_items(), dataset.num_transactions(), density)
    }
}

impl std::str::FromStr for DatasetBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(DatasetBackend::Auto),
            "csr" => Ok(DatasetBackend::Csr),
            "bitmap" => Ok(DatasetBackend::Bitmap),
            "sharded" => Ok(DatasetBackend::Sharded),
            other => Err(format!(
                "unknown backend `{other}` (expected auto, csr, bitmap or sharded)"
            )),
        }
    }
}

impl std::fmt::Display for DatasetBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl<'a> From<&'a BitmapDataset> for DatasetView<'a> {
    fn from(dataset: &'a BitmapDataset) -> Self {
        DatasetView::Bitmap(dataset)
    }
}

std::thread_local! {
    /// One reusable bitmap per thread for the Monte-Carlo replicate loops.
    static BITMAP_SCRATCH: std::cell::RefCell<BitmapDataset> =
        std::cell::RefCell::new(BitmapDataset::new(0, 0));
}

/// Run `f` with this thread's reusable scratch bitmap. The buffer persists
/// across calls on the same thread, so callers that [`BitmapDataset::reset`] it
/// to a stable shape (every replicate of one Monte-Carlo batch has the same
/// `n × t`) allocate only on each thread's first replicate.
pub fn with_bitmap_scratch<R>(f: impl FnOnce(&mut BitmapDataset) -> R) -> R {
    BITMAP_SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TransactionDataset {
        TransactionDataset::from_transactions(
            5,
            vec![
                vec![0, 1, 2],
                vec![1, 2],
                vec![0, 2, 3],
                vec![4],
                vec![],
                vec![2, 1, 0],
            ],
        )
        .unwrap()
    }

    #[test]
    fn round_trip_through_csr() {
        let csr = sample();
        let bitmap = BitmapDataset::from_dataset(&csr);
        assert_eq!(bitmap.num_items(), csr.num_items());
        assert_eq!(bitmap.num_transactions(), csr.num_transactions());
        assert_eq!(bitmap.num_entries(), csr.num_entries());
        assert_eq!(bitmap.to_transaction_dataset(), csr);
    }

    #[test]
    fn supports_match_csr_reference() {
        let csr = sample();
        let bitmap = BitmapDataset::from_dataset(&csr);
        assert_eq!(bitmap.item_supports(), csr.item_supports());
        assert_eq!(bitmap.max_item_support(), csr.max_item_support());
        for itemset in [
            vec![],
            vec![0],
            vec![0, 1],
            vec![0, 1, 2],
            vec![0, 4],
            vec![1, 2],
            vec![0, 1, 2, 3],
        ] {
            assert_eq!(
                bitmap.itemset_support(&itemset),
                csr.itemset_support(&itemset),
                "itemset {itemset:?}"
            );
        }
        assert!((bitmap.avg_transaction_len() - csr.avg_transaction_len()).abs() < 1e-12);
    }

    #[test]
    fn set_and_contains() {
        let mut bitmap = BitmapDataset::new(3, 70);
        assert!(!bitmap.contains(2, 65));
        bitmap.set(2, 65);
        bitmap.set(2, 0);
        assert!(bitmap.contains(2, 65));
        assert!(bitmap.contains(2, 0));
        assert!(!bitmap.contains(2, 64));
        assert_eq!(bitmap.item_support(2), 2);
        assert_eq!(bitmap.words_per_column(), 2);
    }

    #[test]
    fn clear_unsets_a_bit_and_leaves_the_rest() {
        let mut bitmap = BitmapDataset::new(2, 130);
        bitmap.set(1, 64);
        bitmap.set(1, 65);
        bitmap.set(1, 129);
        bitmap.clear(1, 65);
        // Clearing an already-clear bit is a no-op.
        bitmap.clear(0, 3);
        assert!(bitmap.contains(1, 64));
        assert!(!bitmap.contains(1, 65));
        assert!(bitmap.contains(1, 129));
        assert_eq!(bitmap.item_support(1), 2);
        assert_eq!(bitmap.item_support(0), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn clear_rejects_out_of_range_tid() {
        let mut bitmap = BitmapDataset::new(2, 10);
        bitmap.clear(0, 10);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_rejects_out_of_range_tid() {
        let mut bitmap = BitmapDataset::new(2, 10);
        bitmap.set(0, 10);
    }

    #[test]
    fn reset_reuses_the_allocation() {
        let mut bitmap = BitmapDataset::new(8, 1000);
        bitmap.set(3, 999);
        let capacity = bitmap.bits.capacity();
        bitmap.reset(8, 1000);
        assert_eq!(bitmap.item_support(3), 0, "reset must clear all bits");
        assert_eq!(
            bitmap.bits.capacity(),
            capacity,
            "reset must not reallocate"
        );
        // Shrinking shapes also keep the buffer.
        bitmap.reset(4, 100);
        assert_eq!(bitmap.bits.capacity(), capacity);
        assert_eq!(bitmap.num_transactions(), 100);
        assert_eq!(bitmap.num_entries(), 0);
    }

    #[test]
    fn fill_from_dataset_overwrites_previous_contents() {
        let mut bitmap = BitmapDataset::from_dataset(&sample());
        let other =
            TransactionDataset::from_transactions(2, vec![vec![0], vec![1], vec![0, 1]]).unwrap();
        bitmap.fill_from_dataset(&other);
        assert_eq!(bitmap.to_transaction_dataset(), other);
    }

    #[test]
    fn density_and_degenerate_shapes() {
        let bitmap = BitmapDataset::from_dataset(&sample());
        assert!((bitmap.density() - 12.0 / 30.0).abs() < 1e-12);
        let empty = BitmapDataset::new(3, 0);
        assert_eq!(empty.num_entries(), 0);
        assert_eq!(empty.density(), 0.0);
        assert_eq!(empty.avg_transaction_len(), 0.0);
        assert_eq!(empty.itemset_support(&[0, 1]), 0);
        assert_eq!(empty.to_transaction_dataset().num_transactions(), 0);
    }

    #[test]
    fn word_helpers() {
        let a = [0b1011u64, u64::MAX];
        let b = [0b0110u64, 1];
        assert_eq!(and_count(&a, &b), 2);
        let mut dst = [0u64; 2];
        assert_eq!(and_into(&mut dst, &a, &b), 2);
        assert_eq!(dst, [0b0010, 1]);
        let mut acc = a;
        assert_eq!(and_count_into(&mut acc, &b), 2);
        assert_eq!(acc, dst);
    }

    #[test]
    fn num_entries_is_maintained_incrementally() {
        // The O(1) cached count must track every mutation path exactly:
        // set (idempotent), clear (idempotent), reset, fill_from_dataset.
        let mut bitmap = BitmapDataset::new(3, 100);
        assert_eq!(bitmap.num_entries(), 0);
        bitmap.set(0, 5);
        bitmap.set(0, 5); // duplicate set: no double count
        bitmap.set(2, 99);
        assert_eq!(bitmap.num_entries(), 2);
        bitmap.clear(0, 5);
        bitmap.clear(0, 5); // duplicate clear: no underflow
        assert_eq!(bitmap.num_entries(), 1);
        assert!((bitmap.density() - 1.0 / 300.0).abs() < 1e-12);
        bitmap.reset(3, 100);
        assert_eq!(bitmap.num_entries(), 0);
        let csr = sample();
        bitmap.fill_from_dataset(&csr);
        assert_eq!(bitmap.num_entries(), csr.num_entries());
    }

    #[test]
    fn backend_parsing_and_names() {
        for backend in DatasetBackend::ALL {
            assert_eq!(backend.name().parse::<DatasetBackend>().unwrap(), backend);
            assert_eq!(backend.to_string(), backend.name());
        }
        assert!("fancy".parse::<DatasetBackend>().is_err());
        assert_eq!(DatasetBackend::default(), DatasetBackend::Auto);
    }

    #[test]
    fn auto_resolution_heuristic() {
        // Dense and small: bitmap.
        assert_eq!(
            DatasetBackend::Auto.resolve(100, 10_000, 0.1),
            ResolvedBackend::Bitmap
        );
        // Sparse: CSR, however big.
        assert_eq!(
            DatasetBackend::Auto.resolve(100, 10_000, 0.001),
            ResolvedBackend::Csr
        );
        // Dense but over the memory budget: CSR.
        assert_eq!(
            DatasetBackend::Auto.resolve(2_000_000, 10_000_000, 0.5),
            ResolvedBackend::Csr
        );
        // Degenerate: CSR.
        assert_eq!(
            DatasetBackend::Auto.resolve(10, 0, 1.0),
            ResolvedBackend::Csr
        );
        // Forced choices ignore the shape.
        assert_eq!(
            DatasetBackend::Bitmap.resolve(1, 1, 0.0),
            ResolvedBackend::Bitmap
        );
        assert_eq!(
            DatasetBackend::Csr.resolve(100, 100, 1.0),
            ResolvedBackend::Csr
        );
        // Measured resolution against a concrete dataset.
        let dense = sample();
        assert_eq!(
            DatasetBackend::Auto.resolve_for_dataset(&dense),
            ResolvedBackend::Bitmap
        );
    }

    #[test]
    fn scratch_is_reused_within_a_thread() {
        let shape = with_bitmap_scratch(|scratch| {
            scratch.reset(4, 200);
            scratch.set(1, 150);
            (scratch.num_items(), scratch.num_transactions())
        });
        assert_eq!(shape, (4, 200));
        with_bitmap_scratch(|scratch| {
            // Same thread: the previous shape (and its bits) are still there
            // until the caller resets, which is exactly the reuse contract.
            assert_eq!(scratch.num_transactions(), 200);
            assert!(scratch.contains(1, 150));
            scratch.reset(4, 200);
            assert!(!scratch.contains(1, 150));
        });
    }

    #[test]
    fn serde_round_trip() {
        let bitmap = BitmapDataset::from_dataset(&sample());
        let value = serde::Serialize::to_value(&bitmap);
        // The cached entry count never travels: it is derived state,
        // recomputed on the way in (so payloads cannot desync it).
        assert!(value.get_field("entries").is_none());
        assert!(value.get_field("bits").is_some());
        let back: BitmapDataset = serde::Deserialize::from_value(&value).unwrap();
        assert_eq!(back, bitmap);
        assert_eq!(back.num_entries(), bitmap.num_entries());
    }

    #[test]
    fn deserialization_rejects_inconsistent_shapes() {
        let bitmap = BitmapDataset::from_dataset(&sample());
        let serde::Value::Map(mut fields) = serde::Serialize::to_value(&bitmap) else {
            panic!("bitmap serializes as a map");
        };
        for (key, value) in &mut fields {
            if key == "num_items" {
                *value = serde::Value::U64(999);
            }
        }
        let error = <BitmapDataset as serde::Deserialize>::from_value(&serde::Value::Map(fields))
            .unwrap_err();
        assert!(error.to_string().contains("inconsistent"));
        assert!(
            <BitmapDataset as serde::Deserialize>::from_value(&serde::Value::Null).is_err(),
            "non-map payloads are rejected"
        );
    }
}
