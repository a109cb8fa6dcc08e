//! [`DatasetView`]: one borrowed handle over either physical dataset
//! representation.
//!
//! The mining and counting layers ask the same questions of a dataset — shape,
//! item supports, itemset supports — regardless of whether it lives as CSR
//! tid-lists ([`TransactionDataset`]) or as vertical bit-columns
//! ([`BitmapDataset`]). A `DatasetView` lets them accept either without
//! genericizing every call site, and lets backend-dispatching code (the
//! [`crate::bitmap::DatasetBackend`] heuristic, the Monte-Carlo replicate loop)
//! hand a uniform surface downstream.

use crate::bitmap::BitmapDataset;
use crate::sharded::ShardedBitmapDataset;
use crate::transaction::{ItemId, TransactionDataset};

/// A borrowed, backend-agnostic read view of a transactional dataset.
#[derive(Debug, Clone, Copy)]
pub enum DatasetView<'a> {
    /// The CSR (horizontal + tid-list) representation.
    Csr(&'a TransactionDataset),
    /// The vertical bitmap representation.
    Bitmap(&'a BitmapDataset),
    /// The transaction-sharded vertical bitmap representation, resident or
    /// spilled.
    Sharded(&'a ShardedBitmapDataset),
}

impl<'a> DatasetView<'a> {
    /// Short name of the underlying representation (for reports and benches).
    pub fn backend_name(&self) -> &'static str {
        match self {
            DatasetView::Csr(_) => "csr",
            DatasetView::Bitmap(_) => "bitmap",
            DatasetView::Sharded(_) => "sharded",
        }
    }

    /// Number of items in the universe.
    pub fn num_items(&self) -> u32 {
        match self {
            DatasetView::Csr(d) => d.num_items(),
            DatasetView::Bitmap(d) => d.num_items(),
            DatasetView::Sharded(d) => d.num_items(),
        }
    }

    /// Number of transactions.
    pub fn num_transactions(&self) -> usize {
        match self {
            DatasetView::Csr(d) => d.num_transactions(),
            DatasetView::Bitmap(d) => d.num_transactions(),
            DatasetView::Sharded(d) => d.num_transactions(),
        }
    }

    /// Total number of (transaction, item) incidences.
    pub fn num_entries(&self) -> usize {
        match self {
            DatasetView::Csr(d) => d.num_entries(),
            DatasetView::Bitmap(d) => d.num_entries(),
            DatasetView::Sharded(d) => d.num_entries(),
        }
    }

    /// Average transaction length; zero for an empty dataset.
    pub fn avg_transaction_len(&self) -> f64 {
        match self {
            DatasetView::Csr(d) => d.avg_transaction_len(),
            DatasetView::Bitmap(d) => d.avg_transaction_len(),
            DatasetView::Sharded(d) => d.avg_transaction_len(),
        }
    }

    /// Supports of all items, indexed by item id.
    pub fn item_supports(&self) -> Vec<u64> {
        match self {
            DatasetView::Csr(d) => d.item_supports(),
            DatasetView::Bitmap(d) => d.item_supports(),
            DatasetView::Sharded(d) => d.item_supports(),
        }
    }

    /// Maximum support of any single item.
    pub fn max_item_support(&self) -> u64 {
        match self {
            DatasetView::Csr(d) => d.max_item_support(),
            DatasetView::Bitmap(d) => d.max_item_support(),
            DatasetView::Sharded(d) => d.max_item_support(),
        }
    }

    /// Support of a sorted, duplicate-free itemset (empty itemsets get `t`).
    pub fn itemset_support(&self, itemset: &[ItemId]) -> u64 {
        match self {
            DatasetView::Csr(d) => d.itemset_support(itemset),
            DatasetView::Bitmap(d) => d.itemset_support(itemset),
            DatasetView::Sharded(d) => d.itemset_support(itemset),
        }
    }
}

impl<'a> From<&'a TransactionDataset> for DatasetView<'a> {
    fn from(dataset: &'a TransactionDataset) -> Self {
        DatasetView::Csr(dataset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_backends_answer_identically() {
        let csr = TransactionDataset::from_transactions(
            4,
            vec![vec![0, 1], vec![1, 2], vec![], vec![0, 1, 2, 3]],
        )
        .unwrap();
        let bitmap = BitmapDataset::from_dataset(&csr);
        let sharded = ShardedBitmapDataset::from_dataset(&csr);
        let csr_view = DatasetView::from(&csr);
        let bitmap_view = DatasetView::from(&bitmap);
        let sharded_view = DatasetView::from(&sharded);
        assert_eq!(csr_view.backend_name(), "csr");
        assert_eq!(bitmap_view.backend_name(), "bitmap");
        assert_eq!(sharded_view.backend_name(), "sharded");
        for view in [bitmap_view, sharded_view] {
            assert_eq!(csr_view.num_items(), view.num_items());
            assert_eq!(csr_view.num_transactions(), view.num_transactions());
            assert_eq!(csr_view.num_entries(), view.num_entries());
            assert_eq!(csr_view.item_supports(), view.item_supports());
            assert_eq!(csr_view.max_item_support(), view.max_item_support());
            assert!((csr_view.avg_transaction_len() - view.avg_transaction_len()).abs() < 1e-12);
            for set in [vec![], vec![1], vec![0, 1], vec![1, 2], vec![0, 3]] {
                assert_eq!(
                    csr_view.itemset_support(&set),
                    view.itemset_support(&set),
                    "itemset {set:?}"
                );
            }
        }
    }
}
