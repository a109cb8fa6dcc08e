//! The [`NullModel`] abstraction: anything that can generate random datasets to
//! compare the real dataset against.
//!
//! The paper's reference model ([`BernoulliModel`], §1.1) keeps the number of
//! transactions and the individual item frequencies and drops all correlations. The
//! paper also points at an alternative null model (Gionis et al., discussed in
//! §1.1 and §1.4): *swap randomization*, which additionally preserves the exact
//! transaction lengths by shuffling the bipartite incidence graph with
//! margin-preserving swaps, and notes that "conceivably, the technique of this paper
//! could be adapted to this latter model as well". The [`SwapRandomizationModel`]
//! here is exactly that adaptation: plugging it into Algorithm 1 and Procedure 2
//! yields the paper's methodology under the swap null.

use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};

use crate::bitmap::BitmapDataset;
use crate::random::bernoulli::BernoulliModel;
use crate::random::swap::{swap_randomize, swap_randomize_into_bitmap};
use crate::transaction::{ItemId, TransactionDataset};
use crate::{DatasetError, Result};

/// Stable 64-bit FNV-1a accumulator backing [`NullModel::fingerprint`].
///
/// Not cryptographic — fingerprints only need to separate the null models one
/// process caches against each other (a long-running analysis engine keys its
/// `ThresholdEstimate` cache by them), and they must be stable across runs,
/// platforms and thread counts, which `std`'s randomized hashers are not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelFingerprint(u64);

impl ModelFingerprint {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;

    /// Start an accumulator from a per-model-type tag, so models of different
    /// kinds that happen to share marginals do not collide.
    pub fn new(tag: u64) -> Self {
        ModelFingerprint(Self::OFFSET).mix(tag)
    }

    /// Fold one 64-bit value into the fingerprint (byte-wise FNV-1a).
    #[must_use]
    pub fn mix(self, value: u64) -> Self {
        let mut h = self.0;
        for byte in value.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(Self::PRIME);
        }
        ModelFingerprint(h)
    }

    /// Fold one float into the fingerprint via its exact bit pattern.
    #[must_use]
    pub fn mix_f64(self, value: f64) -> Self {
        self.mix(value.to_bits())
    }

    /// The accumulated 64-bit fingerprint.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// A generator of random datasets sharing agreed marginal statistics with a real
/// dataset. This is the input type of Algorithm 1 (FindPoissonThreshold): anything
/// implementing it can serve as the null hypothesis of the significance analysis.
pub trait NullModel {
    /// The number of items in the universe.
    fn num_items(&self) -> usize;

    /// The number of transactions of every generated dataset.
    fn num_transactions(&self) -> usize;

    /// The expected frequency of each item in a generated dataset (used to seed the
    /// support floor `s̃` of Algorithm 1 with the largest expected k-itemset
    /// support).
    fn item_frequencies(&self) -> Vec<f64>;

    /// Draw one random dataset.
    fn sample_dataset<R: Rng + ?Sized>(&self, rng: &mut R) -> TransactionDataset
    where
        Self: Sized;

    /// Draw one random dataset directly into a (reusable) vertical bitmap.
    ///
    /// Implementations must consume the RNG exactly as
    /// [`NullModel::sample_dataset`] does and produce the same incidences, so a
    /// Monte-Carlo run is bit-identical whichever representation its replicates
    /// are materialized in. The default samples through the CSR path and copies
    /// the result into `out` (still reusing `out`'s buffer); models that can
    /// generate column-wise override it to skip the CSR detour entirely
    /// ([`BernoulliModel`] does).
    fn sample_into_bitmap<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut BitmapDataset)
    where
        Self: Sized,
    {
        let dataset = self.sample_dataset(rng);
        out.fill_from_dataset(&dataset);
    }

    /// Whether this model can sample through the geometric-jump (`gaps`)
    /// sparse sampler. `false` by default; models whose incidences are
    /// independent Bernoulli cells ([`BernoulliModel`]) override it, and
    /// sampler resolution ([`crate::sampler::resolve_sampler`]) only ever
    /// dispatches `gaps` when this is `true`.
    fn supports_gaps_sampler(&self) -> bool {
        false
    }

    /// [`NullModel::sample_into_bitmap`] with the k = 1 support pass fused
    /// in: returns each item's exact column support alongside the filled
    /// bitmap, consuming the RNG identically. The default samples and then
    /// rescans the columns; models that know the counts as they sample
    /// override it ([`BernoulliModel`]'s binomial draw *is* the support, the
    /// swap model's column margins are the reference's).
    fn sample_into_bitmap_counted<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        out: &mut BitmapDataset,
    ) -> Vec<u64>
    where
        Self: Sized,
    {
        self.sample_into_bitmap(rng, out);
        out.item_supports()
    }

    /// Geometric-jump sparse sampling with fused counting — a **different
    /// RNG stream** than the cellwise methods. Only meaningful when
    /// [`NullModel::supports_gaps_sampler`] is `true`; the default falls
    /// back to the cellwise counted sampler, which is safe because sampler
    /// resolution never dispatches `gaps` to a model without support.
    fn sample_into_bitmap_gaps<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        out: &mut BitmapDataset,
    ) -> Vec<u64>
    where
        Self: Sized,
    {
        self.sample_into_bitmap_counted(rng, out)
    }

    /// The expected fraction of set bits in a generated incidence matrix (the
    /// mean item frequency) — the density the
    /// [`crate::bitmap::DatasetBackend::resolve`] heuristic needs *before* any
    /// replicate is generated.
    fn expected_density(&self) -> f64 {
        let frequencies = self.item_frequencies();
        if frequencies.is_empty() {
            0.0
        } else {
            frequencies.iter().sum::<f64>() / frequencies.len() as f64
        }
    }

    /// A stable 64-bit fingerprint of the model's identity: two models with the
    /// same fingerprint generate the same distribution of random datasets, so a
    /// Monte-Carlo estimate computed against one is valid for the other. This
    /// is what a long-running analysis engine keys its `ThresholdEstimate`
    /// cache by.
    ///
    /// The default hashes the marginals the trait exposes — `t`, `n` and the
    /// exact bit patterns of the item frequencies — which fully determines the
    /// paper's Bernoulli model. Models whose distribution depends on more than
    /// the marginals (the swap-randomization model depends on the entire
    /// reference matrix, for example) **must** override this to hash that extra
    /// state too.
    fn fingerprint(&self) -> u64 {
        // Tag: "independent-marginals default".
        let mut fp = ModelFingerprint::new(0x6d61_7267_696e_616c)
            .mix(self.num_transactions() as u64)
            .mix(self.num_items() as u64);
        for f in self.item_frequencies() {
            fp = fp.mix_f64(f);
        }
        fp.finish()
    }
}

/// The object-safe face of [`NullModel`]: what a multi-tenant service stores
/// and routes when the concrete model type must not leak into signatures.
///
/// [`NullModel`] itself is not object-safe — its sampling methods are generic
/// over the RNG — so this companion trait monomorphizes them to
/// `&mut dyn RngCore`. Every `NullModel` that is `Send + Sync` implements it
/// automatically (blanket impl), and a [`BoxedNullModel`] implements
/// `NullModel` again by delegation, so dyn-erased models plug into Algorithm 1,
/// the engine, and every other generic consumer unchanged:
///
/// ```
/// use sigfim_datasets::random::{BernoulliModel, BoxedNullModel, NullModel};
///
/// let erased: BoxedNullModel = Box::new(BernoulliModel::new(50, vec![0.1; 4]).unwrap());
/// // The erased model is a NullModel like any other — same fingerprint, same
/// // samples, uniformly storable alongside models of other concrete types.
/// assert_eq!(
///     erased.fingerprint(),
///     BernoulliModel::new(50, vec![0.1; 4]).unwrap().fingerprint()
/// );
/// ```
pub trait DynNullModel: Send + Sync {
    /// See [`NullModel::num_items`].
    fn num_items_dyn(&self) -> usize;

    /// See [`NullModel::num_transactions`].
    fn num_transactions_dyn(&self) -> usize;

    /// See [`NullModel::item_frequencies`].
    fn item_frequencies_dyn(&self) -> Vec<f64>;

    /// [`NullModel::sample_dataset`] with the RNG type erased. Implementations
    /// must consume the RNG exactly as the generic method does.
    fn sample_dataset_dyn(&self, rng: &mut dyn RngCore) -> TransactionDataset;

    /// [`NullModel::sample_into_bitmap`] with the RNG type erased.
    fn sample_into_bitmap_dyn(&self, rng: &mut dyn RngCore, out: &mut BitmapDataset);

    /// See [`NullModel::supports_gaps_sampler`].
    fn supports_gaps_sampler_dyn(&self) -> bool;

    /// [`NullModel::sample_into_bitmap_counted`] with the RNG type erased.
    fn sample_into_bitmap_counted_dyn(
        &self,
        rng: &mut dyn RngCore,
        out: &mut BitmapDataset,
    ) -> Vec<u64>;

    /// [`NullModel::sample_into_bitmap_gaps`] with the RNG type erased.
    fn sample_into_bitmap_gaps_dyn(
        &self,
        rng: &mut dyn RngCore,
        out: &mut BitmapDataset,
    ) -> Vec<u64>;

    /// See [`NullModel::expected_density`].
    fn expected_density_dyn(&self) -> f64;

    /// See [`NullModel::fingerprint`].
    fn fingerprint_dyn(&self) -> u64;
}

impl<M: NullModel + Send + Sync> DynNullModel for M {
    fn num_items_dyn(&self) -> usize {
        NullModel::num_items(self)
    }

    fn num_transactions_dyn(&self) -> usize {
        NullModel::num_transactions(self)
    }

    fn item_frequencies_dyn(&self) -> Vec<f64> {
        NullModel::item_frequencies(self)
    }

    fn sample_dataset_dyn(&self, rng: &mut dyn RngCore) -> TransactionDataset {
        self.sample_dataset(rng)
    }

    fn sample_into_bitmap_dyn(&self, rng: &mut dyn RngCore, out: &mut BitmapDataset) {
        self.sample_into_bitmap(rng, out);
    }

    fn supports_gaps_sampler_dyn(&self) -> bool {
        NullModel::supports_gaps_sampler(self)
    }

    fn sample_into_bitmap_counted_dyn(
        &self,
        rng: &mut dyn RngCore,
        out: &mut BitmapDataset,
    ) -> Vec<u64> {
        self.sample_into_bitmap_counted(rng, out)
    }

    fn sample_into_bitmap_gaps_dyn(
        &self,
        rng: &mut dyn RngCore,
        out: &mut BitmapDataset,
    ) -> Vec<u64> {
        self.sample_into_bitmap_gaps(rng, out)
    }

    fn expected_density_dyn(&self) -> f64 {
        NullModel::expected_density(self)
    }

    fn fingerprint_dyn(&self) -> u64 {
        NullModel::fingerprint(self)
    }
}

/// An owned, type-erased null model: the uniform currency of engine registries
/// and service front-ends. See [`DynNullModel`].
pub type BoxedNullModel = Box<dyn DynNullModel>;

/// Erased models debug-print their marginal identity (the concrete type is
/// gone by design); this keeps containers of erased engines debuggable.
impl std::fmt::Debug for dyn DynNullModel + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DynNullModel")
            .field("transactions", &self.num_transactions_dyn())
            .field("items", &self.num_items_dyn())
            .field(
                "fingerprint",
                &format_args!("{:#018x}", self.fingerprint_dyn()),
            )
            .finish_non_exhaustive()
    }
}

/// A boxed dyn model is a [`NullModel`] again: erasure is transparent to every
/// generic consumer (Algorithm 1, the analysis engine).
/// Fingerprints, samples and RNG consumption are those of the wrapped model,
/// so results — and threshold-cache keys — are identical to the unerased path.
impl<'a> NullModel for Box<dyn DynNullModel + 'a> {
    fn num_items(&self) -> usize {
        (**self).num_items_dyn()
    }

    fn num_transactions(&self) -> usize {
        (**self).num_transactions_dyn()
    }

    fn item_frequencies(&self) -> Vec<f64> {
        (**self).item_frequencies_dyn()
    }

    fn sample_dataset<R: Rng + ?Sized>(&self, rng: &mut R) -> TransactionDataset {
        // `&mut R` is Sized and itself an RngCore, so it coerces to the trait
        // object the dyn boundary needs even when `R` is unsized.
        let mut rng = rng;
        (**self).sample_dataset_dyn(&mut rng)
    }

    fn sample_into_bitmap<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut BitmapDataset) {
        let mut rng = rng;
        (**self).sample_into_bitmap_dyn(&mut rng, out);
    }

    fn supports_gaps_sampler(&self) -> bool {
        (**self).supports_gaps_sampler_dyn()
    }

    fn sample_into_bitmap_counted<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        out: &mut BitmapDataset,
    ) -> Vec<u64> {
        let mut rng = rng;
        (**self).sample_into_bitmap_counted_dyn(&mut rng, out)
    }

    fn sample_into_bitmap_gaps<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        out: &mut BitmapDataset,
    ) -> Vec<u64> {
        let mut rng = rng;
        (**self).sample_into_bitmap_gaps_dyn(&mut rng, out)
    }

    fn expected_density(&self) -> f64 {
        (**self).expected_density_dyn()
    }

    fn fingerprint(&self) -> u64 {
        (**self).fingerprint_dyn()
    }
}

/// Every shared reference to a null model is itself a null model: this is what
/// lets borrowing callers (`AnalysisEngine::with_model(dataset, &model)`)
/// reuse an owned-model API without cloning.
impl<M: NullModel> NullModel for &M {
    fn num_items(&self) -> usize {
        (**self).num_items()
    }

    fn num_transactions(&self) -> usize {
        (**self).num_transactions()
    }

    fn item_frequencies(&self) -> Vec<f64> {
        (**self).item_frequencies()
    }

    fn sample_dataset<R: Rng + ?Sized>(&self, rng: &mut R) -> TransactionDataset {
        (**self).sample_dataset(rng)
    }

    fn sample_into_bitmap<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut BitmapDataset) {
        (**self).sample_into_bitmap(rng, out);
    }

    fn supports_gaps_sampler(&self) -> bool {
        (**self).supports_gaps_sampler()
    }

    fn sample_into_bitmap_counted<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        out: &mut BitmapDataset,
    ) -> Vec<u64> {
        (**self).sample_into_bitmap_counted(rng, out)
    }

    fn sample_into_bitmap_gaps<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        out: &mut BitmapDataset,
    ) -> Vec<u64> {
        (**self).sample_into_bitmap_gaps(rng, out)
    }

    fn expected_density(&self) -> f64 {
        (**self).expected_density()
    }

    fn fingerprint(&self) -> u64 {
        (**self).fingerprint()
    }
}

impl NullModel for BernoulliModel {
    fn num_items(&self) -> usize {
        BernoulliModel::num_items(self)
    }

    fn num_transactions(&self) -> usize {
        BernoulliModel::num_transactions(self)
    }

    fn item_frequencies(&self) -> Vec<f64> {
        self.frequencies().to_vec()
    }

    fn sample_dataset<R: Rng + ?Sized>(&self, rng: &mut R) -> TransactionDataset {
        self.sample(rng)
    }

    fn sample_into_bitmap<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut BitmapDataset) {
        BernoulliModel::sample_into_bitmap(self, rng, out);
    }

    /// Every incidence is an independent Bernoulli cell, exactly what the
    /// geometric-jump sampler draws.
    fn supports_gaps_sampler(&self) -> bool {
        true
    }

    fn sample_into_bitmap_counted<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        out: &mut BitmapDataset,
    ) -> Vec<u64> {
        BernoulliModel::sample_into_bitmap_counted(self, rng, out)
    }

    fn sample_into_bitmap_gaps<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        out: &mut BitmapDataset,
    ) -> Vec<u64> {
        BernoulliModel::sample_into_bitmap_gaps(self, rng, out)
    }
}

/// The swap-randomization null model of Gionis et al.: every sample is obtained from
/// the reference dataset by a long sequence of margin-preserving swaps, so item
/// supports **and** transaction lengths are exactly those of the reference dataset,
/// while higher-order correlations are destroyed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SwapRandomizationModel {
    reference: TransactionDataset,
    attempts: usize,
}

impl SwapRandomizationModel {
    /// A model that randomizes `reference` using `swaps_per_entry` swap attempts per
    /// (transaction, item) incidence. The literature's rule of thumb is a small
    /// constant multiple of the number of incidences; 2–4 is enough to mix
    /// market-basket-sized datasets.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::InvalidParameter`] if the reference dataset has no
    /// incidences or `swaps_per_entry` is not positive.
    pub fn new(reference: TransactionDataset, swaps_per_entry: f64) -> Result<Self> {
        if reference.num_entries() == 0 {
            return Err(DatasetError::InvalidParameter {
                name: "reference",
                reason: "swap randomization needs a dataset with at least one incidence".into(),
            });
        }
        if !(swaps_per_entry > 0.0) {
            return Err(DatasetError::InvalidParameter {
                name: "swaps_per_entry",
                reason: format!("must be > 0, got {swaps_per_entry}"),
            });
        }
        let attempts = (reference.num_entries() as f64 * swaps_per_entry).ceil() as usize;
        Ok(SwapRandomizationModel {
            reference,
            attempts,
        })
    }

    /// The reference dataset whose margins every sample preserves.
    pub fn reference(&self) -> &TransactionDataset {
        &self.reference
    }

    /// The number of swap attempts per sample.
    pub fn attempts(&self) -> usize {
        self.attempts
    }
}

std::thread_local! {
    /// Reusable edge-list scratch for the bitmap swap sampler: one mutable
    /// `(transaction, item)` list per thread, refilled from the reference
    /// dataset on every sample so a warm Monte-Carlo replicate loop allocates
    /// nothing per replicate (mirroring the per-thread bitmap scratch).
    static SWAP_EDGE_SCRATCH: std::cell::RefCell<Vec<(u32, ItemId)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

impl NullModel for SwapRandomizationModel {
    fn num_items(&self) -> usize {
        self.reference.num_items() as usize
    }

    fn num_transactions(&self) -> usize {
        self.reference.num_transactions()
    }

    fn item_frequencies(&self) -> Vec<f64> {
        self.reference.item_frequencies()
    }

    fn sample_dataset<R: Rng + ?Sized>(&self, rng: &mut R) -> TransactionDataset {
        swap_randomize(&self.reference, self.attempts, rng)
    }

    /// Native bit-column sampling: the reference matrix is copied into `out`
    /// once and every successful swap is two row-bit flips per affected column
    /// (no CSR dataset is ever materialized). Draws from `rng` exactly as
    /// [`SwapRandomizationModel::sample_dataset`] does, so estimates are
    /// bit-identical across backends.
    fn sample_into_bitmap<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut BitmapDataset) {
        SWAP_EDGE_SCRATCH.with(|cell| {
            let mut edges = cell.borrow_mut();
            swap_randomize_into_bitmap(&self.reference, self.attempts, rng, out, &mut edges);
        });
    }

    /// Margin-preserving swaps keep every column support exactly at the
    /// reference's, so the fused k = 1 pass is the reference margin vector —
    /// no rescan of the sampled matrix at all.
    fn sample_into_bitmap_counted<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        out: &mut BitmapDataset,
    ) -> Vec<u64> {
        self.sample_into_bitmap(rng, out);
        self.reference.item_supports()
    }

    /// The swap null's distribution is determined by the *entire* reference
    /// incidence matrix (plus the mixing length), not just the marginals, so
    /// the fingerprint hashes every transaction of the reference dataset.
    fn fingerprint(&self) -> u64 {
        // Tag: "swap-randomization".
        let mut fp = ModelFingerprint::new(0x7377_6170_7261_6e64)
            .mix(self.reference.num_transactions() as u64)
            .mix(u64::from(self.reference.num_items()))
            .mix(self.attempts as u64);
        for txn in self.reference.iter() {
            fp = fp.mix(txn.len() as u64);
            for &item in txn {
                fp = fp.mix(u64::from(item));
            }
        }
        fp.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn reference() -> TransactionDataset {
        TransactionDataset::from_transactions(
            6,
            vec![
                vec![0, 1, 2],
                vec![0, 1],
                vec![2, 3, 4],
                vec![0, 5],
                vec![1, 3],
                vec![2, 4, 5],
            ],
        )
        .unwrap()
    }

    #[test]
    fn bernoulli_model_implements_null_model() {
        let model = BernoulliModel::new(100, vec![0.1, 0.2, 0.3]).unwrap();
        assert_eq!(NullModel::num_items(&model), 3);
        assert_eq!(NullModel::num_transactions(&model), 100);
        assert_eq!(NullModel::item_frequencies(&model), vec![0.1, 0.2, 0.3]);
        let mut rng = StdRng::seed_from_u64(1);
        let sample = model.sample_dataset(&mut rng);
        assert_eq!(sample.num_transactions(), 100);
    }

    #[test]
    fn swap_model_preserves_both_margins() {
        let reference = reference();
        let model = SwapRandomizationModel::new(reference.clone(), 4.0).unwrap();
        assert_eq!(model.attempts(), reference.num_entries() * 4);
        assert_eq!(
            NullModel::item_frequencies(&model),
            reference.item_frequencies()
        );
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..5 {
            let sample = model.sample_dataset(&mut rng);
            // Column margins (item supports) are preserved exactly...
            assert_eq!(sample.item_supports(), reference.item_supports());
            // ... and so are row margins (transaction lengths).
            let mut ref_lengths: Vec<usize> = reference.iter().map(|t| t.len()).collect();
            let mut sample_lengths: Vec<usize> = sample.iter().map(|t| t.len()).collect();
            ref_lengths.sort_unstable();
            sample_lengths.sort_unstable();
            assert_eq!(ref_lengths, sample_lengths);
        }
    }

    #[test]
    fn swap_model_validation() {
        let empty = TransactionDataset::empty(4);
        assert!(SwapRandomizationModel::new(empty, 2.0).is_err());
        assert!(SwapRandomizationModel::new(reference(), 0.0).is_err());
        assert!(SwapRandomizationModel::new(reference(), -1.0).is_err());
    }

    #[test]
    fn default_bitmap_sampling_matches_csr_sampling() {
        // The swap model's native bit-column sampler: same RNG consumption, same
        // incidences as the CSR sampler, with the swaps applied as bit flips.
        let model = SwapRandomizationModel::new(reference(), 4.0).unwrap();
        let csr = model.sample_dataset(&mut StdRng::seed_from_u64(13));
        let mut bitmap = BitmapDataset::new(0, 0);
        model.sample_into_bitmap(&mut StdRng::seed_from_u64(13), &mut bitmap);
        assert_eq!(bitmap.to_transaction_dataset(), csr);
        // The expected density equals the mean reference frequency.
        let mean =
            reference().item_frequencies().iter().sum::<f64>() / reference().num_items() as f64;
        assert!((model.expected_density() - mean).abs() < 1e-12);
    }

    #[test]
    fn fingerprints_separate_models_and_are_stable() {
        let a = BernoulliModel::new(100, vec![0.1, 0.2, 0.3]).unwrap();
        let b = BernoulliModel::new(100, vec![0.1, 0.2, 0.3]).unwrap();
        // Identity: same model state, same fingerprint, run after run.
        assert_eq!(a.fingerprint(), b.fingerprint());
        // A reference to a model fingerprints like the model itself (the
        // blanket `impl NullModel for &M` delegates).
        let by_ref: &BernoulliModel = &a;
        assert_eq!(NullModel::fingerprint(&by_ref), a.fingerprint());
        // Any marginal change moves the fingerprint.
        let other_t = BernoulliModel::new(101, vec![0.1, 0.2, 0.3]).unwrap();
        let other_f = BernoulliModel::new(100, vec![0.1, 0.2, 0.30001]).unwrap();
        assert_ne!(a.fingerprint(), other_t.fingerprint());
        assert_ne!(a.fingerprint(), other_f.fingerprint());

        // The swap model hashes the full reference matrix: two references with
        // identical marginals but different co-occurrence structure differ.
        let ref_a = TransactionDataset::from_transactions(
            4,
            vec![vec![0, 1], vec![2, 3], vec![0], vec![2]],
        )
        .unwrap();
        let ref_b = TransactionDataset::from_transactions(
            4,
            vec![vec![0, 3], vec![2, 1], vec![0], vec![2]],
        )
        .unwrap();
        assert_eq!(ref_a.item_frequencies(), ref_b.item_frequencies());
        let swap_a = SwapRandomizationModel::new(ref_a.clone(), 2.0).unwrap();
        let swap_b = SwapRandomizationModel::new(ref_b, 2.0).unwrap();
        assert_ne!(swap_a.fingerprint(), swap_b.fingerprint());
        // ... and the mixing length is part of the identity too.
        let longer = SwapRandomizationModel::new(ref_a.clone(), 4.0).unwrap();
        assert_ne!(swap_a.fingerprint(), longer.fingerprint());
        // A Bernoulli model with the same marginals as a swap model never
        // collides with it (distinct type tags).
        assert_ne!(
            swap_a.fingerprint(),
            BernoulliModel::from_dataset(&ref_a).fingerprint()
        );
    }

    #[test]
    fn boxed_models_sample_and_fingerprint_like_their_concrete_selves() {
        // Erasure transparency: a Box<dyn DynNullModel> is a NullModel whose
        // samples (CSR and bitmap), marginals and fingerprint are bit-identical
        // to the wrapped model's — the property that makes dyn-erased engines
        // interchangeable with generic ones.
        let concrete = BernoulliModel::new(120, vec![0.08; 10]).unwrap();
        let erased: BoxedNullModel = Box::new(concrete.clone());
        assert_eq!(NullModel::num_items(&erased), 10);
        assert_eq!(NullModel::num_transactions(&erased), 120);
        assert_eq!(
            NullModel::item_frequencies(&erased),
            NullModel::item_frequencies(&concrete)
        );
        assert_eq!(erased.fingerprint(), concrete.fingerprint());
        assert!((erased.expected_density() - concrete.expected_density()).abs() < 1e-15);

        let direct = concrete.sample_dataset(&mut StdRng::seed_from_u64(40));
        let through_box = erased.sample_dataset(&mut StdRng::seed_from_u64(40));
        assert_eq!(direct, through_box);

        let mut direct_bitmap = BitmapDataset::new(0, 0);
        let mut boxed_bitmap = BitmapDataset::new(0, 0);
        concrete.sample_into_bitmap(&mut StdRng::seed_from_u64(41), &mut direct_bitmap);
        erased.sample_into_bitmap(&mut StdRng::seed_from_u64(41), &mut boxed_bitmap);
        assert_eq!(direct_bitmap, boxed_bitmap);

        // Models of different concrete types are storable side by side — the
        // point of the erasure.
        let swap: BoxedNullModel = Box::new(SwapRandomizationModel::new(reference(), 2.0).unwrap());
        let shelf: Vec<BoxedNullModel> = vec![erased, swap];
        assert_ne!(shelf[0].fingerprint(), shelf[1].fingerprint());

        // A borrowed model erases too: `&M` is a
        // NullModel, hence boxable without cloning the model.
        let borrowed: Box<dyn DynNullModel + '_> = Box::new(&concrete);
        assert_eq!(borrowed.fingerprint(), concrete.fingerprint());
        assert_eq!(
            NullModel::sample_dataset(&borrowed, &mut StdRng::seed_from_u64(40)),
            direct
        );
    }

    #[test]
    fn swap_model_actually_randomizes() {
        // With enough swaps at least one sample differs from the reference (the toy
        // dataset has many valid swaps).
        let reference = reference();
        let model = SwapRandomizationModel::new(reference.clone(), 8.0).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let changed = (0..5).any(|_| model.sample_dataset(&mut rng) != reference);
        assert!(changed, "swap randomization never changed the dataset");
    }
}
