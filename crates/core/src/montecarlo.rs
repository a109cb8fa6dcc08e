//! Algorithm 1 of the paper: **FindPoissonThreshold**, the Monte-Carlo estimator of
//! the Poisson threshold `s_min` (and, as a by-product, of the Poisson means
//! `λ(s)` used by Procedure 2).
//!
//! The procedure generates Δ random datasets from the null model, mines the
//! k-itemsets with support at least `s̃` (the largest expected support of any
//! k-itemset) from each of them, and uses the pooled observations to estimate the
//! Chen–Stein bound terms `b1(s)` and `b2(s)` empirically for every threshold `s`
//! in the observed range. The estimate `ŝ_min` is the smallest `s` with
//! `b1(s) + b2(s) ≤ ε/4`; Theorem 4 shows that Δ = O(log(1/δ)/ε) replicates make
//! `ŝ_min` a conservative estimate of the true `s_min` with probability ≥ 1 − δ.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use rand::Rng;
use serde::{Deserialize, Serialize};

use sigfim_datasets::bitmap::{with_bitmap_scratch, DatasetBackend, ResolvedBackend};
use sigfim_datasets::random::NullModel;
use sigfim_datasets::sampler::{resolve_sampler, ResolvedSampler, SamplerMode};
use sigfim_datasets::transaction::ItemId;
use sigfim_exec::{substream, BatchObserver, ExecutionPolicy, NoopObserver, OffsetObserver};
use sigfim_mining::eclat::Eclat;
use sigfim_mining::miner::KItemsetMiner;
use sigfim_mining::ItemsetSupport;

use crate::lambda::MonteCarloLambda;
use crate::{CoreError, Result};

/// Configuration of Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FindPoissonThreshold {
    /// The itemset size `k`.
    pub k: usize,
    /// The variation-distance budget `ε` of Equation (1). The paper's experiments
    /// use `ε = 0.01`.
    pub epsilon: f64,
    /// The number Δ of random datasets to generate. The paper's experiments use
    /// Δ = 1000; Theorem 4 justifies Δ = O(log(1/δ)/ε).
    pub replicates: usize,
    /// Where the Δ replicate tasks (dataset generation + mining) execute. Every
    /// replicate draws from its own `(seed, index)`-addressed RNG substream, so
    /// the estimate is bit-identical under any policy — the rayon policy is just
    /// faster.
    pub policy: ExecutionPolicy,
    /// Which physical representation the replicate datasets are materialized
    /// in. `Auto` resolves from the null model's expected density; the bitmap
    /// path samples each replicate bit-sliced into a reusable per-thread
    /// buffer and mines it with the bitset Eclat. Replicates consume their RNG
    /// substreams identically under every backend, so the estimate is
    /// bit-identical whichever is chosen — the backend only decides speed.
    pub backend: DatasetBackend,
    /// Maximum number of times the mining floor `s̃` is halved when the initial
    /// floor turns out to be inside the Poisson region already (lines 19–22 of the
    /// pseudocode) or no itemset reaches it (lines 7–9).
    pub max_restarts: usize,
    /// How each replicate's random dataset is drawn. [`SamplerMode::Auto`]
    /// (the default) and `cellwise` are the legacy per-cell sampler; `gaps`
    /// is the geometric-jump sparse sampler that touches only set bits, used
    /// when the model supports it. This field is the only way to select
    /// `gaps`. The two samplers consume *different* RNG streams, so — unlike
    /// backends and policies, which are bit-identical — estimates are only
    /// reproducible within one sampler mode.
    pub sampler: SamplerMode,
}

impl FindPoissonThreshold {
    /// A configuration with the paper's `ε = 0.01` and a practical default of
    /// Δ = 64 replicates (callers reproducing the paper's tables pass Δ = 1000).
    pub fn new(k: usize) -> Self {
        FindPoissonThreshold {
            k,
            epsilon: 0.01,
            replicates: 64,
            policy: ExecutionPolicy::default(),
            backend: DatasetBackend::Auto,
            max_restarts: 4,
            sampler: SamplerMode::Auto,
        }
    }

    /// The number of replicates needed by Theorem 4 so that
    /// `Pr[b1(ŝ_min) + b2(ŝ_min) ≤ ε] ≥ 1 − δ`, namely `⌈8 ln(1/δ) / ε⌉`.
    pub fn required_replicates(epsilon: f64, delta: f64) -> usize {
        assert!(
            epsilon > 0.0 && epsilon < 1.0,
            "epsilon must be in (0,1), got {epsilon}"
        );
        assert!(
            delta > 0.0 && delta < 1.0,
            "delta must be in (0,1), got {delta}"
        );
        (8.0 * (1.0 / delta).ln() / epsilon).ceil() as usize
    }

    fn validate(&self) -> Result<()> {
        if self.k == 0 {
            return Err(CoreError::InvalidParameter {
                name: "k",
                reason: "must be >= 1".into(),
            });
        }
        if !(self.epsilon > 0.0 && self.epsilon < 1.0) {
            return Err(CoreError::InvalidParameter {
                name: "epsilon",
                reason: format!("must be in (0,1), got {}", self.epsilon),
            });
        }
        if self.replicates == 0 {
            return Err(CoreError::InvalidParameter {
                name: "replicates",
                reason: "at least one Monte-Carlo replicate is required".into(),
            });
        }
        Ok(())
    }

    /// The initial mining floor `s̃`: the largest expected support of any k-itemset,
    /// i.e. `t` times the product of the `k` largest item frequencies (at least 1).
    pub fn initial_floor<M: NullModel>(&self, model: &M) -> u64 {
        let mut freqs = model.item_frequencies();
        freqs.sort_by(|a, b| b.partial_cmp(a).expect("frequencies are finite"));
        let product: f64 = freqs.iter().take(self.k).product();
        ((model.num_transactions() as f64 * product).floor() as u64).max(1)
    }

    /// Run Algorithm 1 against the given null model.
    ///
    /// The model is anything implementing [`NullModel`]: the paper's Bernoulli
    /// reference model, the swap-randomization model of Gionis et al., or a custom
    /// generator.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for invalid configuration, and
    /// propagates mining errors.
    pub fn run<M: NullModel + Sync, R: Rng + ?Sized>(
        &self,
        model: &M,
        rng: &mut R,
    ) -> Result<ThresholdEstimate> {
        self.run_observed(model, rng, &NoopObserver)
    }

    /// Like [`FindPoissonThreshold::run`], reporting each completed Monte-Carlo
    /// replicate to `observer` (the progress hook a long-running analysis
    /// engine exposes to its callers). The observer never influences the
    /// estimate. When a restart halves the floor `s̃`, the Δ replicates run
    /// again and the observer sees a fresh `1..=Δ` count for the new round.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FindPoissonThreshold::run`].
    pub fn run_observed<M: NullModel + Sync, R: Rng + ?Sized>(
        &self,
        model: &M,
        rng: &mut R,
        observer: &dyn BatchObserver,
    ) -> Result<ThresholdEstimate> {
        // A transient store still deduplicates nothing within one run (restart
        // rounds change the floor or the batch key), so this entry point is
        // exactly the uncached Algorithm 1.
        self.run_with_store(model, rng, observer, &ObservationStore::new())
    }

    /// Like [`FindPoissonThreshold::run_observed`], retaining (and reusing)
    /// per-replicate observations in `store`. The store is a pure memo keyed
    /// by `(model fingerprint, k, resolved sampler, batch key)`: a warm entry
    /// hands back exactly the observations mining would have produced, so
    /// estimates are bit-identical with or without it. Reuse kicks in when a
    /// later run re-derives the same batch key from its seed — an ε-tightened
    /// re-query, a Δ-extension (the stored prefix is reused and only the tail
    /// replicates are mined), or a re-query at a higher floor (stored
    /// observations are filtered up to it).
    ///
    /// # Errors
    ///
    /// Same conditions as [`FindPoissonThreshold::run`].
    pub fn run_with_store<M: NullModel + Sync, R: Rng + ?Sized>(
        &self,
        model: &M,
        rng: &mut R,
        observer: &dyn BatchObserver,
        store: &ObservationStore,
    ) -> Result<ThresholdEstimate> {
        self.validate()?;
        if model.num_items() < self.k {
            return Err(CoreError::InvalidParameter {
                name: "k",
                reason: format!(
                    "itemset size {} exceeds the number of items {}",
                    self.k,
                    model.num_items()
                ),
            });
        }

        let sampler = resolve_sampler(
            self.sampler,
            model.supports_gaps_sampler(),
            model.expected_density(),
        );
        let fingerprint = model.fingerprint();
        // The gaps sampler draws one batch key per *run* and shares it across
        // restart rounds (its replicate datasets are a pure function of the
        // key, not of the mining floor). The cellwise sampler draws one key
        // per *round* from the caller's RNG — the exact consumption pattern
        // the pre-sampler parity suites pin.
        let run_key: Option<u64> = match sampler {
            ResolvedSampler::Gaps => Some(rng.random()),
            ResolvedSampler::Cellwise => None,
        };

        let mut s_tilde = self.initial_floor(model);
        // Upper cap on the search range, set when a restart is triggered because the
        // bound was already satisfied at the floor.
        let mut cap: Option<u64> = None;
        let mut restarts_left = self.max_restarts;

        loop {
            let batch_key = match run_key {
                Some(key) => key,
                None => rng.random(),
            };
            let observations = self.collect_observations(
                model,
                s_tilde,
                batch_key,
                sampler,
                fingerprint,
                observer,
                store,
            )?;
            if observations.len() == 0 {
                // Line 7-9 of the pseudocode: nothing reached the floor; halve it.
                if restarts_left == 0 || s_tilde == 1 {
                    // Degenerate but well-defined outcome: no k-itemset ever reaches
                    // even support 1; the Poisson approximation holds vacuously.
                    return Ok(ThresholdEstimate {
                        k: self.k,
                        epsilon: self.epsilon,
                        replicates: self.replicates,
                        s_tilde,
                        s_min: s_tilde,
                        pool_size: 0,
                        curve: vec![CurvePoint {
                            s: s_tilde,
                            b1: 0.0,
                            b2: 0.0,
                            lambda: 0.0,
                        }],
                    });
                }
                restarts_left -= 1;
                s_tilde = (s_tilde / 2).max(1);
                continue;
            }

            let curve = self.estimate_curve(&observations, s_tilde, cap, MAX_PAIRWISE_POOL);
            let threshold = self.epsilon / 4.0;
            let at_floor = curve.first().expect("curve covers at least one support");
            // Only meaningful when the curve really starts at the floor (it starts
            // higher when the pool had to be truncated — and in that case the bound
            // at the floor is certainly far above the threshold).
            let floor_already_poisson =
                at_floor.s == s_tilde && at_floor.b1 + at_floor.b2 <= threshold;
            if floor_already_poisson && restarts_left > 0 && s_tilde > 1 {
                // Lines 19-22: the floor is already inside the Poisson region; search
                // below it for a smaller s_min.
                restarts_left -= 1;
                cap = Some(s_tilde);
                s_tilde = (s_tilde / 2).max(1);
                continue;
            }

            // Line 23: the smallest s (strictly above the floor unless the budget for
            // restarts ran out) where the empirical bound drops under ε/4. The curve
            // always ends at a point with b1 = b2 = 0 (one past the largest observed
            // support), so a qualifying s always exists.
            let s_min = curve
                .iter()
                .find(|p| p.b1 + p.b2 <= threshold)
                .map(|p| p.s)
                // When the curve was capped by a restart and this round's estimate
                // does not quite dip under the threshold inside the capped range, the
                // cap itself (which satisfied the bound in the previous round) is the
                // conservative answer.
                .unwrap_or_else(|| cap.unwrap_or_else(|| curve.last().expect("non-empty").s));
            return Ok(ThresholdEstimate {
                k: self.k,
                epsilon: self.epsilon,
                replicates: self.replicates,
                s_tilde,
                s_min,
                pool_size: observations.len(),
                curve,
            });
        }
    }

    /// Generate the Δ random datasets, mine each at the floor, and pool the
    /// per-replicate supports of every itemset that reached the floor anywhere.
    ///
    /// Replicate `i` works exclusively from the ChaCha substream addressed by
    /// `(batch_key, i)`. The random bytes each replicate sees are therefore a
    /// function of the key and its index alone — never of scheduling — so the
    /// pooled observations are bit-identical under every [`ExecutionPolicy`].
    ///
    /// Backend dispatch happens here, once per batch: on the bitmap path each
    /// worker thread samples its replicates *directly into one reusable bitmap
    /// scratch buffer* (no CSR dataset, no per-replicate allocation once the
    /// buffer is warm) and mines them with the bitset Eclat. Both paths consume
    /// the RNG identically and mine exact supports, so they pool identical
    /// observations. The gaps sampler always rides the scratch-bitmap path —
    /// its word-wise writes *are* the bitmap — so the configured backend only
    /// shapes the cellwise dispatch.
    ///
    /// Before mining anything the batch is looked up in `store`: a stored
    /// batch for the same `(fingerprint, k, sampler, batch_key)` mined at a
    /// floor at or below this one is reused as it is (rows below this floor
    /// are skipped while pooling — exact, because supports below the floor
    /// never enter the estimates), and only missing tail replicates are mined.
    /// A batch stored at a *higher* floor cannot serve this one: the request
    /// mines every replicate afresh and replaces the entry.
    #[allow(clippy::too_many_arguments)]
    fn collect_observations<M: NullModel + Sync>(
        &self,
        model: &M,
        floor: u64,
        batch_key: u64,
        sampler: ResolvedSampler,
        fingerprint: u64,
        observer: &dyn BatchObserver,
        store: &ObservationStore,
    ) -> Result<Observations> {
        let replicates = self.replicates;
        let key = ObservationKey {
            fingerprint,
            k: self.k,
            sampler,
            batch_key,
        };

        let stored = store.get(&key).filter(|stored| stored.floor <= floor);
        let reused = stored
            .as_ref()
            .map_or(0, |stored| stored.per_replicate.len().min(replicates));
        for index in 0..reused {
            observer.task_completed(index, index + 1, replicates);
        }
        OBSERVATIONS_REUSED.fetch_add(reused as u64, Ordering::Relaxed);

        let batch = match stored {
            Some(stored) if reused == replicates => stored,
            Some(stored) => {
                // Δ-extension: the stored prefix is reused and only the tail is
                // mined — at the *stored* floor, so the refreshed entry stays
                // uniform (and keeps serving lower-floor re-queries).
                let tail_indices: Vec<u64> = (reused as u64..replicates as u64).collect();
                let offset = OffsetObserver {
                    inner: observer,
                    index_offset: reused,
                    completed_offset: reused,
                    total: replicates,
                };
                let tail = self.mine_replicates(
                    model,
                    stored.floor,
                    batch_key,
                    sampler,
                    &tail_indices,
                    &offset,
                )?;
                let mut per_replicate = stored.per_replicate.clone();
                per_replicate.extend(tail);
                let combined = Arc::new(StoredObservations {
                    floor: stored.floor,
                    per_replicate,
                });
                store.insert(key, Arc::clone(&combined));
                combined
            }
            None => {
                // Cold (or stored at a higher floor, which cannot serve this
                // one): mine every replicate at this floor and (re)store it.
                let indices: Vec<u64> = (0..replicates as u64).collect();
                let per_replicate =
                    self.mine_replicates(model, floor, batch_key, sampler, &indices, observer)?;
                let mined = Arc::new(StoredObservations {
                    floor,
                    per_replicate,
                });
                store.insert(key, Arc::clone(&mined));
                mined
            }
        };
        Ok(Observations::pool(
            &batch.per_replicate[..replicates],
            self.k,
            floor,
        ))
    }

    /// Mine the given replicate indices at `floor`: sample each replicate's
    /// dataset from its `(batch_key, index)` substream with the resolved
    /// sampler and mine the k-itemsets reaching the floor.
    ///
    /// For `k = 1` on any bitmap path the mining pass is *fused away*: both
    /// samplers return the exact per-item column supports as a by-product of
    /// writing the bitmap, and the frequent 1-itemsets are read straight off
    /// that vector.
    fn mine_replicates<M: NullModel + Sync>(
        &self,
        model: &M,
        floor: u64,
        batch_key: u64,
        sampler: ResolvedSampler,
        indices: &[u64],
        observer: &dyn BatchObserver,
    ) -> Result<Vec<Arc<ReplicateRows>>> {
        let k = self.k;
        let backend = self.backend.resolve(
            model.num_items() as u32,
            model.num_transactions(),
            model.expected_density(),
        );
        match sampler {
            ResolvedSampler::Cellwise => {
                REPLICATES_SAMPLED_CELLWISE.fetch_add(indices.len() as u64, Ordering::Relaxed)
            }
            ResolvedSampler::Gaps => {
                REPLICATES_SAMPLED_GAPS.fetch_add(indices.len() as u64, Ordering::Relaxed)
            }
        };
        let mined = self.policy.try_map_indexed_observed(
            indices,
            |_, &index| {
                let mut local = substream(batch_key, index);
                // Eclat handles the low-floor regime (s̃ close to 1 on sparse
                // data) much better than level-wise Apriori: its work is
                // proportional to the number of frequent itemsets rather than to
                // the candidate joins.
                match sampler {
                    ResolvedSampler::Cellwise => match backend {
                        ResolvedBackend::Csr => {
                            let dataset = model.sample_dataset(&mut local);
                            Eclat
                                .mine_k(&dataset, k, floor)
                                .map(ReplicateRows::from_mined)
                        }
                        // The sharded backend also rides the scratch-bitmap path
                        // here: Δ replicates already saturate the workers, so
                        // sharding *within* one replicate would only add reduce
                        // overhead — sharding pays on the observed-dataset passes
                        // of Procedure 2 instead. RNG consumption is identical, so
                        // estimates stay bit-identical across all backends.
                        ResolvedBackend::Bitmap | ResolvedBackend::ShardedBitmap => {
                            with_bitmap_scratch(|scratch| {
                                let supports =
                                    model.sample_into_bitmap_counted(&mut local, scratch);
                                if k == 1 {
                                    Ok(ReplicateRows::from_item_supports(&supports, floor))
                                } else {
                                    Eclat
                                        .mine_k_bitmap(scratch, k, floor)
                                        .map(ReplicateRows::from_mined)
                                }
                            })
                        }
                    },
                    // The gaps sampler writes the bitmap directly whatever the
                    // configured backend — the sparse walk *is* a bitmap fill.
                    ResolvedSampler::Gaps => with_bitmap_scratch(|scratch| {
                        let supports = model.sample_into_bitmap_gaps(&mut local, scratch);
                        if k == 1 {
                            Ok(ReplicateRows::from_item_supports(&supports, floor))
                        } else {
                            Eclat
                                .mine_k_bitmap(scratch, k, floor)
                                .map(ReplicateRows::from_mined)
                        }
                    }),
                }
            },
            observer,
        )?;
        Ok(mined.into_iter().map(Arc::new).collect())
    }

    /// Turn the pooled observations into empirical `b1`, `b2`, `λ` curves over
    /// `s = floor ..= s_max`, where `s_max` is one past the largest observed support
    /// (optionally clipped to `cap`). Pools larger than `pool_limit` have their
    /// reporting floor raised ([`MAX_PAIRWISE_POOL`] in every run; tests pass
    /// smaller limits).
    ///
    /// Only cells at or above the floor exist in `observations`; every absent
    /// cell is a support of 0, which is below every floor ≥ 1, so the counts are
    /// exactly those of the full pool × Δ table.
    fn estimate_curve(
        &self,
        observations: &Observations,
        floor: u64,
        cap: Option<u64>,
        pool_limit: usize,
    ) -> Vec<CurvePoint> {
        let delta = observations.replicates as f64;
        // Per pool itemset: the largest support seen in any replicate.
        let max_per_itemset = &observations.max_support;
        let max_observed = max_per_itemset.iter().copied().max().unwrap_or(floor);

        // When the floor is far below the Poisson region (s̃ rounded down to 1 on a
        // sparse dataset), the pool can contain hundreds of thousands of itemsets and
        // the pairwise b1/b2 sums become the bottleneck. Raising the *reporting*
        // floor to the support level where at most `pool_limit` itemsets remain
        // keeps the estimates exact for every s at or above that level (excluded
        // itemsets have zero tail probability there) — and the region below it is
        // irrelevant for ŝ_min because with that many co-occurring itemsets the
        // Chen–Stein bound is far above ε anyway.
        let mut effective_floor = floor;
        if max_per_itemset.len() > pool_limit {
            // The (pool_limit + 1)-th largest maximum.
            let mut maxima = max_per_itemset.clone();
            let (_, &mut nth, _) = maxima.select_nth_unstable_by(pool_limit, |a, b| b.cmp(a));
            effective_floor = nth.saturating_add(1).max(floor);
        }
        let kept: Vec<usize> = (0..max_per_itemset.len())
            .filter(|&x| max_per_itemset[x] >= effective_floor)
            .collect();

        let mut s_max = (max_observed + 1).max(effective_floor);
        if let Some(cap) = cap {
            s_max = s_max.min(cap.max(effective_floor));
        }
        let range = (s_max - effective_floor + 1) as usize;
        let bucket = |support: u64| ((support - effective_floor) as usize).min(range - 1);

        // Suffix counts per kept itemset: counts[i][j] = #replicates with support of
        // kept[i] at least (effective_floor + j).
        let counts: Vec<Vec<u32>> = kept
            .iter()
            .map(|&x| {
                let mut histogram = vec![0u32; range];
                for &(_, support) in observations.cells(x) {
                    if support >= effective_floor {
                        histogram[bucket(support)] += 1;
                    }
                }
                // histogram currently holds exact-value counts (clipped at the top);
                // convert to suffix counts.
                for j in (0..range.saturating_sub(1)).rev() {
                    histogram[j] += histogram[j + 1];
                }
                histogram
            })
            .collect();

        // Overlapping (unordered) pairs of distinct kept itemsets, as indices into
        // `kept`/`counts`.
        let overlapping: Vec<(usize, usize)> = {
            let mut pairs = Vec::new();
            for a in 0..kept.len() {
                for b in (a + 1)..kept.len() {
                    if itemsets_overlap(
                        observations.itemset(kept[a]),
                        observations.itemset(kept[b]),
                    ) {
                        pairs.push((a, b));
                    }
                }
            }
            pairs
        };

        // Pair co-occurrence suffix counts for b2: for each unordered overlapping
        // pair and each replicate where both reached the floor, bucket
        // min(support_x, support_y). Both cell lists ascend by replicate.
        let mut pair_hist = vec![0u64; range];
        for &(a, b) in &overlapping {
            let (xs, ys) = (observations.cells(kept[a]), observations.cells(kept[b]));
            let (mut i, mut j) = (0usize, 0usize);
            while i < xs.len() && j < ys.len() {
                match xs[i].0.cmp(&ys[j].0) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        let m = xs[i].1.min(ys[j].1);
                        if m >= effective_floor {
                            pair_hist[bucket(m)] += 1;
                        }
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
        for j in (0..range.saturating_sub(1)).rev() {
            pair_hist[j] += pair_hist[j + 1];
        }

        (0..range)
            .map(|j| {
                let s = effective_floor + j as u64;
                let p: Vec<f64> = counts.iter().map(|c| f64::from(c[j]) / delta).collect();
                let diagonal: f64 = p.iter().map(|&v| v * v).sum();
                let off_diagonal: f64 = overlapping.iter().map(|&(a, b)| p[a] * p[b]).sum();
                // b1 sums over *ordered* overlapping pairs including the diagonal.
                let b1 = diagonal + 2.0 * off_diagonal;
                // b2 sums E[Z_X Z_Y] over ordered pairs of distinct itemsets.
                let b2 = 2.0 * pair_hist[j] as f64 / delta;
                let lambda: f64 = counts.iter().map(|c| f64::from(c[j])).sum::<f64>() / delta;
                CurvePoint { s, b1, b2, lambda }
            })
            .collect()
    }
}

/// The largest pool size for which the quadratic pairwise `b1`/`b2` estimation is
/// carried out in full; larger pools have their reporting floor raised to the
/// support level where at most this many itemsets remain (which keeps the reported
/// curve exact — see [`FindPoissonThreshold::run`]).
pub const MAX_PAIRWISE_POOL: usize = 3_000;

/// One replicate's mined k-itemsets, flat: `k` items per itemset plus its
/// support, the itemsets in canonical (lexicographic) order.
#[derive(Debug)]
struct ReplicateRows {
    items: Vec<ItemId>,
    supports: Vec<u64>,
}

impl ReplicateRows {
    /// Flatten a miner's output, which every miner emits in canonical order.
    fn from_mined(mined: Vec<ItemsetSupport>) -> Self {
        debug_assert!(
            mined.windows(2).all(|w| w[0].items < w[1].items),
            "mined itemsets arrive sorted and distinct"
        );
        let mut rows = ReplicateRows {
            items: Vec::with_capacity(mined.iter().map(ItemsetSupport::len).sum()),
            supports: Vec::with_capacity(mined.len()),
        };
        for itemset in mined {
            rows.items.extend_from_slice(&itemset.items);
            rows.supports.push(itemset.support);
        }
        rows
    }

    /// The frequent 1-itemsets read straight off the fused per-item support
    /// vector (no mining pass): exactly what `Eclat::mine_k_bitmap` at `k = 1`
    /// would return, for any floor ≥ 1.
    fn from_item_supports(supports: &[u64], floor: u64) -> Self {
        let (items, supports) = (0..)
            .zip(supports)
            .filter(|&(_, &support)| support >= floor)
            .map(|(item, &support)| (item, support))
            .unzip();
        ReplicateRows { items, supports }
    }
}

/// Pooled Monte-Carlo observations: the itemset pool `W` and, for each pool
/// member, its non-zero `(replicate, support)` cells — the pool × Δ support
/// table stored sparsely (row offsets into one cell list).
#[derive(Debug)]
struct Observations {
    k: usize,
    replicates: usize,
    /// The pool, flat: `k` items per itemset, in lexicographic order.
    items: Vec<ItemId>,
    /// The cells of pool itemset `x` are `cells[offsets[x]..offsets[x + 1]]`.
    offsets: Vec<usize>,
    /// `(replicate, support)` for every replicate where a pool itemset
    /// reached the floor, ascending by replicate within each itemset.
    cells: Vec<(u32, u64)>,
    /// Per pool itemset: its largest support in any replicate.
    max_support: Vec<u64>,
}

impl Observations {
    /// Pool the rows of `per_replicate` (replicate `d` is `per_replicate[d]`)
    /// that reach `floor`. Each replicate's rows are sorted, so one stable
    /// sort of row references merges the Δ runs into itemset order while
    /// keeping each itemset's cells in replicate order.
    fn pool(per_replicate: &[Arc<ReplicateRows>], k: usize, floor: u64) -> Self {
        let itemset = |(d, row): (u32, u32)| {
            let start = row as usize * k;
            &per_replicate[d as usize].items[start..start + k]
        };
        let mut rows: Vec<(u32, u32)> = Vec::new();
        for (d, replicate) in (0u32..).zip(per_replicate) {
            rows.extend(
                (0u32..)
                    .zip(&replicate.supports)
                    .filter(|&(_, &support)| support >= floor)
                    .map(|(row, _)| (d, row)),
            );
        }
        rows.sort_by(|&a, &b| itemset(a).cmp(itemset(b)));

        let mut observations = Observations {
            k,
            replicates: per_replicate.len(),
            items: Vec::new(),
            offsets: Vec::new(),
            cells: Vec::with_capacity(rows.len()),
            max_support: Vec::new(),
        };
        let mut previous: Option<&[ItemId]> = None;
        for &(d, row) in &rows {
            let items = itemset((d, row));
            let support = per_replicate[d as usize].supports[row as usize];
            if previous == Some(items) {
                let max = observations
                    .max_support
                    .last_mut()
                    .expect("a repeated itemset has a pool entry");
                *max = (*max).max(support);
            } else {
                observations.offsets.push(observations.cells.len());
                observations.items.extend_from_slice(items);
                observations.max_support.push(support);
                previous = Some(items);
            }
            observations.cells.push((d, support));
        }
        observations.offsets.push(observations.cells.len());
        observations
    }

    /// The size of the pool `W`.
    fn len(&self) -> usize {
        self.max_support.len()
    }

    fn itemset(&self, x: usize) -> &[ItemId] {
        &self.items[x * self.k..(x + 1) * self.k]
    }

    fn cells(&self, x: usize) -> &[(u32, u64)] {
        &self.cells[self.offsets[x]..self.offsets[x + 1]]
    }
}

/// The identity of one mined replicate batch: which model, which itemset
/// size, which sampler (the two samplers read different RNG streams, so their
/// observations are distinct values), and which 64-bit batch key addressed
/// the replicate substreams.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ObservationKey {
    fingerprint: u64,
    k: usize,
    sampler: ResolvedSampler,
    batch_key: u64,
}

/// One stored replicate batch: every replicate's mined rows at `floor`,
/// stored once. An entry serves any request at the same key with a floor at
/// or above `floor` (rows below the request's floor are skipped while
/// pooling) and any Δ up to extension (missing tail replicates are mined and
/// appended). A request below `floor` cannot be served: it mines a fresh
/// batch at its own floor, which replaces this one.
#[derive(Debug)]
struct StoredObservations {
    /// The floor the batch was mined at — the *lowest* floor it can serve.
    floor: u64,
    /// `per_replicate[i]` holds the k-itemsets reaching the floor in
    /// replicate `i`, with their supports. Each replicate sits behind its own
    /// `Arc`, so a Δ-extension shares the stored prefix instead of copying it.
    per_replicate: Vec<Arc<ReplicateRows>>,
}

/// The default capacity of an [`ObservationStore`]: a batch holds Δ
/// replicates' flat rows (`4k + 8` bytes per mined itemset), which at a low
/// floor can reach megabytes, so the store is kept much smaller than the
/// threshold cache; a handful of entries cover a k-sweep's re-queries.
pub const DEFAULT_OBSERVATION_STORE_CAPACITY: usize = 8;

/// A bounded, shareable memo of mined replicate batches keyed by
/// `(model fingerprint, k, sampler, batch key)` — the zero-waste half of the
/// replicate pipeline. Unlike the threshold cache (which can only replay a
/// *finished* estimate for an identical configuration), this store reuses the
/// raw per-replicate observations, so an ε-tightened re-query, a Δ-extension,
/// or a restart arriving back at a served floor runs **zero** (or only the
/// tail's) new replicates. Entries hand back exactly what mining would have
/// produced, so estimates are bit-identical with or without the store.
///
/// Cloning clones the *handle*: clones share one LRU-bounded cache, which is
/// how an engine's tenants pool their observations.
#[derive(Debug, Clone)]
pub struct ObservationStore {
    inner: Arc<Mutex<ObservationCache>>,
}

impl Default for ObservationStore {
    fn default() -> Self {
        ObservationStore::new()
    }
}

impl ObservationStore {
    /// A fresh store bounded at [`DEFAULT_OBSERVATION_STORE_CAPACITY`] batches.
    pub fn new() -> Self {
        ObservationStore::with_capacity(DEFAULT_OBSERVATION_STORE_CAPACITY)
    }

    /// A fresh store bounded at `capacity` batches (LRU eviction; 0 disables
    /// retention entirely).
    pub fn with_capacity(capacity: usize) -> Self {
        ObservationStore {
            inner: Arc::new(Mutex::new(ObservationCache {
                entries: HashMap::new(),
                capacity,
                clock: 0,
            })),
        }
    }

    /// Lock the cache, recovering from poisoning: it holds plain memoized
    /// values whose invariants hold between any two operations.
    fn lock(&self) -> MutexGuard<'_, ObservationCache> {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn get(&self, key: &ObservationKey) -> Option<Arc<StoredObservations>> {
        let mut cache = self.lock();
        cache.clock += 1;
        let clock = cache.clock;
        cache.entries.get_mut(key).map(|entry| {
            entry.1 = clock;
            Arc::clone(&entry.0)
        })
    }

    fn insert(&self, key: ObservationKey, value: Arc<StoredObservations>) {
        let mut cache = self.lock();
        if cache.capacity == 0 {
            return;
        }
        cache.clock += 1;
        let clock = cache.clock;
        while !cache.entries.contains_key(&key) && cache.entries.len() >= cache.capacity {
            // sigfim-lint: allow(nondet-iteration, reason = "clock stamps are unique (monotone counter), so the minimum is order-independent")
            let lru = cache
                .entries
                .iter()
                .min_by_key(|(_, &(_, stamp))| stamp)
                .map(|(&key, _)| key)
                .expect("a non-empty cache has a least-recently-used entry");
            cache.entries.remove(&lru);
        }
        cache.entries.insert(key, (value, clock));
    }

    /// Number of replicate batches currently retained.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// True when nothing has been retained yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every retained batch (the capacity bound persists).
    pub fn clear(&self) {
        self.lock().entries.clear();
    }

    /// Whether `other` is a handle to the same underlying cache.
    pub fn shares_with(&self, other: &ObservationStore) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

/// The store's guts: entries stamped with a logical recency clock.
#[derive(Debug)]
struct ObservationCache {
    entries: HashMap<ObservationKey, (Arc<StoredObservations>, u64)>,
    capacity: usize,
    clock: u64,
}

static REPLICATES_SAMPLED_CELLWISE: AtomicU64 = AtomicU64::new(0);
static REPLICATES_SAMPLED_GAPS: AtomicU64 = AtomicU64::new(0);
static OBSERVATIONS_REUSED: AtomicU64 = AtomicU64::new(0);

/// Process-wide counters of the replicate pipeline: how many Monte-Carlo
/// replicates were actually sampled and mined, per sampler, and how many
/// per-replicate observations were served from an [`ObservationStore`]
/// instead. Monotone since process start; the service's `/v1/stats` surfaces
/// a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ReplicateStats {
    /// Replicates sampled and mined by the cellwise sampler.
    pub sampled_cellwise: u64,
    /// Replicates sampled and mined by the geometric-jump gaps sampler.
    pub sampled_gaps: u64,
    /// Per-replicate observations reused from an observation store (each one
    /// a replicate that did **not** re-sample or re-mine).
    pub observations_reused: u64,
}

impl ReplicateStats {
    /// Total replicates sampled across both samplers.
    pub fn total_sampled(&self) -> u64 {
        self.sampled_cellwise + self.sampled_gaps
    }
}

/// Snapshot of the process-wide [`ReplicateStats`] counters.
pub fn replicate_stats() -> ReplicateStats {
    ReplicateStats {
        sampled_cellwise: REPLICATES_SAMPLED_CELLWISE.load(Ordering::Relaxed),
        sampled_gaps: REPLICATES_SAMPLED_GAPS.load(Ordering::Relaxed),
        observations_reused: OBSERVATIONS_REUSED.load(Ordering::Relaxed),
    }
}

fn itemsets_overlap(a: &[ItemId], b: &[ItemId]) -> bool {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// One point of the empirical Chen–Stein curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CurvePoint {
    /// The support threshold.
    pub s: u64,
    /// Empirical `b1(s)`.
    pub b1: f64,
    /// Empirical `b2(s)`.
    pub b2: f64,
    /// Empirical `λ(s) = E[Q̂_{k,s}]`.
    pub lambda: f64,
}

/// The result of Algorithm 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThresholdEstimate {
    /// The itemset size.
    pub k: usize,
    /// The ε used.
    pub epsilon: f64,
    /// The number of Monte-Carlo replicates used.
    pub replicates: usize,
    /// The final mining floor `s̃`.
    pub s_tilde: u64,
    /// The estimated Poisson threshold `ŝ_min`.
    pub s_min: u64,
    /// Size of the pooled itemset set `W`.
    pub pool_size: usize,
    /// The empirical `b1`, `b2`, `λ` curve over the observed support range.
    pub curve: Vec<CurvePoint>,
}

impl ThresholdEstimate {
    /// The curve point at support `s`, if it is inside the estimated range.
    pub fn curve_at(&self, s: u64) -> Option<&CurvePoint> {
        self.curve.iter().find(|p| p.s == s)
    }

    /// A λ estimator backed by this estimate's curve, for use by Procedure 2.
    /// Supports beyond the curve's range (never observed in the Monte-Carlo
    /// replicates) get λ = 0.
    pub fn lambda_estimator(&self) -> MonteCarloLambda {
        let start = self.curve.first().map_or(self.s_min, |p| p.s);
        let mut values: Vec<f64> = self.curve.iter().map(|p| p.lambda).collect();
        if values.is_empty() {
            values.push(0.0);
        }
        // Guard against tiny non-monotonicities introduced by the top-bucket
        // clipping: enforce the non-increasing shape the estimator requires.
        for i in 1..values.len() {
            if values[i] > values[i - 1] {
                values[i] = values[i - 1];
            }
        }
        MonteCarloLambda::new(start, values).expect("curve values are finite and non-negative")
    }

    /// A λ estimator clamped below at the "rule of three" upper confidence bound
    /// `3 / Δ`: supports never reached in the Δ replicates get λ = 3/Δ rather
    /// than 0, so a single lucky itemset in the analyzed dataset cannot by itself
    /// produce a zero p-value. Recommended whenever Δ is small (≲ 200); with the
    /// paper's Δ = 1000 the clamp is negligible.
    pub fn conservative_lambda_estimator(&self) -> MonteCarloLambda {
        self.lambda_estimator()
            .with_floor(3.0 / self.replicates.max(1) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sigfim_datasets::random::BernoulliModel;
    use std::collections::BTreeMap;

    fn uniform_model(t: usize, n: usize, f: f64) -> BernoulliModel {
        BernoulliModel::new(t, vec![f; n]).unwrap()
    }

    /// The dense pool × Δ implementation the sparse pool replaced, kept only
    /// as an oracle: per-replicate maps filtered to the floor, a sorted pool,
    /// one support cell per (itemset, replicate) and the curve computed from
    /// those cells. Returns the pool and the curve.
    fn dense_reference(
        per_replicate: &[Arc<ReplicateRows>],
        k: usize,
        floor: u64,
        cap: Option<u64>,
        pool_limit: usize,
    ) -> (Vec<Vec<ItemId>>, Vec<CurvePoint>) {
        let maps: Vec<BTreeMap<Vec<ItemId>, u64>> = per_replicate
            .iter()
            .map(|rows| {
                (0..rows.supports.len())
                    .filter(|&j| rows.supports[j] >= floor)
                    .map(|j| (rows.items[j * k..(j + 1) * k].to_vec(), rows.supports[j]))
                    .collect()
            })
            .collect();
        let mut pool: Vec<Vec<ItemId>> = maps.iter().flat_map(|m| m.keys().cloned()).collect();
        pool.sort_unstable();
        pool.dedup();
        let supports: Vec<Vec<u64>> = pool
            .iter()
            .map(|items| {
                maps.iter()
                    .map(|m| m.get(items).copied().unwrap_or(0))
                    .collect()
            })
            .collect();
        let replicates = per_replicate.len();

        let delta = replicates as f64;
        let max_per_itemset: Vec<u64> = supports
            .iter()
            .map(|row| row.iter().copied().max().unwrap_or(0))
            .collect();
        let max_observed = max_per_itemset.iter().copied().max().unwrap_or(floor);
        let mut effective_floor = floor;
        if pool.len() > pool_limit {
            let mut sorted = max_per_itemset.clone();
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            effective_floor = sorted[pool_limit].saturating_add(1).max(floor);
        }
        let kept: Vec<usize> = (0..pool.len())
            .filter(|&x| max_per_itemset[x] >= effective_floor)
            .collect();
        let mut s_max = (max_observed + 1).max(effective_floor);
        if let Some(cap) = cap {
            s_max = s_max.min(cap.max(effective_floor));
        }
        let range = (s_max - effective_floor + 1) as usize;
        let counts: Vec<Vec<u32>> = kept
            .iter()
            .map(|&x| {
                let mut histogram = vec![0u32; range];
                for &support in &supports[x] {
                    if support >= effective_floor {
                        let idx = ((support - effective_floor) as usize).min(range - 1);
                        histogram[idx] += 1;
                    }
                }
                for j in (0..range.saturating_sub(1)).rev() {
                    histogram[j] += histogram[j + 1];
                }
                histogram
            })
            .collect();
        let mut overlapping = Vec::new();
        for a in 0..kept.len() {
            for b in (a + 1)..kept.len() {
                if itemsets_overlap(&pool[kept[a]], &pool[kept[b]]) {
                    overlapping.push((a, b));
                }
            }
        }
        let mut pair_hist = vec![0u64; range];
        for &(a, b) in &overlapping {
            let (x, y) = (kept[a], kept[b]);
            for (&sx, &sy) in supports[x].iter().zip(&supports[y]) {
                let m = sx.min(sy);
                if m >= effective_floor {
                    let idx = ((m - effective_floor) as usize).min(range - 1);
                    pair_hist[idx] += 1;
                }
            }
        }
        for j in (0..range.saturating_sub(1)).rev() {
            pair_hist[j] += pair_hist[j + 1];
        }
        let curve = (0..range)
            .map(|j| {
                let s = effective_floor + j as u64;
                let p: Vec<f64> = counts.iter().map(|c| f64::from(c[j]) / delta).collect();
                let diagonal: f64 = p.iter().map(|&v| v * v).sum();
                let off_diagonal: f64 = overlapping.iter().map(|&(a, b)| p[a] * p[b]).sum();
                let b1 = diagonal + 2.0 * off_diagonal;
                let b2 = 2.0 * pair_hist[j] as f64 / delta;
                let lambda: f64 = counts.iter().map(|c| f64::from(c[j])).sum::<f64>() / delta;
                CurvePoint { s, b1, b2, lambda }
            })
            .collect();
        (pool, curve)
    }

    /// Random replicate rows over six items, drawn from `seed`: `k`, then Δ
    /// replicates of distinct k-itemsets with supports 1..8, each replicate
    /// sorted as a miner emits it.
    fn random_rows(seed: u64) -> (usize, Vec<Arc<ReplicateRows>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let k = rng.random_range(1..=3usize);
        let replicates = rng.random_range(1..=5usize);
        let rows = (0..replicates)
            .map(|_| {
                let mut replicate = BTreeMap::new();
                for _ in 0..rng.random_range(0..10) {
                    let mask = loop {
                        let mask: u32 = rng.random_range(0..64);
                        if mask.count_ones() as usize == k {
                            break mask;
                        }
                    };
                    let items: Vec<ItemId> = (0..6).filter(|i| mask & (1 << i) != 0).collect();
                    replicate.insert(items, rng.random_range(1..8u64));
                }
                let mined = replicate
                    .into_iter()
                    .map(|(items, support)| ItemsetSupport { items, support })
                    .collect();
                Arc::new(ReplicateRows::from_mined(mined))
            })
            .collect();
        (k, rows)
    }

    fn curve_bits(curve: &[CurvePoint]) -> Vec<(u64, u64, u64, u64)> {
        curve
            .iter()
            .map(|p| (p.s, p.b1.to_bits(), p.b2.to_bits(), p.lambda.to_bits()))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn sparse_pool_matches_the_dense_reference(
            seed in 0u64..u64::MAX,
            floor in 1u64..5,
            cap in 0u64..10,
            pool_limit in 0usize..6,
        ) {
            let (k, rows) = random_rows(seed);
            // 0 stands for "no cap".
            let cap = (cap > 0).then_some(cap);
            let observations = Observations::pool(&rows, k, floor);
            let (pool, reference) = dense_reference(&rows, k, floor, cap, pool_limit);
            prop_assert_eq!(observations.len(), pool.len());
            for (x, items) in pool.iter().enumerate() {
                prop_assert_eq!(observations.itemset(x), items.as_slice());
            }
            let curve = FindPoissonThreshold::new(k).estimate_curve(&observations, floor, cap, pool_limit);
            prop_assert_eq!(curve_bits(&curve), curve_bits(&reference));
        }
    }

    #[test]
    fn required_replicates_matches_theorem4() {
        // Δ = 8 ln(1/δ) / ε.
        let d = FindPoissonThreshold::required_replicates(0.01, 0.05);
        assert_eq!(d, (8.0 * (20.0f64).ln() / 0.01).ceil() as usize);
        assert!(FindPoissonThreshold::required_replicates(0.1, 0.1) < d);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn required_replicates_rejects_bad_epsilon() {
        let _ = FindPoissonThreshold::required_replicates(0.0, 0.05);
    }

    #[test]
    fn config_validation() {
        let model = uniform_model(50, 10, 0.2);
        let mut rng = StdRng::seed_from_u64(1);
        let bad_k = FindPoissonThreshold {
            k: 0,
            ..FindPoissonThreshold::new(2)
        };
        assert!(bad_k.run(&model, &mut rng).is_err());
        let bad_eps = FindPoissonThreshold {
            epsilon: 1.5,
            ..FindPoissonThreshold::new(2)
        };
        assert!(bad_eps.run(&model, &mut rng).is_err());
        let bad_reps = FindPoissonThreshold {
            replicates: 0,
            ..FindPoissonThreshold::new(2)
        };
        assert!(bad_reps.run(&model, &mut rng).is_err());
        let k_too_large = FindPoissonThreshold::new(20);
        assert!(k_too_large.run(&model, &mut rng).is_err());
    }

    #[test]
    fn initial_floor_is_max_expected_support() {
        let model = BernoulliModel::new(1_000, vec![0.5, 0.3, 0.1, 0.01]).unwrap();
        let algo = FindPoissonThreshold::new(2);
        // Max expected pair support = 1000 * 0.5 * 0.3 = 150.
        assert_eq!(algo.initial_floor(&model), 150);
        let algo3 = FindPoissonThreshold::new(3);
        // 1000 * 0.5 * 0.3 * 0.1 = 15.
        assert_eq!(algo3.initial_floor(&model), 15);
    }

    #[test]
    fn run_produces_consistent_estimate() {
        let model = uniform_model(400, 12, 0.15);
        let algo = FindPoissonThreshold {
            replicates: 48,
            policy: ExecutionPolicy::rayon(2),
            ..FindPoissonThreshold::new(2)
        };
        let mut rng = StdRng::seed_from_u64(42);
        let estimate = algo.run(&model, &mut rng).unwrap();
        assert_eq!(estimate.k, 2);
        assert!(estimate.s_min >= estimate.s_tilde);
        // The curve covers s_min and the bound is satisfied there.
        let at_s_min = estimate.curve_at(estimate.s_min).unwrap();
        assert!(at_s_min.b1 + at_s_min.b2 <= algo.epsilon / 4.0 + 1e-12);
        // The curve is non-increasing in all three components.
        for w in estimate.curve.windows(2) {
            assert!(w[1].b1 <= w[0].b1 + 1e-9);
            assert!(w[1].b2 <= w[0].b2 + 1e-9);
            assert!(w[1].lambda <= w[0].lambda + 1e-9);
        }
        // The lambda estimator is usable and non-increasing.
        use crate::lambda::LambdaEstimator;
        let lambda = estimate.lambda_estimator();
        assert!(
            LambdaEstimator::lambda(&lambda, estimate.s_min)
                >= LambdaEstimator::lambda(&lambda, estimate.s_min + 5)
        );
    }

    #[test]
    fn estimate_is_deterministic_given_seed() {
        let model = uniform_model(300, 10, 0.2);
        let algo = FindPoissonThreshold {
            replicates: 32,
            policy: ExecutionPolicy::rayon(3),
            ..FindPoissonThreshold::new(2)
        };
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            algo.run(&model, &mut rng).unwrap()
        };
        assert_eq!(run(7), run(7));
        // Different seeds are allowed to (and generally do) differ somewhere, but we
        // only assert they are both valid rather than different.
        let other = run(8);
        assert!(other.s_min >= other.s_tilde);
    }

    #[test]
    fn empirical_s_min_tracks_exact_chen_stein() {
        // Small homogeneous configuration where the exact bound is computable: the
        // Monte-Carlo estimate should land in the same neighbourhood (within a
        // couple of support units).
        let t = 500usize;
        let n = 8usize;
        let f = 0.1f64;
        let model = uniform_model(t, n, f);
        let algo = FindPoissonThreshold {
            replicates: 400,
            ..FindPoissonThreshold::new(2)
        };
        let mut rng = StdRng::seed_from_u64(11);
        let estimate = algo.run(&model, &mut rng).unwrap();

        let exact = crate::chen_stein::ExactChenStein::new(&vec![f; n], t as u64, 2).unwrap();
        // Compare against epsilon/4, which is what Algorithm 1 targets.
        let exact_s_min = {
            let mut s = 2u64;
            while exact.bounds(s).total() > algo.epsilon / 4.0 {
                s += 1;
            }
            s
        };
        // The analytic b2 is an upper bound on E[Z_X Z_Y] whereas the Monte-Carlo
        // run estimates it directly, so the analytic s_min is conservative (larger),
        // but the two must land in the same neighbourhood.
        assert!(
            exact_s_min >= estimate.s_min,
            "analytic s_min {exact_s_min} should not be below the Monte-Carlo ŝ_min {}",
            estimate.s_min
        );
        assert!(
            exact_s_min - estimate.s_min <= 8,
            "Monte-Carlo ŝ_min = {} vs exact s_min = {exact_s_min}",
            estimate.s_min
        );
    }

    #[test]
    fn observation_store_is_a_pure_memo() {
        // With and without the store, and warm vs cold: bit-identical estimates.
        let model = uniform_model(400, 12, 0.15);
        let algo = FindPoissonThreshold {
            replicates: 24,
            ..FindPoissonThreshold::new(2)
        };
        let run_plain = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            algo.run(&model, &mut rng).unwrap()
        };
        let store = ObservationStore::new();
        let run_stored = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            algo.run_with_store(&model, &mut rng, &NoopObserver, &store)
                .unwrap()
        };
        let reference = run_plain(19);
        let cold = run_stored(19);
        let warm = run_stored(19);
        assert_eq!(cold, reference);
        assert_eq!(warm, reference);
        assert!(!store.is_empty());
    }

    #[test]
    fn delta_extension_reuses_the_stored_prefix() {
        // Extending Δ on a warm store mines only the tail — and the result is
        // bit-identical to a cold full-Δ run, because replicate substreams are
        // addressed by (batch_key, index) alone.
        let model = uniform_model(300, 10, 0.12);
        let narrow = FindPoissonThreshold {
            replicates: 16,
            ..FindPoissonThreshold::new(2)
        };
        let wide = FindPoissonThreshold {
            replicates: 28,
            ..FindPoissonThreshold::new(2)
        };
        let store = ObservationStore::new();
        let mut rng = StdRng::seed_from_u64(5);
        let _ = narrow
            .run_with_store(&model, &mut rng, &NoopObserver, &store)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let extended = wide
            .run_with_store(&model, &mut rng, &NoopObserver, &store)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let fresh = wide.run(&model, &mut rng).unwrap();
        assert_eq!(extended, fresh);
        // ... and the shrink direction reuses a prefix of the stored batch.
        let mut rng = StdRng::seed_from_u64(5);
        let narrowed = narrow
            .run_with_store(&model, &mut rng, &NoopObserver, &store)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(narrowed, narrow.run(&model, &mut rng).unwrap());
    }

    #[test]
    fn gaps_sampler_is_deterministic_and_store_compatible() {
        let model = uniform_model(500, 10, 0.03);
        let run = |threads: usize, store: &ObservationStore| {
            let algo = FindPoissonThreshold {
                replicates: 24,
                policy: ExecutionPolicy::from_threads(threads),
                sampler: SamplerMode::Gaps,
                ..FindPoissonThreshold::new(2)
            };
            let mut rng = StdRng::seed_from_u64(13);
            algo.run_with_store(&model, &mut rng, &NoopObserver, store)
                .unwrap()
        };
        let reference = run(1, &ObservationStore::new());
        for threads in [2usize, 8] {
            assert_eq!(run(threads, &ObservationStore::new()), reference);
        }
        // Warm store: same estimate again.
        let store = ObservationStore::new();
        assert_eq!(run(1, &store), reference);
        assert_eq!(run(4, &store), reference);
        // Gaps and cellwise read different RNG streams: estimates are allowed
        // to differ, but both are valid draws of the same quantity.
        let cellwise = FindPoissonThreshold {
            replicates: 24,
            sampler: SamplerMode::Cellwise,
            ..FindPoissonThreshold::new(2)
        };
        let mut rng = StdRng::seed_from_u64(13);
        let cell = cellwise.run(&model, &mut rng).unwrap();
        assert!(cell.s_min >= cell.s_tilde);
    }

    #[test]
    fn fused_k1_supports_match_the_mined_path() {
        // k = 1 reads the frequent singletons straight off the fused support
        // vector on the bitmap path; the CSR path still mines. Cross-backend
        // bit-identity therefore proves the fusion exact.
        let model = BernoulliModel::new(600, vec![0.2, 0.1, 0.05, 0.3, 0.15]).unwrap();
        let run = |backend: DatasetBackend| {
            let algo = FindPoissonThreshold {
                replicates: 32,
                backend,
                ..FindPoissonThreshold::new(1)
            };
            let mut rng = StdRng::seed_from_u64(23);
            algo.run(&model, &mut rng).unwrap()
        };
        let csr = run(DatasetBackend::Csr);
        let bitmap = run(DatasetBackend::Bitmap);
        assert_eq!(csr, bitmap);
        assert!(bitmap.pool_size > 0);
    }

    #[test]
    fn observation_store_is_lru_bounded() {
        let store = ObservationStore::with_capacity(2);
        let model = uniform_model(100, 6, 0.1);
        let algo = FindPoissonThreshold {
            replicates: 4,
            ..FindPoissonThreshold::new(2)
        };
        for seed in 0..5u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let _ = algo
                .run_with_store(&model, &mut rng, &NoopObserver, &store)
                .unwrap();
        }
        assert!(store.len() <= 2);
        store.clear();
        assert!(store.is_empty());
        // Capacity 0 disables retention entirely.
        let disabled = ObservationStore::with_capacity(0);
        let mut rng = StdRng::seed_from_u64(1);
        let _ = algo
            .run_with_store(&model, &mut rng, &NoopObserver, &disabled)
            .unwrap();
        assert!(disabled.is_empty());
        // Handle semantics: clones share, fresh stores do not.
        assert!(store.shares_with(&store.clone()));
        assert!(!store.shares_with(&disabled));
    }

    #[test]
    fn replicate_stats_count_sampled_replicates() {
        let before = replicate_stats();
        let model = uniform_model(200, 8, 0.1);
        let algo = FindPoissonThreshold {
            replicates: 8,
            ..FindPoissonThreshold::new(2)
        };
        let mut rng = StdRng::seed_from_u64(2);
        let _ = algo.run(&model, &mut rng).unwrap();
        let after = replicate_stats();
        // Counters are process-global and other tests run concurrently, so
        // only monotone growth by at least our own batch is assertable.
        assert!(after.sampled_cellwise >= before.sampled_cellwise + 8);
        assert!(after.total_sampled() >= before.total_sampled() + 8);

        let gaps = FindPoissonThreshold {
            replicates: 8,
            sampler: SamplerMode::Gaps,
            ..FindPoissonThreshold::new(2)
        };
        let store = ObservationStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let _ = gaps
            .run_with_store(&model, &mut rng, &NoopObserver, &store)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let _ = gaps
            .run_with_store(&model, &mut rng, &NoopObserver, &store)
            .unwrap();
        let reused = replicate_stats();
        assert!(reused.sampled_gaps >= after.sampled_gaps + 8);
        assert!(reused.observations_reused >= after.observations_reused + 8);
    }

    #[test]
    fn sparse_model_with_no_frequent_itemsets_degenerates_gracefully() {
        // Frequencies so small that no pair ever reaches support 1 in 20 transactions
        // with overwhelming probability: the degenerate path must terminate.
        let model = uniform_model(20, 6, 1e-4);
        let algo = FindPoissonThreshold {
            replicates: 8,
            max_restarts: 2,
            ..FindPoissonThreshold::new(2)
        };
        let mut rng = StdRng::seed_from_u64(3);
        let estimate = algo.run(&model, &mut rng).unwrap();
        assert_eq!(estimate.pool_size, 0);
        assert_eq!(estimate.s_min, 1);
    }
}
