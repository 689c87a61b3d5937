//! Cached adaptive selection: memoizing STL′, the expensive primitive.
//!
//! A fresh [`StlSelector`] runs the STL′ dynamic program three to six times
//! per selection — tens of microseconds each, several times what a static
//! policy spends on the whole transaction. This module makes adaptive
//! concurrency control pay for itself by splitting the selector into three
//! very different cadences:
//!
//! * **Memoized decide** (every selection): clone the current [`Epoch`]'s
//!   `Arc`, collapse the transaction to its [`ShapeSummary`] and run the
//!   closed form of [`evaluate_decision_with`] — powers, conditional loss,
//!   argmin — over the epoch's [`StlTable`] instead of over the dynamic
//!   program. An epoch is immutable apart from its table, and the table is
//!   filled through `&self`: a miss runs its dynamic program with nothing
//!   held and stores the value with one swap into the slot its loss bucket
//!   indexes. Two threads that miss the same slot both compute it — the
//!   program is a pure function of the slot, so they store the same bits.
//! * **Request** (when a selection notices a re-fit is due: `epoch_commits`
//!   commits since the fit, or every `drift_check_every`-th selection for
//!   the scalar drift probe): one flag is raised,
//!   [`CachedStlSelector::select_published`] returns, and selections keep
//!   reading the epoch they have.
//! * **Re-fit, pre-warm, publish** (whoever answers the request — the
//!   runtime's refitter thread through
//!   [`CachedStlSelector::serve_request`]): re-check that the re-fit is
//!   still due, snapshot the [`StlModel`], the per-protocol
//!   [`MethodParamSet`] and the per-item rate table out of the live
//!   metrics into an [`EpochSnapshot`], recompute against it every table
//!   entry the previous epoch was asked for, and only then swap the
//!   published `Arc` under a write lock held for the swap alone. The first
//!   selections of the new epoch therefore hit.
//!
//! [`CachedStlSelector::select`] (what the simulator-style callers and the
//! benches use) is the same selection body run by a caller that holds the
//! metrics: it answers the request it raises itself, before the decision
//! the re-fit would change, so it is deterministic.
//!
//! The seam sits at `STL'(λ, U)` rather than at the decision because that
//! is where the key space is small: an epoch freezes at most six hold
//! times `U` (`u_ok`, `u_denied` of three protocols), and for each of them
//! STL′ is a function of the one loss λ. A table keyed `(U, bucket(λ))` is
//! therefore shared by every shape — any `m`, `n`, op profile or split of
//! λ into read and write loss — where a decision memo needs one entry per
//! combination of them. STL′ is `λ_A·U` for every loss at or above the
//! model's `λ_A`, so the table is dense and sized at fit time: a row per
//! hold time, a slot per loss bucket up to `λ_A`'s and one more that every
//! saturated loss shares. It is also what makes pre-warming possible: a
//! re-fit measures six new hold times, so no old `(U, bucket)` key recurs,
//! but "the `u_denied` of T/O at bucket 212" names the same question in
//! both epochs.
//!
//! Memoization is *exact*: every table entry is exactly
//! `stl_prime(representative(bucket(λ)), U)` under the epoch's model —
//! whether a selection's miss, a concurrent duplicate or the pre-warm
//! stored it — so a pre-warmed epoch and a cold one fitted from the same
//! metrics return bit-identical [`SelectionDecision`]s, and with
//! quantization disabled (nothing memoized) both return what a fresh
//! [`StlSelector`] returns against those metrics; the test-suite checks
//! each byte for byte. What concurrency adds is only *which* epoch a
//! selection reads: the one published when it cloned it, whole — never a
//! mixture of two. Routing ([`crate::route`]) never touches the table: it
//! is pure in the op profile and the access-set sizes.

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

use dbmodel::{Catalog, LogicalItemId, PhysicalItemId, SiteId, Transaction};
use metrics::{MetricsSample, SimMetrics};

use crate::estimators::{ProtocolParams, ShapeSummary};
use crate::selector::{
    evaluate_decision_with, exploratory_decision, is_exploration_round, MethodParamSet,
    SelectionDecision, StlSelector,
};
use crate::stl::StlModel;

/// Tuning of the cached selector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheSettings {
    /// Commits between scheduled re-fits of the epoch snapshot. The model
    /// is refreshed once at least this many new commits have been observed
    /// since the last fit (minimum 1).
    pub epoch_commits: u64,
    /// Relative drift in the fitted model / protocol parameters (absolute
    /// drift for probabilities) that forces an early re-fit. 0 disables
    /// drift-triggered refreshes.
    pub drift_threshold: f64,
    /// Selections between drift probes against the live metrics (the probe
    /// folds the system-wide scalars only — no per-item table, no STL′
    /// evaluation). 0 disables probing: the epoch boundary is then the
    /// only trigger.
    pub drift_check_every: u64,
    /// Width of the loss-quantization buckets of the STL′ table, on a
    /// `ln(1+x)` scale: losses above ~1 lock/s share a bucket when within
    /// a relative factor of `1 + quant_rel` (e.g. 0.05 ⇒ ~5%), while
    /// losses below ~1 — where every protocol's estimated cost is
    /// negligible anyway — fall into absolute buckets about `quant_rel`
    /// wide. A row holds one value per bucket up to the model's `λ_A`, so
    /// widths below 0.01 are rejected: at 0.01 a row has at most ~6k slots
    /// for any measurable `λ_A`. 0 memoizes nothing — every read runs the
    /// dynamic program at the loss itself, in lockstep with a fresh
    /// [`StlSelector`].
    pub quant_rel: f64,
    /// Commits per method required before estimates are trusted
    /// (mirrors [`StlSelector::warmup_commits`]).
    pub warmup_commits: u64,
    /// After warm-up, every `explore_every`-th transaction is assigned
    /// round-robin (mirrors [`StlSelector::explore_every`]).
    pub explore_every: u64,
}

impl Default for CacheSettings {
    fn default() -> Self {
        CacheSettings {
            // Every refit recomputes the entries the last epoch used, one
            // dynamic program (tens of µs) each; at live-runtime commit
            // rates 1024 commits is still a sub-second epoch, and the
            // drift probe below catches genuine workload shifts between
            // scheduled boundaries.
            epoch_commits: 1024,
            drift_threshold: 0.5,
            drift_check_every: 64,
            quant_rel: 0.05,
            warmup_commits: 30,
            explore_every: 20,
        }
    }
}

/// The narrowest non-zero bucket width [`CacheSettings::validate`]
/// accepts; it bounds the length of a table row.
const MIN_QUANT_REL: f64 = 0.01;

impl CacheSettings {
    /// Check the settings for internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        let q = self.quant_rel;
        if !q.is_finite() || q < 0.0 || (q > 0.0 && q < MIN_QUANT_REL) {
            return Err(format!(
                "quant_rel must be 0 or a finite value >= {MIN_QUANT_REL}"
            ));
        }
        if !self.drift_threshold.is_finite() || self.drift_threshold < 0.0 {
            return Err("drift_threshold must be a finite value >= 0".into());
        }
        Ok(())
    }
}

/// Bucket index of a non-negative loss on a `ln(1+x)` grid of pitch
/// `ln(1+g)`: relative `1+g` buckets for losses above ~1, absolute
/// ~`g`-wide buckets below (see [`CacheSettings::quant_rel`]).
fn bucket(x: f64, g: f64) -> u64 {
    let x = x.max(0.0);
    if x <= 0.0 {
        return 0;
    }
    if !x.is_finite() {
        return u64::MAX;
    }
    (x.ln_1p() / g.ln_1p()).floor() as u64 + 1
}

/// The canonical representative of a bucket: its geometric midpoint. Pure
/// in the bucket index, so hit and miss paths agree bit-for-bit.
fn representative(b: u64, g: f64) -> f64 {
    if b == 0 {
        return 0.0;
    }
    ((b as f64 - 0.5) * g.ln_1p()).exp_m1()
}

/// Decision and dynamic-program tallies. One set is shared by every
/// epoch's table of a selector, so the counts run on across re-fits and a
/// selection still reading a replaced epoch is counted like any other.
/// Statistics only, hence `Relaxed` throughout.
#[derive(Debug, Default)]
struct TableCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    evals: AtomicU64,
    prewarmed: AtomicU64,
}

/// A pre-warm carries a key over while selections asked for it within this
/// many epochs. An epoch of the default length samples a workload's rarer
/// buckets only every few epochs, so carrying just the last epoch's reads
/// misses twice as often; carrying everything forever would let the buckets
/// a drifting workload has left pile up until every re-fit recomputes the
/// whole table.
const CARRY_IDLE_EPOCHS: u8 = 4;
/// An empty slot (a NaN bit pattern no arithmetic produces; a value with
/// these bits is computed without being memoized).
const NO_VALUE: u64 = u64::MAX;

/// One memoized `STL'`. Both fields are `Relaxed`: the value's bits are
/// the whole payload, and `idle` is a hint.
#[derive(Debug)]
struct Slot {
    value: AtomicU64,
    /// Epochs since a selection last read or stored this slot: 0 once one
    /// does, the previous epoch's count plus one when a pre-warm carries
    /// the slot over (see [`CARRY_IDLE_EPOCHS`]).
    idle: AtomicU8,
}

/// The `STL'` values of one hold time `U`, indexed by loss bucket.
#[derive(Debug)]
struct Row {
    u_bits: u64,
    slots: Box<[Slot]>,
}

/// The memo of `STL'(λ_loss, U)` under one [`StlModel`] at the hold times
/// of one epoch: a row per distinct hold time, each a slot per loss bucket
/// holding the dynamic program's value at the bucket's canonical
/// representative. STL′ is `λ_A·U` for every loss at or above `λ_A`, so a
/// row ends at slot `bucket(λ_A) + 1`, which every saturated loss shares.
/// A hold time that is not one of the table's is computed on every read
/// and not memoized, and so is every loss when quantization is off.
///
/// Reads and fills both go through `&self` and take no lock: a read is
/// one load, a fill one swap.
#[derive(Debug)]
pub struct StlTable {
    model: StlModel,
    quant_rel: f64,
    rows: Box<[Row]>,
    len: AtomicUsize,
    counters: Arc<TableCounters>,
}

impl StlTable {
    /// The empty table of `model` at `hold_times` (equal ones share a row)
    /// with the given relative loss quantization (see
    /// [`CacheSettings::quant_rel`]; 0 memoizes nothing).
    pub fn new(model: StlModel, hold_times: &[f64], quant_rel: f64) -> StlTable {
        StlTable::with_counters(model, hold_times, quant_rel, Arc::default())
    }

    fn with_counters(
        model: StlModel,
        hold_times: &[f64],
        quant_rel: f64,
        counters: Arc<TableCounters>,
    ) -> StlTable {
        // A slot per bucket up to λ_A's, and one for every loss beyond.
        let width = if quant_rel > 0.0 && model.lambda_a.is_finite() {
            bucket(model.lambda_a, quant_rel) as usize + 2
        } else {
            0
        };
        let mut rows: Vec<Row> = Vec::with_capacity(hold_times.len());
        for u in hold_times {
            if rows.iter().all(|row| row.u_bits != u.to_bits()) {
                let slots = (0..width).map(|_| Slot {
                    value: AtomicU64::new(NO_VALUE),
                    idle: AtomicU8::new(0),
                });
                rows.push(Row {
                    u_bits: u.to_bits(),
                    slots: slots.collect(),
                });
            }
        }
        StlTable {
            model,
            quant_rel,
            rows: rows.into_boxed_slice(),
            len: AtomicUsize::new(0),
            counters,
        }
    }

    /// The loss the table evaluates in place of `lambda_loss`: its bucket's
    /// representative, or the (clamped) loss itself when quantization is
    /// off. Idempotent — a representative never escapes its bucket.
    pub fn quantized(&self, lambda_loss: f64) -> f64 {
        if self.quant_rel > 0.0 {
            representative(bucket(lambda_loss, self.quant_rel), self.quant_rel)
        } else {
            lambda_loss.max(0.0)
        }
    }

    /// The slot memoizing `lambda_loss` at hold time `u`, if any does.
    fn slot(&self, lambda_loss: f64, u: f64) -> Option<&Slot> {
        let row = self.rows.iter().find(|row| row.u_bits == u.to_bits())?;
        let saturated = row.slots.len().checked_sub(1)?;
        let key = bucket(lambda_loss, self.quant_rel).min(saturated as u64);
        row.slots.get(key as usize)
    }

    /// `STL'` at the table's stand-in for `lambda_loss`, and whether this
    /// call ran the dynamic program for it. `idle` is 0 for a selection's
    /// read; a pre-warm passes the count the slot starts at.
    fn read(&self, lambda_loss: f64, u: f64, idle: u8) -> (f64, bool) {
        let slot = self.slot(lambda_loss, u);
        if let Some(slot) = slot {
            let bits = slot.value.load(Ordering::Relaxed);
            if bits != NO_VALUE {
                // Test first: the line stays shared on repeat hits.
                if idle == 0 && slot.idle.load(Ordering::Relaxed) != 0 {
                    slot.idle.store(0, Ordering::Relaxed);
                }
                return (f64::from_bits(bits), false);
            }
        }
        // Nothing is held here: other selections read and fill meanwhile.
        self.counters.evals.fetch_add(1, Ordering::Relaxed);
        let value = self.model.stl_prime(self.quantized(lambda_loss), u);
        if let Some(slot) = slot.filter(|_| value.to_bits() != NO_VALUE) {
            slot.idle.store(idle, Ordering::Relaxed);
            // Every filler of a slot stores the same bits; the one that
            // found it empty counts it.
            if slot.value.swap(value.to_bits(), Ordering::Relaxed) == NO_VALUE {
                self.len.fetch_add(1, Ordering::Relaxed);
            }
        }
        (value, true)
    }

    /// `STL'(self.quantized(lambda_loss), u)` under the table's model,
    /// computed once per `(u, bucket)` (bar racing duplicates) when `u` is
    /// one of the table's hold times.
    pub fn stl_prime(&self, lambda_loss: f64, u: f64) -> f64 {
        self.read(lambda_loss, u, 0).0
    }

    /// [`crate::evaluate_decision`] under the table's model with every
    /// `STL'` read through the table. Counts a hit when all of them were
    /// memoized, a miss when at least one ran the dynamic program.
    pub fn decide(&self, params: &MethodParamSet, summary: &ShapeSummary) -> SelectionDecision {
        self.decide_flagged(params, summary).0
    }

    /// [`StlTable::decide`], also saying whether the decision was a hit.
    fn decide_flagged(
        &self,
        params: &MethodParamSet,
        summary: &ShapeSummary,
    ) -> (SelectionDecision, bool) {
        let mut hit = true;
        let decision = evaluate_decision_with(
            &mut |loss, u| {
                let (value, computed) = self.read(loss, u, 0);
                hit &= !computed;
                value
            },
            summary,
            params,
        );
        let tally = if hit {
            &self.counters.hits
        } else {
            &self.counters.misses
        };
        tally.fetch_add(1, Ordering::Relaxed);
        (decision, hit)
    }

    /// Every `(U bits, bucket, idle count)` worth carrying into the next
    /// epoch's table.
    fn carried_keys(&self) -> impl Iterator<Item = (u64, u64, u8)> + '_ {
        self.rows.iter().flat_map(|row| {
            row.slots
                .iter()
                .zip(0u64..)
                .filter_map(move |(slot, bucket)| {
                    let idle = slot.idle.load(Ordering::Relaxed) + 1;
                    let filled = slot.value.load(Ordering::Relaxed) != NO_VALUE;
                    (filled && idle <= CARRY_IDLE_EPOCHS).then_some((row.u_bits, bucket, idle))
                })
        })
    }

    /// Number of memoized values.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// True when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Decisions served wholly from the table since creation.
    pub fn hits(&self) -> u64 {
        self.counters.hits.load(Ordering::Relaxed)
    }

    /// Decisions that ran at least one dynamic program since creation.
    pub fn misses(&self) -> u64 {
        self.counters.misses.load(Ordering::Relaxed)
    }

    /// Dynamic programs run since creation.
    pub fn evals(&self) -> u64 {
        self.counters.evals.load(Ordering::Relaxed)
    }
}

/// Everything a selection depends on, frozen at one instant: the fitted
/// STL model, the measured per-protocol parameters, and the per-item rate
/// table the transaction shapes are built from. Decisions within an epoch
/// are provably identical to fresh STL′ evaluation against this snapshot.
#[derive(Debug, Clone)]
pub struct EpochSnapshot {
    /// Monotone epoch number (1 for the first fit).
    pub epoch: u64,
    /// Commits observed when the snapshot was fitted.
    pub fitted_at_commits: u64,
    /// The fitted system-wide STL model.
    pub model: StlModel,
    /// The measured parameters of every protocol.
    pub params: MethodParamSet,
    rates: BTreeMap<PhysicalItemId, (f64, f64)>,
    /// How many items had granted a read / a write lock at fit time: the
    /// denominators of λ̄r and λ̄w, which the drift probe reuses so it
    /// needs no per-item table.
    granted_items: (usize, usize),
}

impl EpochSnapshot {
    /// Fit a snapshot from the live metrics.
    pub fn fit(metrics: &SimMetrics, epoch: u64) -> EpochSnapshot {
        EpochSnapshot {
            epoch,
            fitted_at_commits: metrics.total_committed.get(),
            model: StlSelector::model_from_metrics(metrics),
            params: MethodParamSet::measure(metrics),
            rates: metrics.item_rates(),
            granted_items: metrics.granted_item_counts(),
        }
    }

    /// The `(λ_r, λ_w)` of one item at fit time (0 for items that had
    /// granted nothing — matching what the live metrics report).
    pub fn item_rate(&self, item: PhysicalItemId) -> (f64, f64) {
        self.rates.get(&item).copied().unwrap_or((0.0, 0.0))
    }

    /// Build the transaction's shape summary from the frozen rate table,
    /// mirroring [`StlSelector::shape_for`] (read-one at the origin site,
    /// write-all over the item's copies) aggregation step for step so the
    /// result is bit-identical to summarising the fresh shape at fit time.
    pub fn summary_for(&self, txn: &Transaction, catalog: &Catalog) -> ShapeSummary {
        self.summary_of(txn.read_set(), txn.write_set(), txn.origin, catalog)
    }

    /// [`EpochSnapshot::summary_for`] over the access sets themselves, for
    /// a caller that has no [`Transaction`] yet. To agree with it bit for
    /// bit the slices must be what [`Transaction`] holds: ascending, free
    /// of duplicates, no read that is also written.
    pub fn summary_of(
        &self,
        reads: &[LogicalItemId],
        writes: &[LogicalItemId],
        origin: SiteId,
        catalog: &Catalog,
    ) -> ShapeSummary {
        let mut m = 0usize;
        let mut n = 0usize;
        let mut read_loss = 0.0f64;
        let mut write_loss = 0.0f64;
        for &item in reads {
            if let Ok(copy) = catalog.read_copy(item, origin) {
                m += 1;
                read_loss += self.item_rate(copy).1;
            }
        }
        for &item in writes {
            if let Ok(holders) = catalog.holders(item) {
                let (mut lr, mut lw) = (0.0, 0.0);
                for &site in holders {
                    let (r, w) = self.item_rate(PhysicalItemId::new(item, site));
                    lr += r;
                    lw += w;
                }
                n += 1;
                write_loss += lr + lw;
            }
        }
        ShapeSummary {
            m,
            n,
            read_loss,
            write_loss,
        }
    }

    /// True when the freshly measured model / protocol parameters have
    /// moved beyond `threshold` from the fitted ones: rates and hold times
    /// relatively, probabilities absolutely. The probe reads system-wide
    /// scalars only; the per-item averages λ̄r, λ̄w divide by the item
    /// counts frozen at fit time. A shift in conflicts shows here through
    /// the denial probabilities and hold times it moves. Note the
    /// comparison is against lifetime metric aggregates, which respond ever
    /// more slowly as a run ages, and a re-fit fits the same lifetime
    /// totals; windowed metrics are an open ROADMAP item.
    pub fn drifted_from(&self, sample: &MetricsSample, threshold: f64) -> bool {
        if threshold <= 0.0 {
            return false;
        }
        let model = StlSelector::model_from_sample(sample, self.granted_items);
        let params = MethodParamSet::from_sample(sample);
        model_drift(&self.model, &model) > threshold
            || params_drift(&self.params.p2pl, &params.p2pl) > threshold
            || params_drift(&self.params.to, &params.to) > threshold
            || params_drift(&self.params.pa, &params.pa) > threshold
    }
}

/// Relative distance between two non-negative quantities.
fn rel_drift(a: f64, b: f64) -> f64 {
    let scale = a.abs().max(b.abs());
    if scale <= 1e-9 {
        0.0
    } else {
        (a - b).abs() / scale
    }
}

fn model_drift(a: &StlModel, b: &StlModel) -> f64 {
    rel_drift(a.lambda_a, b.lambda_a)
        .max(rel_drift(a.lambda_r, b.lambda_r))
        .max(rel_drift(a.lambda_w, b.lambda_w))
        .max(rel_drift(a.k, b.k))
        .max((a.q_r - b.q_r).abs())
}

fn params_drift(a: &ProtocolParams, b: &ProtocolParams) -> f64 {
    rel_drift(a.u_ok, b.u_ok)
        .max(rel_drift(a.u_denied, b.u_denied))
        .max((a.p_abort - b.p_abort).abs())
        .max((a.p_read_denial - b.p_read_denial).abs())
        .max((a.p_write_denial - b.p_write_denial).abs())
}

/// One epoch as selections see it: the frozen [`EpochSnapshot`] and the
/// [`StlTable`] memoizing `STL'` under its model. Immutable and `Sync`
/// apart from the table's fills, so any number of threads decide against
/// one `Arc<Epoch>` while the next one is being built.
#[derive(Debug)]
pub struct Epoch {
    /// Everything the epoch's decisions depend on.
    pub snapshot: EpochSnapshot,
    /// `STL'` under [`EpochSnapshot::model`], filled on demand.
    pub table: StlTable,
}

impl Epoch {
    /// The epoch of `snapshot`, with an empty table at its hold times.
    fn new(snapshot: EpochSnapshot, quant_rel: f64, counters: Arc<TableCounters>) -> Epoch {
        let hold_times = snapshot.params.hold_times();
        let table = StlTable::with_counters(snapshot.model, &hold_times, quant_rel, counters);
        Epoch { snapshot, table }
    }

    /// The cost-based decision for `summary`, and whether the table served
    /// it without running a dynamic program.
    fn decide(&self, summary: &ShapeSummary) -> (SelectionDecision, bool) {
        self.table.decide_flagged(&self.snapshot.params, summary)
    }

    /// Recompute, under this epoch's model and hold times, every entry of
    /// `prev`'s table that selections asked for within the last
    /// [`CARRY_IDLE_EPOCHS`] epochs, so they keep hitting across the
    /// re-fit. An old key's `U` no longer occurs — the re-fit measured six
    /// new hold times — but the *slot* it was the hold time of (`u_ok` /
    /// `u_denied` of one protocol) does, and the key's loss bucket is as
    /// likely as before. Changes counters and which values are memoized,
    /// never a value. `keep_going` is polled between dynamic programs;
    /// returns false when it stopped the pre-warm.
    fn prewarm_from(&self, prev: &Epoch, keep_going: impl Fn() -> bool) -> bool {
        let old = prev.snapshot.params.hold_times();
        let new = self.snapshot.params.hold_times();
        for (u_bits, bucket, idle) in prev.table.carried_keys() {
            let loss = representative(bucket, prev.table.quant_rel);
            // Two slots that shared a hold time shared its row.
            for slot in (0..old.len()).filter(|&slot| old[slot].to_bits() == u_bits) {
                if !keep_going() {
                    return false;
                }
                if self.table.read(loss, new[slot], idle).1 {
                    let prewarmed = &self.table.counters.prewarmed;
                    prewarmed.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        true
    }
}

/// A point-in-time copy of the cached selector's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Selections served wholly from the STL′ table.
    pub hits: u64,
    /// Selections that ran at least one STL′ dynamic program.
    pub misses: u64,
    /// STL′ dynamic programs run, by selections (a miss runs between one
    /// and six) and by pre-warms alike.
    pub evals: u64,
    /// The share of `evals` run by pre-warms, off the selection path.
    pub prewarmed: u64,
    /// Epoch re-fits performed.
    pub refits: u64,
    /// STL′ values currently memoized.
    pub entries: u64,
    /// Current epoch number (0 before the first fit).
    pub epoch: u64,
}

impl CacheStats {
    /// Fraction of cost-based selections served wholly from the table.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One selection on the published path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PublishedSelection {
    /// The decision.
    pub decision: SelectionDecision,
    /// Number of the epoch it was read from; 0 for a warm-up or
    /// exploration round, which reads none.
    pub epoch: u64,
    /// True when the table served the decision without running a dynamic
    /// program (false for exploratory rounds).
    pub hit: bool,
    /// True when this selection raised the re-fit request from clear: its
    /// caller should wake whoever serves requests.
    pub raised: bool,
}

/// What became of a re-fit request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefitOutcome {
    /// A new epoch was fitted, pre-warmed and published.
    Published,
    /// Nothing to do: some method is still short of its warm-up commits,
    /// or the current epoch is neither old nor drifted.
    NotDue,
    /// The selector was closed before the new epoch could be published.
    Abandoned,
}

/// The drop-in cached variant of [`StlSelector`]: same warm-up and
/// exploration behaviour, same decisions, but each STL′ dynamic program
/// runs once per distinct (quantized) loss and hold time per epoch instead
/// of three to six times per transaction.
///
/// It is the small mutable *driver* around the published [`Epoch`]: a
/// selection counter and a re-fit request flag, both atomics, beside the
/// lock the epoch sits behind. One selection body serves two entries.
/// [`CachedStlSelector::select_published`] takes `&self`, from any number
/// of threads, and only ever *requests* a re-fit;
/// [`CachedStlSelector::serve_request`] performs it, on whatever thread
/// the embedder dedicates to that. [`CachedStlSelector::select`] takes
/// `&mut self` and the metrics, and serves the request it raises itself.
#[derive(Debug)]
pub struct CachedStlSelector {
    /// The tuning this selector was built with.
    pub settings: CacheSettings,
    counter: AtomicU64,
    refits: AtomicU64,
    /// The published epoch. A selection holds the read lock only to clone
    /// the `Arc`, a re-fit the write lock only to swap it.
    current: RwLock<Option<Arc<Epoch>>>,
    /// Serializes re-fits; held across a fit and its pre-warm, never by a
    /// selection.
    refitting: Mutex<()>,
    /// A re-fit was asked for and not yet looked at.
    requested: AtomicBool,
    /// No further epoch will be published.
    closed: AtomicBool,
    counters: Arc<TableCounters>,
}

impl Default for CachedStlSelector {
    fn default() -> Self {
        CachedStlSelector::with_settings(CacheSettings::default())
    }
}

impl CachedStlSelector {
    /// A cached selector with the default settings.
    pub fn new() -> CachedStlSelector {
        CachedStlSelector::default()
    }

    /// A cached selector with explicit settings.
    pub fn with_settings(settings: CacheSettings) -> CachedStlSelector {
        CachedStlSelector {
            settings,
            counter: AtomicU64::new(0),
            refits: AtomicU64::new(0),
            current: RwLock::new(None),
            refitting: Mutex::new(()),
            requested: AtomicBool::new(false),
            closed: AtomicBool::new(false),
            counters: Arc::default(),
        }
    }

    /// Choose the concurrency-control method for `txn` against `metrics`:
    /// [`CachedStlSelector::select_published`], with a re-fit the
    /// selection finds due served here, from `metrics`, before the
    /// decision it would change.
    pub fn select(
        &mut self,
        txn: &Transaction,
        catalog: &Catalog,
        metrics: &SimMetrics,
    ) -> SelectionDecision {
        let commits = metrics.total_committed.get();
        let (reads, writes) = (txn.read_set(), txn.write_set());
        let picked = self.pick(reads, writes, txn.origin, catalog, commits, Some(metrics));
        picked.decision
    }

    /// Choose the concurrency-control method for a transaction reading
    /// `reads` and writing `writes` (as [`EpochSnapshot::summary_of`] takes
    /// them) against the *published* epoch: clone it (the read lock is
    /// held for the clone alone), summarise, look up, argmin — nothing
    /// merged, nothing fitted, never waiting out a re-fit. `commits` is
    /// the embedder's live commit count. Until the first epoch is
    /// published every round is an exploration round; once
    /// `3 × warmup_commits` commits are in, and whenever a re-fit looks
    /// due, the selection raises the request flag for
    /// [`CachedStlSelector::serve_request`] and carries on with the epoch
    /// it has.
    pub fn select_published(
        &self,
        reads: &[LogicalItemId],
        writes: &[LogicalItemId],
        origin: SiteId,
        catalog: &Catalog,
        commits: u64,
    ) -> PublishedSelection {
        self.pick(reads, writes, origin, catalog, commits, None)
    }

    /// The selection body of both entries. `inline` holds the metrics of a
    /// caller that answers its own requests: the request is served before
    /// the epoch is read for the decision.
    fn pick(
        &self,
        reads: &[LogicalItemId],
        writes: &[LogicalItemId],
        origin: SiteId,
        catalog: &Catalog,
        commits: u64,
        inline: Option<&SimMetrics>,
    ) -> PublishedSelection {
        let counter = self.next_round();
        let exploring = is_exploration_round(counter, self.settings.explore_every);
        let mut epoch = self.epoch();
        let due = match &epoch {
            None => commits >= self.settings.warmup_commits.saturating_mul(3),
            Some(_) if exploring => false,
            Some(epoch) => self.refit_due(&epoch.snapshot, commits) || self.probe_round(counter),
        };
        let raised = due && self.request_refit();
        if let Some(metrics) = inline.filter(|_| due) {
            self.serve_request(commits, || metrics, || metrics.sample());
            epoch = self.epoch();
        }
        match epoch.filter(|_| !exploring) {
            Some(epoch) => {
                let summary = epoch.snapshot.summary_of(reads, writes, origin, catalog);
                let (decision, hit) = epoch.decide(&summary);
                PublishedSelection {
                    decision,
                    epoch: epoch.snapshot.epoch,
                    hit,
                    raised,
                }
            }
            // Warming up, exploring, or closed before anything was fitted.
            None => PublishedSelection {
                decision: exploratory_decision(counter),
                epoch: 0,
                hit: false,
                raised,
            },
        }
    }

    fn next_round(&self) -> u64 {
        self.counter.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// True when `snapshot` is `epoch_commits` old: the trigger that reads
    /// a counter only.
    fn refit_due(&self, snapshot: &EpochSnapshot, commits: u64) -> bool {
        commits.saturating_sub(snapshot.fitted_at_commits) >= self.settings.epoch_commits.max(1)
    }

    /// True on the selections that pay for a scalar drift probe.
    fn probe_round(&self, counter: u64) -> bool {
        self.settings.drift_check_every > 0
            && counter.is_multiple_of(self.settings.drift_check_every)
    }

    fn drifted(&self, snapshot: &EpochSnapshot, sample: &MetricsSample) -> bool {
        snapshot.drifted_from(sample, self.settings.drift_threshold)
    }

    /// Raise the re-fit request; true when it was clear before. Requests
    /// raised while one is pending — or while a re-fit is in flight, which
    /// re-checks what is due when it is next asked — coalesce into it.
    pub fn request_refit(&self) -> bool {
        // The flag publishes nothing: whoever serves it re-reads every
        // counter it acts on.
        !self.requested.load(Ordering::Relaxed) && !self.requested.swap(true, Ordering::Relaxed)
    }

    /// True while a raised request has not been taken.
    pub fn refit_requested(&self) -> bool {
        self.requested.load(Ordering::Relaxed)
    }

    /// Answer a raised request (a no-op returning `None` when none is):
    /// decide, from the embedder's commit count *now*, whether a re-fit is
    /// still due — the scheduled boundary, or the scalar drift probe
    /// against `probe()` — and if so fit a new epoch from `merge()`,
    /// pre-warm it and publish it. Before the first epoch, `merge()` also
    /// answers whether every method is warm. `merge` folds the embedder's
    /// metric stripes into one collection ([`SimMetrics::merge_from`]), or
    /// lends the one it has; `probe` folds their system-wide scalars only
    /// ([`MetricsSample::merge_from`]). Each runs at most once, on this
    /// thread.
    pub fn serve_request<M: Borrow<SimMetrics>>(
        &self,
        commits: u64,
        merge: impl FnOnce() -> M,
        probe: impl FnOnce() -> MetricsSample,
    ) -> Option<RefitOutcome> {
        if !self.requested.swap(false, Ordering::Relaxed) {
            return None;
        }
        let current = self.epoch();
        let due = current.as_ref().is_none_or(|epoch| {
            self.refit_due(&epoch.snapshot, commits) || self.drifted(&epoch.snapshot, &probe())
        });
        if !due {
            return Some(RefitOutcome::NotDue);
        }
        let merged = merge();
        let merged = merged.borrow();
        if current.is_none() && !StlSelector::warmed_up(merged, self.settings.warmup_commits) {
            return Some(RefitOutcome::NotDue);
        }
        Some(match self.refit_now(merged) {
            Some(_) => RefitOutcome::Published,
            None => RefitOutcome::Abandoned,
        })
    }

    /// Fit a new epoch from `metrics`, pre-warm its table from the current
    /// epoch's and publish it — synchronously, whatever is or is not due.
    /// Re-fits are serialized; selections keep reading the current epoch
    /// until the swap. Returns the new epoch, or `None` when the selector
    /// was closed first.
    pub fn refit_now(&self, metrics: &SimMetrics) -> Option<Arc<Epoch>> {
        let open = || !self.closed.load(Ordering::Relaxed);
        // The guarded state is `()`: a re-fit that panicked left nothing
        // half-done, so the poison carries no meaning.
        let _refitting = self
            .refitting
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if !open() {
            return None;
        }
        let prev = self.epoch();
        let epoch = prev.as_ref().map_or(1, |prev| prev.snapshot.epoch + 1);
        let epoch = Epoch::new(
            EpochSnapshot::fit(metrics, epoch),
            self.settings.quant_rel,
            Arc::clone(&self.counters),
        );
        if !prev
            .as_ref()
            .is_none_or(|prev| epoch.prewarm_from(prev, open))
        {
            return None;
        }
        let epoch = Arc::new(epoch);
        // `prev` outlives the swap, so the replaced epoch is never freed
        // under the write lock.
        *self.current.write().unwrap_or_else(PoisonError::into_inner) = Some(Arc::clone(&epoch));
        self.refits.fetch_add(1, Ordering::Relaxed);
        Some(epoch)
    }

    /// Stop publishing: a re-fit in flight gives up at its next dynamic
    /// program, later ones return at once. Selections are unaffected —
    /// they keep the last published epoch.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Relaxed);
    }

    /// True once [`CachedStlSelector::close`] was called.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Relaxed)
    }

    /// The current epoch, if one has been published.
    pub fn epoch(&self) -> Option<Arc<Epoch>> {
        // The value is only ever replaced whole: a poisoned lock still
        // holds a published epoch.
        self.current
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// A copy of the cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        let epoch = self.epoch();
        let count = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        CacheStats {
            hits: count(&self.counters.hits),
            misses: count(&self.counters.misses),
            evals: count(&self.counters.evals),
            prewarmed: count(&self.counters.prewarmed),
            refits: count(&self.refits),
            entries: epoch.as_ref().map_or(0, |e| e.table.len() as u64),
            epoch: epoch.map_or(0, |e| e.snapshot.epoch),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbmodel::{AccessMode, CcMethod, LogicalItemId, ReplicationPolicy, SiteId, TxnId};
    use simkit::time::{Duration, SimTime};

    fn catalog() -> Catalog {
        Catalog::generate(2, 12, ReplicationPolicy::SingleCopy)
    }

    fn txn(id: u64, reads: &[u64], writes: &[u64]) -> Transaction {
        let mut b = Transaction::builder(TxnId(id), SiteId(0));
        for &r in reads {
            b = b.read(LogicalItemId(r));
        }
        for &w in writes {
            b = b.write(LogicalItemId(w));
        }
        b.build()
    }

    /// Metrics with all methods warmed up and non-trivial item rates.
    fn warmed_metrics() -> SimMetrics {
        let mut m = SimMetrics::new();
        m.set_time_span(SimTime::ZERO, SimTime::from_secs(100));
        for &method in &CcMethod::ALL {
            for _ in 0..50 {
                m.record_commit(method, Duration::from_millis(40));
                m.record_lock_hold(method, Duration::from_millis(30), false);
            }
        }
        for i in 0..12u64 {
            for _ in 0..(100 + i * 37) {
                m.record_grant(
                    PhysicalItemId::new(LogicalItemId(i), SiteId((i % 2) as u32)),
                    if i % 3 == 0 {
                        AccessMode::Write
                    } else {
                        AccessMode::Read
                    },
                );
            }
        }
        m
    }

    /// A fitted model plus parameters with every denial probability
    /// non-zero and six distinct hold times, so a decision reads six
    /// `STL'` values.
    fn six_call_inputs() -> (StlModel, MethodParamSet) {
        let params = |i: f64| ProtocolParams {
            u_ok: 0.02 + 0.01 * i,
            u_denied: 0.05 + 0.01 * i,
            p_abort: 0.05,
            p_read_denial: 0.1,
            p_write_denial: 0.15,
        };
        (
            StlSelector::model_from_metrics(&warmed_metrics()),
            MethodParamSet {
                p2pl: params(0.0),
                to: params(1.0),
                pa: params(2.0),
            },
        )
    }

    fn bits(d: &SelectionDecision) -> (CcMethod, u64, u64, u64, bool) {
        (
            d.method,
            d.stl_2pl.to_bits(),
            d.stl_to.to_bits(),
            d.stl_pa.to_bits(),
            d.exploratory,
        )
    }

    #[test]
    fn exact_cache_matches_fresh_selector_bit_for_bit() {
        let metrics = warmed_metrics();
        let cat = catalog();
        let settings = CacheSettings {
            quant_rel: 0.0,
            explore_every: 7,
            warmup_commits: 10,
            ..CacheSettings::default()
        };
        let mut cached = CachedStlSelector::with_settings(settings);
        let mut fresh = StlSelector::with_settings(10, 7);
        for i in 0..40 {
            let t = txn(i, &[i % 12, (i + 3) % 12], &[(i + 1) % 12]);
            let a = cached.select(&t, &cat, &metrics);
            let b = fresh.select(&t, &cat, &metrics);
            assert_eq!(bits(&a), bits(&b), "selection {i} diverged");
        }
        let stats = cached.cache_stats();
        assert_eq!(stats.refits, 1, "no drift, no extra commits: one epoch");
    }

    /// Drive the published path on one thread: select, then answer the
    /// request the selection may have raised, counting the thunks.
    fn select_and_serve(
        selector: &CachedStlSelector,
        t: &Transaction,
        cat: &Catalog,
        metrics: &SimMetrics,
        merges: &std::cell::Cell<u64>,
        probes: &std::cell::Cell<u64>,
    ) -> PublishedSelection {
        let commits = metrics.total_committed.get();
        let picked = selector.select_published(t.read_set(), t.write_set(), t.origin, cat, commits);
        assert_eq!(picked.raised, selector.refit_requested());
        selector.serve_request(
            commits,
            || {
                merges.set(merges.get() + 1);
                metrics.clone()
            },
            || {
                probes.set(probes.get() + 1);
                metrics.sample()
            },
        );
        picked
    }

    #[test]
    fn sharded_selection_matches_borrowed_and_merges_lazily() {
        let metrics = warmed_metrics();
        let cat = catalog();
        let settings = CacheSettings {
            quant_rel: 0.0,
            explore_every: 7,
            warmup_commits: 10,
            drift_check_every: 8,
            ..CacheSettings::default()
        };
        let mut borrowed = CachedStlSelector::with_settings(settings);
        let sharded = CachedStlSelector::with_settings(settings);
        let merges = std::cell::Cell::new(0u64);
        let probes = std::cell::Cell::new(0u64);
        for i in 0..60 {
            let t = txn(i, &[i % 12, (i + 3) % 12], &[(i + 1) % 12]);
            let a = borrowed.select(&t, &cat, &metrics);
            let b = select_and_serve(&sharded, &t, &cat, &metrics, &merges, &probes);
            if i == 0 {
                // Nothing is published yet: the round explores and asks
                // for the first fit, which the serve just performed.
                assert!(b.decision.exploratory && b.raised && b.epoch == 0);
                assert_eq!(sharded.cache_stats().epoch, 1);
            } else {
                assert_eq!(
                    bits(&a),
                    bits(&b.decision),
                    "selection {i} diverged across drives"
                );
                assert_eq!(b.epoch, if b.decision.exploratory { 0 } else { 1 });
            }
        }
        // The full merge runs only when per-item tables are genuinely
        // needed — once, for the warm-up check and the first fit. Scheduled
        // drift probes fold scalars only, and a selection itself reads no
        // metrics at all.
        assert_eq!(merges.get(), 1, "one fit, one merge");
        let scheduled = 60 / settings.drift_check_every;
        assert!(
            (1..=scheduled).contains(&probes.get()),
            "{} probes for 60 selections (expected 1..={scheduled})",
            probes.get()
        );
    }

    #[test]
    fn quantized_cache_hit_and_miss_paths_agree() {
        let (model, params) = six_call_inputs();
        let table = StlTable::new(model, &params.hold_times(), 0.05);
        let summary = ShapeSummary {
            m: 2,
            n: 1,
            read_loss: 13.37,
            write_loss: 4.2,
        };
        let miss = table.decide(&params, &summary);
        let hit = table.decide(&params, &summary);
        assert_eq!(bits(&miss), bits(&hit));
        // The decision is exactly the closed form over fresh STL′ values of
        // the bucket representatives.
        let fresh = evaluate_decision_with(
            &mut |loss, u| model.stl_prime(table.quantized(loss), u),
            &summary,
            &params,
        );
        assert_eq!(bits(&miss), bits(&fresh));
        assert_eq!((table.hits(), table.misses()), (1, 1));
        assert_eq!(table.evals(), 6, "six distinct (U, λ) pairs, six DP runs");
    }

    #[test]
    fn quantization_collapses_nearby_shapes_only() {
        let metrics = warmed_metrics();
        let model = StlSelector::model_from_metrics(&metrics);
        // No denials on record: a decision reads STL′ at λ_t only.
        let params = MethodParamSet::measure(&metrics);
        let table = StlTable::new(model, &params.hold_times(), 0.05);
        // Total losses below λ_A (≈ 36 here), where every bucket has a
        // slot of its own.
        let base = ShapeSummary {
            m: 2,
            n: 1,
            read_loss: 10.0,
            write_loss: 5.0,
        };
        let nearby = ShapeSummary {
            read_loss: 10.1,
            ..base
        };
        let far = ShapeSummary {
            read_loss: 16.0,
            ..base
        };
        // Same total loss, different counts and read/write split: a
        // different shape, the same table entries.
        let other_shape = ShapeSummary {
            m: 3,
            n: 2,
            read_loss: 3.0,
            write_loss: 12.0,
        };
        table.decide(&params, &base);
        let seeded = table.evals();
        table.decide(&params, &nearby);
        table.decide(&params, &other_shape);
        assert_eq!(table.evals(), seeded, "nearby losses share a bucket");
        table.decide(&params, &far);
        assert!(table.evals() > seeded, "a far loss is its own bucket");
        // STL′ is λ_A·U from λ_A up: every such loss shares one slot.
        let saturated = |read_loss| ShapeSummary { read_loss, ..base };
        table.decide(&params, &saturated(100.0));
        let seeded = table.evals();
        table.decide(&params, &saturated(1e9));
        assert_eq!(table.evals(), seeded, "saturated losses share a slot");
        // The representative sits inside its own bucket.
        let rep = table.quantized(base.lambda_t());
        assert_eq!(table.quantized(rep).to_bits(), rep.to_bits());
    }

    #[test]
    fn routed_hit_and_miss_agree_across_profiles() {
        use crate::confluence::{route, OpProfile, Route};
        let metrics = warmed_metrics();
        let cat = catalog();
        let cached = CachedStlSelector::with_settings(CacheSettings {
            warmup_commits: 10,
            explore_every: 0,
            ..CacheSettings::default()
        });
        let t = txn(1, &[1], &[2, 3]);
        let (merges, probes) = Default::default();
        // Publish the first epoch, then select against it.
        select_and_serve(&cached, &t, &cat, &metrics, &merges, &probes);
        let select = || select_and_serve(&cached, &t, &cat, &metrics, &merges, &probes).decision;
        let miss = select();
        let hit = select();
        assert_eq!(bits(&hit), bits(&miss));
        // The same access sets route differently under an adds and an rmw
        // profile; the protocol decision behind both reads the same table
        // entries.
        let routes = |profile| route(profile, 1, 2).collect::<Vec<_>>();
        assert_eq!(routes(OpProfile::ADDS), [Route::Bypass, Route::Coordinated]);
        assert_eq!(routes(OpProfile::RMW_WRITES), [Route::Coordinated]);
        assert_eq!(bits(&select()), bits(&miss));
        let stats = cached.cache_stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
    }

    #[test]
    fn epoch_boundary_refits_after_enough_commits() {
        let mut metrics = warmed_metrics();
        let cat = catalog();
        let mut cached = CachedStlSelector::with_settings(CacheSettings {
            epoch_commits: 10,
            warmup_commits: 10,
            explore_every: 0,
            drift_check_every: 0,
            ..CacheSettings::default()
        });
        let t = txn(1, &[1], &[2]);
        cached.select(&t, &cat, &metrics);
        assert_eq!(cached.cache_stats().epoch, 1);
        let first = Arc::downgrade(&cached.epoch().expect("fitted"));
        // Fewer than epoch_commits new commits: same epoch.
        for _ in 0..9 {
            metrics.record_commit(CcMethod::TwoPhaseLocking, Duration::from_millis(10));
        }
        cached.select(&t, &cat, &metrics);
        assert_eq!(cached.cache_stats().epoch, 1);
        // Crossing the boundary re-fits and flushes the table.
        metrics.record_commit(CcMethod::TwoPhaseLocking, Duration::from_millis(10));
        cached.select(&t, &cat, &metrics);
        let stats = cached.cache_stats();
        assert_eq!(stats.epoch, 2);
        assert_eq!(stats.refits, 2);
        assert!(first.upgrade().is_none(), "the replaced epoch was freed");
    }

    /// A conflict shift reaches the selector through the metrics it fits
    /// from: denied requests move a denial probability, and the next
    /// drift probe re-fits long before the epoch boundary. The new epoch
    /// is fitted on the shifted metrics, so it does not drift from them.
    #[test]
    fn conflict_ratio_drift_forces_early_refit() {
        let mut metrics = warmed_metrics();
        let cat = catalog();
        let mut cached = CachedStlSelector::with_settings(CacheSettings {
            epoch_commits: 1_000_000,
            drift_threshold: 0.2,
            drift_check_every: 1,
            warmup_commits: 10,
            explore_every: 0,
            ..CacheSettings::default()
        });
        let t = txn(1, &[1], &[2]);
        let mut requests = |granted: u64, denied: u64| {
            for i in 0..granted + denied {
                metrics.record_request_outcome(
                    CcMethod::TimestampOrdering,
                    AccessMode::Write,
                    i < denied,
                );
            }
            metrics.clone()
        };
        let mut select = |metrics: &SimMetrics| {
            cached.select(&t, &cat, metrics);
            cached.cache_stats().refits
        };
        // Calm: 1 % of T/O's write requests rejected.
        let calm = requests(990, 10);
        assert_eq!([select(&calm), select(&calm)], [1, 1]);
        // A trickle of rejections moves the probability by less than the
        // threshold (0.01 → 0.1).
        let trickle = requests(0, 100);
        assert_eq!(select(&trickle), 1);
        // Storm: 80 % of the new requests are rejected (→ 0.55).
        let stormy = requests(400, 1_600);
        let p = stormy
            .method(CcMethod::TimestampOrdering)
            .write_denial_prob();
        assert!((p - 0.55).abs() < 0.01, "{p}");
        assert_eq!(select(&stormy), 2, "the probe re-fits early");
        assert_eq!([select(&stormy), select(&stormy)], [2, 2]);
        let fitted = cached.epoch().expect("fitted").snapshot.params.to;
        assert_eq!(fitted.p_write_denial.to_bits(), p.to_bits());
    }

    #[test]
    fn params_drift_probe_refits_when_metrics_shift() {
        let mut metrics = warmed_metrics();
        let cat = catalog();
        let mut cached = CachedStlSelector::with_settings(CacheSettings {
            epoch_commits: 1_000_000,
            drift_threshold: 0.3,
            drift_check_every: 2,
            warmup_commits: 10,
            explore_every: 0,
            ..CacheSettings::default()
        });
        let t = txn(1, &[1], &[2]);
        cached.select(&t, &cat, &metrics);
        cached.select(&t, &cat, &metrics);
        assert_eq!(cached.cache_stats().refits, 1, "no drift yet");
        // 2PL turns deadlock-prone: p_abort moves from 0 to ~0.5.
        for _ in 0..150 {
            metrics.record_restart(
                CcMethod::TwoPhaseLocking,
                metrics::TxnOutcome::DeadlockRestart,
            );
            metrics.record_lock_hold(CcMethod::TwoPhaseLocking, Duration::from_millis(300), true);
        }
        // Next probe (counter multiple of 2) must notice.
        cached.select(&t, &cat, &metrics);
        cached.select(&t, &cat, &metrics);
        assert_eq!(cached.cache_stats().refits, 2, "probe caught the drift");
    }

    #[test]
    fn warmup_and_exploration_mirror_the_fresh_selector() {
        let cat = catalog();
        let cold = SimMetrics::new();
        let mut cached = CachedStlSelector::with_settings(CacheSettings {
            warmup_commits: 1000,
            explore_every: 0,
            ..CacheSettings::default()
        });
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..6 {
            let d = cached.select(&txn(i, &[1], &[2]), &cat, &cold);
            assert!(d.exploratory);
            seen.insert(d.method);
        }
        assert_eq!(seen.len(), 3, "warm-up must exercise every method");
        assert_eq!(cached.cache_stats().epoch, 0, "no fit during warm-up");
    }

    #[test]
    fn snapshot_summary_matches_fresh_shape_at_fit_time() {
        let metrics = warmed_metrics();
        let cat = catalog();
        let snapshot = EpochSnapshot::fit(&metrics, 1);
        for i in 0..12u64 {
            let t = txn(i, &[i % 12, (i + 5) % 12], &[(i + 1) % 12, (i + 7) % 12]);
            let frozen = snapshot.summary_for(&t, &cat);
            let fresh = StlSelector::shape_for(&t, &cat, &metrics).summary();
            assert_eq!(frozen.m, fresh.m);
            assert_eq!(frozen.n, fresh.n);
            assert_eq!(frozen.read_loss.to_bits(), fresh.read_loss.to_bits());
            assert_eq!(frozen.write_loss.to_bits(), fresh.write_loss.to_bits());
        }
    }

    /// Width 0 evaluates every loss exactly as given: two losses however
    /// close each run the dynamic program, and nothing is memoized.
    #[test]
    fn exact_keys_separate_any_loss_difference() {
        let model = StlSelector::model_from_metrics(&warmed_metrics());
        let table = StlTable::new(model, &[0.03], 0.0);
        let (a, b) = (10.0, 10.0 + 1e-12);
        assert_eq!(table.quantized(a).to_bits(), a.to_bits());
        assert_eq!(table.quantized(b).to_bits(), b.to_bits());
        for loss in [a, b, a] {
            assert_eq!(
                table.stl_prime(loss, 0.03).to_bits(),
                model.stl_prime(loss, 0.03).to_bits()
            );
        }
        assert_eq!((table.evals(), table.len()), (3, 0));
    }

    /// A row is sized when its epoch is fitted: a slot per loss bucket up
    /// to λ_A's and one that every saturated loss shares. Filled end to
    /// end it keeps every value, and equal hold times share one row.
    #[test]
    fn a_row_holds_every_bucket_up_to_saturation_and_never_loses_one() {
        let model = StlSelector::model_from_metrics(&warmed_metrics());
        let q = 0.05;
        let table = StlTable::new(model, &[0.03, 0.04, 0.03], q);
        let width = bucket(model.lambda_a, q) as usize + 2;
        assert_eq!(table.rows.len(), 2);
        assert!(table.rows.iter().all(|row| row.slots.len() == width));
        // Every bucket's representative up to λ_A's, then a saturated loss.
        let losses: Vec<f64> = (0..width as u64 - 1)
            .map(|b| representative(b, q))
            .chain([2.0 * model.lambda_a + 1.0])
            .collect();
        let first: Vec<u64> = losses
            .iter()
            .map(|&loss| table.stl_prime(loss, 0.03).to_bits())
            .collect();
        assert_eq!((table.evals(), table.len()), (width as u64, width));
        for (&loss, &bits) in losses.iter().zip(&first) {
            assert_eq!(bits, model.stl_prime(table.quantized(loss), 0.03).to_bits());
            assert_eq!(table.stl_prime(loss, 0.03).to_bits(), bits);
        }
        assert_eq!(first[width - 1], (model.lambda_a * 0.03).to_bits());
        assert_eq!(
            table.stl_prime(f64::INFINITY, 0.03).to_bits(),
            first[width - 1]
        );
        assert_eq!(table.evals(), width as u64, "the second pass only reads");
    }

    #[test]
    fn a_ninth_hold_time_is_computed_but_not_memoized() {
        let model = StlSelector::model_from_metrics(&warmed_metrics());
        let hold_times: Vec<f64> = (1..=9).map(|i| 0.01 * i as f64).collect();
        let table = StlTable::new(model, &hold_times[..8], 0.05);
        for round in 0..2 {
            for (i, &u) in hold_times.iter().enumerate() {
                assert_eq!(
                    table.stl_prime(10.0, u).to_bits(),
                    model.stl_prime(table.quantized(10.0), u).to_bits(),
                    "round {round}, hold time {i}"
                );
            }
        }
        assert_eq!(table.len(), 8);
        assert_eq!(table.evals(), 8 + 2, "the ninth, once per round");
    }

    #[test]
    fn concurrent_fills_of_one_key_store_one_value() {
        const THREADS: usize = 4;
        let model = StlSelector::model_from_metrics(&warmed_metrics());
        let table = StlTable::new(model, &[0.03], 0.05);
        let start = std::sync::Barrier::new(THREADS);
        let seen: Vec<u64> = std::thread::scope(|scope| {
            let fills: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        table.stl_prime(42.0, 0.03).to_bits()
                    })
                })
                .collect();
            fills.into_iter().map(|t| t.join().unwrap()).collect()
        });
        assert!(seen.iter().all(|&bits| bits == seen[0]));
        assert_eq!(table.len(), 1, "one slot, whoever claimed it");
        assert!((1..=THREADS as u64).contains(&table.evals()));
        assert_eq!(
            seen[0],
            model.stl_prime(table.quantized(42.0), 0.03).to_bits()
        );
        assert_eq!(table.stl_prime(42.0, 0.03).to_bits(), seen[0]);
    }

    /// A stream of selections against one epoch, a re-fit from the same
    /// metrics, the same stream again: the pre-warm ran every dynamic
    /// program the second pass needs.
    #[test]
    fn prewarm_carries_what_selections_asked_for_and_lets_idle_keys_go() {
        let metrics = warmed_metrics();
        let cat = catalog();
        let mut cached = CachedStlSelector::with_settings(CacheSettings {
            warmup_commits: 10,
            explore_every: 0,
            drift_check_every: 0,
            ..CacheSettings::default()
        });
        let stream: Vec<Transaction> = (0..30)
            .map(|i| txn(i, &[i % 12, (i + 3) % 12], &[(i + 1) % 12, (i + 5) % 12]))
            .collect();
        let costs = |cached: &mut CachedStlSelector| -> Vec<_> {
            stream
                .iter()
                .map(|t| bits(&cached.select(t, &cat, &metrics)))
                .collect()
        };
        let cold = costs(&mut cached);
        let first = cached.cache_stats();
        assert!(first.misses > 0 && first.prewarmed == 0 && first.epoch == 1);

        cached.refit_now(&metrics);
        let prewarmed = cached.cache_stats();
        assert_eq!(prewarmed.epoch, 2);
        assert_eq!(
            prewarmed.prewarmed, first.entries,
            "every key was asked for"
        );
        assert_eq!(prewarmed.entries, first.entries);
        assert_eq!(prewarmed.evals, first.evals + prewarmed.prewarmed);
        assert_eq!(
            (prewarmed.hits, prewarmed.misses),
            (first.hits, first.misses)
        );

        assert_eq!(costs(&mut cached), cold, "same model, same decisions");
        let second = cached.cache_stats();
        assert_eq!(second.misses, first.misses, "the second pass only hit");
        assert_eq!(second.evals, prewarmed.evals);

        // Nobody asks any more: the keys ride along for a few epochs,
        // then the carried set empties instead of growing for ever.
        for idle in 1..=CARRY_IDLE_EPOCHS + 1 {
            cached.refit_now(&metrics);
            let expected = if idle <= CARRY_IDLE_EPOCHS {
                first.entries
            } else {
                0
            };
            assert_eq!(cached.cache_stats().entries, expected, "idle epoch {idle}");
        }
    }

    /// Two protocols that shared a hold time shared its row; when the
    /// re-fit measures them apart, the pre-warm fills the row's buckets
    /// in at both new hold times.
    #[test]
    fn prewarm_fans_a_shared_row_out_to_every_slot_it_stood_for() {
        let metrics = warmed_metrics();
        let fitted = |epoch, hold_times: [f64; 6]| {
            let mut snapshot = EpochSnapshot::fit(&metrics, epoch);
            let params = &mut snapshot.params;
            [params.p2pl.u_ok, params.p2pl.u_denied] = [hold_times[0], hold_times[1]];
            [params.to.u_ok, params.to.u_denied] = [hold_times[2], hold_times[3]];
            [params.pa.u_ok, params.pa.u_denied] = [hold_times[4], hold_times[5]];
            Epoch::new(snapshot, 0.05, Arc::default())
        };
        let prev = fitted(1, [0.03, 0.06, 0.03, 0.07, 0.08, 0.09]);
        prev.table.stl_prime(10.0, 0.03);
        assert_eq!(prev.table.len(), 1);
        let next = fitted(2, [0.03, 0.06, 0.05, 0.07, 0.08, 0.09]);
        assert!(next.prewarm_from(&prev, || true));
        assert_eq!(next.table.counters.prewarmed.load(Ordering::Relaxed), 2);
        assert_eq!(next.table.len(), 2);
        for u in [0.03, 0.05] {
            assert_eq!(
                next.table.stl_prime(10.0, u).to_bits(),
                next.snapshot
                    .model
                    .stl_prime(next.table.quantized(10.0), u)
                    .to_bits()
            );
        }
        assert_eq!(next.table.evals(), 2, "both were pre-warmed");
    }

    /// A selection's clone of the published epoch stays whole across a
    /// re-fit — its table still answers from what it memoized — and the
    /// epoch is freed with the last clone.
    #[test]
    fn a_reader_keeps_its_epoch_across_a_refit_and_frees_it_after() {
        let metrics = warmed_metrics();
        let cached = CachedStlSelector::new();
        let refit = || cached.refit_now(&metrics);
        let held = refit().expect("open");
        let u = held.snapshot.params.hold_times()[0];
        let value = held.table.stl_prime(10.0, u);
        let next = refit().expect("open");
        assert_eq!((held.snapshot.epoch, next.snapshot.epoch), (1, 2));
        assert_eq!(cached.cache_stats().epoch, 2);
        let evals = held.table.evals();
        assert_eq!(held.table.stl_prime(10.0, u).to_bits(), value.to_bits());
        assert_eq!(held.table.evals(), evals, "a hit in the old table");
        let freed = Arc::downgrade(&held);
        drop(held);
        assert!(freed.upgrade().is_none(), "the last clone freed it");
    }

    /// Re-fits are serialized: one started while another holds the re-fit
    /// lock publishes nothing until that one lets go.
    #[test]
    fn a_refit_waits_for_the_one_in_flight() {
        let metrics = warmed_metrics();
        let cached = CachedStlSelector::new();
        cached.refit_now(&metrics);
        let in_flight = cached.refitting.lock().unwrap();
        std::thread::scope(|scope| {
            let waiting = scope.spawn(|| cached.refit_now(&metrics));
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert!(!waiting.is_finished());
            assert_eq!(cached.cache_stats().epoch, 1);
            drop(in_flight);
            let published = waiting.join().unwrap().expect("open");
            assert_eq!(published.snapshot.epoch, 2);
        });
        assert_eq!(cached.cache_stats().refits, 2);
    }

    /// A panic holding both of the selector's locks poisons them and loses
    /// nothing: the published epoch is still read, and the next re-fit
    /// still publishes.
    #[test]
    fn a_panic_holding_the_epoch_locks_loses_nothing() {
        let metrics = warmed_metrics();
        let cached = CachedStlSelector::new();
        cached.refit_now(&metrics);
        let panicked = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _refitting = cached.refitting.lock().unwrap();
                    let _current = cached.current.write().unwrap();
                    panic!("a panic with both locks held");
                })
                .join()
        });
        assert!(panicked.is_err());
        assert!(cached.refitting.is_poisoned() && cached.current.is_poisoned());
        assert_eq!(cached.cache_stats().epoch, 1);
        let next = cached.refit_now(&metrics);
        assert_eq!(next.expect("open").snapshot.epoch, 2);
        assert_eq!(cached.epoch().map(|e| e.snapshot.epoch), Some(2));
    }

    #[test]
    fn a_closed_selector_keeps_its_epoch_and_abandons_refits() {
        let metrics = warmed_metrics();
        let cat = catalog();
        let cached = CachedStlSelector::with_settings(CacheSettings {
            warmup_commits: 10,
            explore_every: 0,
            ..CacheSettings::default()
        });
        let t = txn(1, &[1], &[2]);
        let (merges, probes) = Default::default();
        select_and_serve(&cached, &t, &cat, &metrics, &merges, &probes);
        let before = select_and_serve(&cached, &t, &cat, &metrics, &merges, &probes);
        assert_eq!(before.epoch, 1);

        cached.close();
        assert!(cached.refit_now(&metrics).is_none());
        assert!(cached.request_refit());
        let outcome = cached.serve_request(
            // An epoch later: due.
            metrics.total_committed.get() + cached.settings.epoch_commits,
            || metrics.clone(),
            || metrics.sample(),
        );
        assert_eq!(outcome, Some(RefitOutcome::Abandoned));
        let after = select_and_serve(&cached, &t, &cat, &metrics, &merges, &probes);
        assert_eq!(
            (after.epoch, bits(&after.decision)),
            (1, bits(&before.decision))
        );
        assert_eq!(cached.cache_stats().refits, 1);
    }

    #[test]
    fn settings_validation_rejects_nonsense() {
        assert!(CacheSettings::default().validate().is_ok());
        assert!(CacheSettings {
            quant_rel: -0.1,
            ..CacheSettings::default()
        }
        .validate()
        .is_err());
        assert!(CacheSettings {
            drift_threshold: f64::NAN,
            ..CacheSettings::default()
        }
        .validate()
        .is_err());
        // Narrower buckets than 0.01 would let a row outgrow ~6k slots.
        assert!(CacheSettings {
            quant_rel: 0.005,
            ..CacheSettings::default()
        }
        .validate()
        .is_err());
        assert!(CacheSettings {
            quant_rel: 0.0,
            ..CacheSettings::default()
        }
        .validate()
        .is_ok());
    }
}
