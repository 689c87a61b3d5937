//! Cached adaptive selection: memoizing STL′, the expensive primitive.
//!
//! A fresh [`StlSelector`] runs the STL′ dynamic program three to six times
//! per selection — tens of microseconds each, several times what a static
//! policy spends on the whole transaction. This module makes adaptive
//! concurrency control pay for itself by splitting the selector into three
//! very different cadences:
//!
//! * **Memoized decide** (every selection): load the current [`Epoch`],
//!   collapse the transaction to its [`ShapeSummary`] and run the closed
//!   form of [`evaluate_decision_with`] — powers, conditional loss, argmin
//!   — over the epoch's [`StlTable`] instead of over the dynamic program.
//!   An epoch is immutable apart from its table, and the table is filled
//!   through `&self`: a miss runs its dynamic program with nothing held
//!   and publishes the value with one compare-and-swap. Two threads that
//!   miss the same key both compute it — the program is a pure function
//!   of the key, so they store the same bits in the same slot.
//! * **Request** (when a selection notices a re-fit is due: `epoch_commits`
//!   commits since the fit, a conflict-ratio shift, or every
//!   `drift_check_every`-th selection for the scalar drift probe): one
//!   flag is raised, [`CachedStlSelector::select_published`] returns, and
//!   selections keep reading the epoch they have.
//! * **Re-fit, pre-warm, publish** (whoever answers the request — the
//!   runtime's refitter thread through
//!   [`CachedStlSelector::serve_request`]): re-check that the re-fit is
//!   still due, snapshot the [`StlModel`], the per-protocol
//!   [`MethodParamSet`] and the per-item rate table out of the live
//!   metrics into an [`EpochSnapshot`], recompute against it every table
//!   entry the previous epoch was asked for, and only then swap the
//!   published `Arc`. The first selections of the new epoch therefore hit.
//!
//! The single-threaded drive ([`CachedStlSelector::select`], what the
//! simulator-style callers and the benches use) is the same epoch, the
//! same table and the same decide with the re-fit run inline by the
//! selection that finds it due; it is deterministic.
//!
//! The seam sits at `STL'(λ, U)` rather than at the decision because that
//! is where the key space is small: an epoch freezes at most six hold
//! times `U` (`u_ok`, `u_denied` of three protocols), and for each of them
//! STL′ is a function of the one loss λ. A table keyed `(U, bucket(λ))` is
//! therefore shared by every shape — any `m`, `n`, op profile or split of
//! λ into read and write loss — where a decision memo needs one entry per
//! combination of them. It is also what makes pre-warming possible: a
//! re-fit measures six new hold times, so no old `(U, bucket)` key recurs,
//! but "the `u_denied` of T/O at bucket 212" names the same question in
//! both epochs.
//!
//! Memoization is *exact*: every table entry is exactly
//! `stl_prime(representative(bucket(λ)), U)` under the epoch's model —
//! whether a selection's miss, a concurrent duplicate or the pre-warm
//! stored it — so a pre-warmed epoch and a cold one fitted from the same
//! metrics return bit-identical [`SelectionDecision`]s, and with
//! quantization disabled both return what a fresh [`StlSelector`] returns
//! against those metrics; the test-suite checks each byte for byte. What
//! concurrency adds is only *which* epoch a selection reads: the one
//! published when it loaded, whole — never a mixture of two. Routing
//! ([`crate::route`]) never touches the table: it is pure in the op
//! profile and the access-set sizes.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use dbmodel::{Catalog, LogicalItemId, PhysicalItemId, SiteId, Transaction};
use metrics::{MetricsSample, SimMetrics};

use crate::estimators::{ProtocolParams, ShapeSummary};
use crate::publish::Published;
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
    /// drift for probabilities and conflict ratios) that forces an early
    /// re-fit. 0 disables drift-triggered refreshes.
    pub drift_threshold: f64,
    /// Selections between drift probes against the live metrics (the probe
    /// folds the system-wide scalars only — no per-item table, no STL′
    /// evaluation). 0 disables probing; the workload-signal check still
    /// runs every selection.
    pub drift_check_every: u64,
    /// Width of the loss-quantization buckets of the STL′ table, on a
    /// `ln(1+x)` scale: losses above ~1 lock/s share a bucket when within
    /// a relative factor of `1 + quant_rel` (e.g. 0.05 ⇒ ~5%), while
    /// losses below ~1 — where every protocol's estimated cost is
    /// negligible anyway — fall into absolute buckets about `quant_rel`
    /// wide. 0 keys the table on exact bit patterns instead (no
    /// collapsing at all).
    pub quant_rel: f64,
    /// STL′ values an epoch's table memoizes; past that, values are
    /// computed on every use until the next re-fit starts a new table.
    pub max_entries: usize,
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
            // drift checks below catch genuine workload shifts between
            // scheduled boundaries.
            epoch_commits: 1024,
            drift_threshold: 0.5,
            drift_check_every: 64,
            quant_rel: 0.05,
            max_entries: 8192,
            warmup_commits: 30,
            explore_every: 20,
        }
    }
}

impl CacheSettings {
    /// Check the settings for internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if !self.quant_rel.is_finite() || self.quant_rel < 0.0 {
            return Err("quant_rel must be a finite value >= 0".into());
        }
        if !self.drift_threshold.is_finite() || self.drift_threshold < 0.0 {
            return Err("drift_threshold must be a finite value >= 0".into());
        }
        if self.max_entries == 0 {
            return Err("max_entries must be at least 1".into());
        }
        Ok(())
    }
}

/// Live workload feedback the runtime folds into the epoch logic: per-shard
/// counters aggregated by the embedder. A change in the conflict ratio
/// (pre-scheduled grants over all grants) beyond the drift threshold
/// triggers an early re-fit even when the scheduled epoch boundary is far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkloadSignal {
    /// Lock grants issued (all shards).
    pub grants: u64,
    /// Conflicted (pre-scheduled) grants issued (all shards).
    pub conflicts: u64,
}

impl WorkloadSignal {
    /// Fraction of grants that were pre-scheduled (issued under conflict).
    pub fn conflict_ratio(&self) -> f64 {
        if self.grants == 0 {
            0.0
        } else {
            self.conflicts as f64 / self.grants as f64
        }
    }

    /// The counter deltas accumulated since `earlier` (saturating, so a
    /// stale baseline never underflows).
    pub fn since(&self, earlier: WorkloadSignal) -> WorkloadSignal {
        WorkloadSignal {
            grants: self.grants.saturating_sub(earlier.grants),
            conflicts: self.conflicts.saturating_sub(earlier.conflicts),
        }
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
    overflows: AtomicU64,
}

/// Distinct hold times a table keeps a row for; an epoch freezes six.
const TABLE_ROWS: usize = 8;
/// Slots in a row's first segment; every further segment doubles.
const FIRST_SEGMENT: usize = 64;
/// Slots probed linearly per segment before moving on to the next one.
const PROBE_WINDOW: usize = 16;
/// A pre-warm carries a key over while selections asked for it within this
/// many epochs. An epoch of the default length samples a workload's rarer
/// buckets only every few epochs, so carrying just the last epoch's reads
/// misses twice as often; carrying everything forever would let the buckets
/// a drifting workload has left pile up until every re-fit recomputes
/// `max_entries` of them.
const CARRY_IDLE_EPOCHS: u8 = 4;
/// An unclaimed row or slot. Never a valid key: a hold time with these
/// bits is a NaN, a bucket index this large is the bucket of an infinite
/// loss, and an exact-mode loss is never negative. Such keys are computed
/// without being memoized.
const NO_KEY: u64 = u64::MAX;
/// A claimed slot whose value has not been stored yet (a NaN bit pattern
/// no arithmetic produces; a value with these bits is not memoized).
const NO_VALUE: u64 = u64::MAX;

#[derive(Debug)]
struct Slot {
    key: AtomicU64,
    value: AtomicU64,
    /// Epochs since a selection last read or stored this key: 0 once one
    /// does, the previous epoch's count plus one when a pre-warm carries
    /// the key over. A hint (see [`CARRY_IDLE_EPOCHS`]), so `Relaxed`.
    idle: AtomicU8,
}

/// One open-addressed array of a row's chain.
#[derive(Debug)]
struct Segment {
    slots: Box<[Slot]>,
    /// `64 - log2(slots.len())`: Fibonacci hashing keeps the top bits.
    shift: u32,
    next: OnceLock<Box<Segment>>,
}

impl Segment {
    fn new(len: usize) -> Box<Segment> {
        debug_assert!(len.is_power_of_two() && len >= 2);
        Box::new(Segment {
            slots: (0..len)
                .map(|_| Slot {
                    key: AtomicU64::new(NO_KEY),
                    value: AtomicU64::new(NO_VALUE),
                    idle: AtomicU8::new(0),
                })
                .collect(),
            shift: 64 - len.trailing_zeros(),
            next: OnceLock::new(),
        })
    }

    /// The slots a key may occupy in this segment, in probe order.
    fn window(&self, key: u64) -> impl Iterator<Item = &Slot> {
        let start = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
        let mask = self.slots.len() - 1;
        (0..PROBE_WINDOW.min(self.slots.len())).map(move |i| &self.slots[(start + i) & mask])
    }
}

/// The entries of one hold time `U`: loss key → `STL'` bits, in a chain of
/// doubling segments. Keys are claimed with a compare-and-swap and never
/// removed, so a probe that reaches an unclaimed slot has seen every slot
/// an earlier insert of its key could have taken.
#[derive(Debug)]
struct Row {
    u_bits: AtomicU64,
    head: OnceLock<Box<Segment>>,
}

impl Row {
    /// The value under `key`; a selection's read (`idle` 0) also marks the
    /// entry as wanted this epoch.
    fn get(&self, key: u64, idle: u8) -> Option<f64> {
        let mut segment = self.head.get();
        while let Some(seg) = segment {
            for slot in seg.window(key) {
                // Acquire pairs with the claiming compare-and-swap below;
                // the value's Acquire with its Release store.
                match slot.key.load(Ordering::Acquire) {
                    k if k == key => {
                        // Test first: the line stays shared on repeat hits.
                        if idle == 0 && slot.idle.load(Ordering::Relaxed) != 0 {
                            slot.idle.store(0, Ordering::Relaxed);
                        }
                        let bits = slot.value.load(Ordering::Acquire);
                        return (bits != NO_VALUE).then(|| f64::from_bits(bits));
                    }
                    NO_KEY => return None,
                    _ => {}
                }
            }
            segment = seg.next.get();
        }
        None
    }

    /// Store `bits` under `key`, claiming a slot if the key has none and
    /// `table` (whose row this is) has room. A slot claimed here starts at
    /// `idle`. Returns false when the table had no room.
    fn put(&self, table: &StlTable, key: u64, bits: u64, idle: u8) -> bool {
        let full = || table.len.load(Ordering::Relaxed) >= table.max_entries;
        let mut seg = self.head.get_or_init(|| Segment::new(table.first_segment));
        loop {
            for slot in seg.window(key) {
                let mut k = slot.key.load(Ordering::Acquire);
                if k == NO_KEY {
                    if full() {
                        return false;
                    }
                    k = match slot.key.compare_exchange(
                        NO_KEY,
                        key,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    ) {
                        Ok(_) => {
                            table.len.fetch_add(1, Ordering::Relaxed);
                            slot.idle.store(idle, Ordering::Relaxed);
                            key
                        }
                        Err(claimed_by) => claimed_by,
                    };
                }
                if k == key {
                    // Whoever claimed the slot, every writer of this key
                    // stores the same bits.
                    slot.value.store(bits, Ordering::Release);
                    return true;
                }
            }
            seg = match seg.next.get() {
                Some(next) => next,
                None if full() => return false,
                None => seg.next.get_or_init(|| Segment::new(seg.slots.len() * 2)),
            };
        }
    }

    /// The keys selections asked for recently enough to carry over, each
    /// with the idle count its successor starts at.
    fn carried_keys(&self) -> impl Iterator<Item = (u64, u8)> + '_ {
        std::iter::successors(self.head.get(), |seg| seg.next.get())
            .flat_map(|seg| seg.slots.iter())
            .map(|slot| {
                let idle = slot.idle.load(Ordering::Relaxed) + 1;
                (slot.key.load(Ordering::Acquire), idle)
            })
            .filter(|&(key, idle)| key != NO_KEY && idle <= CARRY_IDLE_EPOCHS)
    }
}

/// The memo of `STL'(λ_loss, U)` values: maps `(U, bucket(λ_loss))` — the
/// exact bit patterns of both when quantization is off — to the dynamic
/// program's value at the bucket's canonical representative. The
/// [`StlModel`] is *not* part of the key: a table belongs to one model
/// (an [`Epoch`] pairs them; a re-fit starts a new table).
///
/// Reads and fills both go through `&self` and take no lock: a row per
/// hold time, each an insert-only open-addressed chain of atomics. The
/// table never holds more than `max_entries` values (give or take one per
/// racing thread); past that a value is computed on every use and counted
/// in [`StlTable::overflows`].
#[derive(Debug)]
pub struct StlTable {
    quant_rel: f64,
    max_entries: usize,
    first_segment: usize,
    rows: [Row; TABLE_ROWS],
    len: AtomicUsize,
    counters: Arc<TableCounters>,
}

impl StlTable {
    /// A table with the given relative loss quantization (0 = exact keys).
    pub fn new(quant_rel: f64, max_entries: usize) -> StlTable {
        StlTable::with_counters(quant_rel, max_entries, FIRST_SEGMENT, Arc::default())
    }

    /// A table keyed on exact bit patterns: memoization without any
    /// collapsing of nearby losses.
    pub fn exact() -> StlTable {
        StlTable::new(0.0, CacheSettings::default().max_entries)
    }

    fn with_counters(
        quant_rel: f64,
        max_entries: usize,
        first_segment: usize,
        counters: Arc<TableCounters>,
    ) -> StlTable {
        StlTable {
            quant_rel,
            max_entries: max_entries.max(1),
            first_segment,
            rows: std::array::from_fn(|_| Row {
                u_bits: AtomicU64::new(NO_KEY),
                head: OnceLock::new(),
            }),
            len: AtomicUsize::new(0),
            counters,
        }
    }

    /// An empty table with this one's settings and counters, its rows
    /// sized so that as many keys as this one's fullest row holds fit the
    /// first segment: the next epoch's table.
    fn successor(&self) -> StlTable {
        let fullest = self.rows.iter().map(|row| row.carried_keys().count()).max();
        let first_segment = (fullest.unwrap_or(0) * 2)
            .next_power_of_two()
            .min(self.max_entries.next_power_of_two())
            .max(FIRST_SEGMENT);
        StlTable::with_counters(
            self.quant_rel,
            self.max_entries,
            first_segment,
            Arc::clone(&self.counters),
        )
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

    fn loss_key(&self, lambda_loss: f64) -> u64 {
        if self.quant_rel > 0.0 {
            bucket(lambda_loss, self.quant_rel)
        } else {
            lambda_loss.max(0.0).to_bits()
        }
    }

    /// A loss whose key is `key` (the inverse of [`StlTable::loss_key`] up
    /// to [`StlTable::quantized`]).
    fn loss_of_key(&self, key: u64) -> f64 {
        if self.quant_rel > 0.0 {
            representative(key, self.quant_rel)
        } else {
            f64::from_bits(key)
        }
    }

    /// The row of hold time `u_bits`, claiming a free one for a hold time
    /// not seen before; `None` when all rows belong to other hold times.
    fn row(&self, u_bits: u64) -> Option<&Row> {
        self.rows.iter().find(|row| {
            let mut owner = row.u_bits.load(Ordering::Acquire);
            if owner == NO_KEY {
                owner = match row.u_bits.compare_exchange(
                    NO_KEY,
                    u_bits,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => u_bits,
                    Err(claimed_by) => claimed_by,
                };
            }
            owner == u_bits
        })
    }

    /// `STL'` at the table's stand-in for `lambda_loss`, and whether this
    /// call ran the dynamic program for it. `idle` is 0 for a selection's
    /// read; a pre-warm passes the count the entry starts at.
    fn read(&self, model: &StlModel, lambda_loss: f64, u: f64, idle: u8) -> (f64, bool) {
        let (key, u_bits) = (self.loss_key(lambda_loss), u.to_bits());
        let row = (key != NO_KEY && u_bits != NO_KEY)
            .then(|| self.row(u_bits))
            .flatten();
        if let Some(value) = row.and_then(|row| row.get(key, idle)) {
            return (value, false);
        }
        // Nothing is held here: other selections read and fill meanwhile.
        self.counters.evals.fetch_add(1, Ordering::Relaxed);
        let value = model.stl_prime(self.quantized(lambda_loss), u);
        let kept = row.is_some_and(|row| {
            value.to_bits() != NO_VALUE && row.put(self, key, value.to_bits(), idle)
        });
        if !kept {
            self.counters.overflows.fetch_add(1, Ordering::Relaxed);
        }
        (value, true)
    }

    /// `model.stl_prime(self.quantized(lambda_loss), u)`, computed once per
    /// `(u, bucket)` (bar racing duplicates) while the table has room.
    pub fn stl_prime(&self, model: &StlModel, lambda_loss: f64, u: f64) -> f64 {
        self.read(model, lambda_loss, u, 0).0
    }

    /// [`crate::evaluate_decision`] with every `STL'` read through the
    /// table. Counts a hit when all of them were memoized, a miss when at
    /// least one ran the dynamic program.
    pub fn decide(
        &self,
        model: &StlModel,
        params: &MethodParamSet,
        summary: &ShapeSummary,
    ) -> SelectionDecision {
        self.decide_flagged(model, params, summary).0
    }

    /// [`StlTable::decide`], also saying whether the decision was a hit.
    fn decide_flagged(
        &self,
        model: &StlModel,
        params: &MethodParamSet,
        summary: &ShapeSummary,
    ) -> (SelectionDecision, bool) {
        let mut hit = true;
        let decision = evaluate_decision_with(
            &mut |loss, u| {
                let (value, computed) = self.read(model, loss, u, 0);
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

    /// Every `(U bits, loss key, idle count)` worth carrying into the
    /// next epoch's table.
    fn carried_keys(&self) -> Vec<(u64, u64, u8)> {
        self.rows
            .iter()
            .flat_map(|row| {
                let u_bits = row.u_bits.load(Ordering::Acquire);
                row.carried_keys()
                    .map(move |(key, idle)| (u_bits, key, idle))
            })
            .collect()
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

    /// Values computed but not memoized: the table was at `max_entries`,
    /// or out of rows for a ninth hold time.
    pub fn overflows(&self) -> u64 {
        self.counters.overflows.load(Ordering::Relaxed)
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
    /// Conflict ratio this epoch's drift checks compare against: the
    /// ratio observed over the window preceding the fit (the cumulative
    /// ratio for the very first fit).
    pub conflict_ratio: f64,
    /// The cumulative workload counters at fit time — the baseline the
    /// drift check subtracts so it always reasons about *recent* grants,
    /// not lifetime averages (which go inert as the run ages).
    pub signal_at_fit: WorkloadSignal,
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

/// Grants that must accumulate since the fit before a conflict-ratio
/// drift verdict is trusted (a handful of conflicted grants in a row is
/// noise, not a regime change).
const DRIFT_MIN_GRANTS: u64 = 64;

impl EpochSnapshot {
    /// Fit a snapshot from the live metrics. `prev_signal` is the
    /// cumulative workload signal at the *previous* fit, used to derive
    /// the recent-window conflict ratio this epoch is compared against.
    pub fn fit(
        metrics: &SimMetrics,
        epoch: u64,
        signal: WorkloadSignal,
        prev_signal: Option<WorkloadSignal>,
    ) -> EpochSnapshot {
        let window = prev_signal
            .map(|prev| signal.since(prev))
            .filter(|w| w.grants > 0)
            .unwrap_or(signal);
        EpochSnapshot {
            epoch,
            fitted_at_commits: metrics.total_committed.get(),
            conflict_ratio: window.conflict_ratio(),
            signal_at_fit: signal,
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
    /// counts frozen at fit time. Note the comparison is against lifetime
    /// metric aggregates, which respond ever more slowly as a run ages —
    /// the delta-based [`EpochSnapshot::signal_drifted`] check is the
    /// responsive trigger in long-lived runs, and windowed metrics are an
    /// open ROADMAP item.
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

    /// True when the conflict ratio of the grants issued *since this fit*
    /// has moved beyond `threshold` (absolute) from the ratio the epoch
    /// was fitted against. Comparing deltas rather than lifetime ratios
    /// keeps the trigger responsive in long-lived runs.
    pub fn signal_drifted(&self, signal: WorkloadSignal, threshold: f64) -> bool {
        if threshold <= 0.0 {
            return false;
        }
        let window = signal.since(self.signal_at_fit);
        window.grants >= DRIFT_MIN_GRANTS
            && (window.conflict_ratio() - self.conflict_ratio).abs() > threshold
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
    /// The cost-based decision for `summary`, and whether the table served
    /// it without running a dynamic program.
    fn decide(&self, summary: &ShapeSummary) -> (SelectionDecision, bool) {
        self.table
            .decide_flagged(&self.snapshot.model, &self.snapshot.params, summary)
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
        if self.table.quant_rel <= 0.0 {
            // Exact keys name losses, not buckets, and a re-fit moves
            // every loss: nothing the old table holds will be asked again.
            return true;
        }
        let old = prev.snapshot.params.hold_times();
        let new = self.snapshot.params.hold_times();
        for (u_bits, key, idle) in prev.table.carried_keys() {
            let loss = prev.table.loss_of_key(key);
            // Two slots that shared a hold time shared its row.
            for slot in (0..old.len()).filter(|&slot| old[slot].to_bits() == u_bits) {
                if !keep_going() {
                    return false;
                }
                if self
                    .table
                    .read(&self.snapshot.model, loss, new[slot], idle)
                    .1
                {
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
    /// STL′ values computed but not memoized (table at `max_entries`).
    pub overflows: u64,
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
/// selection counter, a warm-up latch, a re-fit request flag — atomics
/// all. Two drives share it. [`CachedStlSelector::select`] and
/// [`CachedStlSelector::select_with_signal`] take `&mut self` and re-fit
/// inline. [`CachedStlSelector::select_published`] takes `&self`, from any
/// number of threads, and only ever *requests* a re-fit;
/// [`CachedStlSelector::serve_request`] performs it, on whatever thread
/// the embedder dedicates to that.
#[derive(Debug)]
pub struct CachedStlSelector {
    /// The tuning this selector was built with.
    pub settings: CacheSettings,
    counter: AtomicU64,
    refits: AtomicU64,
    /// Latched by the inline drive once every method has enough commits.
    /// Warm-up is monotone in the (monotone) metrics, so latching it lets
    /// the fast path skip the metrics read entirely. (The published drive
    /// is warm exactly when an epoch is published.)
    warmed: bool,
    current: Published<Epoch>,
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
            warmed: false,
            current: Published::new(None),
            requested: AtomicBool::new(false),
            closed: AtomicBool::new(false),
            counters: Arc::default(),
        }
    }

    /// Choose the concurrency-control method for `txn` (no workload
    /// signal; epoch boundaries are driven by commits and drift probes).
    pub fn select(
        &mut self,
        txn: &Transaction,
        catalog: &Catalog,
        metrics: &SimMetrics,
    ) -> SelectionDecision {
        self.select_with_signal(txn, catalog, metrics, WorkloadSignal::default())
    }

    /// Choose the concurrency-control method for `txn`, folding the
    /// embedder's live workload counters into the epoch logic. A re-fit
    /// that is due runs here, before the decision.
    pub fn select_with_signal(
        &mut self,
        txn: &Transaction,
        catalog: &Catalog,
        metrics: &SimMetrics,
        signal: WorkloadSignal,
    ) -> SelectionDecision {
        let counter = self.next_round();
        let commits = metrics.total_committed.get();
        if !self.warmed {
            // Exact, metrics-free pre-filter: fewer than `3 × warmup`
            // total commits means *some* method is still below its
            // warm-up bar.
            if commits < self.settings.warmup_commits.saturating_mul(3)
                || !StlSelector::warmed_up(metrics, self.settings.warmup_commits)
            {
                return exploratory_decision(counter);
            }
            self.warmed = true;
        }
        if is_exploration_round(counter, self.settings.explore_every) {
            return exploratory_decision(counter);
        }
        let current = self.current.load();
        let stale = current.as_ref().is_none_or(|epoch| {
            self.refit_due(&epoch.snapshot, signal, commits)
                || (self.probe_round(counter) && self.drifted(&epoch.snapshot, &metrics.sample()))
        });
        let epoch = if stale {
            self.refit_now(metrics, signal).or(current)
        } else {
            current
        };
        match epoch {
            Some(epoch) => epoch.decide(&epoch.snapshot.summary_for(txn, catalog)).0,
            // Closed before anything was fitted: no estimates to go by.
            None => exploratory_decision(counter),
        }
    }

    /// Choose the concurrency-control method for a transaction reading
    /// `reads` and writing `writes` (as [`EpochSnapshot::summary_of`] takes
    /// them) against the *published* epoch: load it, summarise, look up,
    /// argmin — atomics only, nothing merged, nothing fitted, whatever
    /// other threads are doing. `commits` and `signal` are the embedder's
    /// live counters. Until the first epoch is published every round is an
    /// exploration round; once `3 × warmup_commits` commits are in, and
    /// whenever a re-fit looks due, the selection raises the request flag
    /// for [`CachedStlSelector::serve_request`] and carries on with the
    /// epoch it has.
    pub fn select_published(
        &self,
        reads: &[LogicalItemId],
        writes: &[LogicalItemId],
        origin: SiteId,
        catalog: &Catalog,
        signal: WorkloadSignal,
        commits: u64,
    ) -> PublishedSelection {
        let counter = self.next_round();
        let exploratory = |raised| PublishedSelection {
            decision: exploratory_decision(counter),
            epoch: 0,
            hit: false,
            raised,
        };
        let Some(epoch) = self.current.load() else {
            let may_be_warm = commits >= self.settings.warmup_commits.saturating_mul(3);
            return exploratory(may_be_warm && self.request_refit());
        };
        if is_exploration_round(counter, self.settings.explore_every) {
            return exploratory(false);
        }
        let raised = (self.refit_due(&epoch.snapshot, signal, commits)
            || self.probe_round(counter))
            && self.request_refit();
        let summary = epoch.snapshot.summary_of(reads, writes, origin, catalog);
        let (decision, hit) = epoch.decide(&summary);
        PublishedSelection {
            decision,
            epoch: epoch.snapshot.epoch,
            hit,
            raised,
        }
    }

    fn next_round(&self) -> u64 {
        self.counter.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// True when `snapshot` is `epoch_commits` old or the conflict ratio
    /// has left it behind — the two triggers that read counters only.
    fn refit_due(&self, snapshot: &EpochSnapshot, signal: WorkloadSignal, commits: u64) -> bool {
        commits.saturating_sub(snapshot.fitted_at_commits) >= self.settings.epoch_commits.max(1)
            || snapshot.signal_drifted(signal, self.settings.drift_threshold)
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
    /// decide, from the embedder's counters *now*, whether a re-fit is
    /// still due — the scheduled boundary, the conflict-ratio shift, or
    /// the scalar drift probe against `probe()` — and if so fit a new
    /// epoch from `merge()`, pre-warm it and publish it. Before the first
    /// epoch, `merge()` also answers whether every method is warm.
    /// `merge` folds the embedder's metric stripes into one collection
    /// ([`SimMetrics::merge_from`]); `probe` folds their system-wide
    /// scalars only ([`MetricsSample::merge_from`]). Each runs at most
    /// once, on this thread.
    pub fn serve_request(
        &self,
        signal: WorkloadSignal,
        commits: u64,
        merge: impl FnOnce() -> SimMetrics,
        probe: impl FnOnce() -> MetricsSample,
    ) -> Option<RefitOutcome> {
        if !self.requested.swap(false, Ordering::Relaxed) {
            return None;
        }
        let current = self.current.load();
        let due = current.as_ref().is_none_or(|epoch| {
            self.refit_due(&epoch.snapshot, signal, commits)
                || self.drifted(&epoch.snapshot, &probe())
        });
        if !due {
            return Some(RefitOutcome::NotDue);
        }
        let merged = merge();
        if current.is_none() && !StlSelector::warmed_up(&merged, self.settings.warmup_commits) {
            return Some(RefitOutcome::NotDue);
        }
        Some(match self.refit_now(&merged, signal) {
            Some(_) => RefitOutcome::Published,
            None => RefitOutcome::Abandoned,
        })
    }

    /// Fit a new epoch from `metrics`, pre-warm its table from the current
    /// epoch's and publish it — synchronously, whatever is or is not due.
    /// Re-fits are serialized; selections keep reading the current epoch
    /// until the swap. Returns the new epoch, or `None` when the selector
    /// was closed first.
    pub fn refit_now(&self, metrics: &SimMetrics, signal: WorkloadSignal) -> Option<Arc<Epoch>> {
        let open = || !self.closed.load(Ordering::Relaxed);
        let mut published = false;
        let current = self.current.update(|prev| {
            if !open() {
                return None;
            }
            let (number, prev_signal, table) = match prev {
                Some(prev) => (
                    prev.snapshot.epoch + 1,
                    Some(prev.snapshot.signal_at_fit),
                    prev.table.successor(),
                ),
                None => (
                    1,
                    None,
                    StlTable::with_counters(
                        self.settings.quant_rel,
                        self.settings.max_entries,
                        FIRST_SEGMENT,
                        Arc::clone(&self.counters),
                    ),
                ),
            };
            let epoch = Epoch {
                snapshot: EpochSnapshot::fit(metrics, number, signal, prev_signal),
                table,
            };
            published = prev.is_none_or(|prev| epoch.prewarm_from(prev, open));
            published.then(|| Arc::new(epoch))
        });
        if published {
            self.refits.fetch_add(1, Ordering::Relaxed);
        }
        current.filter(|_| published)
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
        self.current.load()
    }

    /// A copy of the cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        let epoch = self.current.load();
        let count = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        CacheStats {
            hits: count(&self.counters.hits),
            misses: count(&self.counters.misses),
            evals: count(&self.counters.evals),
            prewarmed: count(&self.counters.prewarmed),
            refits: count(&self.refits),
            overflows: count(&self.counters.overflows),
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
        assert!(stats.hits > 0, "repeated shapes must hit: {stats:?}");
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
        let picked = selector.select_published(
            t.read_set(),
            t.write_set(),
            t.origin,
            cat,
            WorkloadSignal::default(),
            commits,
        );
        assert_eq!(picked.raised, selector.refit_requested());
        selector.serve_request(
            WorkloadSignal::default(),
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
            let a = borrowed.select_with_signal(&t, &cat, &metrics, WorkloadSignal::default());
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
        let table = StlTable::new(0.05, 1024);
        let summary = ShapeSummary {
            m: 2,
            n: 1,
            read_loss: 13.37,
            write_loss: 4.2,
        };
        let miss = table.decide(&model, &params, &summary);
        let hit = table.decide(&model, &params, &summary);
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
        let table = StlTable::new(0.05, 1024);
        let base = ShapeSummary {
            m: 2,
            n: 1,
            read_loss: 100.0,
            write_loss: 50.0,
        };
        let nearby = ShapeSummary {
            read_loss: 101.0,
            ..base
        };
        let far = ShapeSummary {
            read_loss: 160.0,
            ..base
        };
        // Same total loss, different counts and read/write split: a
        // different shape, the same table entries.
        let other_shape = ShapeSummary {
            m: 3,
            n: 2,
            read_loss: 30.0,
            write_loss: 120.0,
        };
        table.decide(&model, &params, &base);
        let seeded = table.evals();
        table.decide(&model, &params, &nearby);
        table.decide(&model, &params, &other_shape);
        assert_eq!(table.evals(), seeded, "nearby losses share a bucket");
        table.decide(&model, &params, &far);
        assert!(table.evals() > seeded, "a far loss is its own bucket");
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
    fn exact_keys_separate_any_loss_difference() {
        let model = StlSelector::model_from_metrics(&warmed_metrics());
        let table = StlTable::exact();
        let (a, b) = (10.0, 10.0 + 1e-12);
        assert_eq!(table.quantized(a).to_bits(), a.to_bits());
        assert_eq!(
            table.stl_prime(&model, a, 0.03).to_bits(),
            model.stl_prime(a, 0.03).to_bits()
        );
        table.stl_prime(&model, b, 0.03);
        assert_eq!((table.evals(), table.len()), (2, 2));
        // Same loss, another hold time: another entry.
        table.stl_prime(&model, a, 0.04);
        table.stl_prime(&model, a, 0.03);
        assert_eq!((table.evals(), table.len()), (3, 3));
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
    }

    #[test]
    fn conflict_ratio_drift_forces_early_refit() {
        let metrics = warmed_metrics();
        let cat = catalog();
        let mut cached = CachedStlSelector::with_settings(CacheSettings {
            epoch_commits: 1_000_000,
            drift_threshold: 0.2,
            drift_check_every: 0,
            warmup_commits: 10,
            explore_every: 0,
            ..CacheSettings::default()
        });
        let t = txn(1, &[1], &[2]);
        let calm = WorkloadSignal {
            grants: 10_000,
            conflicts: 100,
        };
        cached.select_with_signal(&t, &cat, &metrics, calm);
        cached.select_with_signal(&t, &cat, &metrics, calm);
        assert_eq!(cached.cache_stats().refits, 1);
        // The grants issued since the fit run at an 80% conflict ratio
        // against the 1% the epoch was fitted on: early re-fit — even
        // though the *cumulative* ratio (which lifetime counters would
        // compare) has barely moved off 1%.
        let stormy = WorkloadSignal {
            grants: 10_100,
            conflicts: 180,
        };
        assert!((stormy.conflict_ratio() - calm.conflict_ratio()).abs() < 0.2);
        cached.select_with_signal(&t, &cat, &metrics, stormy);
        assert_eq!(cached.cache_stats().refits, 2);
        // A trickle of new grants is never enough to drift (noise guard).
        let trickle = WorkloadSignal {
            grants: stormy.grants + 10,
            conflicts: stormy.conflicts + 10,
        };
        cached.select_with_signal(&t, &cat, &metrics, trickle);
        assert_eq!(cached.cache_stats().refits, 2);
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
        let snapshot = EpochSnapshot::fit(&metrics, 1, WorkloadSignal::default(), None);
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

    #[test]
    fn full_grid_is_flushed_not_grown() {
        let model = StlSelector::model_from_metrics(&warmed_metrics());
        let table = StlTable::new(0.0, 4);
        for i in 0..10 {
            table.stl_prime(&model, i as f64, 0.03);
        }
        assert!(table.len() <= 4);
        assert!(table.overflows() > 0);
    }

    #[test]
    fn table_grows_past_its_first_segment_and_never_loses_a_key() {
        let model = StlSelector::model_from_metrics(&warmed_metrics());
        let table = StlTable::exact();
        let losses: Vec<f64> = (0..1_000).map(|i| 1.0 + i as f64 * 0.37).collect();
        let first: Vec<u64> = losses
            .iter()
            .map(|&loss| table.stl_prime(&model, loss, 0.03).to_bits())
            .collect();
        assert_eq!((table.evals(), table.len()), (1_000, 1_000));
        for (&loss, &bits) in losses.iter().zip(&first) {
            assert_eq!(table.stl_prime(&model, loss, 0.03).to_bits(), bits);
        }
        assert_eq!(table.evals(), 1_000, "the second pass only reads");
        assert_eq!(table.overflows(), 0);
    }

    #[test]
    fn a_ninth_hold_time_is_computed_but_not_memoized() {
        let model = StlSelector::model_from_metrics(&warmed_metrics());
        let table = StlTable::exact();
        for round in 0..2 {
            for i in 0..=TABLE_ROWS {
                let u = 0.01 * (i + 1) as f64;
                assert_eq!(
                    table.stl_prime(&model, 10.0, u).to_bits(),
                    model.stl_prime(10.0, u).to_bits(),
                    "round {round}, hold time {i}"
                );
            }
        }
        assert_eq!(table.len(), TABLE_ROWS);
        assert_eq!(table.overflows(), 2, "the ninth, once per round");
        assert_eq!(table.evals() as usize, TABLE_ROWS + 2);
    }

    #[test]
    fn concurrent_fills_of_one_key_store_one_value() {
        const THREADS: usize = 4;
        let model = StlSelector::model_from_metrics(&warmed_metrics());
        let table = StlTable::new(0.05, 1024);
        let start = std::sync::Barrier::new(THREADS);
        let seen: Vec<u64> = std::thread::scope(|scope| {
            let fills: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        table.stl_prime(&model, 42.0, 0.03).to_bits()
                    })
                })
                .collect();
            fills.into_iter().map(|t| t.join().unwrap()).collect()
        });
        assert!(seen.iter().all(|&bits| bits == seen[0]));
        assert_eq!(table.len(), 1, "one slot, whoever claimed it");
        assert!((1..=THREADS as u64).contains(&table.evals()));
        assert_eq!(table.stl_prime(&model, 42.0, 0.03).to_bits(), seen[0]);
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

        cached.refit_now(&metrics, WorkloadSignal::default());
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
            cached.refit_now(&metrics, WorkloadSignal::default());
            let expected = if idle <= CARRY_IDLE_EPOCHS {
                first.entries
            } else {
                0
            };
            assert_eq!(cached.cache_stats().entries, expected, "idle epoch {idle}");
        }
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
        assert!(cached
            .refit_now(&metrics, WorkloadSignal::default())
            .is_none());
        assert!(cached.request_refit());
        let outcome = cached.serve_request(
            WorkloadSignal::default(),
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
        assert!(CacheSettings {
            max_entries: 0,
            ..CacheSettings::default()
        }
        .validate()
        .is_err());
    }
}
