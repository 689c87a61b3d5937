//! Cached adaptive selection: memoizing STL′, the expensive primitive.
//!
//! A fresh [`StlSelector`] runs the STL′ dynamic program three to six times
//! per selection — tens of microseconds each, several times what a static
//! policy spends on the whole transaction. This module makes adaptive
//! concurrency control pay for itself by splitting the selector into two
//! very different cadences:
//!
//! * **Epoch re-fit** (slow path, every `epoch_commits` commits or on
//!   drift): snapshot the [`StlModel`], the per-protocol
//!   [`MethodParamSet`] and the per-item rate table out of the live
//!   metrics into an [`EpochSnapshot`]. Within an epoch every decision is
//!   a pure function of the transaction's access sets.
//! * **Memoized decide** (fast path, every selection): collapse the
//!   transaction to its [`ShapeSummary`] and run the closed form of
//!   [`evaluate_decision_with`] — powers, conditional loss, argmin — over
//!   an [`StlTable`] instead of over the dynamic program.
//!
//! The seam sits at `STL'(λ, U)` rather than at the decision because that
//! is where the key space is small: an epoch freezes at most six hold
//! times `U` (`u_ok`, `u_denied` of three protocols), and for each of them
//! STL′ is a function of the one loss λ. A table keyed `(U, bucket(λ))` is
//! therefore shared by every shape — any `m`, `n`, op profile or split of
//! λ into read and write loss — where a decision memo needs one entry per
//! combination of them.
//!
//! Memoization is *exact*: with quantization disabled the cached selector
//! returns bit-identical [`SelectionDecision`]s to a fresh [`StlSelector`]
//! evaluated against the same metrics, and with quantization enabled every
//! table entry is exactly `stl_prime(representative(bucket(λ)), U)` —
//! properties the test-suite checks byte-for-byte. Routing
//! ([`crate::route`]) never touches the table: it is pure in the op
//! profile and the access-set sizes.

use std::collections::{BTreeMap, HashMap};

use dbmodel::{Catalog, PhysicalItemId, Transaction};
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
    /// STL′ values kept in the table before it is flushed wholesale.
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
            // Every refit flushes the STL′ table, and each flushed entry
            // costs one dynamic program (tens of µs) to repopulate; at
            // live-runtime commit rates 1024 commits is still a sub-second
            // epoch, and the drift checks below catch genuine workload
            // shifts between scheduled boundaries.
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

/// The memo of `STL'(λ_loss, U)` values: maps `(U, bucket(λ_loss))` — the
/// exact bit patterns of both when quantization is off — to the dynamic
/// program's value at the bucket's canonical representative. The
/// [`StlModel`] is *not* part of the key: the owner must clear the table
/// whenever the model changes (the epoch re-fit does exactly that).
#[derive(Debug, Clone)]
pub struct StlTable {
    quant_rel: f64,
    max_entries: usize,
    values: HashMap<(u64, u64), f64>,
    hits: u64,
    misses: u64,
    evals: u64,
    flushes: u64,
}

impl StlTable {
    /// A table with the given relative loss quantization (0 = exact keys).
    pub fn new(quant_rel: f64, max_entries: usize) -> StlTable {
        StlTable {
            quant_rel,
            max_entries: max_entries.max(1),
            values: HashMap::new(),
            hits: 0,
            misses: 0,
            evals: 0,
            flushes: 0,
        }
    }

    /// A table keyed on exact bit patterns: memoization without any
    /// collapsing of nearby losses.
    pub fn exact() -> StlTable {
        StlTable::new(0.0, CacheSettings::default().max_entries)
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

    /// `model.stl_prime(self.quantized(lambda_loss), u)`, computed at most
    /// once per `(u, bucket)` until the table is cleared.
    pub fn stl_prime(&mut self, model: &StlModel, lambda_loss: f64, u: f64) -> f64 {
        let loss_key = if self.quant_rel > 0.0 {
            bucket(lambda_loss, self.quant_rel)
        } else {
            lambda_loss.max(0.0).to_bits()
        };
        let key = (u.to_bits(), loss_key);
        if let Some(&value) = self.values.get(&key) {
            return value;
        }
        self.evals += 1;
        let value = model.stl_prime(self.quantized(lambda_loss), u);
        if self.values.len() >= self.max_entries {
            self.values.clear();
            self.flushes += 1;
        }
        self.values.insert(key, value);
        value
    }

    /// [`crate::evaluate_decision`] with every `STL'` read through the
    /// table. Counts a hit when all of them were memoized, a miss when at
    /// least one ran the dynamic program.
    pub fn decide(
        &mut self,
        model: &StlModel,
        params: &MethodParamSet,
        summary: &ShapeSummary,
    ) -> SelectionDecision {
        let evals_before = self.evals;
        let decision = evaluate_decision_with(
            &mut |loss, u| self.stl_prime(model, loss, u),
            summary,
            params,
        );
        if self.evals == evals_before {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        decision
    }

    /// Drop every memoized value (the epoch re-fit path).
    pub fn clear(&mut self) {
        self.values.clear();
    }

    /// Number of memoized values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Decisions served wholly from the table since creation.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Decisions that ran at least one dynamic program since creation.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Dynamic programs run since creation.
    pub fn evals(&self) -> u64 {
        self.evals
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
        let mut m = 0usize;
        let mut n = 0usize;
        let mut read_loss = 0.0f64;
        let mut write_loss = 0.0f64;
        for &item in txn.read_set() {
            if let Ok(copy) = catalog.read_copy(item, txn.origin) {
                m += 1;
                read_loss += self.item_rate(copy).1;
            }
        }
        for &item in txn.write_set() {
            if let Ok(copies) = catalog.physical_copies(item) {
                let (mut lr, mut lw) = (0.0, 0.0);
                for copy in copies {
                    let (r, w) = self.item_rate(copy);
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

/// A point-in-time copy of the cached selector's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Selections served wholly from the STL′ table.
    pub hits: u64,
    /// Selections that ran at least one STL′ dynamic program.
    pub misses: u64,
    /// STL′ dynamic programs run (a miss runs between one and six).
    pub evals: u64,
    /// Epoch re-fits performed.
    pub refits: u64,
    /// Wholesale table flushes forced by `max_entries`.
    pub flushes: u64,
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

/// Where a selection reads its metrics from: a borrowed live collection
/// (the simulator path), or a pair of thunks over sharded metrics (the
/// runtime path). `merge` folds the per-thread stripes — per-item tables
/// included — into one collection; it is evaluated at most once and only
/// for warm-up and epoch re-fits. `probe` folds the system-wide scalars
/// only, which is all a drift probe compares. Neither runs on the
/// steady-state fast path.
enum MetricsSource<'a, F: FnOnce() -> SimMetrics, P: Fn() -> MetricsSample> {
    Borrowed(&'a SimMetrics),
    Lazy {
        merge: Option<F>,
        merged: Option<SimMetrics>,
        probe: P,
    },
}

impl<F: FnOnce() -> SimMetrics, P: Fn() -> MetricsSample> MetricsSource<'_, F, P> {
    fn get(&mut self) -> &SimMetrics {
        match self {
            MetricsSource::Borrowed(m) => m,
            MetricsSource::Lazy { merge, merged, .. } => {
                if merged.is_none() {
                    *merged = Some((merge.take().expect("merge thunk consumed twice"))());
                }
                merged.as_ref().expect("just filled")
            }
        }
    }

    fn sample(&self) -> MetricsSample {
        match self {
            MetricsSource::Borrowed(m) => m.sample(),
            MetricsSource::Lazy {
                merged: Some(m), ..
            } => m.sample(),
            MetricsSource::Lazy { probe, .. } => probe(),
        }
    }
}

/// The thunk types of [`MetricsSource::Borrowed`], which calls neither.
type NoMerge = fn() -> SimMetrics;
type NoProbe = fn() -> MetricsSample;

/// The drop-in cached variant of [`StlSelector`]: same warm-up and
/// exploration behaviour, same decisions, but each STL′ dynamic program
/// runs once per distinct (quantized) loss and hold time per epoch instead
/// of three to six times per transaction.
#[derive(Debug, Clone)]
pub struct CachedStlSelector {
    /// The tuning this selector was built with.
    pub settings: CacheSettings,
    counter: u64,
    refits: u64,
    /// Latched once every method has enough commits. Warm-up is monotone
    /// in the (monotone) metrics, so latching it lets the fast path skip
    /// the metrics read entirely.
    warmed: bool,
    snapshot: Option<EpochSnapshot>,
    table: StlTable,
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
            counter: 0,
            refits: 0,
            warmed: false,
            snapshot: None,
            table: StlTable::new(settings.quant_rel, settings.max_entries),
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
    /// embedder's live workload counters into the epoch logic.
    pub fn select_with_signal(
        &mut self,
        txn: &Transaction,
        catalog: &Catalog,
        metrics: &SimMetrics,
        signal: WorkloadSignal,
    ) -> SelectionDecision {
        let commits = metrics.total_committed.get();
        self.select_core::<NoMerge, NoProbe>(
            txn,
            catalog,
            signal,
            commits,
            MetricsSource::Borrowed(metrics),
        )
    }

    /// Choose the concurrency-control method for `txn` against *sharded*
    /// metrics: `commits` is the embedder's commit counter, `merge` folds
    /// its metric stripes into one collection and `probe` folds their
    /// system-wide scalars only ([`SimMetrics::sample`] of each stripe,
    /// [`MetricsSample::merge_from`] in stripe order). `merge` is invoked
    /// at most once, and only before warm-up completes or to fit a new
    /// epoch snapshot; `probe` only on a scheduled drift probe. The
    /// steady-state fast path (every STL′ memoized within an epoch) calls
    /// neither and takes no metrics lock.
    pub fn select_sharded<F: FnOnce() -> SimMetrics, P: Fn() -> MetricsSample>(
        &mut self,
        txn: &Transaction,
        catalog: &Catalog,
        signal: WorkloadSignal,
        commits: u64,
        merge: F,
        probe: P,
    ) -> SelectionDecision {
        self.select_core(
            txn,
            catalog,
            signal,
            commits,
            MetricsSource::Lazy {
                merge: Some(merge),
                merged: None,
                probe,
            },
        )
    }

    fn select_core<F: FnOnce() -> SimMetrics, P: Fn() -> MetricsSample>(
        &mut self,
        txn: &Transaction,
        catalog: &Catalog,
        signal: WorkloadSignal,
        commits: u64,
        mut source: MetricsSource<'_, F, P>,
    ) -> SelectionDecision {
        self.counter += 1;
        if !self.warmed {
            // Exact, metrics-free pre-filter: fewer than `3 × warmup`
            // total commits means *some* method is still below its
            // warm-up bar, so the (possibly expensive, lazily merged)
            // per-method check can be skipped outright.
            if commits < self.settings.warmup_commits.saturating_mul(3)
                || !StlSelector::warmed_up(source.get(), self.settings.warmup_commits)
            {
                return exploratory_decision(self.counter);
            }
            self.warmed = true;
        }
        if is_exploration_round(self.counter, self.settings.explore_every) {
            return exploratory_decision(self.counter);
        }

        if self.needs_refit(signal, commits, &source) {
            self.refit_now(source.get(), signal);
        }
        let snapshot = self
            .snapshot
            .as_ref()
            .expect("needs_refit guarantees a snapshot");
        let summary = snapshot.summary_for(txn, catalog);
        self.table
            .decide(&snapshot.model, &snapshot.params, &summary)
    }

    fn needs_refit<F: FnOnce() -> SimMetrics, P: Fn() -> MetricsSample>(
        &self,
        signal: WorkloadSignal,
        commits: u64,
        source: &MetricsSource<'_, F, P>,
    ) -> bool {
        let Some(snapshot) = &self.snapshot else {
            return true;
        };
        if commits.saturating_sub(snapshot.fitted_at_commits) >= self.settings.epoch_commits.max(1)
        {
            return true;
        }
        if snapshot.signal_drifted(signal, self.settings.drift_threshold) {
            return true;
        }
        self.settings.drift_check_every > 0
            && self.counter.is_multiple_of(self.settings.drift_check_every)
            && snapshot.drifted_from(&source.sample(), self.settings.drift_threshold)
    }

    /// Force an epoch re-fit from the live metrics, flushing the table.
    pub fn refit_now(&mut self, metrics: &SimMetrics, signal: WorkloadSignal) {
        let prev = self.snapshot.as_ref();
        let epoch = prev.map_or(0, |s| s.epoch) + 1;
        let prev_signal = prev.map(|s| s.signal_at_fit);
        self.snapshot = Some(EpochSnapshot::fit(metrics, epoch, signal, prev_signal));
        self.table.clear();
        self.refits += 1;
    }

    /// The current epoch snapshot, if one has been fitted.
    pub fn snapshot(&self) -> Option<&EpochSnapshot> {
        self.snapshot.as_ref()
    }

    /// A copy of the cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.table.hits,
            misses: self.table.misses,
            evals: self.table.evals,
            refits: self.refits,
            flushes: self.table.flushes,
            entries: self.table.len() as u64,
            epoch: self.snapshot.as_ref().map_or(0, |s| s.epoch),
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
        let mut sharded = CachedStlSelector::with_settings(settings);
        let merges = std::cell::Cell::new(0u64);
        let probes = std::cell::Cell::new(0u64);
        for i in 0..60 {
            let t = txn(i, &[i % 12, (i + 3) % 12], &[(i + 1) % 12]);
            let a = borrowed.select_with_signal(&t, &cat, &metrics, WorkloadSignal::default());
            let b = sharded.select_sharded(
                &t,
                &cat,
                WorkloadSignal::default(),
                metrics.total_committed.get(),
                || {
                    merges.set(merges.get() + 1);
                    metrics.clone()
                },
                || {
                    probes.set(probes.get() + 1);
                    metrics.sample()
                },
            );
            assert_eq!(bits(&a), bits(&b), "selection {i} diverged across sources");
        }
        // The full merge runs only when per-item tables are genuinely
        // needed — once, for the warm-up check and the first fit. Scheduled
        // drift probes fold scalars only, and the table-hit fast path reads
        // no metrics at all.
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
        let mut table = StlTable::new(0.05, 1024);
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
        let mut table = StlTable::new(0.05, 1024);
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
        let mut cached = CachedStlSelector::with_settings(CacheSettings {
            warmup_commits: 10,
            explore_every: 0,
            ..CacheSettings::default()
        });
        let t = txn(1, &[1], &[2, 3]);
        let mut select = || {
            cached.select_sharded(
                &t,
                &cat,
                WorkloadSignal::default(),
                metrics.total_committed.get(),
                || metrics.clone(),
                || metrics.sample(),
            )
        };
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
        let mut table = StlTable::exact();
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
        let mut table = StlTable::new(0.0, 4);
        for i in 0..10 {
            table.stl_prime(&model, i as f64, 0.03);
        }
        assert!(table.len() <= 4);
        assert!(table.flushes > 0);
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
