//! The per-transaction dynamic selector.
//!
//! [`StlSelector`] pulls the STL model parameters and the per-protocol
//! statistics out of a [`SimMetrics`] collection, evaluates the three
//! estimators for the incoming transaction, and returns the method with the
//! smallest estimated system throughput loss.
//!
//! Two practical details the paper leaves open are handled explicitly:
//!
//! * **Warm-up** — while fewer than `warmup_commits` transactions have
//!   committed under a method, its statistics are too noisy to trust; the
//!   selector cycles through the three methods round-robin so every protocol
//!   keeps collecting fresh measurements (this also implements the paper's
//!   suggestion that parameters "be collected periodically").
//! * **Exploration** — after warm-up a small fraction (`explore_every`) of
//!   transactions is still assigned round-robin, so the estimates of
//!   currently-unselected protocols do not go stale.

use dbmodel::{Catalog, CcMethod, Transaction};
use metrics::{MethodSample, MetricsSample, SimMetrics};

use crate::estimators::{
    stl_2pl_with, stl_pa_with, stl_to_with, ProtocolParams, ShapeSummary, StlFn, TxnShape,
};
use crate::stl::StlModel;

/// The outcome of one selection, including the estimated costs (for
/// reporting and for the selection experiment E6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectionDecision {
    /// The method chosen.
    pub method: CcMethod,
    /// Estimated STL under 2PL.
    pub stl_2pl: f64,
    /// Estimated STL under T/O.
    pub stl_to: f64,
    /// Estimated STL under PA.
    pub stl_pa: f64,
    /// True if the decision was a warm-up / exploration round-robin pick
    /// rather than a cost-based one.
    pub exploratory: bool,
}

/// The measured [`ProtocolParams`] of all three protocols, bundled so one
/// metrics read serves a whole selection (and, for the cached selector, a
/// whole epoch).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MethodParamSet {
    /// Parameters measured for 2PL.
    pub p2pl: ProtocolParams,
    /// Parameters measured for Basic T/O.
    pub to: ProtocolParams,
    /// Parameters measured for PA.
    pub pa: ProtocolParams,
}

impl MethodParamSet {
    /// Measure the current parameters of every protocol.
    pub fn measure(metrics: &SimMetrics) -> MethodParamSet {
        MethodParamSet::from_sample(&metrics.sample())
    }

    /// [`MethodParamSet::measure`] from the system-wide scalars alone.
    pub fn from_sample(sample: &MetricsSample) -> MethodParamSet {
        let params = |m| StlSelector::params_from_sample(sample.method(m));
        MethodParamSet {
            p2pl: params(CcMethod::TwoPhaseLocking),
            to: params(CcMethod::TimestampOrdering),
            pa: params(CcMethod::PrecedenceAgreement),
        }
    }

    /// The six lock-hold times a decision may read `STL'` at: `u_ok` and
    /// `u_denied` of 2PL, T/O and PA, in that order.
    pub fn hold_times(&self) -> [f64; 6] {
        [
            self.p2pl.u_ok,
            self.p2pl.u_denied,
            self.to.u_ok,
            self.to.u_denied,
            self.pa.u_ok,
            self.pa.u_denied,
        ]
    }
}

/// True when the `counter`-th selection is an exploration round
/// (`explore_every` of 0 disables exploration).
pub fn is_exploration_round(counter: u64, explore_every: u64) -> bool {
    explore_every > 0 && counter.is_multiple_of(explore_every)
}

/// The exploratory (warm-up / exploration) decision for the `counter`-th
/// selection: round-robin over the three methods, costs unknown.
pub fn exploratory_decision(counter: u64) -> SelectionDecision {
    SelectionDecision {
        method: CcMethod::ALL[(counter % 3) as usize],
        stl_2pl: f64::NAN,
        stl_to: f64::NAN,
        stl_pa: f64::NAN,
        exploratory: true,
    }
}

/// Cost-evaluate the three protocols for one transaction summary and pick
/// the cheapest, evaluating `STL'` against `model` afresh.
pub fn evaluate_decision(
    model: &StlModel,
    summary: &ShapeSummary,
    params: &MethodParamSet,
) -> SelectionDecision {
    evaluate_decision_with(&mut |loss, u| model.stl_prime(loss, u), summary, params)
}

/// [`evaluate_decision`] over any `STL'(λ_loss, U)` evaluator — the pure
/// core shared by the fresh [`StlSelector`] (which feeds it
/// [`StlModel::stl_prime`]) and the cached selector (which feeds it the
/// epoch's memo table), so both produce bit-identical decisions from
/// identical `STL'` values. At most six evaluations, three when no
/// protocol has a denial on record.
pub fn evaluate_decision_with(
    stl: &mut StlFn<'_>,
    summary: &ShapeSummary,
    params: &MethodParamSet,
) -> SelectionDecision {
    let cost_2pl = stl_2pl_with(stl, summary, &params.p2pl);
    let cost_to = stl_to_with(stl, summary, &params.to);
    let cost_pa = stl_pa_with(stl, summary, &params.pa);

    let method = if cost_2pl <= cost_to && cost_2pl <= cost_pa {
        CcMethod::TwoPhaseLocking
    } else if cost_to <= cost_pa {
        CcMethod::TimestampOrdering
    } else {
        CcMethod::PrecedenceAgreement
    };
    SelectionDecision {
        method,
        stl_2pl: cost_2pl,
        stl_to: cost_to,
        stl_pa: cost_pa,
        exploratory: false,
    }
}

/// Dynamic concurrency-control selector based on the STL criterion.
#[derive(Debug, Clone)]
pub struct StlSelector {
    /// Commits per method required before its estimates are trusted.
    pub warmup_commits: u64,
    /// After warm-up, every `explore_every`-th transaction is assigned
    /// round-robin regardless of cost (0 disables exploration).
    pub explore_every: u64,
    counter: u64,
}

impl Default for StlSelector {
    fn default() -> Self {
        StlSelector {
            warmup_commits: 30,
            explore_every: 20,
            counter: 0,
        }
    }
}

impl StlSelector {
    /// Create a selector with the default warm-up and exploration settings.
    pub fn new() -> Self {
        StlSelector::default()
    }

    /// Create a selector with explicit warm-up / exploration settings.
    pub fn with_settings(warmup_commits: u64, explore_every: u64) -> Self {
        StlSelector {
            warmup_commits,
            explore_every,
            counter: 0,
        }
    }

    /// Choose the concurrency-control method for `txn`.
    pub fn select(
        &mut self,
        txn: &Transaction,
        catalog: &Catalog,
        metrics: &SimMetrics,
    ) -> SelectionDecision {
        self.counter += 1;
        if !Self::warmed_up(metrics, self.warmup_commits)
            || is_exploration_round(self.counter, self.explore_every)
        {
            return exploratory_decision(self.counter);
        }

        let model = Self::model_from_metrics(metrics);
        let summary = Self::shape_for(txn, catalog, metrics).summary();
        let params = MethodParamSet::measure(metrics);
        evaluate_decision(&model, &summary, &params)
    }

    /// True once every method has committed at least `warmup_commits`
    /// transactions, i.e. its measured parameters are trustworthy.
    pub fn warmed_up(metrics: &SimMetrics, warmup_commits: u64) -> bool {
        CcMethod::ALL
            .iter()
            .all(|&m| metrics.method(m).committed.get() >= warmup_commits)
    }

    /// Build the system-wide STL model from measured rates.
    pub fn model_from_metrics(metrics: &SimMetrics) -> StlModel {
        Self::model_from_sample(&metrics.sample(), metrics.granted_item_counts())
    }

    /// [`StlSelector::model_from_metrics`] from the system-wide scalars and
    /// the `(read, write)` counts of items that granted at least one lock
    /// (the denominators of λ̄r and λ̄w).
    pub fn model_from_sample(sample: &MetricsSample, granted_items: (usize, usize)) -> StlModel {
        let commit_rate = sample.commit_throughput();
        let k = if commit_rate > 0.0 {
            (sample.system_throughput() / commit_rate).max(1.0)
        } else {
            1.0
        };
        StlModel {
            lambda_a: sample.system_throughput(),
            lambda_r: sample.avg_read_throughput(granted_items.0),
            lambda_w: sample.avg_write_throughput(granted_items.1),
            q_r: sample.read_fraction(),
            k,
        }
    }

    /// Build the per-item loss shape for a transaction (read-one at the
    /// origin site, write-all over the item's copies).
    pub fn shape_for(txn: &Transaction, catalog: &Catalog, metrics: &SimMetrics) -> TxnShape {
        let mut shape = TxnShape::default();
        for &item in txn.read_set() {
            if let Ok(copy) = catalog.read_copy(item, txn.origin) {
                shape.read_items.push((
                    metrics.read_throughput(copy),
                    metrics.write_throughput(copy),
                ));
            }
        }
        for &item in txn.write_set() {
            if let Ok(copies) = catalog.physical_copies(item) {
                let (mut lr, mut lw) = (0.0, 0.0);
                for copy in copies {
                    lr += metrics.read_throughput(copy);
                    lw += metrics.write_throughput(copy);
                }
                shape.write_items.push((lr, lw));
            }
        }
        shape
    }

    /// Extract the measured parameters of one protocol.
    pub fn params_for(metrics: &SimMetrics, method: CcMethod) -> ProtocolParams {
        Self::params_from_sample(&metrics.method(method).sample())
    }

    /// [`StlSelector::params_for`] from one method's scalars.
    pub fn params_from_sample(stats: &MethodSample) -> ProtocolParams {
        let u_ok = stats.lock_time_ok.mean();
        let u_denied = if stats.lock_time_aborted.count() > 0 {
            stats.lock_time_aborted.mean()
        } else {
            u_ok
        };
        ProtocolParams {
            u_ok,
            u_denied,
            p_abort: stats.deadlock_abort_prob(),
            p_read_denial: stats.read_denial_prob(),
            p_write_denial: stats.write_denial_prob(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbmodel::{AccessMode, LogicalItemId, PhysicalItemId, ReplicationPolicy, SiteId, TxnId};
    use metrics::TxnOutcome;
    use simkit::time::{Duration, SimTime};

    fn catalog() -> Catalog {
        Catalog::generate(2, 10, ReplicationPolicy::SingleCopy)
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

    /// Populate metrics so that all three methods look warmed up, with the
    /// given per-method tuning.
    fn warmed_metrics(tune: impl Fn(CcMethod, &mut SimMetrics)) -> SimMetrics {
        let mut m = SimMetrics::new();
        m.set_time_span(SimTime::ZERO, SimTime::from_secs(100));
        for &method in &CcMethod::ALL {
            for _ in 0..50 {
                m.record_commit(method, Duration::from_millis(40));
                m.record_lock_hold(method, Duration::from_millis(30), false);
            }
            tune(method, &mut m);
        }
        for i in 0..10u64 {
            for _ in 0..200 {
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

    /// The parent's `evaluate_decision`: six `STL'` calls, every weight
    /// multiplied through even when it is zero.
    fn six_call_decision(
        model: &StlModel,
        summary: &ShapeSummary,
        params: &MethodParamSet,
    ) -> [u64; 3] {
        let ok = |p: f64| 1.0 - p.clamp(0.0, 1.0);
        let lambda_t = summary.lambda_t();
        let denied = |p: &ProtocolParams| {
            let (read_ok, write_ok) = (ok(p.p_read_denial), ok(p.p_write_denial));
            let p_ok = read_ok.powi(summary.m as i32) * write_ok.powi(summary.n as i32);
            let conditional = if p_ok >= 1.0 - 1e-12 {
                lambda_t
            } else {
                let weighted = read_ok * summary.read_loss + write_ok * summary.write_loss;
                ((weighted - p_ok * lambda_t) / (1.0 - p_ok)).max(0.0)
            };
            (p_ok, model.stl_prime(conditional, p.u_denied))
        };
        let p_a = params.p2pl.p_abort.clamp(0.0, 1.0);
        let cost_2pl = model.stl_prime(lambda_t, params.p2pl.u_ok)
            + p_a / (1.0 - p_a) * model.stl_prime(lambda_t, params.p2pl.u_denied);
        let (p_ok, star) = denied(&params.to);
        let cost_to = model.stl_prime(lambda_t, params.to.u_ok) + (1.0 - p_ok) / p_ok * star;
        let (p_ok, plus) = denied(&params.pa);
        let cost_pa = model.stl_prime(lambda_t, params.pa.u_ok) + (1.0 - p_ok) * plus;
        [cost_2pl.to_bits(), cost_to.to_bits(), cost_pa.to_bits()]
    }

    #[test]
    fn zero_weight_skip_is_bit_identical_to_the_six_call_formula() {
        let mut rng = simkit::rng::SimRng::new(0xDEC1DE);
        let mut skipped = 0usize;
        for case in 0..600u32 {
            let lambda_a = 20.0 + 400.0 * rng.next_f64();
            let model = StlModel {
                lambda_a,
                lambda_r: lambda_a * 0.1 * rng.next_f64(),
                lambda_w: lambda_a * (0.02 + 0.1 * rng.next_f64()),
                q_r: rng.next_f64(),
                k: 1.0 + 7.0 * rng.next_f64(),
            };
            // Each probability is exactly zero in a third of the cases and
            // kept away from certain denial, where both formulas return the
            // same sentinel without evaluating anything.
            let prob = |rng: &mut simkit::rng::SimRng| {
                if rng.next_below(3) == 0 {
                    0.0
                } else {
                    0.9 * rng.next_f64()
                }
            };
            let one = |rng: &mut simkit::rng::SimRng| ProtocolParams {
                u_ok: 0.2 * rng.next_f64(),
                u_denied: 0.3 * rng.next_f64(),
                p_abort: prob(rng),
                p_read_denial: prob(rng),
                p_write_denial: prob(rng),
            };
            let params = MethodParamSet {
                p2pl: one(&mut rng),
                to: one(&mut rng),
                pa: one(&mut rng),
            };
            let summary = ShapeSummary {
                m: rng.next_index(6),
                n: rng.next_index(6),
                read_loss: 0.5 * lambda_a * rng.next_f64(),
                write_loss: 0.8 * lambda_a * rng.next_f64(),
            };
            let mut calls = 0usize;
            let d = evaluate_decision_with(
                &mut |loss, u| {
                    calls += 1;
                    model.stl_prime(loss, u)
                },
                &summary,
                &params,
            );
            assert_eq!(
                [d.stl_2pl.to_bits(), d.stl_to.to_bits(), d.stl_pa.to_bits()],
                six_call_decision(&model, &summary, &params),
                "case {case}: {model:?} {summary:?} {params:?}"
            );
            assert_eq!(d, evaluate_decision(&model, &summary, &params));
            skipped += 6 - calls;
        }
        assert!(skipped > 300, "the skip must be exercised: {skipped}");
    }

    #[test]
    fn warmup_cycles_round_robin() {
        let mut sel = StlSelector::with_settings(1000, 0);
        let metrics = SimMetrics::new();
        let cat = catalog();
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..6 {
            let d = sel.select(&txn(i, &[1], &[2]), &cat, &metrics);
            assert!(d.exploratory);
            seen.insert(d.method);
        }
        assert_eq!(seen.len(), 3, "warm-up must exercise every method");
    }

    #[test]
    fn selects_away_from_deadlock_prone_2pl() {
        let metrics = warmed_metrics(|method, m| {
            if method == CcMethod::TwoPhaseLocking {
                for _ in 0..40 {
                    m.record_restart(method, TxnOutcome::DeadlockRestart);
                    m.record_lock_hold(method, Duration::from_millis(200), true);
                }
            }
        });
        let mut sel = StlSelector::with_settings(10, 0);
        let d = sel.select(&txn(1, &[1, 2], &[3]), &catalog(), &metrics);
        assert!(!d.exploratory);
        assert_ne!(d.method, CcMethod::TwoPhaseLocking);
        assert!(d.stl_2pl > d.stl_to.min(d.stl_pa));
    }

    #[test]
    fn selects_away_from_rejection_prone_to_for_large_txns() {
        let metrics = warmed_metrics(|method, m| {
            if method == CcMethod::TimestampOrdering {
                for _ in 0..60 {
                    m.record_request_outcome(method, AccessMode::Read, true);
                    m.record_request_outcome(method, AccessMode::Write, true);
                }
                for _ in 0..40 {
                    m.record_request_outcome(method, AccessMode::Read, false);
                    m.record_request_outcome(method, AccessMode::Write, false);
                }
                for _ in 0..30 {
                    m.record_restart(method, TxnOutcome::RejectedRestart);
                    m.record_lock_hold(method, Duration::from_millis(100), true);
                }
            }
        });
        let mut sel = StlSelector::with_settings(10, 0);
        let big = txn(1, &[1, 2, 3, 4], &[5, 6, 7, 8]);
        let d = sel.select(&big, &catalog(), &metrics);
        assert!(!d.exploratory);
        assert_ne!(d.method, CcMethod::TimestampOrdering);
        assert!(d.stl_to > d.stl_2pl.min(d.stl_pa));
    }

    #[test]
    fn exploration_interleaves_after_warmup() {
        let metrics = warmed_metrics(|_, _| {});
        let mut sel = StlSelector::with_settings(10, 4);
        let cat = catalog();
        let mut exploratory = 0;
        for i in 0..40 {
            let d = sel.select(&txn(i, &[1], &[2]), &cat, &metrics);
            if d.exploratory {
                exploratory += 1;
            }
        }
        assert_eq!(exploratory, 10, "every 4th decision explores");
    }

    #[test]
    fn model_from_metrics_reflects_rates() {
        let metrics = warmed_metrics(|_, _| {});
        let model = StlSelector::model_from_metrics(&metrics);
        assert!(model.lambda_a > 0.0);
        assert!(model.q_r > 0.0 && model.q_r < 1.0);
        assert!(model.k >= 1.0);
        let empty = SimMetrics::new();
        let model = StlSelector::model_from_metrics(&empty);
        assert_eq!(model.lambda_a, 0.0);
        assert_eq!(model.k, 1.0);
    }

    #[test]
    fn shape_uses_read_one_write_all() {
        let metrics = warmed_metrics(|_, _| {});
        let cat = catalog();
        let t = txn(1, &[0], &[1, 2]);
        let shape = StlSelector::shape_for(&t, &cat, &metrics);
        assert_eq!(shape.m(), 1);
        assert_eq!(shape.n(), 2);
        assert!(shape.lambda_t() > 0.0);
    }

    #[test]
    fn params_fall_back_to_ok_time_when_no_aborts_measured() {
        let metrics = warmed_metrics(|_, _| {});
        let p = StlSelector::params_for(&metrics, CcMethod::PrecedenceAgreement);
        assert!(p.u_ok > 0.0);
        assert_eq!(p.u_ok, p.u_denied);
        assert_eq!(p.p_abort, 0.0);
    }
}
