//! Property tests for the selection cache: memoizing STL′ must never
//! change a decision.
//!
//! The contract under test is the one the runtime relies on: within an
//! epoch, the cached selector returns **byte-identical**
//! [`SelectionDecision`]s to a fresh STL′ evaluation at the same epoch
//! snapshot — memoization is transparency, not approximation. With
//! quantization disabled the comparison is against the fresh evaluation of
//! the transaction's own shape; with quantization enabled every `STL'`
//! the table returns is the fresh dynamic program at its bucket's
//! canonical representative, a decision may leave the fresh one only
//! where the fresh costs are within that quantization error of each
//! other, and the hit and miss paths must agree with each other bit for
//! bit. Routing verdicts never depend on the table at all.

use bench::{committed_metrics, SkewedItems};
use dbmodel::{AccessMode, Catalog, Transaction};
use dbmodel::{CcMethod, LogicalItemId, PhysicalItemId, ReplicationPolicy, SiteId, TxnId};
use metrics::SimMetrics;
use proptest::prelude::*;
use selection::{
    classify, evaluate_decision, evaluate_decision_with, is_read_only, route, CacheSettings,
    CachedStlSelector, Confluence, MethodParamSet, OpProfile, ProtocolParams, Route,
    SelectionDecision, ShapeSummary, StlModel, StlSelector, StlTable, WorkloadSignal,
};
use simkit::rng::SimRng;
use simkit::time::{Duration, SimTime};

/// Byte-level view of a decision (NaN-safe, unlike `PartialEq`).
fn bits(d: &SelectionDecision) -> (CcMethod, u64, u64, u64, bool) {
    (
        d.method,
        d.stl_2pl.to_bits(),
        d.stl_to.to_bits(),
        d.stl_pa.to_bits(),
        d.exploratory,
    )
}

fn arb_model() -> impl Strategy<Value = StlModel> {
    // λ_w is kept a healthy fraction of λ_A so the escalation ladder stays
    // shallow and 1000 cases stay fast; the estimators see the full range
    // of regimes regardless (unloaded through saturated).
    (
        10.0f64..150.0,
        0.02f64..0.25,
        0.0f64..0.12,
        0.0f64..=1.0,
        1.0f64..8.0,
    )
        .prop_map(|(lambda_a, w_frac, r_frac, q_r, k)| StlModel {
            lambda_a,
            lambda_r: lambda_a * r_frac,
            lambda_w: lambda_a * w_frac,
            q_r,
            k,
        })
}

fn arb_params() -> impl Strategy<Value = ProtocolParams> {
    (
        0.0f64..0.2,
        0.0f64..0.3,
        0.0f64..=1.0,
        0.0f64..=1.0,
        0.0f64..=1.0,
    )
        .prop_map(
            |(u_ok, u_denied, p_abort, p_read_denial, p_write_denial)| ProtocolParams {
                u_ok,
                u_denied,
                p_abort,
                p_read_denial,
                p_write_denial,
            },
        )
}

fn arb_param_set() -> impl Strategy<Value = MethodParamSet> {
    (arb_params(), arb_params(), arb_params()).prop_map(|(p2pl, to, pa)| MethodParamSet {
        p2pl,
        to,
        pa,
    })
}

fn arb_summary() -> impl Strategy<Value = ShapeSummary> {
    (0usize..6, 0usize..6, 0.0f64..120.0, 0.0f64..240.0).prop_map(
        |(m, n, read_loss, write_loss)| ShapeSummary {
            m,
            n,
            read_loss,
            write_loss,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 1000,
        ..ProptestConfig::default()
    })]

    /// The headline equivalence: for random transaction shapes and random
    /// protocol parameters, the cached selector's decision — miss path and
    /// hit path alike — is byte-identical to a fresh `StlSelector`-style
    /// evaluation at the same epoch snapshot (same model, same parameters).
    #[test]
    fn cached_decision_is_byte_identical_to_fresh_evaluation(
        case in (arb_model(), arb_summary(), arb_param_set())
    ) {
        let (model, summary, params) = case;
        let fresh = evaluate_decision(&model, &summary, &params);
        let cache = StlTable::exact();
        let miss = cache.decide(&model, &params, &summary);
        let hit = cache.decide(&model, &params, &summary);
        prop_assert_eq!(bits(&fresh), bits(&miss), "miss path diverged");
        prop_assert_eq!(bits(&fresh), bits(&hit), "hit path diverged");
        prop_assert_eq!(cache.hits(), 1);
        prop_assert_eq!(cache.misses(), 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 300,
        ..ProptestConfig::default()
    })]

    /// With quantization enabled, every value the table hands out is the
    /// fresh dynamic program at the bucket's canonical representative, the
    /// representative never escapes its bucket, the decision is the closed
    /// form over exactly those values, and hit and miss paths agree.
    #[test]
    fn quantized_cache_is_internally_consistent(
        case in (arb_model(), arb_summary(), arb_param_set(), 0.01f64..0.4)
    ) {
        let (model, summary, params, quant) = case;
        let table = StlTable::new(quant, 8192);
        let mut reads = Vec::new();
        let over_reps = evaluate_decision_with(
            &mut |loss, u| {
                reads.push((loss, u));
                model.stl_prime(table.quantized(loss), u)
            },
            &summary,
            &params,
        );
        let miss = table.decide(&model, &params, &summary);
        let hit = table.decide(&model, &params, &summary);
        prop_assert_eq!(bits(&over_reps), bits(&miss));
        prop_assert_eq!(bits(&miss), bits(&hit));
        prop_assert_eq!((table.hits(), table.misses()), (1, 1));
        let evals = table.evals();
        for (loss, u) in reads {
            let rep = table.quantized(loss);
            prop_assert_eq!(
                table.quantized(rep).to_bits(),
                rep.to_bits(),
                "representative escaped its bucket"
            );
            prop_assert_eq!(
                table.stl_prime(&model, loss, u).to_bits(),
                model.stl_prime(rep, u).to_bits()
            );
            // Any other loss of the bucket reads the same entry.
            prop_assert_eq!(
                table.stl_prime(&model, rep, u).to_bits(),
                model.stl_prime(rep, u).to_bits()
            );
        }
        prop_assert_eq!(table.evals(), evals, "every entry was already memoized");
    }

    /// Quantization may change a decision only where it cannot matter: if
    /// the quantized selector picks another method than the fresh one, the
    /// fresh costs of the two methods differ by no more than the error
    /// quantization put on them.
    #[test]
    fn quantized_decision_departs_only_within_quantization_error(
        case in (arb_model(), arb_summary(), arb_param_set(), 0.01f64..0.2)
    ) {
        let (model, summary, params, quant) = case;
        let fresh = evaluate_decision(&model, &summary, &params);
        let quantized = StlTable::new(quant, 8192).decide(&model, &params, &summary);
        if quantized.method != fresh.method {
            let cost = |d: &SelectionDecision, m: CcMethod| match m {
                CcMethod::TwoPhaseLocking => d.stl_2pl,
                CcMethod::TimestampOrdering => d.stl_to,
                CcMethod::PrecedenceAgreement => d.stl_pa,
            };
            // How far quantization moved each of the two costs involved.
            let moved = |m| (cost(&quantized, m) - cost(&fresh, m)).abs();
            let error = moved(fresh.method) + moved(quantized.method);
            let gap = cost(&fresh, quantized.method) - cost(&fresh, fresh.method);
            prop_assert!(
                gap <= error * (1.0 + 1e-9) + 1e-12,
                "fresh picks {:?}, quantized {:?}: fresh gap {} exceeds quantization error {}",
                fresh.method, quantized.method, gap, error
            );
        }
    }
}

/// A warmed-up metrics collection whose rates are derived from `seed`.
fn seeded_metrics(seed: u64, items: u64) -> SimMetrics {
    let mut m = SimMetrics::new();
    m.set_time_span(SimTime::ZERO, SimTime::from_secs(50));
    for (mi, &method) in CcMethod::ALL.iter().enumerate() {
        let commits = 40 + (seed >> (mi * 8)) % 60;
        for _ in 0..commits {
            m.record_commit(method, Duration::from_millis(20 + (seed % 50)));
            m.record_lock_hold(method, Duration::from_millis(10 + (seed % 40)), false);
        }
        for _ in 0..(seed >> (mi * 4)) % 30 {
            m.record_request_outcome(method, AccessMode::Read, seed.is_multiple_of(3));
            m.record_request_outcome(method, AccessMode::Write, seed.is_multiple_of(5));
        }
    }
    for i in 0..items {
        let grants = 20 + (seed.wrapping_mul(i + 1) >> 7) % 400;
        for _ in 0..grants {
            m.record_grant(
                PhysicalItemId::new(LogicalItemId(i), SiteId((i % 2) as u32)),
                if (seed ^ i).is_multiple_of(3) {
                    AccessMode::Write
                } else {
                    AccessMode::Read
                },
            );
        }
    }
    m
}

/// The `i`-th transaction of the stream derived from `seed`: up to three
/// reads and `min_writes..min_writes + 3` writes over `items` items.
fn seeded_txn(seed: u64, i: u64, items: u64, min_writes: u64) -> Transaction {
    let x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i);
    let mut b = Transaction::builder(TxnId(i), SiteId(0));
    for r in 0..(x % 4) {
        b = b.read(LogicalItemId((x >> (r * 3)) % items));
    }
    for w in 0..(min_writes + (x >> 8) % 3) {
        b = b.write(LogicalItemId((x >> (w * 5 + 16)) % items));
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 60,
        ..ProptestConfig::default()
    })]

    /// End to end: against frozen live-style metrics, the exact-keyed
    /// cached selector and a fresh `StlSelector` walk in lockstep through
    /// a stream of random transactions — warm-up rounds, exploration
    /// rounds and cost-based decisions all byte-identical.
    #[test]
    fn cached_selector_matches_fresh_selector_against_frozen_metrics(seed in 0u64..u64::MAX) {
        const ITEMS: u64 = 16;
        let catalog = Catalog::generate(2, ITEMS, ReplicationPolicy::SingleCopy);
        let metrics = seeded_metrics(seed, ITEMS);
        let mut cached = CachedStlSelector::with_settings(CacheSettings {
            quant_rel: 0.0,
            warmup_commits: 20,
            explore_every: 5,
            ..CacheSettings::default()
        });
        let mut fresh = StlSelector::with_settings(20, 5);
        for i in 0..12u64 {
            if i == 6 {
                // A re-fit mid-stream (same metrics, so the same model):
                // the new epoch's table starts from the old one's keys
                // where that applies and from nothing where it does not,
                // and neither may show in a decision.
                cached.refit_now(&metrics, WorkloadSignal::default());
            }
            let txn = seeded_txn(seed, i, ITEMS, 1);
            let a = cached.select(&txn, &catalog, &metrics);
            let e = fresh.select(&txn, &catalog, &metrics);
            prop_assert_eq!(bits(&a), bits(&e), "selection {} diverged", i);
        }
        prop_assert_eq!(cached.cache_stats().refits, 2);
    }

    /// Pre-warming changes counters, never a decision: an epoch whose
    /// table was recomputed from the previous epoch's keys and an epoch
    /// fitted cold from the same metrics decide every shape bit for bit
    /// alike — whether the shape's entries were pre-warmed, filled by an
    /// earlier selection, or computed for this one.
    #[test]
    fn prewarmed_epoch_decides_like_a_cold_epoch_of_the_same_metrics(
        case in (0u64..u64::MAX, 0.01f64..0.3)
    ) {
        const ITEMS: u64 = 16;
        let (seed, quant) = case;
        let catalog = Catalog::generate(2, ITEMS, ReplicationPolicy::SingleCopy);
        let settings = CacheSettings {
            quant_rel: quant,
            warmup_commits: 20,
            explore_every: 0,
            ..CacheSettings::default()
        };
        // The previous epoch: other rates, other hold times, and a table
        // filled by a stream of selections.
        let before = seeded_metrics(seed.rotate_left(17) | 1, ITEMS);
        let metrics = seeded_metrics(seed, ITEMS);
        let mut warm = CachedStlSelector::with_settings(settings);
        for i in 0..24u64 {
            warm.select(&seeded_txn(seed, i, ITEMS, 1), &catalog, &before);
        }
        let asked = warm.cache_stats().entries;
        warm.refit_now(&metrics, WorkloadSignal::default());
        let prewarmed = warm.cache_stats();
        prop_assert!(asked > 0 && prewarmed.prewarmed > 0, "{:?}", prewarmed);
        prop_assert_eq!(prewarmed.entries, prewarmed.prewarmed, "a fresh table, pre-warmed");
        prop_assert_eq!(prewarmed.epoch, 2);

        let mut cold = CachedStlSelector::with_settings(settings);
        // Half the stream repeats what the old epoch saw, half is new.
        for i in 12..36u64 {
            let txn = seeded_txn(seed, i, ITEMS, 1);
            let a = warm.select(&txn, &catalog, &metrics);
            let b = cold.select(&txn, &catalog, &metrics);
            prop_assert!(!a.exploratory);
            prop_assert_eq!(bits(&a), bits(&b), "selection {} diverged", i);
        }
        let (warm, cold) = (warm.cache_stats(), cold.cache_stats());
        prop_assert_eq!((warm.epoch, cold.epoch), (2, 1), "no further re-fit on either side");
        prop_assert_eq!(cold.prewarmed, 0);
    }

    /// The fast-path safety contract of routing (PR 8): the routes a
    /// transaction is offered are exactly the pure classifiers of its op
    /// profile and access-set sizes, in the fixed fallback order —
    /// whichever round the selector deciding its protocol is in (warm-up,
    /// exploration, steady state; table hit or miss; whatever bucket the
    /// shape's losses quantize to). A memoized STL′ can therefore never
    /// flip a transaction onto a bypass its own fresh evaluation would
    /// refuse.
    #[test]
    fn classification_is_stable_across_bucket_representatives(
        case in (0u64..u64::MAX, 0.0f64..0.4, 0u8..16)
    ) {
        const ITEMS: u64 = 16;
        let (seed, quant, raw_profile) = case;
        let profile = OpProfile::from_bits(raw_profile);
        let catalog = Catalog::generate(2, ITEMS, ReplicationPolicy::SingleCopy);
        let cold = SimMetrics::new();
        let warm = seeded_metrics(seed, ITEMS);
        let mut cached = CachedStlSelector::with_settings(CacheSettings {
            quant_rel: quant,
            warmup_commits: 20,
            explore_every: 3,
            ..CacheSettings::default()
        });
        // (warm-up, exploration, steady-state) rounds seen.
        let mut phases = (0u32, 0u32, 0u32);
        for i in 0..12u64 {
            let txn = seeded_txn(seed, i, ITEMS, 0);
            let metrics = if i < 3 { &cold } else { &warm };
            let decision = cached.select(&txn, &catalog, metrics);
            let (m, n) = (txn.read_set().len(), txn.write_set().len());
            let mut expected = Vec::new();
            if is_read_only(profile, m, n) {
                expected.push(Route::Snapshot);
            }
            if classify(profile, m, n) == Confluence::ConfluentFastPath {
                expected.push(Route::Bypass);
            }
            expected.push(Route::Coordinated);
            prop_assert_eq!(route(profile, m, n).collect::<Vec<_>>(), expected, "round {}", i);
            match (i < 3, decision.exploratory) {
                (true, exploratory) => {
                    prop_assert!(exploratory, "cold metrics cannot be warmed up");
                    phases.0 += 1;
                }
                (false, true) => phases.1 += 1,
                (false, false) => phases.2 += 1,
            }
        }
        prop_assert_eq!(phases, (3, 3, 6));
    }
}

/// Deterministic count guard for the table's economics on the shape of
/// the `dynamic_skewed` benchmark workload: three transaction shapes
/// (4r+1w, 2w, 4r+4w) over Zipf-0.6 items, one epoch, default settings.
/// A decision memo keyed on the shape would miss on most of this stream;
/// the STL′ table must serve at least 85 % of the cost-based selections
/// without running a dynamic program, and may run at most one per frozen
/// hold time (six) per distinct loss bucket the epoch touched.
#[test]
fn one_epoch_of_the_skewed_stream_is_served_from_the_table() {
    const ITEMS: u64 = 1024;
    let catalog = Catalog::generate(2, ITEMS, ReplicationPolicy::SingleCopy);
    let skew = SkewedItems::new(ITEMS, 0.6);
    let mut rng = SimRng::new(7);
    let mut draw = |id: u64| skew.mixed_transaction(&mut rng, id);

    // The metrics a runtime would hold after 2,000 warm-up transactions of
    // this stream spread round-robin over the three methods, no denials.
    let history: Vec<Transaction> = (0..2_000).map(&mut draw).collect();
    let metrics = committed_metrics(&catalog, &history);

    let mut cached = CachedStlSelector::new();
    let stream: Vec<Transaction> = (0..1_000u64).map(|i| draw(2_000 + i)).collect();
    for txn in &stream {
        cached.select(txn, &catalog, &metrics);
    }
    let stats = cached.cache_stats();
    assert_eq!(stats.refits, 1, "frozen metrics: one epoch");

    // Every loss bucket the epoch's decisions read, recovered by replaying
    // the closed form over the snapshot with a recording evaluator.
    let epoch = cached.epoch().expect("fitted");
    let snapshot = &epoch.snapshot;
    let quantizer = StlTable::new(cached.settings.quant_rel, 1);
    let mut buckets = std::collections::BTreeSet::new();
    for txn in &stream {
        evaluate_decision_with(
            &mut |loss, _| {
                buckets.insert(quantizer.quantized(loss).to_bits());
                0.0
            },
            &snapshot.summary_for(txn, &catalog),
            &snapshot.params,
        );
    }
    assert!(
        stats.hit_rate() >= 0.85,
        "{stats:?} over {} loss buckets",
        buckets.len()
    );
    assert!(
        stats.evals <= 6 * buckets.len() as u64,
        "{} DP runs for {} loss buckets",
        stats.evals,
        buckets.len()
    );
    assert!(stats.evals >= buckets.len() as u64, "each bucket needs one");
}
