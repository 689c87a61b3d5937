//! Selections against a published epoch while a publisher keeps swapping
//! it: the concurrent half of the selector, under real threads.
//!
//! The contract is the one `runtime::Database::begin` relies on under
//! `CcPolicy::DynamicStl`: a selection reads *one* epoch — the snapshot,
//! the parameters and the table of a single fit, never a mixture of two —
//! so its decision is exactly what that epoch decides single-threaded;
//! every cost-based selection is tallied as a hit or a miss, whichever
//! epoch it read; and threads that fill the same table key at once leave
//! one entry behind.
//!
//! Run in `--release` too (the `stress` CI job does): a debug-build
//! dynamic program is ~20× slower, so publishes rarely overlap selections
//! there and the races this file is about barely get a chance.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;

use bench::{committed_metrics, SkewedItems};
use dbmodel::{Catalog, CcMethod, ReplicationPolicy, Transaction};
use metrics::SimMetrics;
use selection::{
    CacheSettings, CachedStlSelector, SelectionDecision, StlModel, StlSelector, StlTable,
};
use simkit::rng::SimRng;

const ITEMS: u64 = 256;
const SELECTORS: usize = 4;
const SHAPES: usize = 48;
const PUBLISHES: u64 = 40;

fn bits(d: &SelectionDecision) -> (CcMethod, u64, u64, u64, bool) {
    (
        d.method,
        d.stl_2pl.to_bits(),
        d.stl_to.to_bits(),
        d.stl_pa.to_bits(),
        d.exploratory,
    )
}

fn settings() -> CacheSettings {
    CacheSettings {
        explore_every: 0,
        warmup_commits: 10,
        ..CacheSettings::default()
    }
}

/// Two regimes the publisher alternates between (odd epochs are fitted
/// from the first, even ones from the second), and the shapes selected.
fn fixture() -> (Catalog, [SimMetrics; 2], Vec<Transaction>) {
    let catalog = Catalog::generate(2, ITEMS, ReplicationPolicy::SingleCopy);
    let skew = SkewedItems::new(ITEMS, 0.6);
    let mut rng = SimRng::new(11);
    let mut draw = |n: u64| -> Vec<Transaction> {
        (0..n)
            .map(|id| skew.mixed_transaction(&mut rng, id))
            .collect()
    };
    let regimes = [
        committed_metrics(&catalog, &draw(600)),
        committed_metrics(&catalog, &draw(1_500)),
    ];
    (catalog, regimes, draw(SHAPES as u64))
}

#[test]
fn concurrent_selections_read_one_whole_epoch_each() {
    let (catalog, regimes, shapes) = fixture();
    let commits = regimes[0].total_committed.get();
    // What each regime's epoch decides for each shape, single-threaded.
    let reference: Vec<Vec<_>> = regimes
        .iter()
        .map(|metrics| {
            let mut alone = CachedStlSelector::with_settings(settings());
            shapes
                .iter()
                .map(|txn| bits(&alone.select(txn, &catalog, metrics)))
                .collect()
        })
        .collect();
    assert_ne!(reference[0], reference[1], "the regimes must differ");

    let selector = CachedStlSelector::with_settings(settings());
    selector.refit_now(&regimes[0]);
    let done = AtomicBool::new(false);
    let cost_based = AtomicU64::new(0);
    let start = Barrier::new(SELECTORS + 1);
    std::thread::scope(|scope| {
        for t in 0..SELECTORS {
            let (selector, catalog, shapes, reference) = (&selector, &catalog, &shapes, &reference);
            let (done, cost_based, start) = (&done, &cost_based, &start);
            scope.spawn(move || {
                start.wait();
                let (mut i, mut last_epoch) = (t, 0);
                while !done.load(Ordering::Relaxed) {
                    i = (i + 1) % SHAPES;
                    let txn = &shapes[i];
                    let before = selector.cache_stats().epoch;
                    let picked = selector.select_published(
                        txn.read_set(),
                        txn.write_set(),
                        txn.origin,
                        catalog,
                        commits,
                    );
                    let after = selector.cache_stats().epoch;
                    assert!(
                        (before..=after).contains(&picked.epoch) && picked.epoch >= last_epoch,
                        "epoch {} read between {before} and {after}, after {last_epoch}",
                        picked.epoch
                    );
                    last_epoch = picked.epoch;
                    // Epoch numbers start at 1, from the first regime.
                    let regime = (picked.epoch as usize + 1) % 2;
                    assert_eq!(
                        bits(&picked.decision),
                        reference[regime][i],
                        "shape {i} under epoch {}: not that epoch's decision",
                        picked.epoch
                    );
                    cost_based.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        start.wait();
        for n in 1..=PUBLISHES {
            let published = selector
                .refit_now(&regimes[(n % 2) as usize])
                .expect("open");
            assert_eq!(published.snapshot.epoch, n + 1);
        }
        done.store(true, Ordering::Relaxed);
    });
    let stats = selector.cache_stats();
    assert_eq!((stats.epoch, stats.refits), (PUBLISHES + 1, PUBLISHES + 1));
    assert_eq!(
        stats.hits + stats.misses,
        cost_based.load(Ordering::Relaxed),
        "every selection was tallied once, whichever epoch it read: {stats:?}"
    );
    assert!(stats.prewarmed > 0 && stats.evals >= stats.prewarmed);
}

#[test]
fn concurrent_fills_of_one_key_store_one_value() {
    const ROUNDS: usize = 300;
    let (_, regimes, _) = fixture();
    // λ_A above every round's loss, so no round lands in the slot that
    // every saturated loss shares.
    let model = StlModel {
        lambda_a: 1e12,
        ..StlSelector::model_from_metrics(&regimes[0])
    };
    let table = StlTable::new(model, &[0.03], settings().quant_rel);
    let round = Barrier::new(SELECTORS);
    std::thread::scope(|scope| {
        for _ in 0..SELECTORS {
            scope.spawn(|| {
                for r in 0..ROUNDS {
                    // A loss per round, each far enough from the last to
                    // be a bucket of its own; every thread asks at once.
                    let (loss, u) = (10.0 * 1.08f64.powi(r as i32), 0.03);
                    round.wait();
                    let mine = table.stl_prime(loss, u).to_bits();
                    round.wait();
                    // Everyone stored (or found) the same bits in the same
                    // entry, and the table grew by exactly that entry.
                    assert_eq!(mine, model.stl_prime(table.quantized(loss), u).to_bits());
                    assert_eq!(table.len(), r + 1, "round {r}");
                }
            });
        }
    });
    assert_eq!(table.len(), ROUNDS);
    assert!((ROUNDS as u64..=(ROUNDS * SELECTORS) as u64).contains(&table.evals()));
}
