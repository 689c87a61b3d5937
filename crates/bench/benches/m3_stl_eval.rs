//! M3 — micro-benchmark: cost of evaluating the STL model.
//!
//! The paper argues STL′ "can be evaluated efficiently through Dynamic
//! Programming techniques"; this benchmark prices the three things a
//! dynamic selection can cost on the live runtime:
//!
//! * `stl_prime_dp_run` — one STL′ dynamic program, the unit a table miss
//!   pays (and a fresh selector pays three to six times per transaction);
//! * `fresh_decision` — one full three-way decision straight off the
//!   dynamic program, six runs: what every admission cost before the table;
//! * `table_hit_decision` — the same decision with every STL′ memoized:
//!   the steady-state cost within an epoch;
//! * `cold_epoch_rebuild` — one whole epoch of the `dynamic_skewed` shape
//!   (three transaction shapes, Zipf 0.6 over 1,024 items, 1,024
//!   selections) on a selector that has no previous epoch to pre-warm
//!   from: the fit, every miss the epoch takes, and its hits. Its
//!   per-selection mean is the selector's amortized budget when nothing
//!   is carried over;
//! * `warm_epoch_rebuild` — what the runtime's refitter pays per epoch
//!   instead: one re-fit of a selector whose table holds the few hundred keys
//!   four epochs of the stream asked for — the model fit plus one dynamic
//!   program per carried key, none of it on a selecting thread.
//!
//! Every row is the median over alternating blocks, in nanoseconds per
//! call, and lands in `BENCH_m3.json` (see [`bench::traj`]).

use std::hint::black_box;
use std::time::Instant;

use bench::{committed_metrics, SkewedItems, Trajectory};
use dbmodel::{Catalog, ReplicationPolicy, Transaction};
use selection::{
    evaluate_decision, CacheSettings, CachedStlSelector, MethodParamSet, ProtocolParams,
    ShapeSummary, StlModel, StlTable, WorkloadSignal,
};
use simkit::rng::SimRng;
use trace::json::Json;

const REPS: usize = 7;
const ITEMS: u64 = 1024;
const EPOCH: usize = 1024;

fn model() -> StlModel {
    StlModel {
        lambda_a: 400.0,
        lambda_r: 8.0,
        lambda_w: 5.0,
        q_r: 0.6,
        k: 4.0,
    }
}

/// Parameters with every denial on record and six distinct hold times, so
/// a decision reads six STL′ values.
fn six_call_params() -> MethodParamSet {
    let params = |i: f64| ProtocolParams {
        u_ok: 0.04 + 0.002 * i,
        u_denied: 0.06 + 0.002 * i,
        p_abort: 0.05,
        p_read_denial: 0.1,
        p_write_denial: 0.15,
    };
    MethodParamSet {
        p2pl: params(0.0),
        to: params(1.0),
        pa: params(2.0),
    }
}

/// Median nanoseconds per call of `f` over `REPS` blocks of `calls` calls
/// (one untimed block first).
fn median_ns(calls: usize, mut f: impl FnMut()) -> f64 {
    let mut block = || {
        let begun = Instant::now();
        for _ in 0..calls {
            f();
        }
        begun.elapsed().as_secs_f64() * 1e9 / calls as f64
    };
    block();
    let mut runs: Vec<f64> = (0..REPS).map(|_| block()).collect();
    runs.sort_by(f64::total_cmp);
    runs[runs.len() / 2]
}

fn main() {
    println!("m3: STL' evaluation and the per-epoch STL' table");
    let m = model();
    let params = six_call_params();
    let mut traj = Trajectory::new("m3");
    traj.meta("reps", Json::num(REPS as u32));
    let mut row = |name: &str, ns: f64, extra: Vec<(&str, Json)>| {
        println!("  {name:<24} {ns:>12.1} ns/call");
        let mut fields = vec![("row", Json::str(name)), ("ns_per_call", Json::Num(ns))];
        fields.extend(extra);
        traj.row(fields);
    };

    let mut u = 0.01;
    let dp = median_ns(2_000, || {
        u = if u > 0.5 { 0.01 } else { u + 0.001 };
        black_box(m.stl_prime(black_box(25.0), u));
    });
    row("stl_prime_dp_run", dp, vec![]);

    let shapes: Vec<ShapeSummary> = (0..64)
        .map(|i| ShapeSummary {
            m: 1 + i % 4,
            n: 1 + (i / 4) % 4,
            read_loss: 5.0 + i as f64,
            write_loss: 10.0 + i as f64 * 2.0,
        })
        .collect();
    let mut next = 0usize;
    let fresh = median_ns(500, || {
        next = (next + 1) % shapes.len();
        black_box(evaluate_decision(&m, black_box(&shapes[next]), &params));
    });
    row("fresh_decision", fresh, vec![]);

    let table = StlTable::new(CacheSettings::default().quant_rel, 8192);
    for s in &shapes {
        table.decide(&m, &params, s);
    }
    let seeded = table.evals();
    let hit = median_ns(200_000, || {
        next = (next + 1) % shapes.len();
        black_box(table.decide(&m, &params, black_box(&shapes[next])));
    });
    assert_eq!(table.evals(), seeded, "the timed loop only hits");
    row("table_hit_decision", hit, vec![]);

    let catalog = Catalog::generate(2, ITEMS, ReplicationPolicy::SingleCopy);
    let skew = SkewedItems::new(ITEMS, 0.6);
    let mut rng = SimRng::new(7);
    let history: Vec<Transaction> = (0..2_000)
        .map(|id| skew.mixed_transaction(&mut rng, id))
        .collect();
    let metrics = committed_metrics(&catalog, &history);
    let epoch: Vec<Transaction> = (0..EPOCH as u64)
        .map(|id| skew.mixed_transaction(&mut rng, 2_000 + id))
        .collect();
    let cold_epoch = || {
        let mut selector = CachedStlSelector::new();
        for txn in &epoch {
            black_box(selector.select(txn, &catalog, &metrics));
        }
        selector
    };
    let rebuild = median_ns(3, || {
        cold_epoch();
    });
    // One more epoch, counted: what a rebuild consists of.
    let mut selector = cold_epoch();
    let cold = selector.cache_stats();
    println!(
        "    per epoch: {} DP runs, {} misses, hit rate {:.3}, {:.1} ns/selection",
        cold.evals,
        cold.misses,
        cold.hit_rate(),
        rebuild / EPOCH as f64
    );
    row(
        "cold_epoch_rebuild",
        rebuild,
        vec![
            ("selections", Json::num(EPOCH as u32)),
            ("ns_per_selection", Json::Num(rebuild / EPOCH as f64)),
            ("dp_runs", Json::Num(cold.evals as f64)),
            ("hit_rate", Json::Num(cold.hit_rate())),
        ],
    );

    // Four epochs' worth of the stream, so the table holds a key set the
    // size a live refitter carries, then the re-fit alone, timed.
    // The stream is replayed (untimed) before every re-fit: a pre-warm
    // carries the keys selections asked for.
    let stream: Vec<Transaction> = (0..4 * EPOCH as u64)
        .map(|id| skew.mixed_transaction(&mut rng, 4_000 + id))
        .collect();
    let mut refits: Vec<f64> = (0..=REPS)
        .map(|_| {
            for txn in &stream {
                selector.select(txn, &catalog, &metrics);
            }
            let begun = Instant::now();
            selector.refit_now(&metrics, WorkloadSignal::default());
            begun.elapsed().as_secs_f64() * 1e9
        })
        .skip(1)
        .collect();
    refits.sort_by(f64::total_cmp);
    let warm = selector.cache_stats();
    let carried = warm.entries;
    println!(
        "    per re-fit: {carried} keys carried, {:.1} us each",
        refits[REPS / 2] / carried as f64 / 1e3
    );
    row(
        "warm_epoch_rebuild",
        refits[REPS / 2],
        vec![
            ("keys", Json::Num(carried as f64)),
            ("ns_per_key", Json::Num(refits[REPS / 2] / carried as f64)),
        ],
    );
    traj.emit();
}
