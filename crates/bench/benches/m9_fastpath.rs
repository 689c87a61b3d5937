//! M9 — micro-benchmark: the coordination-avoidance fast path.
//!
//! The commutative-increment Zipfian shape (two `add` ops per transaction
//! on skew-picked distinct items — the confluent analogue of exp10's
//! `rmw` transfer) is driven through the live runtime twice, over one
//! shard each:
//!
//! * `fastpath` — `confluence_fastpath = true`: the classifier routes
//!   every increment around the queue manager into the shard's
//!   direct-apply bypass (one `ApplyConfluent` command + one oneshot
//!   reply; no registry registration, no grants, no release
//!   conversation).
//! * `coordinated` — `confluence_fastpath = false`: the identical spec
//!   stream runs the full `begin`/stage/`commit` machinery (register,
//!   per-item access fan-out, write grants, releases).
//!
//! Unlike m1–m8 this harness does **not** use the adaptive Criterion
//! loop: every committed transaction appends to the per-item
//! implementation logs (the serializability oracle's input), so the
//! workload must be a *fixed, bounded* history — both to keep memory
//! flat and so the closing `serializable()` certification stays
//! tractable. The measurement is the same alternating-blocks-of-waves
//! median scheme the m8 gate uses, just with a fixed block count.
//!
//! The closing summary prints both modes' txn/s and the ratio;
//! `M9_GATE=<ratio>` (the CI floor, set to 2.0 per the PR 8 acceptance
//! bar) fails the process if `fastpath` falls below `<ratio>` ×
//! `coordinated`. Both runs must finish with a serializability-certified
//! history and — on the fast side — a 100% fast-path application rate,
//! so the speedup being measured is the safe bypass, not a broken one.
//! The summary lands in `BENCH_m9.json` (see [`bench::traj`]).

use std::time::Instant;

use bench::{SkewedItems, Trajectory};
use dbmodel::Value;
use runtime::{Database, RuntimeConfig, TxnSpec};
use simkit::rng::SimRng;
use trace::json::Json;

const ITEMS: u64 = 1024;
const THETA: f64 = 0.99;
/// Adds per transaction (the 2-item increment shape).
const OPS_PER_TXN: usize = 2;
const WAVE_TXNS: u64 = 256;
const REPS: usize = 5;
const BLOCK_WAVES: u64 = 8;

fn open(fastpath: bool) -> Database {
    Database::open(RuntimeConfig {
        num_shards: 1,
        num_items: ITEMS,
        confluence_fastpath: fastpath,
        ..RuntimeConfig::default()
    })
    .expect("config is valid")
}

/// Drive one wave of skew-picked 2-add increments through `db.execute`.
fn run_wave(db: &Database, skew: &SkewedItems, rng: &mut SimRng) {
    for _ in 0..WAVE_TXNS {
        let picked = skew.pick_distinct(rng, OPS_PER_TXN);
        let mut spec = TxnSpec::new();
        for item in picked {
            spec = spec.add(item, 1);
        }
        let receipt = db.execute(&spec).expect("increment commits");
        std::hint::black_box(receipt.id);
    }
}

/// One measurement block: `BLOCK_WAVES` waves, returning txn/s.
fn measure(db: &Database, skew: &SkewedItems, rng: &mut SimRng) -> f64 {
    let begun = Instant::now();
    for _ in 0..BLOCK_WAVES {
        run_wave(db, skew, rng);
    }
    (BLOCK_WAVES * WAVE_TXNS) as f64 / begun.elapsed().as_secs_f64()
}

fn main() {
    println!("m9: coordination-avoidance fast path vs full coordination");
    let fast_db = open(true);
    let coord_db = open(false);
    let skew = SkewedItems::new(ITEMS, THETA);
    let mut fast_rng = SimRng::new(42);
    let mut coord_rng = SimRng::new(42);

    // Warm-up block per mode (allocator, thread parking, branch state).
    run_wave(&fast_db, &skew, &mut fast_rng);
    run_wave(&coord_db, &skew, &mut coord_rng);

    // Alternating measurement blocks, medians compared (same rationale
    // as the m8 gate).
    let mut fast_runs = Vec::new();
    let mut coord_runs = Vec::new();
    for rep in 0..REPS {
        let f = measure(&fast_db, &skew, &mut fast_rng);
        let c = measure(&coord_db, &skew, &mut coord_rng);
        println!("    rep {rep}: fastpath {f:>10.0} txn/s   coordinated {c:>10.0} txn/s");
        fast_runs.push(f);
        coord_runs.push(c);
    }
    let median = |runs: &mut Vec<f64>| {
        runs.sort_by(f64::total_cmp);
        runs[runs.len() / 2]
    };
    let (fast, coord) = (median(&mut fast_runs), median(&mut coord_runs));

    // Correctness backstop: the speedup only counts if the fast side
    // actually bypassed (100% application rate on this single-site
    // shape) and both histories certify serializable.
    let fast_stats = fast_db.stats();
    assert_eq!(
        fast_stats.fastpath_refused, 0,
        "uncontended single-client increments must never be refused"
    );
    assert_eq!(fast_stats.fastpath_applied, fast_stats.committed);
    let coord_stats = coord_db.stats();
    assert_eq!(coord_stats.fastpath_applied, 0, "baseline must coordinate");
    let committed_each = fast_stats.committed;
    let fast_report = fast_db.shutdown().expect("fast shutdown");
    let coord_report = coord_db.shutdown().expect("coordinated shutdown");
    fast_report
        .serializable()
        .expect("fast-path history certifies");
    coord_report
        .serializable()
        .expect("coordinated history certifies");
    let total_adds: Value = fast_report
        .logs
        .iter()
        .map(|(_, log)| log.entries().len() as Value)
        .sum();
    assert_eq!(
        total_adds,
        committed_each as Value * OPS_PER_TXN as Value,
        "every applied add must be in the execution log"
    );

    println!(
        "    -> fastpath: {fast:.0} 2-add txn/s through the bypass (median of {REPS}, \
         {} applied / {} refused, history certified)",
        fast_stats.fastpath_applied, fast_stats.fastpath_refused
    );
    println!(
        "    -> coordinated: {coord:.0} 2-add txn/s through grants (median of {REPS}, \
         history certified)"
    );
    let ratio = fast / coord;
    println!(
        "    -> fast-path ratio on the {OPS_PER_TXN}-add Zipfian(θ={THETA}) shape: \
         {ratio:.2}x (fastpath vs coordinated, alternating medians)"
    );

    let mut traj = Trajectory::new("m9");
    traj.meta("reps", Json::num(REPS as u32));
    traj.meta("block_waves", Json::Num(BLOCK_WAVES as f64));
    traj.meta("wave_txns", Json::Num(WAVE_TXNS as f64));
    traj.meta("theta", Json::Num(THETA));
    traj.meta("fastpath_ratio", Json::Num(ratio));
    for (mode, txn_per_sec) in [("fastpath", fast), ("coordinated", coord)] {
        traj.row([
            ("mode", Json::str(mode)),
            ("txn_per_sec", Json::Num(txn_per_sec)),
        ]);
    }
    traj.emit();

    if let Some(gate) = std::env::var("M9_GATE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
    {
        if ratio < gate {
            eprintln!(
                "FAIL: the coordination-avoidance fast path is below the required \
                 {gate:.2}x of the all-coordinated baseline"
            );
            std::process::exit(1);
        }
        println!("    -> m9 gate passed (required {gate:.2}x)");
    }
}
