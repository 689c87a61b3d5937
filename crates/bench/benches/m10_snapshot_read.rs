//! M10 — micro-benchmark: the MVCC snapshot-read plane.
//!
//! A read-heavy Zipfian mix (waves of 4-item read-only transactions with
//! a sprinkle of skew-picked coordinated puts — the read-mostly analogue
//! of m9's increment shape) is driven through the live runtime twice,
//! over one shard each:
//!
//! * `snapshot` — `snapshot_reads = true`: every read-only transaction is
//!   classified at the client and served from the version chains at the
//!   read watermark (one `SnapshotRead` command + one oneshot reply; no
//!   registration, no grants, no wait edges, no restarts).
//! * `coordinated` — `snapshot_reads = false`: the identical spec stream
//!   acquires real share grants through the queue managers (register,
//!   per-item access fan-out, release conversation).
//!
//! The confluence fast path is off in **both** modes so the comparison
//! isolates the read plane; the writer sprinkle coordinates identically
//! on each side and keeps the version chains advancing (every snapshot
//! answer is a real chain walk, not a frozen seed version).
//!
//! Like m9 this harness does not use the adaptive Criterion loop: every
//! committed transaction appends to the implementation logs feeding the
//! serializability oracle, so the workload is a fixed, bounded history
//! measured with alternating blocks and compared by medians.
//!
//! The closing summary prints both modes' txn/s and the ratio;
//! `M10_GATE=<ratio>` (the CI floor, 1.5 per the PR 10 acceptance bar)
//! fails the process if `snapshot` falls below `<ratio>` × `coordinated`.
//! Both runs must finish serializability-certified, and on the snapshot
//! side with a 100% serve rate (zero refusals), so the speedup being
//! measured is the safe watermark read, not a broken one. The summary
//! lands in `BENCH_m10.json` (see [`bench::traj`]).

use std::time::Instant;

use bench::{SkewedItems, Trajectory};
use runtime::{Database, RuntimeConfig, TxnSpec};
use simkit::rng::SimRng;
use trace::json::Json;

const ITEMS: u64 = 1024;
const THETA: f64 = 0.99;
/// Reads per read-only transaction.
const READS_PER_TXN: usize = 4;
/// One coordinated put per this many read transactions (read-mostly).
const WRITE_EVERY: u64 = 16;
const WAVE_TXNS: u64 = 256;
const REPS: usize = 5;
const BLOCK_WAVES: u64 = 8;

fn open(snapshot: bool) -> Database {
    Database::open(RuntimeConfig {
        num_shards: 1,
        num_items: ITEMS,
        snapshot_reads: snapshot,
        confluence_fastpath: false,
        ..RuntimeConfig::default()
    })
    .expect("config is valid")
}

/// Drive one wave of the read-mostly mix through `db.execute`.
fn run_wave(db: &Database, skew: &SkewedItems, rng: &mut SimRng) {
    for k in 0..WAVE_TXNS {
        if k % WRITE_EVERY == WRITE_EVERY - 1 {
            let item = skew.pick_distinct(rng, 1)[0];
            let receipt = db
                .execute(&TxnSpec::new().put(item, k as i64))
                .expect("put commits");
            std::hint::black_box(receipt.id);
            continue;
        }
        let mut spec = TxnSpec::new();
        for item in skew.pick_distinct(rng, READS_PER_TXN) {
            spec = spec.read(item);
        }
        let receipt = db.execute(&spec).expect("read-only txn commits");
        std::hint::black_box(receipt.reads.len());
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
    println!("m10: MVCC snapshot reads vs all-coordinated share grants");
    let snap_db = open(true);
    let coord_db = open(false);
    let skew = SkewedItems::new(ITEMS, THETA);
    let mut snap_rng = SimRng::new(42);
    let mut coord_rng = SimRng::new(42);

    // Warm-up block per mode (allocator, thread parking, branch state).
    run_wave(&snap_db, &skew, &mut snap_rng);
    run_wave(&coord_db, &skew, &mut coord_rng);

    // Alternating measurement blocks, medians compared (same rationale
    // as the m8/m9 gates).
    let mut snap_runs = Vec::new();
    let mut coord_runs = Vec::new();
    for rep in 0..REPS {
        let s = measure(&snap_db, &skew, &mut snap_rng);
        let c = measure(&coord_db, &skew, &mut coord_rng);
        println!("    rep {rep}: snapshot {s:>10.0} txn/s   coordinated {c:>10.0} txn/s");
        snap_runs.push(s);
        coord_runs.push(c);
    }
    let median = |runs: &mut Vec<f64>| {
        runs.sort_by(f64::total_cmp);
        runs[runs.len() / 2]
    };
    let (snap, coord) = (median(&mut snap_runs), median(&mut coord_runs));

    // Correctness backstop: the speedup only counts if the snapshot side
    // actually served every read-only transaction from the chains (zero
    // refusals — a quiesced watermark version is always retained) and
    // both histories certify serializable.
    let snap_stats = snap_db.stats();
    let read_txns = snap_stats.committed - snap_stats.committed / WRITE_EVERY;
    assert_eq!(
        snap_stats.snapshot_refused, 0,
        "a quiesced single-client mix must never be refused"
    );
    assert_eq!(snap_stats.snapshot_reads, read_txns);
    assert_eq!(snap_stats.grants, snap_stats.committed / WRITE_EVERY);
    let coord_stats = coord_db.stats();
    assert_eq!(coord_stats.snapshot_reads, 0, "baseline must coordinate");
    let snap_report = snap_db.shutdown().expect("snapshot shutdown");
    let coord_report = coord_db.shutdown().expect("coordinated shutdown");
    snap_report
        .serializable()
        .expect("snapshot history certifies");
    coord_report
        .serializable()
        .expect("coordinated history certifies");

    println!(
        "    -> snapshot: {snap:.0} {READS_PER_TXN}-read txn/s from the version chains \
         (median of {REPS}, {} served / {} refused, history certified)",
        snap_stats.snapshot_reads, snap_stats.snapshot_refused
    );
    println!(
        "    -> coordinated: {coord:.0} {READS_PER_TXN}-read txn/s through share grants \
         (median of {REPS}, history certified)"
    );
    let ratio = snap / coord;
    println!(
        "    -> snapshot-read ratio on the {READS_PER_TXN}-read Zipfian(θ={THETA}) \
         read-mostly shape: {ratio:.2}x (snapshot vs coordinated, alternating medians)"
    );

    let mut traj = Trajectory::new("m10");
    traj.meta("reps", Json::num(REPS as u32));
    traj.meta("block_waves", Json::Num(BLOCK_WAVES as f64));
    traj.meta("wave_txns", Json::Num(WAVE_TXNS as f64));
    traj.meta("theta", Json::Num(THETA));
    traj.meta("reads_per_txn", Json::num(READS_PER_TXN as u32));
    traj.meta("write_every", Json::Num(WRITE_EVERY as f64));
    traj.meta("snapshot_ratio", Json::Num(ratio));
    for (mode, txn_per_sec) in [("snapshot", snap), ("coordinated", coord)] {
        traj.row([
            ("mode", Json::str(mode)),
            ("txn_per_sec", Json::Num(txn_per_sec)),
        ]);
    }
    traj.emit();

    if let Some(gate) = std::env::var("M10_GATE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
    {
        if ratio < gate {
            eprintln!(
                "FAIL: the snapshot-read plane is below the required {gate:.2}x of \
                 the all-coordinated baseline"
            );
            std::process::exit(1);
        }
        println!("    -> m10 gate passed (required {gate:.2}x)");
    }
}
