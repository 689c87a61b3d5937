//! E9 — live-runtime sweep: commit throughput and restart behaviour as a
//! function of client count × shard count × method mix × message plane.
//!
//! Unlike experiments E1–E8, which run on the discrete-event simulator,
//! this experiment exercises the `runtime` crate: real client threads
//! drive read-modify-write transactions through the sharded multi-threaded
//! engine, and every cell of the sweep replays its captured execution log
//! through the serializability oracle. The questions it answers are the
//! ones the simulator cannot: how does *real* parallel throughput scale
//! with cores (shards), how much does the method mix matter under genuine
//! contention, what does adaptive selection cost — and what the message
//! plane is worth. The `plane` column compares `ring` (the batched
//! lock-free transport: per-shard send batching into an MPSC ring, whole
//! ring drained per shard wakeup) against `mpsc` (the pre-batching
//! `std::sync::mpsc` baseline, one message per send and one per recv).
//! The `reply` column does the same for the reply direction: `mail`
//! (the lock-free slab of reusable client mailboxes, PR 4) against
//! `mpsc` (per-incarnation channels behind a global locked map). The
//! `dyn-cache` rows run the STL selector with the per-epoch STL′ table
//! over striped commit-path-free metrics; the `dyn-fresh` rows re-run the
//! STL′ dynamic programs per transaction against freshly merged metrics
//! (the pre-cache behaviour); `sel us` and `hit%` report the mean
//! per-selection overhead and the share of selections served wholly from
//! the table.
//!
//! Run with: `cargo run --release -p bench --bin exp9_runtime_sweep`
//!
//! Environment knobs (used by the CI smoke step):
//!
//! * `EXP9_SMOKE=1` — restrict the sweep to the 8-clients × 4-shards
//!   cells only.
//! * `EXP9_GATE=<ratio>` — after the sweep, fail (exit 1) unless the
//!   batched ring plane achieved at least `<ratio>` × the mpsc baseline's
//!   txn/s on the 8 × 4 static-2PL cell.
//! * `EXP9_REPLY_GATE=<ratio>` — same for the reply plane: fail unless
//!   the mailbox registry achieved at least `<ratio>` × the
//!   mpsc-registry baseline on the same wide cell (both on the ring
//!   transport).
//!
//! Besides the table, the sweep emits a machine-readable trajectory,
//! `BENCH_exp9.json` (into `$BENCH_JSON_DIR`, default `.`): one row per
//! cell with the cell parameters and measured counters, plus the gate
//! medians in `meta`. See [`bench::traj`] for the document shape.

use std::time::Instant;

use bench::{table, Trajectory};
use dbmodel::{CcMethod, LogicalItemId};
use runtime::{
    CcPolicy, Database, ReplyPlaneKind, RuntimeConfig, StatsSnapshot, TransportKind, TxnSpec,
};
use trace::json::Json;

const ITEMS: u64 = 96;

/// Transfers per client thread; `EXP9_TXNS` overrides (longer runs give
/// stabler txn/s on noisy machines).
fn txns_per_client() -> u64 {
    std::env::var("EXP9_TXNS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(150)
}

/// One sweep configuration: an assignment policy, the message plane,
/// whether the dynamic policy runs cached, and the transaction shape.
#[derive(Clone, Copy)]
struct Cell {
    label: &'static str,
    policy: CcPolicy,
    cached: bool,
    transport: TransportKind,
    reply: ReplyPlaneKind,
    /// `false`: the classic 2-item transfer (one message per shard per
    /// phase — the plane's batcher has nothing to group). `true`: a wide
    /// 4-read + 4-write read-modify-write transaction, the message-heavy
    /// shape the plane comparison is gated on.
    wide: bool,
}

fn plane_name(transport: TransportKind) -> &'static str {
    match transport {
        TransportKind::BatchedRing => "ring",
        TransportKind::Mpsc => "mpsc",
    }
}

fn reply_name(reply: ReplyPlaneKind) -> &'static str {
    match reply {
        ReplyPlaneKind::Mailbox => "mail",
        ReplyPlaneKind::Mpsc => "mpsc",
    }
}

/// Everything one measured cell leaves behind: the formatted table row,
/// the throughput the gates compare, and the raw counters the JSON
/// trajectory and the reply-plane footer are built from.
struct CellOutcome {
    row: Vec<String>,
    txn_per_sec: f64,
    stats: StatsSnapshot,
    serializable: bool,
}

/// Run one cell; returns the table row and the measured counters.
fn run_cell(clients: u64, shards: u32, cell: Cell) -> CellOutcome {
    let defaults = RuntimeConfig::default();
    let db = Database::open(RuntimeConfig {
        num_shards: shards,
        num_items: ITEMS,
        initial_value: 1_000,
        policy: cell.policy,
        transport: cell.transport,
        reply_plane: cell.reply,
        selection_cache: if cell.cached {
            defaults.selection_cache
        } else {
            None
        },
        ..defaults
    })
    .expect("valid config");

    let begun = Instant::now();
    let per_client = txns_per_client();
    let workers: Vec<_> = (0..clients)
        .map(|t| {
            let db = db.clone();
            std::thread::spawn(move || {
                for k in 0..per_client {
                    let i = t * 131 + k * 17;
                    if cell.wide {
                        // 4 reads + 4 writes on disjoint items: eight
                        // messages per phase for the plane to batch.
                        let base = i % ITEMS;
                        let reads: Vec<_> = (0..4)
                            .map(|j| LogicalItemId((base + 2 * j) % ITEMS))
                            .collect();
                        let writes: Vec<_> = (0..4)
                            .map(|j| LogicalItemId((base + 2 * j + 1) % ITEMS))
                            .collect();
                        let spec = TxnSpec::new()
                            .reads(reads.iter().copied())
                            .writes(writes.iter().copied());
                        db.run_transaction(&spec, |seen| {
                            writes.iter().map(|&w| (w, seen[&w] + 1)).collect()
                        })
                        .expect("sweep transaction commits");
                    } else {
                        let from = LogicalItemId(i % ITEMS);
                        let to = LogicalItemId((i * 5 + 1) % ITEMS);
                        if from == to {
                            continue;
                        }
                        let spec = TxnSpec::new().write(from).write(to);
                        db.run_transaction(&spec, |reads| {
                            vec![(from, reads[&from] - 1), (to, reads[&to] + 1)]
                        })
                        .expect("sweep transaction commits");
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("sweep worker panicked");
    }
    let elapsed = begun.elapsed().as_secs_f64();

    let stats = db.stats();
    let report = db.shutdown().expect("shutdown");
    let serializable = report.serializable().is_ok();
    let txn_per_sec = stats.committed as f64 / elapsed;
    let row = vec![
        clients.to_string(),
        shards.to_string(),
        cell.label.to_string(),
        plane_name(cell.transport).to_string(),
        reply_name(cell.reply).to_string(),
        stats.committed.to_string(),
        format!("{txn_per_sec:.0}"),
        stats.restarts().to_string(),
        stats.backoff_rounds.to_string(),
        if stats.selections > 0 {
            format!("{:.1}", stats.selection_micros_per_txn())
        } else {
            "-".into()
        },
        if stats.cache.hits + stats.cache.misses > 0 {
            format!("{:.0}", stats.cache.hit_rate() * 100.0)
        } else {
            "-".into()
        },
        if serializable {
            "yes".into()
        } else {
            "NO".into()
        },
    ];
    CellOutcome {
        row,
        txn_per_sec,
        stats,
        serializable,
    }
}

/// One JSON trajectory row for a measured sweep cell.
fn traj_row(clients: u64, shards: u32, cell: Cell, outcome: &CellOutcome) -> Vec<(String, Json)> {
    let stats = &outcome.stats;
    vec![
        ("clients".into(), Json::Num(clients as f64)),
        ("shards".into(), Json::num(shards)),
        ("policy".into(), Json::str(cell.label)),
        ("plane".into(), Json::str(plane_name(cell.transport))),
        ("reply".into(), Json::str(reply_name(cell.reply))),
        ("wide".into(), Json::Bool(cell.wide)),
        ("committed".into(), Json::Num(stats.committed as f64)),
        ("txn_per_sec".into(), Json::Num(outcome.txn_per_sec)),
        ("restarts".into(), Json::Num(stats.restarts() as f64)),
        (
            "backoff_rounds".into(),
            Json::Num(stats.backoff_rounds as f64),
        ),
        (
            "sel_us".into(),
            if stats.selections > 0 {
                Json::Num(stats.selection_micros_per_txn())
            } else {
                Json::Null
            },
        ),
        (
            "cache_hit_pct".into(),
            if stats.cache.hits + stats.cache.misses > 0 {
                Json::Num(stats.cache.hit_rate() * 100.0)
            } else {
                Json::Null
            },
        ),
        ("serializable".into(), Json::Bool(outcome.serializable)),
        (
            "stale_reply_events".into(),
            Json::Num(stats.stale_reply_events as f64),
        ),
        (
            "mailbox_overflow_entries".into(),
            Json::Num(stats.mailbox_overflow_entries as f64),
        ),
        ("trace_events".into(), Json::Num(stats.trace_events as f64)),
    ]
}

fn main() {
    let smoke = std::env::var("EXP9_SMOKE").is_ok_and(|v| v == "1");
    let gate: Option<f64> = std::env::var("EXP9_GATE").ok().and_then(|s| s.parse().ok());
    let reply_gate: Option<f64> = std::env::var("EXP9_REPLY_GATE")
        .ok()
        .and_then(|s| s.parse().ok());

    println!("E9: live runtime sweep — clients x shards x method mix x planes");
    println!(
        "    ({} transfers per client over {ITEMS} items, read-modify-write)\n",
        txns_per_client()
    );
    let widths = [7, 6, 9, 5, 5, 10, 10, 9, 9, 8, 5, 6];
    table::header(
        &[
            "clients",
            "shards",
            "policy",
            "plane",
            "reply",
            "committed",
            "txn/s",
            "restarts",
            "backoffs",
            "sel us",
            "hit%",
            "ser.",
        ],
        &widths,
    );
    let cells = [
        Cell {
            label: "2PL",
            policy: CcPolicy::Static(CcMethod::TwoPhaseLocking),
            cached: true,
            transport: TransportKind::BatchedRing,
            reply: ReplyPlaneKind::Mailbox,
            wide: false,
        },
        Cell {
            label: "2PL",
            policy: CcPolicy::Static(CcMethod::TwoPhaseLocking),
            cached: true,
            transport: TransportKind::Mpsc,
            reply: ReplyPlaneKind::Mailbox,
            wide: false,
        },
        Cell {
            label: "2PL-w8",
            policy: CcPolicy::Static(CcMethod::TwoPhaseLocking),
            cached: true,
            transport: TransportKind::BatchedRing,
            reply: ReplyPlaneKind::Mailbox,
            wide: true,
        },
        Cell {
            label: "2PL-w8",
            policy: CcPolicy::Static(CcMethod::TwoPhaseLocking),
            cached: true,
            transport: TransportKind::Mpsc,
            reply: ReplyPlaneKind::Mailbox,
            wide: true,
        },
        // The reply-plane A/B cell: same wide shape and ring transport
        // as the gate cell above, but replies through the per-incarnation
        // mpsc registry.
        Cell {
            label: "2PL-w8",
            policy: CcPolicy::Static(CcMethod::TwoPhaseLocking),
            cached: true,
            transport: TransportKind::BatchedRing,
            reply: ReplyPlaneKind::Mpsc,
            wide: true,
        },
        Cell {
            label: "mixed",
            policy: CcPolicy::Mix {
                p_2pl: 0.34,
                p_to: 0.33,
            },
            cached: true,
            transport: TransportKind::BatchedRing,
            reply: ReplyPlaneKind::Mailbox,
            wide: false,
        },
        Cell {
            label: "dyn-cache",
            policy: CcPolicy::DynamicStl,
            cached: true,
            transport: TransportKind::BatchedRing,
            reply: ReplyPlaneKind::Mailbox,
            wide: false,
        },
        Cell {
            label: "dyn-fresh",
            policy: CcPolicy::DynamicStl,
            cached: false,
            transport: TransportKind::BatchedRing,
            reply: ReplyPlaneKind::Mailbox,
            wide: false,
        },
    ];
    let shard_axis: &[u32] = if smoke { &[GATE_SHARDS] } else { &[1, 2, 4] };
    let client_axis: &[u64] = if smoke { &[GATE_CLIENTS] } else { &[1, 4, 8] };
    let mut traj = Trajectory::new("exp9");
    traj.meta("smoke", Json::Bool(smoke));
    traj.meta("txns_per_client", Json::Num(txns_per_client() as f64));
    traj.meta("items", Json::Num(ITEMS as f64));
    traj.meta("gate_reps", Json::Num(gate_reps() as f64));
    let mut stale_replies = 0u64;
    let mut overflow_entries = 0u64;
    for &shards in shard_axis {
        for &clients in client_axis {
            for &cell in &cells {
                let outcome = run_cell(clients, shards, cell);
                table::row(&outcome.row, &widths);
                stale_replies += outcome.stats.stale_reply_events;
                overflow_entries += outcome.stats.mailbox_overflow_entries;
                traj.row(traj_row(clients, shards, cell, &outcome));
            }
        }
        println!();
    }
    // The reply-plane health footer: stale deliveries are the benign
    // lost-race events the mailbox generation check absorbed; overflow
    // entries should stay zero on a healthy run (each one triggered a
    // postmortem dump when tracing was on).
    println!(
        "reply plane across all cells: {stale_replies} stale reply events, \
         {overflow_entries} mailbox overflow entries"
    );

    let medians = gate_medians(&cells);
    traj.meta("stale_reply_events_total", Json::Num(stale_replies as f64));
    traj.meta(
        "mailbox_overflow_entries_total",
        Json::Num(overflow_entries as f64),
    );
    traj.meta("gate_ring_mail_txn_s", Json::Num(medians.ring_mail));
    traj.meta("gate_mpsc_mail_txn_s", Json::Num(medians.mpsc_mail));
    traj.meta(
        "gate_ring_mpsc_reply_txn_s",
        Json::Num(medians.ring_mpsc_reply),
    );
    traj.emit();
    let check = |label: &str, required: Option<f64>, fast: f64, base: f64| {
        let ratio = fast / base;
        println!(
            "gate cell ({GATE_CLIENTS} clients x {GATE_SHARDS} shards, 2PL-w8, median of \
             {}) {label}: {fast:.0} txn/s vs {base:.0} txn/s — {ratio:.2}x",
            gate_reps()
        );
        if let Some(required) = required {
            if ratio < required {
                eprintln!("FAIL: {label} is below the required {required:.2}x of its baseline");
                std::process::exit(1);
            }
            println!("gate passed (required {required:.2}x)");
        }
    };
    check(
        "message plane, ring vs mpsc transport (reply=mail)",
        gate,
        medians.ring_mail,
        medians.mpsc_mail,
    );
    check(
        "reply plane, mailbox slab vs mpsc registry (plane=ring)",
        reply_gate,
        medians.ring_mail,
        medians.ring_mpsc_reply,
    );
}

/// The cell the CI gates compare across planes: the message-heavy wide
/// transaction, where the plane actually has batches to build.
const GATE_CLIENTS: u64 = 8;
const GATE_SHARDS: u32 = 4;

fn gate_reps() -> usize {
    std::env::var("EXP9_REPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3)
}

/// Median txn/s of each wide gate cell. Both gates share the same
/// contender (ring transport + mailbox registry), so all three distinct
/// cells are measured once, round-robin across `EXP9_REPS` repetitions
/// — single runs on a loaded machine swing by tens of percent;
/// alternating medians cancel the drift.
struct GateMedians {
    ring_mail: f64,
    mpsc_mail: f64,
    ring_mpsc_reply: f64,
}

fn gate_medians(cells: &[Cell]) -> GateMedians {
    let gate_cell = |transport: TransportKind, reply: ReplyPlaneKind| {
        *cells
            .iter()
            .find(|c| c.wide && c.transport == transport && c.reply == reply)
            .expect("gate cells present")
    };
    let contenders = [
        gate_cell(TransportKind::BatchedRing, ReplyPlaneKind::Mailbox),
        gate_cell(TransportKind::Mpsc, ReplyPlaneKind::Mailbox),
        gate_cell(TransportKind::BatchedRing, ReplyPlaneKind::Mpsc),
    ];
    let mut runs: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for _ in 0..gate_reps() {
        for (cell, runs) in contenders.iter().zip(runs.iter_mut()) {
            runs.push(run_cell(GATE_CLIENTS, GATE_SHARDS, *cell).txn_per_sec);
        }
    }
    let median = |runs: &mut Vec<f64>| {
        runs.sort_by(f64::total_cmp);
        runs[runs.len() / 2]
    };
    let [ref mut a, ref mut b, ref mut c] = runs;
    GateMedians {
        ring_mail: median(a),
        mpsc_mail: median(b),
        ring_mpsc_reply: median(c),
    }
}
