//! E9 — live-runtime sweep: commit throughput and restart behaviour as a
//! function of client count × shard count × method mix.
//!
//! Unlike experiments E1–E8, which run on the discrete-event simulator,
//! this experiment exercises the `runtime` crate: real client threads
//! drive read-modify-write transactions through the sharded multi-threaded
//! engine, and every cell of the sweep replays its captured execution log
//! through the serializability oracle. The questions it answers are the
//! ones the simulator cannot: how does *real* parallel throughput scale
//! with cores (shards), how much does the method mix matter under genuine
//! contention, and what does adaptive selection cost. The `2PL-w8` rows
//! run the wide 4-read + 4-write shape, the message-heavy one the send
//! batcher and the reply mailboxes have batches to build for. The
//! `dyn-cache` rows run the STL selector with the per-epoch STL′ table
//! over striped commit-path-free metrics; `sel us` and `hit%` report the
//! mean per-selection overhead and the share of selections served wholly
//! from the table. The `1-shot` rows run three in four transactions on
//! the coordination-free routes — 4-item snapshot reads and single-item
//! bypass adds through `Database::execute` — beside transfers.
//!
//! The `inl%` / `wait%` / `wexp%` / `busy%` / `bklg%` columns say how each
//! cell's shard submits were handed over: run inline by the caller, of
//! those the ones that waited a moment for a held core first, the waits
//! that ran out (counted in `busy%` too), and enqueued because the core
//! stayed held or the inbox had a backlog (the rare log-full fallback is
//! the rest of the 100 %). `wait%` covers the one-shot commands and,
//! since the send batcher lets a call's last batch wait when every
//! earlier one ran inline, coordinated `HandleBatch`es too.
//!
//! Run with: `cargo run --release -p bench --bin exp9_runtime_sweep`
//!
//! Environment knobs (used by the CI smoke step):
//!
//! * `EXP9_SMOKE=1` — restrict the sweep to the 8-clients × 4-shards
//!   cells only.
//! * `EXP9_TXNS=<n>` — transfers per client thread (default 150).
//!
//! The footer reports the reply plane's and the deadlock detector's health
//! across the sweep; the detector line gives the wide `2PL-w8` cells — the
//! ones that deadlock — separately. `backstop` counts victims only the
//! periodic scan found and should read 0: deadlocks are found by the scan
//! the closing wait edge asks for.
//!
//! The process exits 1 if any cell's history fails the oracle.

use std::time::Instant;

use bench::table;
use dbmodel::{CcMethod, LogicalItemId};
use runtime::{CcPolicy, Database, RuntimeConfig, StatsSnapshot, TxnSpec};

const ITEMS: u64 = 96;

/// Transfers per client thread; `EXP9_TXNS` overrides (longer runs give
/// stabler txn/s on noisy machines).
fn txns_per_client() -> u64 {
    std::env::var("EXP9_TXNS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(150)
}

/// The transactions a cell's clients run.
#[derive(Clone, Copy, PartialEq)]
enum Shape {
    /// The classic 2-item transfer (one message per shard per phase — the
    /// send batcher has nothing to group).
    Transfer,
    /// A 4-read + 4-write read-modify-write transaction, the message-heavy
    /// shape.
    Wide,
    /// Per four transactions: two 4-item snapshot reads, one single-item
    /// bypass add, one transfer.
    OneShot,
}

/// One sweep configuration: an assignment policy and the transaction
/// shape.
#[derive(Clone, Copy)]
struct Cell {
    label: &'static str,
    policy: CcPolicy,
    shape: Shape,
}

/// Everything one measured cell leaves behind: the formatted table row,
/// the raw counters the reply-plane footer is built from, and the oracle
/// verdict.
struct CellOutcome {
    row: Vec<String>,
    stats: StatsSnapshot,
    serializable: bool,
}

/// Run one cell; returns the table row and the measured counters.
fn run_cell(clients: u64, shards: u32, cell: Cell) -> CellOutcome {
    let db = Database::open(RuntimeConfig {
        num_shards: shards,
        num_items: ITEMS,
        initial_value: 1_000,
        policy: cell.policy,
        ..RuntimeConfig::default()
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
                    if cell.shape == Shape::OneShot && k % 4 != 0 {
                        let spec = if k % 4 == 2 {
                            TxnSpec::new().add(LogicalItemId(i % ITEMS), 1)
                        } else {
                            TxnSpec::new().reads((0..4).map(|j| LogicalItemId((i + 3 * j) % ITEMS)))
                        };
                        db.execute(&spec).expect("sweep transaction commits");
                    } else if cell.shape == Shape::Wide {
                        // 4 reads + 4 writes on disjoint items: eight
                        // messages per phase for the send batcher.
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
    let submits = (stats.shard_inline
        + stats.shard_enqueued_busy
        + stats.shard_enqueued_backlog
        + stats.shard_enqueued_log_full)
        .max(1) as f64;
    let share = |n: u64| format!("{:.0}", n as f64 / submits * 100.0);
    let row = vec![
        clients.to_string(),
        shards.to_string(),
        cell.label.to_string(),
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
        share(stats.shard_inline),
        share(stats.shard_inline_waited),
        share(stats.shard_wait_expired),
        share(stats.shard_enqueued_busy),
        share(stats.shard_enqueued_backlog),
        if serializable {
            "yes".into()
        } else {
            "NO".into()
        },
    ];
    CellOutcome {
        row,
        stats,
        serializable,
    }
}

/// The cells `EXP9_SMOKE` keeps: enough clients to contend, every shard
/// busy.
const SMOKE_CLIENTS: u64 = 8;
const SMOKE_SHARDS: u32 = 4;

fn main() {
    let smoke = std::env::var("EXP9_SMOKE").is_ok_and(|v| v == "1");

    println!("E9: live runtime sweep — clients x shards x method mix");
    println!(
        "    ({} transfers per client over {ITEMS} items, read-modify-write)\n",
        txns_per_client()
    );
    let widths = [7, 6, 9, 10, 10, 9, 9, 8, 5, 5, 5, 5, 5, 5, 6];
    table::header(
        &[
            "clients",
            "shards",
            "policy",
            "committed",
            "txn/s",
            "restarts",
            "backoffs",
            "sel us",
            "hit%",
            "inl%",
            "wait%",
            "wexp%",
            "busy%",
            "bklg%",
            "ser.",
        ],
        &widths,
    );
    let cells = [
        Cell {
            label: "2PL",
            policy: CcPolicy::Static(CcMethod::TwoPhaseLocking),
            shape: Shape::Transfer,
        },
        Cell {
            label: "2PL-w8",
            policy: CcPolicy::Static(CcMethod::TwoPhaseLocking),
            shape: Shape::Wide,
        },
        Cell {
            label: "mixed",
            policy: CcPolicy::Mix {
                p_2pl: 0.34,
                p_to: 0.33,
            },
            shape: Shape::Transfer,
        },
        Cell {
            label: "dyn-cache",
            policy: CcPolicy::DynamicStl,
            shape: Shape::Transfer,
        },
        Cell {
            label: "1-shot",
            policy: CcPolicy::Static(CcMethod::TwoPhaseLocking),
            shape: Shape::OneShot,
        },
    ];
    let shard_axis: &[u32] = if smoke { &[SMOKE_SHARDS] } else { &[1, 2, 4] };
    let client_axis: &[u64] = if smoke { &[SMOKE_CLIENTS] } else { &[1, 4, 8] };
    let mut stale_replies = 0u64;
    // (victims, backstop victims, pushed scans, announced edges), wide
    // cells and all cells.
    let mut detector = [[0u64; 4]; 2];
    let mut all_serializable = true;
    for &shards in shard_axis {
        for &clients in client_axis {
            for &cell in &cells {
                let outcome = run_cell(clients, shards, cell);
                table::row(&outcome.row, &widths);
                stale_replies += outcome.stats.stale_reply_events;
                let stats = &outcome.stats;
                let seen = [
                    stats.deadlock_victims,
                    stats.deadlock_backstop_victims,
                    stats.deadlock_push_scans,
                    stats.deadlock_probes,
                ];
                for tally in &mut detector[usize::from(cell.shape != Shape::Wide)..] {
                    for (sum, n) in tally.iter_mut().zip(seen) {
                        *sum += n;
                    }
                }
                all_serializable &= outcome.serializable;
            }
        }
        println!();
    }
    // The reply-plane health footer: stale deliveries are the benign
    // lost-race events the mailbox generation check absorbed.
    println!("reply plane across all cells: {stale_replies} stale reply events");
    for (cells, [victims, backstop, scans, probes]) in ["wide (2PL-w8) cells", "all cells"]
        .into_iter()
        .zip(detector)
    {
        println!(
            "deadlock detector, {cells}: {victims} victims ({backstop} backstop), \
             {scans} pushed scans, {probes} wait edges announced"
        );
    }
    if !all_serializable {
        eprintln!("FAIL: a cell's history is not serializable (see the `ser.` column)");
        std::process::exit(1);
    }
}
