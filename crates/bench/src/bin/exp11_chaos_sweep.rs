//! E11 — chaos sweep: the fault plane turned on the live runtime, every
//! surviving history oracle-certified.
//!
//! PR 9 wrapped the transport boundary in a seeded fault plane
//! ([`runtime::FaultSchedule`]): per-link drop / duplicate / delay,
//! partition windows, and shard crashes with the partial-amnesia
//! recovery model. This experiment closes the loop on the hardening that
//! came with it — bounded request/commit deadlines, idempotent
//! re-delivery suppression, detector-driven cleanup of stranded
//! transactions. The grid crosses:
//!
//! * **drop rate** — 5% vs 20% of faultable messages silently discarded
//!   (the durable commit channel — `Release` / `Demote` — is exempt by
//!   construction, or committed writes could be lost);
//! * **partitions** — off, or one buffered window per link;
//! * **crashes** — none, or two scheduled crash points per link, each
//!   wiping the shard's ungranted queue entries after an outage.
//!
//! Every cell also arms a light duplicate + delay drizzle so the
//! idempotence and reorder paths stay live in every run. The
//! fully-armed cell additionally runs with the MVCC snapshot plane
//! (PR 10) exercised: an auditor thread reads every account through
//! coordination-free snapshot reads *while* the chaos schedule is live,
//! and every answer it gets must be a transaction-consistent cut (the
//! conserved bank total). A cell drives a mixed-protocol (2PL / T/O /
//! PA) bank-transfer workload, then:
//!
//! 1. quiesces the plane (flushes delayed / partition-buffered traffic),
//! 2. audits the conserved bank total (no lost or half-applied writes),
//! 3. checks no transaction is still registered after the drain,
//! 4. replays the merged execution log through the `sercheck` oracle.
//!
//! On a violation the cell dumps the tail of the flight recorder — the
//! phase-attributed lifecycle spans of the transactions in flight — and
//! exits nonzero.
//!
//! Run with: `cargo run --release -p bench --bin exp11_chaos_sweep`
//!
//! Environment knobs (used by the CI chaos-gate step):
//!
//! * `EXP11_SMOKE=1` — restrict the grid to its gate-relevant cells.
//! * `EXP11_TXNS=<n>` — transactions per client (default 50).
//! * `EXP11_GATE=1` — fail (exit 1) unless every cell's armed fault
//!   classes actually fired (counters nonzero): injected chaos that
//!   never lands would make the sweep's green meaningless.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::table;
use dbmodel::{CcMethod, LogicalItemId, ReplicationPolicy};
use runtime::{CcPolicy, Database, FaultProfile, FaultSchedule, RuntimeConfig, TxnError, TxnSpec};

const SHARDS: u32 = 3;
const ACCOUNTS: u64 = 30;
const INITIAL: i64 = 1_000;
const CLIENTS: u64 = 6;
/// Fixed per-cell seed base: the grid is exactly replayable.
const SEED_BASE: u64 = 0xE11_0000;

fn txns_per_client() -> u64 {
    std::env::var("EXP11_TXNS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(50)
}

fn li(i: u64) -> LogicalItemId {
    LogicalItemId(i % ACCOUNTS)
}

/// One grid cell: which fault classes are armed and how hard, and
/// whether a snapshot auditor races the transfers (PR 10).
#[derive(Clone, Copy)]
struct Cell {
    drop_rate: f64,
    partition: bool,
    crashes: u32,
    snapshot: bool,
}

impl Cell {
    fn label(&self) -> String {
        format!(
            "drop{:.0}%{}{}",
            self.drop_rate * 100.0,
            if self.partition { "+part" } else { "" },
            if self.crashes > 0 { "+crash" } else { "" },
        ) + if self.snapshot { "+snap" } else { "" }
    }

    /// The materialized schedule: the cell's heavy knobs plus a light
    /// duplicate + delay drizzle so idempotence and reordering are live
    /// in every cell.
    fn schedule(&self, seed: u64) -> FaultSchedule {
        let profile = FaultProfile {
            drop_rate: self.drop_rate,
            dup_rate: 0.02,
            delay_rate: 0.02,
            delay_span: 6,
            partitions_per_link: if self.partition { 1 } else { 0 },
            partition_len: 24,
            crashes: self.crashes,
            crash_outage: Duration::from_millis(10),
            horizon: 256,
        };
        FaultSchedule::generate(profile, seed, SHARDS as usize)
    }
}

/// What one chaos cell measured.
struct ChaosOutcome {
    committed: u64,
    clean_failures: u64,
    txn_per_sec: f64,
    dropped: u64,
    duplicated: u64,
    delayed: u64,
    partitioned: u64,
    crashes: u64,
    timeout_restarts: u64,
    shard_unavailable: u64,
    cleanup_aborts: u64,
    dup_suppressed: u64,
    snapshot_served: u64,
    serializable: bool,
}

/// Dump the tail of the flight recorder when a cell violates an
/// invariant: the lifecycle spans of whatever was in flight are the
/// postmortem.
fn postmortem(db: &Database, cell: &Cell, seed: u64, why: &str) -> ! {
    eprintln!("FAIL [{}] seed {seed:#x}: {why}", cell.label());
    eprintln!("{:?}", db.stats());
    let events = db.trace_snapshot();
    let tail = events.len().saturating_sub(48);
    eprintln!(
        "flight recorder tail ({} of {} events):",
        events.len() - tail,
        events.len()
    );
    for event in &events[tail..] {
        eprintln!("  {event:?}");
    }
    std::process::exit(1);
}

/// Read the total balance after quiesce. A shard may still be sleeping
/// off its last crash outage, so bounded timeouts are retried.
fn audit_total(db: &Database) -> Option<i64> {
    let spec = TxnSpec::new().reads((0..ACCOUNTS).map(LogicalItemId));
    for _ in 0..20 {
        match db.run_transaction(&spec, |_| vec![]) {
            Ok(receipt) => return Some(receipt.reads.values().sum()),
            Err(TxnError::TooManyRestarts { .. }) | Err(TxnError::ShardUnavailable) => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => return None,
        }
    }
    None
}

fn run_cell(cell: Cell, seed: u64) -> ChaosOutcome {
    let db = Database::open(RuntimeConfig {
        num_shards: SHARDS,
        num_items: ACCOUNTS,
        initial_value: INITIAL,
        replication: ReplicationPolicy::SingleCopy,
        policy: CcPolicy::Static(CcMethod::TwoPhaseLocking),
        deadlock_scan_interval: Duration::from_millis(2),
        shard_inbox_capacity: 4096,
        request_timeout: Duration::from_millis(50),
        commit_timeout: Duration::from_millis(250),
        max_restarts: 8,
        restart_backoff: Duration::from_micros(200),
        faults: Some(cell.schedule(seed)),
        ..RuntimeConfig::default()
    })
    .expect("valid chaos config");

    let per_client = txns_per_client();
    let committed = Arc::new(AtomicU64::new(0));
    let clean_failures = Arc::new(AtomicU64::new(0));
    let begun = Instant::now();
    let workers: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let db = db.clone();
            let committed = Arc::clone(&committed);
            let clean_failures = Arc::clone(&clean_failures);
            std::thread::spawn(move || {
                for k in 0..per_client {
                    let method = CcMethod::ALL[((t + k) % 3) as usize];
                    let from = li(t * 7 + k);
                    let to = li(t * 3 + k * 11 + 1);
                    if from == to {
                        continue;
                    }
                    let amount = (1 + (t + k) % 9) as i64;
                    let spec = TxnSpec::new().write(from).write(to).method(method);
                    match db.run_transaction(&spec, |reads| {
                        vec![(from, reads[&from] - amount), (to, reads[&to] + amount)]
                    }) {
                        Ok(_) => {
                            committed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(TxnError::TooManyRestarts { .. }) | Err(TxnError::ShardUnavailable) => {
                            clean_failures.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(err) => panic!("unexpected transaction error under chaos: {err}"),
                    }
                }
            })
        })
        .collect();
    // PR 10: in snapshot cells an auditor thread reads every account
    // through the coordination-free snapshot plane while the transfers
    // (and the fault schedule) are live. Any successful answer must be a
    // transaction-consistent cut — the conserved bank total — and a
    // crashed shard may only surface as a bounded clean error.
    let snapshot_served = Arc::new(AtomicU64::new(0));
    let auditor = cell.snapshot.then(|| {
        let db = db.clone();
        let served = Arc::clone(&snapshot_served);
        std::thread::spawn(move || {
            let spec = TxnSpec::new().reads((0..ACCOUNTS).map(LogicalItemId));
            for _ in 0..per_client {
                match db.execute(&spec) {
                    Ok(receipt) => {
                        let total: i64 = receipt.reads.values().sum();
                        assert_eq!(
                            total,
                            ACCOUNTS as i64 * INITIAL,
                            "a live read observed a torn cut (snapshot={})",
                            receipt.snapshot,
                        );
                        if receipt.snapshot {
                            served.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    Err(TxnError::TooManyRestarts { .. }) | Err(TxnError::ShardUnavailable) => {}
                    Err(err) => panic!("unexpected snapshot auditor error under chaos: {err}"),
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    });
    for worker in workers.into_iter().chain(auditor) {
        worker.join().expect("chaos client panicked");
    }
    let elapsed = begun.elapsed().as_secs_f64();

    // Flush plane-held traffic, then audit the drained system.
    db.quiesce_faults();
    if db.live_transactions() != 0 {
        postmortem(
            &db,
            &cell,
            seed,
            "transactions still registered after drain",
        );
    }
    let total = audit_total(&db);
    if total != Some(ACCOUNTS as i64 * INITIAL) {
        postmortem(
            &db,
            &cell,
            seed,
            &format!(
                "bank total not conserved: {total:?} != {}",
                ACCOUNTS as i64 * INITIAL
            ),
        );
    }

    let stats = db.stats();
    let counters = db.fault_counters().expect("fault plane armed");
    let committed = committed.load(Ordering::Relaxed);
    let report = db.shutdown().expect("chaos cell drains");
    let serializable = report.serializable().is_ok();
    if !serializable {
        // The database is gone; the oracle verdict itself is the
        // postmortem here.
        eprintln!(
            "FAIL [{}] seed {seed:#x}: history not serializable: {:?}",
            cell.label(),
            report.serializable().err()
        );
        std::process::exit(1);
    }
    ChaosOutcome {
        committed,
        clean_failures: clean_failures.load(Ordering::Relaxed),
        txn_per_sec: committed as f64 / elapsed,
        dropped: counters.dropped,
        duplicated: counters.duplicated,
        delayed: counters.delayed,
        partitioned: counters.partitioned,
        crashes: counters.crashes,
        timeout_restarts: stats.timeout_restarts,
        shard_unavailable: stats.shard_unavailable,
        cleanup_aborts: stats.cleanup_aborts,
        dup_suppressed: stats.dup_suppressed,
        snapshot_served: snapshot_served.load(Ordering::Relaxed),
        serializable,
    }
}

fn main() {
    let smoke = std::env::var("EXP11_SMOKE").is_ok_and(|v| v == "1");
    let gate = std::env::var("EXP11_GATE").is_ok_and(|v| v == "1");

    println!(
        "E11: chaos sweep — drop x partition x crash over a mixed-protocol bank \
         ({CLIENTS} clients x {SHARDS} shards, {} txns/client, {ACCOUNTS} accounts)\n",
        txns_per_client()
    );
    let widths = [17, 10, 7, 8, 6, 5, 6, 6, 6, 7, 7, 7, 7, 5];
    table::header(
        &[
            "cell",
            "committed",
            "failed",
            "txn/s",
            "drops",
            "dups",
            "delay",
            "part",
            "crash",
            "t/outs",
            "unavl",
            "swept",
            "dedup",
            "ser.",
        ],
        &widths,
    );

    let full_grid: Vec<Cell> = {
        let mut cells = Vec::new();
        for &drop_rate in &[0.05, 0.20] {
            for &partition in &[false, true] {
                for &crashes in &[0u32, 2] {
                    cells.push(Cell {
                        drop_rate,
                        partition,
                        crashes,
                        snapshot: false,
                    });
                }
            }
        }
        // The fully-armed cell again with the snapshot auditor racing it.
        cells.push(Cell {
            drop_rate: 0.20,
            partition: true,
            crashes: 2,
            snapshot: true,
        });
        cells
    };
    // The smoke grid keeps one quiet cell and the two fully-armed ones:
    // enough to prove every fault class fires and recovers under gate.
    let smoke_grid = vec![
        Cell {
            drop_rate: 0.05,
            partition: false,
            crashes: 0,
            snapshot: false,
        },
        Cell {
            drop_rate: 0.20,
            partition: true,
            crashes: 0,
            snapshot: false,
        },
        Cell {
            drop_rate: 0.20,
            partition: true,
            crashes: 2,
            snapshot: true,
        },
    ];
    let grid = if smoke { smoke_grid } else { full_grid };

    let mut gate_ok = true;
    for (idx, cell) in grid.iter().enumerate() {
        let seed = SEED_BASE + idx as u64;
        let o = run_cell(*cell, seed);
        table::row(
            &[
                cell.label(),
                o.committed.to_string(),
                o.clean_failures.to_string(),
                format!("{:.0}", o.txn_per_sec),
                o.dropped.to_string(),
                o.duplicated.to_string(),
                o.delayed.to_string(),
                o.partitioned.to_string(),
                o.crashes.to_string(),
                o.timeout_restarts.to_string(),
                o.shard_unavailable.to_string(),
                o.cleanup_aborts.to_string(),
                o.dup_suppressed.to_string(),
                if o.serializable {
                    "yes".into()
                } else {
                    "NO".into()
                },
            ],
            &widths,
        );

        // The gate: armed chaos must actually land, or a green sweep
        // proves nothing.
        let mut live = o.dropped > 0 && o.duplicated > 0 && o.delayed > 0;
        if cell.partition {
            live &= o.partitioned > 0;
        }
        if cell.crashes > 0 {
            live &= o.crashes > 0;
        }
        if cell.snapshot {
            live &= o.snapshot_served > 0;
        }
        if gate && !live {
            eprintln!(
                "gate: cell {} armed fault classes that never fired \
                 (drops {} dups {} delay {} part {} crash {} snap {})",
                cell.label(),
                o.dropped,
                o.duplicated,
                o.delayed,
                o.partitioned,
                o.crashes,
                o.snapshot_served
            );
            gate_ok = false;
        }
    }

    if gate {
        if !gate_ok {
            eprintln!("\nFAIL: a gated cell's armed fault classes never fired");
            std::process::exit(1);
        }
        println!(
            "\nchaos gate passed: every cell's armed fault classes fired, every bank \
             total conserved, every history certified serializable"
        );
    }
}
