//! M4 — micro-benchmark: serializability-oracle cost.
//!
//! The oracle is run after every simulation in the experiment suite; this
//! measures conflict-graph construction plus topological sort on synthetic
//! executions of 100, 500 and 2,000 transactions (four operations each):
//! the median of `SAMPLES` timed checks, as µs per check and µs per
//! logged operation — the figure that should stay flat as the history
//! grows, and does not while the oracle enumerates conflicting pairs.
//!
//! Run with: `cargo bench -p bench --bench m4_sercheck`

use std::time::Instant;

use bench::table;
use dbmodel::{AccessMode, LogSet, LogicalItemId, PhysicalItemId, SiteId, TxnId};
use sercheck::check_serializable;
use simkit::rng::SimRng;

/// Build a serializable execution of `txns` transactions over `items` items
/// (each transaction touches 4 items, implemented in transaction-id order so
/// the graph is acyclic).
fn synthetic_logs(txns: u64, items: u64, seed: u64) -> LogSet {
    let mut logs = LogSet::new();
    let mut rng = SimRng::new(seed);
    for t in 0..txns {
        for _ in 0..4 {
            let item = PhysicalItemId::new(
                LogicalItemId(rng.next_below(items)),
                SiteId((rng.next_below(4)) as u32),
            );
            let mode = if rng.next_bool(0.4) {
                AccessMode::Write
            } else {
                AccessMode::Read
            };
            logs.record(item, TxnId(t), mode);
        }
    }
    logs
}

/// Timed checks per size; the median is reported.
const SAMPLES: usize = 15;

fn main() {
    println!("M4: serializability-oracle cost (median of {SAMPLES} checks)\n");
    let widths = [6, 6, 12, 8];
    table::header(&["txns", "ops", "us/check", "us/op"], &widths);
    for &txns in &[100u64, 500, 2_000] {
        let logs = synthetic_logs(txns, txns / 2, 7);
        let check = || {
            let verdict = check_serializable(std::hint::black_box(&logs));
            assert!(std::hint::black_box(verdict).is_ok(), "acyclic by build");
        };
        check(); // warm the allocator and the caches
        let mut micros: Vec<f64> = (0..SAMPLES)
            .map(|_| {
                let begun = Instant::now();
                check();
                begun.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        micros.sort_by(f64::total_cmp);
        let median = micros[SAMPLES / 2];
        let ops = logs.total_ops();
        table::row(
            &[
                txns.to_string(),
                ops.to_string(),
                format!("{median:.1}"),
                format!("{:.3}", median / ops as f64),
            ],
            &widths,
        );
    }
}
