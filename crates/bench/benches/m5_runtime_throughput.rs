//! M5 — macro-benchmark: live runtime commit throughput vs. thread count.
//!
//! Runs batches of read-modify-write transactions against a 4-shard
//! [`runtime::Database`] from 1/2/4/8 client threads, once with every
//! transaction pinned to static 2PL, once under the unified mixed
//! assignment (one third of the traffic per protocol), and once under the
//! cached dynamic STL policy. One benchmark iteration is one batch of 64
//! transactions, so committed txns/sec is `64 / (ns-per-iter * 1e-9)`.
//! Each dynamic cell also prints the selector overhead (µs per selection,
//! cache hit rate) — the number that demonstrates the selection cache
//! closed the ~500× per-transaction gap to the static policies.
//!
//! For CI smoke runs, `M5_THREADS=<n>` restricts the sweep to one thread
//! count and `M5_POLICY=<label>` to one policy.

use bench::Trajectory;
use criterion::{criterion_group, criterion_main, Criterion};
use dbmodel::{CcMethod, LogicalItemId};
use runtime::{CcPolicy, Database, RuntimeConfig, TxnSpec};
use trace::json::Json;

const ITEMS: u64 = 64;
const BATCH: u64 = 64;

fn db(policy: CcPolicy) -> Database {
    Database::open(RuntimeConfig {
        num_shards: 4,
        num_items: ITEMS,
        initial_value: 100,
        policy,
        ..RuntimeConfig::default()
    })
    .expect("valid config")
}

/// Run one batch of `BATCH` transfers spread over `threads` client threads.
fn run_batch(db: &Database, threads: u64, round: u64) {
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let db = db.clone();
            std::thread::spawn(move || {
                for k in 0..BATCH / threads {
                    let i = t * 31 + k * 7 + round;
                    let from = LogicalItemId(i % ITEMS);
                    let to = LogicalItemId((i * 3 + 1) % ITEMS);
                    if from == to {
                        continue;
                    }
                    let spec = TxnSpec::new().write(from).write(to);
                    db.run_transaction(&spec, |reads| {
                        vec![(from, reads[&from] - 1), (to, reads[&to] + 1)]
                    })
                    .expect("benchmark transaction commits");
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("benchmark worker panicked");
    }
}

fn throughput(c: &mut Criterion) {
    let thread_filter: Option<u64> = std::env::var("M5_THREADS")
        .ok()
        .and_then(|s| s.parse().ok());
    let policy_filter: Option<String> = std::env::var("M5_POLICY").ok();

    let mut group = c.benchmark_group("m5_runtime_batch64_latency");
    let mut traj = Trajectory::new("m5");
    traj.meta("batch", Json::Num(BATCH as f64));
    traj.meta("items", Json::Num(ITEMS as f64));
    for (label, policy) in [
        ("static-2pl", CcPolicy::Static(CcMethod::TwoPhaseLocking)),
        (
            "unified-mixed",
            CcPolicy::Mix {
                p_2pl: 0.34,
                p_to: 0.33,
            },
        ),
        ("dynamic-stl", CcPolicy::DynamicStl),
    ] {
        if policy_filter.as_deref().is_some_and(|p| p != label) {
            continue;
        }
        for threads in [1u64, 2, 4, 8] {
            if thread_filter.is_some_and(|t| t != threads) {
                continue;
            }
            let database = db(policy);
            let mut round = 0u64;
            group.bench_function(format!("{label}/{threads}threads"), |b| {
                b.iter(|| {
                    round += 1;
                    run_batch(&database, threads, round);
                });
            });
            // A dedicated timed pass outside criterion's loop for the
            // summary and the JSON trajectory.
            const SUMMARY_BATCHES: u64 = 5;
            let begun = std::time::Instant::now();
            for _ in 0..SUMMARY_BATCHES {
                round += 1;
                run_batch(&database, threads, round);
            }
            let txn_per_sec = (SUMMARY_BATCHES * BATCH) as f64 / begun.elapsed().as_secs_f64();
            let stats = database.stats();
            let report = database.shutdown().expect("shutdown");
            assert!(report.serializable().is_ok());
            println!(
                "    -> {label}/{threads}threads: {} committed, {} restarts, {} PA backoffs, \
                 {txn_per_sec:.0} txn/s over the summary pass",
                stats.committed,
                stats.restarts(),
                stats.backoff_rounds
            );
            if stats.selections > 0 {
                println!(
                    "       selector: {} selections, {:.1} µs/selection, {:.1}% cache hits, {} refits",
                    stats.selections,
                    stats.selection_micros_per_txn(),
                    stats.cache.hit_rate() * 100.0,
                    stats.cache.refits
                );
            }
            traj.row([
                ("policy", Json::str(label)),
                ("threads", Json::Num(threads as f64)),
                ("txn_per_sec", Json::Num(txn_per_sec)),
                ("committed", Json::Num(stats.committed as f64)),
                ("restarts", Json::Num(stats.restarts() as f64)),
                ("backoff_rounds", Json::Num(stats.backoff_rounds as f64)),
                (
                    "sel_us",
                    if stats.selections > 0 {
                        Json::Num(stats.selection_micros_per_txn())
                    } else {
                        Json::Null
                    },
                ),
                (
                    "cache_hit_pct",
                    if stats.cache.hits + stats.cache.misses > 0 {
                        Json::Num(stats.cache.hit_rate() * 100.0)
                    } else {
                        Json::Null
                    },
                ),
                ("trace_events", Json::Num(stats.trace_events as f64)),
            ]);
        }
    }
    group.finish();
    if !traj.is_empty() {
        traj.emit();
    }
}

criterion_group!(benches, throughput);
criterion_main!(benches);
