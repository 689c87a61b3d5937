//! Stress and equivalence coverage for the runtime's two message planes:
//! the batched ring that carries requests to the shards and the mailbox
//! slab that carries replies back.
//!
//! Three layers, matching the guarantees the runtime leans on:
//!
//! 1. **Ring semantics under real contention** — seeded multi-producer
//!    stress against a deliberately tiny ring, exercising full-ring
//!    backpressure (producers waiting for space), empty-ring consumer parking,
//!    and FIFO-per-producer ordering.
//! 2. **Sequential equivalence, deterministic** — a single-client
//!    workload through the live runtime produces exactly the reads,
//!    commits and final state of a sequential in-memory model of the
//!    same transfers.
//! 3. **Concurrent** — a mixed-method multi-threaded workload is
//!    certified by the `sercheck` serializability oracle, with the
//!    balance invariant on top.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dbmodel::{CcMethod, LogicalItemId, Value};
use runtime::{CcPolicy, Database, RuntimeConfig, TxnSpec};
use simkit::rng::SimRng;
use transport::ring;

fn li(i: u64) -> LogicalItemId {
    LogicalItemId(i)
}

/// Seeded multi-producer stress on a tiny ring: every message arrives,
/// per-producer order is preserved, and the full-ring slow path (producer
/// waiting) is genuinely exercised.
#[test]
fn ring_multi_producer_fifo_under_backpressure() {
    const PRODUCERS: u64 = 4;
    const PER_PRODUCER: u64 = 5_000;
    // Capacity 8: with four producers bursting, the ring is full most of
    // the time, so blocking sends wait and rely on consumer wakeups.
    let (tx, mut rx) = ring::channel::<(u64, u64)>(8);
    let full_hits = Arc::new(AtomicU64::new(0));

    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let tx = tx.clone();
            let full_hits = Arc::clone(&full_hits);
            std::thread::spawn(move || {
                let mut rng = SimRng::new(0xDEC0DE + p);
                for seq in 0..PER_PRODUCER {
                    // First offer without blocking so the test can prove
                    // the full-ring path ran, then block until accepted.
                    match tx.try_send((p, seq)) {
                        Ok(()) => {}
                        Err(ring::TrySendError::Full(v)) => {
                            full_hits.fetch_add(1, Ordering::Relaxed);
                            tx.send(v).expect("receiver alive");
                        }
                        Err(ring::TrySendError::Disconnected(_)) => {
                            panic!("receiver vanished mid-test")
                        }
                    }
                    // Seeded bursts: occasionally yield so producers
                    // interleave differently from run to run of the loop,
                    // but deterministically per seed.
                    if rng.next_f64() < 0.01 {
                        std::thread::yield_now();
                    }
                }
            })
        })
        .collect();
    drop(tx);

    let mut received: Vec<(u64, u64)> = Vec::new();
    let mut buf = Vec::new();
    let mut rng = SimRng::new(0xC0FFEE);
    // Register, look, park while idle — the shard keeper's park protocol
    // on one ring. Ends on the disconnect: all producers done, ring
    // drained.
    while let Ok(ready) = rx.register() {
        if !ready {
            std::thread::park();
            continue;
        }
        rx.drain_into(&mut buf);
        received.append(&mut buf);
        // A deliberately sluggish consumer keeps the ring full so the
        // producers' wait for space fires continuously.
        if rng.next_f64() < 0.05 {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    for p in producers {
        p.join().unwrap();
    }

    assert_eq!(received.len(), (PRODUCERS * PER_PRODUCER) as usize);
    let mut next_expected = vec![0u64; PRODUCERS as usize];
    for &(p, seq) in &received {
        assert_eq!(
            seq, next_expected[p as usize],
            "producer {p} delivered out of order"
        );
        next_expected[p as usize] = seq + 1;
    }
    assert!(
        full_hits.load(Ordering::Relaxed) > 0,
        "the stress must actually hit the full-ring backpressure path"
    );
}

/// The consumer parks on an empty ring and is woken by each trickled
/// send; nothing is lost and the disconnect is observed promptly.
#[test]
fn ring_consumer_parks_and_wakes_on_trickle() {
    let (tx, mut rx) = ring::channel::<u64>(64);
    let producer = std::thread::spawn(move || {
        for i in 0..50 {
            tx.send(i).unwrap();
            // Gaps far longer than the publish cost force the consumer
            // through its park/unpark handshake on nearly every value.
            std::thread::sleep(Duration::from_micros(300));
        }
    });
    let mut got = Vec::new();
    let mut buf = Vec::new();
    while let Ok(ready) = rx.register() {
        if !ready {
            std::thread::park();
            continue;
        }
        rx.drain_into(&mut buf);
        got.append(&mut buf);
    }
    producer.join().unwrap();
    assert_eq!(got, (0..50).collect::<Vec<_>>());
}

const INITIAL: Value = 100;

fn config(shards: u32, items: u64) -> RuntimeConfig {
    RuntimeConfig {
        num_shards: shards,
        num_items: items,
        initial_value: INITIAL,
        deadlock_scan_interval: Duration::from_millis(2),
        ..RuntimeConfig::default()
    }
}

/// A deterministic single-client workload — 80 two-item transfers
/// rotating through 2PL, T/O and PA — observes exactly what a sequential
/// `Vec<Value>` model of the same transfers does: per-transaction reads,
/// the final state of every item and the commit count. Batching and
/// mailbox routing only group and wake; they never reorder or lose a
/// transaction's effects.
#[test]
fn single_client_run_matches_the_sequential_model() {
    const ITEMS: u64 = 12;
    let db = Database::open(config(3, ITEMS)).unwrap();
    let mut model = vec![INITIAL; ITEMS as usize];
    let mut transfers = 0u64;
    for i in 0..80u64 {
        let (a, b) = (i % ITEMS, (i * 5 + 1) % ITEMS);
        if a == b {
            continue;
        }
        let method = CcMethod::ALL[(i % 3) as usize];
        let spec = TxnSpec::new().write(li(a)).write(li(b)).method(method);
        let receipt = db
            .run_transaction(&spec, |reads| {
                vec![(li(a), reads[&li(a)] - 1), (li(b), reads[&li(b)] + 1)]
            })
            .unwrap();
        assert_eq!(
            (receipt.reads[&li(a)], receipt.reads[&li(b)]),
            (model[a as usize], model[b as usize]),
            "transfer {i} read something the sequential model did not"
        );
        model[a as usize] -= 1;
        model[b as usize] += 1;
        transfers += 1;
    }
    let finals: Vec<Value> = (0..ITEMS)
        .map(|i| {
            db.run_transaction(&TxnSpec::new().read(li(i)), |_| vec![])
                .unwrap()
                .reads[&li(i)]
        })
        .collect();
    assert_eq!(finals, model, "final states diverged from the model");
    let report = db.shutdown().unwrap();
    assert_eq!(report.stats.committed, transfers + ITEMS);
    assert!(report.serializable().is_ok());
}

/// Concurrent mixed-method traffic across both planes (requests over the
/// ring, replies through the mailboxes), certified by the sercheck
/// oracle, with the balance invariant checked on top.
#[test]
fn both_planes_serializable_under_concurrent_mixed_load() {
    const ITEMS: u64 = 24;
    const CLIENTS: u64 = 6;
    const PER_CLIENT: u64 = 40;
    let db = Database::open(RuntimeConfig {
        policy: CcPolicy::Mix {
            p_2pl: 0.34,
            p_to: 0.33,
        },
        ..config(3, ITEMS)
    })
    .unwrap();
    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let db = db.clone();
            std::thread::spawn(move || {
                for k in 0..PER_CLIENT {
                    let i = c * 131 + k * 17;
                    let from = li(i % ITEMS);
                    let to = li((i * 3 + 1) % ITEMS);
                    if from == to {
                        continue;
                    }
                    let spec = TxnSpec::new().write(from).write(to);
                    db.run_transaction(&spec, |reads| {
                        vec![(from, reads[&from] - 1), (to, reads[&to] + 1)]
                    })
                    .unwrap();
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let total: Value = (0..ITEMS)
        .map(|i| {
            db.run_transaction(&TxnSpec::new().read(li(i)), |_| vec![])
                .unwrap()
                .reads[&li(i)]
        })
        .sum();
    assert_eq!(total, INITIAL * ITEMS as Value, "balance leaked");
    let report = db.shutdown().unwrap();
    assert!(
        report.serializable().is_ok(),
        "oracle rejected the execution"
    );
}
