//! Event-driven deadlock detection under real contention, with the
//! periodic scan out of reach.
//!
//! Eight clients on four shards move money among sixteen hot accounts, six
//! accounts a transaction and mostly under 2PL, so nearly every pair of
//! transactions conflicts and wait cycles — across shards, through T/O and
//! PA members, several in one component — form whenever two clients'
//! per-shard requests interleave. `deadlock_scan_interval` is ten seconds:
//! inside a round's lifetime the only thing that can break a cycle is the
//! scan a shard asks for when it queues the closing edge (`runtime::shard`'s
//! announce rule and the registry's waited-on marks). A cycle nobody
//! announced — or one a pushed scan left standing — would sit until the
//! ten-second backstop and show up twice: as a round far over its budget
//! and as a non-zero `deadlock_backstop_victims`.
//!
//! Whether requests interleave is the scheduler's business (a box with one
//! free core deadlocks a tenth as often as one with two), so the test runs
//! rounds until it has seen [`ENOUGH_VICTIMS`] and reports what it saw; the
//! cycles that *must* be found are forced by hand in `runtime`'s
//! `push_detection_*` tests. CI runs this under `--release` as well: the
//! mark / look race between two shards announcing the two halves of a cycle
//! at the same moment only gets a real chance optimised.

use std::time::{Duration, Instant};

use dbmodel::LogicalItemId;
use runtime::{CcPolicy, Database, RuntimeConfig, StatsSnapshot, TxnSpec};
use simkit::rng::SimRng;

const ACCOUNTS: u64 = 16;
const INITIAL: i64 = 1_000;
const CLIENTS: u64 = 8;
const TXNS_PER_CLIENT: u64 = 250;
const SCAN_INTERVAL: Duration = Duration::from_secs(10);
const ENOUGH_VICTIMS: u64 = 8;
const MAX_ROUNDS: u64 = 4;

/// One database, one contended run, every invariant checked; returns the
/// final counters.
fn round(seed: u64) -> StatsSnapshot {
    let db = Database::open(RuntimeConfig {
        num_shards: 4,
        num_items: ACCOUNTS,
        initial_value: INITIAL,
        policy: CcPolicy::Mix {
            p_2pl: 0.7,
            p_to: 0.15,
        },
        deadlock_scan_interval: SCAN_INTERVAL,
        seed,
        ..RuntimeConfig::default()
    })
    .unwrap();

    let started = Instant::now();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|client| {
            let db = db.clone();
            std::thread::spawn(move || {
                let mut rng = SimRng::new(seed).fork(client);
                for _ in 0..TXNS_PER_CLIENT {
                    // Six distinct accounts, most of the sixteen and on all
                    // four shards: the first pays one to each of the rest.
                    let picks: Vec<LogicalItemId> = rng
                        .sample_distinct(ACCOUNTS as usize, 6)
                        .into_iter()
                        .map(|i| LogicalItemId(i as u64))
                        .collect();
                    let spec = TxnSpec::new().writes(picks.iter().copied());
                    db.run_transaction(&spec, |seen| {
                        let (from, to) = picks.split_first().expect("six accounts");
                        let mut writes = vec![(*from, seen[from] - to.len() as i64)];
                        writes.extend(to.iter().map(|item| (*item, seen[item] + 1)));
                        writes
                    })
                    .expect("every transfer commits within its restart budget");
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread panicked");
    }
    let elapsed = started.elapsed();

    let audit = TxnSpec::new().reads((0..ACCOUNTS).map(LogicalItemId));
    let total: i64 = db
        .run_transaction(&audit, |_| vec![])
        .expect("audit commits")
        .reads
        .values()
        .sum();
    assert_eq!(
        total,
        ACCOUNTS as i64 * INITIAL,
        "transfers conserve the sum"
    );

    let report = db.shutdown().expect("first shutdown wins");
    let stats = report.stats.clone();
    assert_eq!(
        (stats.committed, stats.failed),
        (CLIENTS * TXNS_PER_CLIENT + 1, 0),
        "every client finished"
    );
    assert_eq!(
        stats.deadlock_backstop_victims, 0,
        "a cycle stood until the periodic scan: {stats:?}"
    );
    assert!(
        elapsed < SCAN_INTERVAL,
        "no client may have sat out a scan interval ({elapsed:?})"
    );
    // A victim is signalled once; one that restarts was a victim.
    assert!(
        stats.deadlock_restarts <= stats.deadlock_victims,
        "{stats:?}"
    );
    // Waiters that were themselves waited on: the push path ran.
    assert!(stats.deadlock_push_scans > 0 && stats.deadlock_probes > 0);
    report
        .serializable()
        .expect("the contended history must be conflict-serializable");
    stats
}

#[test]
fn every_deadlock_is_pushed_when_the_periodic_scan_is_ten_seconds_away() {
    let (mut victims, mut push_scans, mut rounds) = (0, 0, 0);
    while rounds < MAX_ROUNDS && victims < ENOUGH_VICTIMS {
        let stats = round(0xDEAD_10C6 + rounds);
        victims += stats.deadlock_victims;
        push_scans += stats.deadlock_push_scans;
        rounds += 1;
    }
    eprintln!(
        "deadlock_push_stress: {rounds} round(s), {victims} victims, all of them found by \
         one of {push_scans} pushed scans"
    );
}
