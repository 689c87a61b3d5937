//! End-to-end tests of the [`Database`] facade: every case opens a live
//! database and drives it through `begin` / `execute` /
//! `run_transaction`, whichever of `db`, `route` and `txn` the behaviour
//! under test lives in. Mounted as `db::tests`.

use super::*;
use crate::registry::ClientEvent;
use dbmodel::{AccessMode, ReplicationPolicy};
use unified_cc::ConfluentOp;

fn li(i: u64) -> LogicalItemId {
    LogicalItemId(i)
}

fn config(shards: u32, items: u64) -> RuntimeConfig {
    RuntimeConfig {
        num_shards: shards,
        num_items: items,
        deadlock_scan_interval: Duration::from_millis(2),
        ..RuntimeConfig::default()
    }
}

#[test]
fn single_txn_reads_initial_value_and_installs_write() {
    let db = Database::open(config(2, 8)).unwrap();
    let spec = TxnSpec::new().read(li(0)).write(li(1));
    let receipt = db
        .run_transaction(&spec, |reads| {
            assert_eq!(reads[&li(0)], 0);
            vec![(li(1), 41)]
        })
        .unwrap();
    assert_eq!(receipt.restarts, 0);
    // A second transaction observes the installed value.
    let spec = TxnSpec::new().read(li(1));
    let receipt = db.run_transaction(&spec, |_| vec![]).unwrap();
    assert_eq!(receipt.reads[&li(1)], 41);
    let report = db.shutdown().unwrap();
    assert_eq!(report.stats.committed, 2);
    assert!(report.serializable().is_ok());
    assert!(db.shutdown().is_none(), "second shutdown is a no-op");
}

#[test]
fn write_outside_write_set_is_rejected() {
    let db = Database::open(config(1, 4)).unwrap();
    let mut txn = db.begin(&TxnSpec::new().write(li(0))).unwrap();
    assert_eq!(txn.write(li(1), 9), Err(TxnError::NotInWriteSet(li(1))));
    txn.write(li(0), 7).unwrap();
    txn.commit().unwrap();
    let report = db.shutdown().unwrap();
    assert_eq!(report.stats.committed, 1);
}

#[test]
fn user_abort_implements_nothing() {
    let db = Database::open(config(1, 4)).unwrap();
    let mut txn = db.begin(&TxnSpec::new().write(li(0))).unwrap();
    txn.write(li(0), 123).unwrap();
    txn.abort();
    // A dropped (not committed) transaction also aborts.
    let _ = db.begin(&TxnSpec::new().write(li(1))).unwrap();
    let spec = TxnSpec::new().read(li(0));
    let receipt = db.run_transaction(&spec, |_| vec![]).unwrap();
    assert_eq!(receipt.reads[&li(0)], 0, "aborted write must not land");
    let report = db.shutdown().unwrap();
    assert_eq!(report.stats.user_aborts, 2);
    assert_eq!(report.stats.committed, 1);
    assert!(report.serializable().is_ok());
}

#[test]
fn unknown_item_is_reported() {
    let db = Database::open(config(1, 2)).unwrap();
    let err = db.begin(&TxnSpec::new().read(li(99))).unwrap_err();
    assert!(matches!(err, TxnError::UnknownItem(_)));
    db.shutdown();
}

#[test]
fn to_conflict_restarts_and_still_commits() {
    let db = Database::open(config(1, 1)).unwrap();
    // A hot single item written by T/O transactions from several
    // threads: rejections are expected, every transaction must still
    // commit within the restart budget.
    let threads: Vec<_> = (0..4)
        .map(|_| {
            let db = db.clone();
            std::thread::spawn(move || {
                for _ in 0..25 {
                    let spec = TxnSpec::new()
                        .write(li(0))
                        .method(CcMethod::TimestampOrdering);
                    db.run_transaction(&spec, |_| vec![(li(0), 1)]).unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let report = db.shutdown().unwrap();
    assert_eq!(report.stats.committed, 100);
    assert!(report.serializable().is_ok());
}

#[test]
fn deadlock_between_2pl_writers_is_broken() {
    let db = Database::open(config(2, 2)).unwrap();
    // Two 2PL transactions locking {0,1} in opposite orders cannot
    // deadlock here because requests are issued up front, but a crowd of
    // multi-item writers still produces genuine wait cycles under 2PL.
    let threads: Vec<_> = (0..6)
        .map(|k| {
            let db = db.clone();
            std::thread::spawn(move || {
                for i in 0..20 {
                    let spec = TxnSpec::new()
                        .write(li((k + i) % 2))
                        .write(li((k + i + 1) % 2))
                        .method(CcMethod::TwoPhaseLocking);
                    db.run_transaction(&spec, |_| vec![]).unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let report = db.shutdown().unwrap();
    assert_eq!(report.stats.committed, 120);
    // Every restart answers a victim signal, but not every signal forces
    // a restart: a scan may signal an incarnation whose cycle dissolved
    // meanwhile (it was granted, or its partner restarted), and an issuer
    // past its waiting phases ignores the signal (see `detector.rs`).
    assert!(
        report.stats.deadlock_restarts <= report.stats.deadlock_victims,
        "{:?}",
        report.stats
    );
    assert!(report.serializable().is_ok());
}

/// Restart churn: the same reusable mailbox serves every incarnation,
/// and the replies still in flight when an incarnation aborts surface as
/// counted stale events, never as grants to the wrong incarnation (the
/// run stays serializable).
#[test]
fn restart_churn_reuses_mailboxes_and_counts_stale_replies() {
    let db = Database::open(config(1, 1)).unwrap();
    let threads: Vec<_> = (0..4)
        .map(|_| {
            let db = db.clone();
            std::thread::spawn(move || {
                for _ in 0..25 {
                    let spec = TxnSpec::new()
                        .write(li(0))
                        .method(CcMethod::TimestampOrdering);
                    db.run_transaction(&spec, |_| vec![(li(0), 1)]).unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let report = db.shutdown().unwrap();
    assert_eq!(report.stats.committed, 100);
    // The oracle is the real check here: a reply leaked across a
    // restart boundary would grant the wrong incarnation and produce
    // a non-serializable history. (Stale replies themselves are
    // scheduling-dependent, so their count cannot be asserted
    // strictly positive — the registry race suite covers that
    // deterministically.)
    assert!(report.serializable().is_ok());
}

/// Acceptance check: the epoch re-fit holds no lock the commit path
/// needs. Client threads commit continuously while the main thread
/// hammers forced re-fits (each of which merges every metric stripe);
/// every transaction must commit and the refits must be visible in
/// the (atomics-only) stats snapshot.
#[test]
fn commits_proceed_concurrently_with_forced_refits() {
    let db = Database::open(RuntimeConfig {
        policy: CcPolicy::DynamicStl,
        ..config(2, 16)
    })
    .unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..3)
        .map(|k| {
            let db = db.clone();
            std::thread::spawn(move || {
                for i in 0..60u64 {
                    let spec = TxnSpec::new()
                        .read(li((k + i) % 16))
                        .write(li((k + i + 3) % 16));
                    db.run_transaction(&spec, |_| vec![(li((k + i + 3) % 16), i as Value)])
                        .unwrap();
                }
            })
        })
        .collect();
    let mut forced = 0u64;
    while !workers.iter().all(|w| w.is_finished()) {
        db.force_refit();
        forced += 1;
        // Poll stats mid-refit-storm: reads only atomics, so it can
        // never block on (or be blocked by) admission.
        let _ = db.stats();
    }
    for w in workers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    assert!(forced > 0);
    let stats = db.stats();
    assert!(
        stats.cache.refits >= forced,
        "forced refits must be counted: {} < {forced}",
        stats.cache.refits
    );
    let report = db.shutdown().unwrap();
    assert_eq!(report.stats.committed, 180);
    assert!(report.serializable().is_ok());
}

/// Spin (yielding) until `done`, failing after five seconds: the tests
/// below wait on the refitter thread's progress, never on a sleep.
fn wait_until(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::yield_now();
    }
}

/// The selector settings of the `DynamicStl` tests: three warm-up
/// commits per method, no exploration.
fn dynamic_cache() -> selection::CacheSettings {
    selection::CacheSettings {
        warmup_commits: 3,
        explore_every: 0,
        ..selection::CacheSettings::default()
    }
}

/// A single-shard `DynamicStl` database whose selector runs on
/// [`dynamic_cache`].
fn open_dynamic() -> Database {
    let config = RuntimeConfig {
        policy: CcPolicy::DynamicStl,
        ..config(1, 8)
    };
    let catalog = Catalog::generate(config.num_shards, config.num_items, config.replication);
    Database::open_with_selector(config, catalog, dynamic_cache()).unwrap()
}

/// A single-shard `DynamicStl` database with its first epoch published
/// and its refitter provably idle: the twelve warm-up transactions pin
/// their methods, so no selection ever raised a request and the thread
/// has been parked since it was spawned; the fit is forced from here.
fn dynamic_db_with_an_epoch() -> Database {
    let db = open_dynamic();
    for i in 0..12 {
        let spec = TxnSpec::new()
            .read(li(i % 8))
            .write(li((i + 1) % 8))
            .method(CcMethod::ALL[i as usize % 3]);
        db.run_transaction(&spec, |_| vec![]).unwrap();
    }
    db.force_refit();
    let stats = db.stats();
    assert_eq!((stats.selections, stats.cache.epoch), (0, 1));
    db
}

/// The asynchronous way to the first epoch: selections explore until
/// every method is warm, one of them asks, the refitter fits and
/// publishes, and from then on selections are cost-based.
#[test]
fn the_refitter_publishes_the_first_epoch_once_every_method_is_warm() {
    let db = open_dynamic();
    let spec = TxnSpec::new().read(li(0)).write(li(1));
    let deadline = Instant::now() + Duration::from_secs(5);
    while db.stats().cache.epoch == 0 {
        assert!(Instant::now() < deadline, "no epoch was ever published");
        db.run_transaction(&spec, |_| vec![]).unwrap();
    }
    let warm = db.stats();
    assert!(warm.committed >= 9, "three commits per method come first");
    db.run_transaction(&spec, |_| vec![]).unwrap();
    let stats = db.stats();
    assert_eq!(
        stats.cache.hits + stats.cache.misses,
        warm.cache.hits + warm.cache.misses + 1
    );
    assert!(stats.selection_refit_nanos > 0);
    db.shutdown().unwrap();
}

/// Ask the refitter for a re-fit it will find due (an epoch's worth of
/// commits on the counter it compares), whatever the drift probe thinks.
fn request_a_due_refit(db: &Database) {
    let inner = &db.inner;
    let epoch_commits = dynamic_cache().epoch_commits;
    inner
        .stats
        .committed
        .fetch_add(epoch_commits, Ordering::Relaxed);
    inner.selector.request_refit();
    inner.wake_refitter();
}

#[test]
fn stats_reports_cache_counters_without_selector_lock() {
    let db = dynamic_db_with_an_epoch();
    for i in 0..38 {
        let spec = TxnSpec::new().read(li(i % 8)).write(li((i + 1) % 8));
        db.run_transaction(&spec, |_| vec![]).unwrap();
    }
    let stats = db.stats();
    assert_eq!(stats.selections, 38);
    assert_eq!(
        stats.cache.hits + stats.cache.misses,
        38,
        "every selection against a published epoch is cost-based: {:?}",
        stats.cache
    );
    assert!(stats.cache.epoch >= 1);
    assert!(stats.selection_nanos > 0 && stats.selection_refit_nanos > 0);
    db.shutdown();
}

/// The tentpole's contract, with the interleaving forced: the refitter is
/// held inside a re-fit (blocked merging a metric stripe this test holds)
/// while a `begin` selects, runs and commits against the old epoch.
#[test]
fn selection_proceeds_while_a_refit_is_in_flight() {
    let db = dynamic_db_with_an_epoch();
    let inner = &db.inner;
    let gate = inner.metrics.lock_foreign_stripe();
    request_a_due_refit(&db);
    wait_until("the refitter took the request", || {
        !inner.selector.refit_requested()
    });
    // The re-fit is past its due check and into the stripe merge, where
    // it stays until `gate` drops. Admission does not care.
    let before = db.stats();
    let spec = TxnSpec::new().read(li(2)).write(li(3));
    db.run_transaction(&spec, |_| vec![(li(3), 7)]).unwrap();
    let during = db.stats();
    assert_eq!(during.selections, before.selections + 1);
    assert_eq!(
        during.cache.hits + during.cache.misses,
        before.cache.hits + before.cache.misses + 1,
        "a cost-based decision, not a fallback"
    );
    assert_eq!(during.cache.epoch, 1, "read from the old epoch");
    assert_eq!(during.cache.refits, 1);
    drop(gate);
    wait_until("the re-fit is published", || db.stats().cache.epoch >= 2);
    assert_eq!(db.stats().selection_refits_abandoned, 0);
    db.shutdown().unwrap();
}

#[test]
fn shutdown_joins_the_refitter_and_drops_the_database() {
    let db = dynamic_db_with_an_epoch();
    let inner = Arc::downgrade(&db.inner);
    let selector = Arc::clone(&db.inner.selector);
    // Leave a request pending so the shutdown has something to abandon
    // (whether the refitter gets to it first is its business).
    selector.request_refit();
    let report = db.shutdown().unwrap();
    assert!(report.stats.selection_refits_abandoned <= 1);
    assert_eq!(
        Arc::strong_count(&selector),
        2,
        "joined: only this test and the database still hold the selector"
    );
    drop(db);
    assert!(
        inner.upgrade().is_none(),
        "nothing outlives the last handle"
    );
    assert_eq!(Arc::strong_count(&selector), 1);
}

#[test]
fn a_database_dropped_without_shutdown_lets_the_refitter_exit() {
    let db = dynamic_db_with_an_epoch();
    let selector = Arc::clone(&db.inner.selector);
    drop(db);
    assert!(selector.is_closed());
    wait_until("the refitter let go of the selector", || {
        Arc::strong_count(&selector) == 1
    });
}

/// The detector holds the shard senders that keep the inboxes open, and
/// parks for a whole scan interval: a database dropped without `shutdown`
/// must wake it to see `stopped`, or detector and shard threads live on.
#[test]
fn a_database_dropped_without_shutdown_lets_the_detector_and_shards_exit() {
    let db = Database::open(push_only_config()).unwrap();
    let registry = Arc::clone(&db.inner.registry);
    drop(db);
    wait_until("detector and shards let go of the registry", || {
        Arc::strong_count(&registry) == 1
    });
}

/// A panic on the refitter thread (here: a poisoned metric stripe under
/// its merge) is caught and counted; the last good epoch stays published
/// and admission carries on against it.
#[test]
fn a_refitter_panic_is_counted_and_the_last_epoch_stays_published() {
    let db = dynamic_db_with_an_epoch();
    let inner = &db.inner;
    std::thread::scope(|scope| {
        let poisoner = scope.spawn(|| {
            let _stripe = inner.metrics.lock_foreign_stripe();
            panic!("poisoning a metric stripe on purpose");
        });
        assert!(poisoner.join().is_err());
    });
    request_a_due_refit(&db);
    wait_until("the panic is counted", || {
        db.stats().selection_refits_abandoned == 1
    });
    let spec = TxnSpec::new().read(li(4)).write(li(5));
    db.run_transaction(&spec, |_| vec![]).unwrap();
    let stats = db.stats();
    assert_eq!((stats.cache.epoch, stats.cache.refits), (1, 1));
    // No `shutdown`: its final merge would meet the poisoned stripe too.
}

#[test]
fn static_and_mixed_policies_spawn_no_refitter() {
    for policy in [
        CcPolicy::Static(CcMethod::TimestampOrdering),
        CcPolicy::Mix {
            p_2pl: 0.3,
            p_to: 0.3,
        },
    ] {
        let db = Database::open(RuntimeConfig {
            policy,
            ..config(1, 4)
        })
        .unwrap();
        assert!(db.inner.refitter.is_none());
        assert_eq!(Arc::strong_count(&db.inner.selector), 1);
        db.run_transaction(&TxnSpec::new().write(li(0)), |_| vec![])
            .unwrap();
        let stats = db.shutdown().unwrap().stats;
        assert_eq!((stats.selections, stats.cache.epoch), (0, 0));
    }
}

#[test]
fn mix_policy_spreads_methods_and_log_tap_grows() {
    let db = Database::open(RuntimeConfig {
        num_shards: 2,
        num_items: 16,
        replication: ReplicationPolicy::KCopies(2),
        policy: CcPolicy::Mix {
            p_2pl: 0.34,
            p_to: 0.33,
        },
        ..RuntimeConfig::default()
    })
    .unwrap();
    for i in 0..60 {
        let spec = TxnSpec::new().read(li(i % 16)).write(li((i + 1) % 16));
        db.run_transaction(&spec, |_| vec![(li((i + 1) % 16), i as Value)])
            .unwrap();
    }
    assert!(db.log_snapshot().total_ops() > 0, "live log tap works");
    let report = db.shutdown().unwrap();
    assert_eq!(report.stats.committed, 60);
    assert!(
        report.selection_counts.len() >= 2,
        "mix uses several methods: {:?}",
        report.selection_counts
    );
    assert!(report.serializable().is_ok());
}

/// `CcPolicy::Mix` draws from a lock-free counter-based stream: over 30,000
/// draws — split across two racing threads, which between them must take
/// every value of the stream exactly once — each method's share lands
/// within 1 % of its probability.
#[test]
fn mix_policy_draws_hold_each_methods_share() {
    const DRAWS: usize = 30_000;
    let (p_2pl, p_to) = (0.5, 0.3);
    let db = Database::open(RuntimeConfig {
        policy: CcPolicy::Mix { p_2pl, p_to },
        seed: 7,
        ..config(1, 2)
    })
    .unwrap();
    let spec = TxnSpec::new().write(li(0));
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                for _ in 0..DRAWS / 2 {
                    db.pick_method(&spec);
                }
            });
        }
    });
    assert_eq!(db.inner.mix_draws.load(Ordering::Relaxed), DRAWS as u64);
    let shares = [p_2pl, p_to, 1.0 - p_2pl - p_to];
    for (count, want) in db.inner.selection_counts.iter().zip(shares) {
        let share = count.load(Ordering::Relaxed) as f64 / DRAWS as f64;
        assert!((share - want).abs() < 0.01, "share {share} for {want}");
    }
    db.shutdown();
}

/// Files currently in `dir` whose names mention the given reason slug.
fn postmortems_in(dir: &std::path::Path, slug: &str) -> usize {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .filter(|e| e.file_name().to_string_lossy().contains(slug))
                .count()
        })
        .unwrap_or(0)
}

/// A healthy reply plane never dumps, no matter how often stats is
/// polled, and its retired overflow/index counters read 0.
#[test]
fn stats_polling_is_side_effect_free_on_a_healthy_plane() {
    let dir = std::env::temp_dir().join(format!(
        "db_healthy_postmortem_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Database::open(RuntimeConfig {
        num_shards: 1,
        num_items: 8,
        trace: trace::TraceConfig {
            postmortem_dir: Some(dir.clone()),
            ..trace::TraceConfig::default()
        },
        ..RuntimeConfig::default()
    })
    .unwrap();
    for i in 0..10 {
        let spec = TxnSpec::new().write(li(i % 8));
        db.run_transaction(&spec, |_| vec![(li(i % 8), 1)]).unwrap();
        let stats = db.stats();
        assert_eq!(stats.mailbox_overflow_entries, 0);
        assert_eq!(stats.mailbox_index_resizes, 0);
        assert_eq!(stats.mailbox_full_drops, 0);
    }
    assert_eq!(
        postmortems_in(&dir, "trace_postmortem"),
        0,
        "a healthy plane polled for stats must never dump"
    );
    db.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The id carries its mailbox slot in its low bits, but the origin site
/// is still round-robin by begin order: the `n`-th `begin` on a 4-shard
/// database originates at site `n % 4`, exactly as when ids were the bare
/// counter.
#[test]
fn origins_follow_begin_order_not_the_packed_id() {
    let db = Database::open(config(4, 16)).unwrap();
    for n in 1..=8u64 {
        let txn = db.begin(&TxnSpec::new().write(li(n))).unwrap();
        assert_eq!(db.inner.registry.seq(txn.id()), n);
        assert_eq!(txn.origin(), SiteId((n % 4) as u32), "begin #{n}");
        txn.abort();
    }
    db.shutdown();
}

/// Minting an id past the top of the `seq` range fails loudly instead of
/// wrapping onto ids already handed out.
#[test]
#[should_panic(expected = "transaction id space exhausted")]
fn begin_refuses_to_wrap_the_id_space() {
    let db = Database::open(config(1, 2)).unwrap();
    let top = u64::MAX >> 16;
    db.inner.next_seq.store(top - 1, Ordering::Relaxed);
    let last = db.begin(&TxnSpec::new().write(li(0))).unwrap();
    assert_eq!(db.inner.registry.seq(last.id()), top);
    last.abort();
    let _ = db.begin(&TxnSpec::new().write(li(0)));
}

/// Sequential fast-path correctness: every increment applies through
/// the bypass (no grants anywhere), the final value is exact, every add
/// is in the execution log, and the flight recorder saw the
/// `FastPathApplied` phase. With `confluence_fastpath` off the same
/// stream coordinates — a write grant per add, nothing through the
/// bypass — to the same value and an equally clean history.
#[test]
fn fast_adds_apply_through_the_bypass() {
    for bypass in [true, false] {
        let db = Database::open(RuntimeConfig {
            confluence_fastpath: bypass,
            ..config(1, 4)
        })
        .unwrap();
        const N: u64 = 50;
        for _ in 0..N {
            let receipt = db.execute(&TxnSpec::new().add(li(0), 2)).unwrap();
            assert_eq!(receipt.fastpath, bypass);
            assert_eq!(receipt.restarts, 0);
        }
        let receipt = db.execute(&TxnSpec::new().read(li(0))).unwrap();
        assert!(receipt.snapshot, "a pure read takes the snapshot plane");
        assert_eq!(receipt.reads[&li(0)], 2 * N as Value);
        let stats = db.stats();
        assert_eq!(stats.fastpath_applied, if bypass { N } else { 0 });
        assert_eq!(stats.snapshot_reads, 1);
        assert_eq!(stats.fastpath_refused, 0);
        assert_eq!(stats.committed, N + 1);
        assert_eq!(
            stats.grants,
            if bypass { 0 } else { N },
            "the bypass issues no grants"
        );
        assert_eq!(
            db.trace_snapshot()
                .iter()
                .any(|e| e.phase == Phase::FastPathApplied),
            bypass
        );
        let report = db.shutdown().unwrap();
        let logged_writes = report
            .logs
            .iter()
            .flat_map(|(_, log)| log.entries())
            .filter(|op| op.mode == AccessMode::Write)
            .count();
        assert_eq!(logged_writes as u64, N, "every add is in the log");
        assert!(report.serializable().is_ok());
    }
}

/// A non-confluent shape (declared rmw write) never takes the bypass,
/// and puts land last-writer-wins through it.
#[test]
fn rmw_shapes_stay_coordinated_and_puts_apply() {
    let db = Database::open(config(1, 4)).unwrap();
    let receipt = db.execute(&TxnSpec::new().put(li(1), 77)).unwrap();
    assert!(receipt.fastpath);
    let receipt = db
        .execute(&TxnSpec::new().read(li(1)).write(li(2)))
        .unwrap();
    assert!(!receipt.fastpath, "an rmw write forces coordination");
    assert_eq!(receipt.reads[&li(1)], 77);
    let stats = db.stats();
    assert_eq!(stats.fastpath_applied, 1);
    let report = db.shutdown().unwrap();
    assert!(report.serializable().is_ok());
}

/// The queue manager refuses the bypass while a coordinated writer
/// holds the item, and the transparent fallback commits the increment
/// on top of the writer's value.
#[test]
fn bypass_refusal_falls_back_to_coordination() {
    let db = Database::open(config(1, 2)).unwrap();
    let mut holder = db.begin(&TxnSpec::new().write(li(0))).unwrap();
    holder.write(li(0), 7).unwrap();
    let worker = {
        let db = db.clone();
        std::thread::spawn(move || db.execute(&TxnSpec::new().add(li(0), 1)).unwrap())
    };
    // The fast attempt is refused (the holder's lock is live), then
    // the fallback queues behind the lock until the holder commits.
    while db.stats().fastpath_refused == 0 {
        std::thread::yield_now();
    }
    holder.commit().unwrap();
    let receipt = worker.join().unwrap();
    assert!(!receipt.fastpath, "the refused txn re-ran coordinated");
    let check = db.execute(&TxnSpec::new().read(li(0))).unwrap();
    assert_eq!(
        check.reads[&li(0)],
        8,
        "the fallback added on top of the committed write"
    );
    assert!(db.stats().fastpath_refused >= 1);
    let report = db.shutdown().unwrap();
    assert!(report.serializable().is_ok());
}

/// The mixed-plane certification the tentpole demands: fast-path
/// increments and coordinated read-modify-writes hammer the same hot
/// items from concurrent threads, and the serializability oracle
/// certifies the merged history.
#[test]
fn mixed_fastpath_and_coordinated_traffic_stays_serializable() {
    let db = Database::open(config(2, 8)).unwrap();
    let fast: Vec<_> = (0..3u64)
        .map(|k| {
            let db = db.clone();
            std::thread::spawn(move || {
                for i in 0..40u64 {
                    db.execute(&TxnSpec::new().add(li((k + i) % 8), 1)).unwrap();
                }
            })
        })
        .collect();
    let coordinated: Vec<_> = (0..3u64)
        .map(|k| {
            let db = db.clone();
            std::thread::spawn(move || {
                for i in 0..40u64 {
                    let item = li((k + i) % 8);
                    let spec = TxnSpec::new().write(item).read(li((k + i + 1) % 8));
                    db.run_transaction(&spec, |reads| {
                        vec![(item, reads[&li((k + i + 1) % 8)].wrapping_add(3))]
                    })
                    .unwrap();
                }
            })
        })
        .collect();
    for t in fast.into_iter().chain(coordinated) {
        t.join().unwrap();
    }
    let stats = db.stats();
    assert_eq!(stats.committed, 240);
    assert_eq!(
        stats.fastpath_applied + stats.fastpath_refused,
        120,
        "every fast txn either applied or was refused exactly once"
    );
    let report = db.shutdown().unwrap();
    assert_eq!(report.stats.committed, 240);
    assert!(report.serializable().is_ok());
}

/// Satellite regression (PR 9): a dead shard must not hang `begin`.
/// The only shard is taken down for far longer than the whole retry
/// budget; the client's bounded request wait aborts each incarnation
/// at `request_timeout`, exhausts `max_restarts`, and surfaces a
/// clean `ShardUnavailable` well before the outage ends.
#[test]
fn dead_shard_request_wait_is_bounded() {
    let db = Database::open(RuntimeConfig {
        request_timeout: Duration::from_millis(40),
        max_restarts: 1,
        ..config(1, 4)
    })
    .unwrap();
    db.inner.shard_txs[0]
        .send(ShardCmd::Crash {
            outage: Duration::from_millis(400),
        })
        .map_err(|_| ())
        .unwrap();
    let begun = Instant::now();
    let err = db.begin(&TxnSpec::new().write(li(0))).unwrap_err();
    assert_eq!(err, TxnError::ShardUnavailable);
    assert!(
        begun.elapsed() < Duration::from_millis(350),
        "the bounded wait must give up before the outage ends, took {:?}",
        begun.elapsed()
    );
    let stats = db.stats();
    assert!(stats.timeout_restarts >= 1, "each expiry is counted");
    assert_eq!(stats.shard_unavailable, 1);
    assert_eq!(stats.committed, 0, "nothing was implemented");
    db.shutdown();
}

/// Satellite regression (PR 9): the diagnostic taps
/// (`waiting_transactions`, `log_snapshot`) skip an unresponsive
/// shard within `diagnostic_timeout` instead of blocking forever.
#[test]
fn diagnostics_skip_an_unresponsive_shard() {
    let db = Database::open(RuntimeConfig {
        diagnostic_timeout: Duration::from_millis(30),
        ..config(2, 8)
    })
    .unwrap();
    for i in 0..8 {
        db.run_transaction(&TxnSpec::new().write(li(i)), |_| vec![(li(i), 1)])
            .unwrap();
    }
    db.inner.shard_txs[0]
        .send(ShardCmd::Crash {
            outage: Duration::from_millis(300),
        })
        .map_err(|_| ())
        .unwrap();
    let begun = Instant::now();
    let waiting = db.waiting_transactions();
    let snapshot = db.log_snapshot();
    assert!(
        begun.elapsed() < Duration::from_millis(200),
        "diagnostics must return within the bound, took {:?}",
        begun.elapsed()
    );
    assert!(waiting.is_empty());
    assert!(
        snapshot.total_ops() > 0,
        "the responsive shard's slice is still served"
    );
    db.shutdown();
}

/// Satellite regression (PR 9): a commit wait parked on a trailing
/// normal-grant upgrade gives up at `commit_timeout` with
/// `ShardUnavailable` — decided but unacknowledged, never a hang. A
/// T/O reader holds a share lock; a later T/O writer executes on its
/// pre-scheduled lock and demotes at commit, which implements the
/// write but cannot fully release until the reader leaves.
#[test]
fn commit_wait_on_a_parked_upgrade_is_bounded() {
    let db = Database::open(RuntimeConfig {
        commit_timeout: Duration::from_millis(60),
        ..config(1, 2)
    })
    .unwrap();
    let reader = db
        .begin(
            &TxnSpec::new()
                .read(li(0))
                .method(CcMethod::TimestampOrdering),
        )
        .unwrap();
    let mut writer = db
        .begin(
            &TxnSpec::new()
                .write(li(0))
                .method(CcMethod::TimestampOrdering),
        )
        .unwrap();
    writer.write(li(0), 9).unwrap();
    let begun = Instant::now();
    let err = writer.commit().unwrap_err();
    assert_eq!(err, TxnError::ShardUnavailable);
    assert!(
        begun.elapsed() < Duration::from_millis(300),
        "commit wait must be bounded, took {:?}",
        begun.elapsed()
    );
    assert_eq!(db.stats().shard_unavailable, 1);
    // The write was implemented when the lock demoted: the decision
    // stands even though the acknowledgement never came. The check
    // read pins a coordinated method: the unacknowledged commit stamp
    // is never retired, so the watermark stalls below it and a
    // snapshot read would (correctly) serve the pre-write version.
    reader.commit().unwrap();
    let check = db
        .run_transaction(
            &TxnSpec::new().read(li(0)).method(CcMethod::TwoPhaseLocking),
            |_| vec![],
        )
        .unwrap();
    assert_eq!(check.reads[&li(0)], 9);
    let report = db.shutdown().unwrap();
    assert!(report.serializable().is_ok());
}

/// `commit` is the decision point: a commit cut short by a shutdown
/// returns `ShuttingDown` with the handle finished. It sends no `Abort`
/// for a transaction that has drawn its commit stamp, counts no user
/// abort, and leaves nothing registered. The flight recorder tells the
/// two apart: `Aborted` carries 1 for the cut-short commit, 0 for a user
/// abort.
#[test]
fn a_commit_cut_short_by_shutdown_is_not_a_user_abort() {
    let db = Database::open(config(2, 4)).unwrap();
    let aborted = db.begin(&TxnSpec::new().write(li(2))).unwrap();
    let aborted_id = aborted.id();
    aborted.abort();
    let mut txn = db.begin(&TxnSpec::new().write(li(0)).write(li(1))).unwrap();
    let cut_short_id = txn.id();
    txn.write(li(0), -1).unwrap();
    txn.write(li(1), 1).unwrap();
    db.shutdown().unwrap();
    assert_eq!(txn.commit().unwrap_err(), TxnError::ShuttingDown);
    let stats = db.stats();
    assert_eq!(
        stats.user_aborts, 1,
        "the user abort alone: a decided commit is not one"
    );
    assert_eq!(stats.committed, 0);
    assert_eq!(db.live_transactions(), 0);
    let aborted_args = |id: TxnId| -> Vec<u32> {
        let events = db.trace_snapshot();
        let aborted = events.iter().filter(|e| e.phase == Phase::Aborted);
        aborted.filter(|e| e.txn == id.0).map(|e| e.arg).collect()
    };
    assert_eq!(aborted_args(aborted_id), [0], "a user abort");
    assert_eq!(aborted_args(cut_short_id), [1], "decided, unacknowledged");
}

/// The execution wait's stop exit: a client queued behind a 2PL holder
/// returns `ShuttingDown` within a few polls of `shutdown`, and once both
/// handles are gone nothing is left registered.
#[test]
fn a_begin_blocked_behind_a_holder_returns_shutting_down() {
    let db = Database::open(config(1, 2)).unwrap();
    let spec = TxnSpec::new()
        .write(li(0))
        .method(CcMethod::TwoPhaseLocking);
    let holder = db.begin(&spec).unwrap();
    let blocked = {
        let (db, spec) = (db.clone(), spec.clone());
        std::thread::spawn(move || {
            let result = db.begin(&spec).map(drop);
            (result, Instant::now())
        })
    };
    wait_until("the second client queues behind the holder", || {
        !db.waiting_transactions().is_empty()
    });
    let stopped_at = Instant::now();
    db.shutdown().unwrap();
    let (result, returned_at) = blocked.join().unwrap();
    assert_eq!(result, Err(TxnError::ShuttingDown));
    let took = returned_at.saturating_duration_since(stopped_at);
    assert!(
        took < SHUTDOWN_POLL * 4,
        "the blocked begin noticed the stop only after {took:?}"
    );
    drop(holder);
    assert_eq!(db.live_transactions(), 0);
}

/// Satellite 4 (PR 9): a victim storm — the same logical transaction
/// repeatedly victimised while queued behind a holder — stays
/// bounded: every restart is counted, the storm cannot exceed the
/// `max_restarts` budget, and the survivor either commits or fails
/// with a clean error. The history stays oracle-certified.
#[test]
fn victim_storm_is_bounded_and_oracle_certified() {
    let db = Database::open(RuntimeConfig {
        max_restarts: 6,
        ..config(1, 2)
    })
    .unwrap();
    let holder = db
        .begin(
            &TxnSpec::new()
                .write(li(0))
                .method(CcMethod::TwoPhaseLocking),
        )
        .unwrap();
    let worker = {
        let db = db.clone();
        std::thread::spawn(move || {
            let spec = TxnSpec::new()
                .write(li(0))
                .method(CcMethod::TwoPhaseLocking);
            db.run_transaction(&spec, |_| vec![(li(0), 7)])
        })
    };
    // Storm: blanket-victimise every plausible incarnation id (the first
    // 64 begins on the first 4 mailboxes), over and over, until the worker
    // has been through several deadlock restarts.
    let mut signals = 0;
    while db.stats().deadlock_restarts < 3 && !worker.is_finished() {
        for seq in 1..=64 {
            for slot in 0..4 {
                let txn = db.inner.registry.txn_id(seq, slot);
                signals += u64::from(db.inner.registry.signal_deadlock(txn));
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    holder.commit().unwrap();
    match worker.join().unwrap() {
        Ok(receipt) => {
            assert!(
                (3..=6).contains(&receipt.restarts),
                "storm restarts must be counted and bounded: {}",
                receipt.restarts
            );
        }
        Err(TxnError::TooManyRestarts { attempts }) => {
            assert_eq!(attempts, 7, "the budget is exact");
        }
        Err(other) => panic!("victim storm must end cleanly, got {other:?}"),
    }
    let stats = db.stats();
    assert!(stats.deadlock_restarts >= 3);
    assert!(stats.deadlock_restarts <= 7);
    // Quiesced: every signal has been acted on. An incarnation takes one
    // signal however often the storm names it — each waiting one restarted
    // on it, the holder (executing all along) ignored its own.
    assert_eq!(signals, stats.deadlock_restarts + 1);
    let report = db.shutdown().unwrap();
    assert!(report.serializable().is_ok());
}

/// A detector whose periodic tick is out of the picture: whatever finds a
/// deadlock within a test's lifetime was pushed.
fn push_only_config() -> RuntimeConfig {
    RuntimeConfig {
        deadlock_scan_interval: Duration::from_secs(10),
        ..config(2, 2)
    }
}

/// How soon a pushed scan must have signalled its victim.
const PUSH_DEADLINE: Duration = Duration::from_millis(50);

/// Hand-drive a cross-shard 2-cycle through a live database's shards: 2PL
/// `T1` holds `a` and waits for `b`; `T2` (under `other`) holds `b` and
/// waits for `a`. `close_on_a` picks which wait is queued second, closing
/// the cycle. `T1` and `T2` are the 1,000,001st and 1,000,002nd begins.
/// Returns the begin-order `seq` of the victim the detector signalled
/// within [`PUSH_DEADLINE`] of the closing edge, if any.
fn hand_driven_cycle(db: &Database, other: CcMethod, close_on_a: bool) -> Option<u64> {
    hand_driven_cycle_with(db, other, close_on_a, PUSH_DEADLINE, |_| {})
}

/// [`hand_driven_cycle`] with its own `deadline`, and `before_closing`
/// called with the site of the first wait's item once that wait is queued
/// and before the closing one is sent.
fn hand_driven_cycle_with(
    db: &Database,
    other: CcMethod,
    close_on_a: bool,
    deadline: Duration,
    before_closing: impl FnOnce(SiteId),
) -> Option<u64> {
    let inner = &db.inner;
    let phys = |i| db.catalog().physical_copies(li(i)).unwrap()[0];
    let (a, b) = (phys(0), phys(1));
    assert_ne!(a.site, b.site, "the cycle must cross shards");
    let mut mb1 = inner.registry.client_mailbox().unwrap();
    let mut mb2 = inner.registry.client_mailbox().unwrap();
    let t1 = inner.registry.txn_id(1_000_001, mb1.slot());
    let t2 = inner.registry.txn_id(1_000_002, mb2.slot());
    let access = |txn: TxnId, item: dbmodel::PhysicalItemId, method| {
        let msg = RequestMsg::Access {
            txn,
            item,
            mode: AccessMode::Write,
            method,
            ts: TsTuple::new(Timestamp(inner.registry.seq(txn)), 10),
        };
        db.route_all(item.site, vec![msg]).unwrap();
    };
    inner
        .registry
        .register(t1, CcMethod::TwoPhaseLocking, &mut mb1);
    inner.registry.register(t2, other, &mut mb2);
    access(t1, a, CcMethod::TwoPhaseLocking);
    access(t2, b, other);
    for (mb, txn) in [(&mut mb1, t1), (&mut mb2, t2)] {
        assert!(
            matches!(
                mb.recv_timeout(txn.0, Duration::from_secs(2)),
                Some(ClientEvent::Replies(_))
            ),
            "{txn:?} takes its first lock unopposed"
        );
    }
    let waits = [(t1, b, CcMethod::TwoPhaseLocking), (t2, a, other)];
    let [first, closing] = if close_on_a {
        waits
    } else {
        [waits[1], waits[0]]
    };
    access(first.0, first.1, first.2);
    wait_until("the first waiter is queued", || {
        db.waiting_transactions().contains(&first.0)
    });
    before_closing(first.1.site);
    let closed = Instant::now();
    access(closing.0, closing.1, closing.2);
    let mut victim = None;
    while victim.is_none() && closed.elapsed() < deadline {
        for (mb, txn) in [(&mut mb1, t1), (&mut mb2, t2)] {
            if let Some(ClientEvent::DeadlockVictim) =
                mb.recv_timeout(txn.0, Duration::from_millis(1))
            {
                victim = Some(txn);
            }
        }
    }
    // What the victim's (and the survivor's) client would do next.
    for (txn, origin) in [(t1, a.site), (t2, b.site)] {
        let aborts = [a, b].map(|item| RequestMsg::Abort { txn, item });
        db.route_all(origin, aborts.to_vec()).unwrap();
        inner.registry.deregister(txn);
    }
    victim.map(|txn| inner.registry.seq(txn))
}

/// The tentpole's promise: with the periodic scan ten seconds away, a
/// cross-shard cycle is broken within [`PUSH_DEADLINE`] of its closing
/// edge, whichever shard queues that edge, and no victim is the backstop's.
#[test]
fn push_detection_breaks_a_cross_shard_cycle_in_either_edge_order() {
    for close_on_a in [true, false] {
        let db = Database::open(push_only_config()).unwrap();
        let victim = hand_driven_cycle(&db, CcMethod::TwoPhaseLocking, close_on_a);
        assert_eq!(victim, Some(1_000_002), "close_on_a = {close_on_a}");
        let stats = db.shutdown().unwrap().stats;
        assert_eq!(
            (stats.deadlock_victims, stats.deadlock_backstop_victims),
            (1, 0)
        );
        assert!(stats.deadlock_push_scans >= 1 && stats.deadlock_probes >= 2);
    }
}

/// A pushed scan that had to skip a shard's report asks once more. The
/// shard holding the first wait edge has its core held from before the
/// closing edge until the detector's second pushed scan has begun, so the
/// first scan's report from it misses `EDGE_REPORT_TIMEOUT`; with the
/// periodic scan ten seconds away, only the rescan can break the cycle.
#[test]
fn push_detection_rescans_after_a_skipped_edge_report() {
    let db = Database::open(push_only_config()).unwrap();
    let mut holder = None;
    let victim = hand_driven_cycle_with(
        &db,
        CcMethod::TwoPhaseLocking,
        true,
        Duration::from_secs(1),
        |site| {
            let shard = db.inner.shard_txs[db.inner.shard_of(site)].clone();
            let stats = Arc::clone(&db.inner.stats);
            let (locked_tx, locked_rx) = std::sync::mpsc::channel();
            holder = Some(std::thread::spawn(move || {
                let scans = stats.deadlock_push_scans.load(Ordering::Relaxed);
                let _held = shard.hold_core();
                locked_tx.send(()).unwrap();
                let give_up = Instant::now() + Duration::from_secs(2);
                while stats.deadlock_push_scans.load(Ordering::Relaxed) < scans + 2
                    && Instant::now() < give_up
                {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }));
            locked_rx.recv().unwrap();
        },
    );
    holder.expect("the hook ran").join().unwrap();
    assert_eq!(victim, Some(1_000_002), "broken by the rescan");
    let stats = db.shutdown().unwrap().stats;
    assert_eq!(
        (stats.deadlock_victims, stats.deadlock_backstop_victims),
        (1, 0)
    );
    assert!(stats.deadlock_push_scans >= 2, "{stats:?}");
}

/// With a T/O member in the cycle the pushed scan still victimises the
/// 2PL member, older though it is (Corollary 2).
#[test]
fn push_detection_victimises_the_2pl_member_of_a_mixed_cycle() {
    for close_on_a in [true, false] {
        let db = Database::open(push_only_config()).unwrap();
        let victim = hand_driven_cycle(&db, CcMethod::TimestampOrdering, close_on_a);
        assert_eq!(victim, Some(1_000_001), "close_on_a = {close_on_a}");
        let stats = db.shutdown().unwrap().stats;
        assert_eq!(
            (stats.deadlock_victims, stats.deadlock_backstop_victims),
            (1, 0)
        );
    }
}

/// The must-fail control: the same cycle with the shards' announcements
/// muted misses the deadline — nothing but the announce rule makes the
/// tests above pass.
#[test]
fn push_detection_muted_leaves_the_cycle_to_the_periodic_scan() {
    let db = Database::open(push_only_config()).unwrap();
    db.inner
        .registry
        .mute_announcements
        .store(true, Ordering::Relaxed);
    assert_eq!(
        hand_driven_cycle(&db, CcMethod::TwoPhaseLocking, true),
        None
    );
    let stats = db.shutdown().unwrap().stats;
    assert_eq!((stats.deadlock_victims, stats.deadlock_push_scans), (0, 0));
}

/// A `wide_hot`-shaped load — 4 reads + 4 writes, Zipf 0.99 over 64 items,
/// a third each of 2PL / T/O / PA, 2 clients on 2 shards — at the shipping
/// 5 ms scan interval: deadlocks happen, every one is found by a pushed
/// scan, and each victim is signalled once and restarts once. Whether two
/// clients deadlock at all depends on their access phases interleaving,
/// which a starved CPU can deny a whole round of: the load runs in rounds
/// of fresh seeds on one database until a deadlock was seen, up to 8.
#[test]
fn push_detection_leaves_the_backstop_nothing_under_a_wide_hot_load() {
    const ITEMS: u64 = 64;
    const PER_CLIENT: usize = 4_000;
    const MAX_ROUNDS: u64 = 8;
    let db = Database::open(RuntimeConfig {
        num_shards: 2,
        num_items: ITEMS,
        policy: CcPolicy::Mix {
            p_2pl: 1.0 / 3.0,
            p_to: 1.0 / 3.0,
        },
        ..RuntimeConfig::default()
    })
    .unwrap();
    let mut rounds = 0;
    while rounds < MAX_ROUNDS && db.stats().deadlock_victims == 0 {
        let clients: Vec<_> = (0..2u64)
            .map(|client| {
                let db = db.clone();
                let seed = 0xD1CE + 2 * rounds + client;
                std::thread::spawn(move || {
                    let mut rng = simkit::rng::SimRng::new(seed);
                    let zipf = simkit::dist::Zipfian::new(ITEMS as usize, 0.99);
                    for _ in 0..PER_CLIENT {
                        let mut items: Vec<u64> = Vec::with_capacity(8);
                        while items.len() < 8 {
                            let item = zipf.sample_index(&mut rng) as u64;
                            if !items.contains(&item) {
                                items.push(item);
                            }
                        }
                        let spec = TxnSpec::new()
                            .reads(items[..4].iter().copied().map(li))
                            .writes(items[4..].iter().copied().map(li));
                        db.run_transaction(&spec, |_| {
                            items[4..].iter().map(|&item| (li(item), 1)).collect()
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        for client in clients {
            client.join().unwrap();
        }
        rounds += 1;
    }
    let stats = db.shutdown().unwrap().stats;
    assert_eq!(stats.committed, rounds * 2 * PER_CLIENT as u64);
    assert!(
        stats.deadlock_victims > 0,
        "the load must contend within {MAX_ROUNDS} rounds: {stats:?}"
    );
    assert_eq!(stats.deadlock_backstop_victims, 0, "{stats:?}");
    assert!(stats.deadlock_push_scans >= stats.deadlock_victims);
    // (No oracle replay here: 64,000 operations on 64 hot items is a
    // minute of its pair enumeration; `deadlock_push_stress` certifies a
    // contended history.)
}

/// The mutation gate: with `confluence_check = false` the bypass
/// ignores in-flight coordinated work, and a deliberately interleaved
/// fast transaction closes a precedence cycle the oracle must reject.
/// (This is the proof that the at-apply refusal check is what keeps
/// the fast path serializable.)
#[test]
fn disabling_the_confluence_check_admits_a_non_serializable_history() {
    let db = Database::open(RuntimeConfig {
        confluence_check: false,
        ..config(2, 2)
    })
    .unwrap();
    // T holds write locks on both items across both shards.
    let mut t = db.begin(&TxnSpec::new().write(li(0)).write(li(1))).unwrap();
    t.write(li(0), 10).unwrap();
    t.write(li(1), 20).unwrap();
    let phys0 = db.catalog().physical_copies(li(0)).unwrap()[0];
    let phys1 = db.catalog().physical_copies(li(1)).unwrap()[0];
    let f = TxnId(1_000_000);
    let send = |ops: Vec<ConfluentOp>| {
        let site = ops[0].item().site;
        let idx = db.inner.shard_of(site);
        let (tx, rx) = transport::oneshot::channel();
        db.inner.shard_txs[idx]
            .send(ShardCmd::ApplyConfluent {
                origin: SiteId(0),
                txn: f,
                ops: ops.into_iter().collect(),
                check: false,
                reply: tx,
            })
            .map_err(|_| ())
            .unwrap();
        rx.recv().unwrap()
    };
    // F reads item 0 *before* T implements its write there (F → T)...
    assert!(send(vec![ConfluentOp::Read(phys0)]).is_some());
    t.commit().unwrap();
    // ...and writes item 1 *after* T implemented (T → F): a cycle.
    assert!(send(vec![ConfluentOp::Add(phys1, 1)]).is_some());
    let report = db.shutdown().unwrap();
    assert!(
        report.serializable().is_err(),
        "the unchecked bypass must admit a non-serializable history"
    );
}

/// Tentpole routing (PR 10): a pure read rides the snapshot plane —
/// no grants, no restarts — `begin` hands back a snapshot handle
/// whose reads are already served, and writes outside the (empty)
/// write set stay rejected. A pinned method opts out.
#[test]
fn snapshot_reads_route_around_coordination() {
    let db = Database::open(config(2, 8)).unwrap();
    db.run_transaction(&TxnSpec::new().write(li(3)), |_| vec![(li(3), 42)])
        .unwrap();
    let grants_before = db.stats().grants;
    let receipt = db.execute(&TxnSpec::new().read(li(3)).read(li(4))).unwrap();
    assert!(receipt.snapshot);
    assert_eq!(receipt.restarts, 0);
    assert_eq!(receipt.reads[&li(3)], 42);
    assert_eq!(receipt.reads[&li(4)], 0);
    let mut txn = db.begin(&TxnSpec::new().read(li(3))).unwrap();
    assert!(txn.is_snapshot());
    assert_eq!(txn.read(li(3)), Some(42));
    assert_eq!(txn.write(li(3), 1), Err(TxnError::NotInWriteSet(li(3))));
    let receipt = txn.commit().unwrap();
    assert!(receipt.snapshot);
    // An aborted snapshot handle counts as a user abort and leaves
    // no residue to clean up.
    db.begin(&TxnSpec::new().read(li(4))).unwrap().abort();
    // Pinning a method forces the coordinated plane.
    let receipt = db
        .execute(
            &TxnSpec::new()
                .read(li(3))
                .method(CcMethod::TimestampOrdering),
        )
        .unwrap();
    assert!(!receipt.snapshot);
    let stats = db.stats();
    assert_eq!(stats.snapshot_reads, 3);
    assert_eq!(stats.snapshot_refused, 0);
    assert_eq!(
        stats.grants,
        grants_before + 1,
        "only the pinned-method read took a grant"
    );
    assert_eq!(stats.user_aborts, 1);
    assert_eq!(stats.committed, 4);
    assert_eq!(db.live_transactions(), 0);
    let report = db.shutdown().unwrap();
    assert!(report.serializable().is_ok());
}

/// Tentpole certification (PR 10): snapshot readers race coordinated
/// read-modify-writes and fast-path increments on the same hot items,
/// and the merged history — snapshot reads ordered by served stamp,
/// not log position — is oracle-certified. With `snapshot_reads` off the
/// same readers take the routes that remain, the plane serves nothing,
/// and the history is as clean.
#[test]
fn mixed_snapshot_and_writer_traffic_stays_serializable() {
    for snapshot in [true, false] {
        let db = Database::open(RuntimeConfig {
            snapshot_reads: snapshot,
            ..config(2, 8)
        })
        .unwrap();
        let writers: Vec<_> = (0..2u64)
            .map(|k| {
                let db = db.clone();
                std::thread::spawn(move || {
                    for i in 0..40u64 {
                        let item = li((k + i) % 8);
                        db.run_transaction(
                            &TxnSpec::new().write(item).read(li((k + i + 1) % 8)),
                            |reads| vec![(item, reads[&li((k + i + 1) % 8)].wrapping_add(3))],
                        )
                        .unwrap();
                        db.execute(&TxnSpec::new().add(li((k + i + 3) % 8), 1))
                            .unwrap();
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..2u64)
            .map(|k| {
                let db = db.clone();
                std::thread::spawn(move || {
                    for i in 0..40u64 {
                        let receipt = db
                            .execute(
                                &TxnSpec::new()
                                    .read(li((k + i) % 8))
                                    .read(li((k + i + 4) % 8)),
                            )
                            .unwrap();
                        assert_eq!(
                            receipt.snapshot, snapshot,
                            "a pure read never coordinates while the plane is on"
                        );
                    }
                })
            })
            .collect();
        for t in writers.into_iter().chain(readers) {
            t.join().unwrap();
        }
        let stats = db.stats();
        assert_eq!(stats.committed, 240);
        assert_eq!(stats.snapshot_reads, if snapshot { 80 } else { 0 });
        assert_eq!(stats.snapshot_refused, 0);
        let report = db.shutdown().unwrap();
        assert_eq!(report.stats.committed, 240);
        assert!(report.serializable().is_ok());
    }
}

/// Caller-runs stress: two writers and two snapshot readers hammer eight
/// items, so every shard core changes hands constantly between callers
/// running inline and the shard thread draining what they had to
/// enqueue. Each history must still be one the oracle accepts — FIFO per
/// shard, the watermark cut and the log order all ride on the core lock —
/// and every submitted command must be counted exactly once. Several
/// databases, one and two shards; CI runs it in `--release` too.
#[test]
fn caller_runs_stress_keeps_every_history_serializable() {
    const ROUNDS: u64 = 150;
    for shards in [1, 2, 2] {
        let db = Database::open(config(shards, 8)).unwrap();
        let writers = (0..2u64).map(|k| {
            let db = db.clone();
            std::thread::spawn(move || {
                for i in 0..ROUNDS {
                    let (from, to) = (li((k + i) % 8), li((k + 3 * i + 1) % 8));
                    if from == to {
                        continue;
                    }
                    db.run_transaction(&TxnSpec::new().write(from).write(to), |reads| {
                        vec![(from, reads[&from] - 1), (to, reads[&to] + 1)]
                    })
                    .unwrap();
                }
            })
        });
        let readers = (0..2u64).map(|k| {
            let db = db.clone();
            std::thread::spawn(move || {
                for i in 0..ROUNDS {
                    let spec = TxnSpec::new().reads((0..4).map(|j| li((k + i + 2 * j) % 8)));
                    assert!(db.execute(&spec).unwrap().snapshot);
                }
            })
        });
        for t in writers.chain(readers).collect::<Vec<_>>() {
            t.join().unwrap();
        }
        let audit = db
            .run_transaction(
                &TxnSpec::new()
                    .reads((0..8).map(li))
                    .method(CcMethod::TwoPhaseLocking),
                |_| Vec::new(),
            )
            .unwrap();
        assert_eq!(
            audit.reads.values().sum::<Value>(),
            8 * db.inner.config.initial_value,
            "transfers conserve the total"
        );
        let report = db.shutdown().unwrap();
        let stats = &report.stats;
        assert!(stats.shard_inline > 0, "nothing ran inline: {stats:?}");
        assert_eq!(stats.snapshot_refused, 0);
        assert_eq!(stats.mailbox_full_drops, 0);
        assert!(
            report.serializable().is_ok(),
            "non-serializable history on {shards} shard(s)"
        );
    }
}

/// A reader delayed between its watermark load and its shard command
/// while more than `version_retain` installs land on its item finds the
/// version its stamp needs pruned, and the shard refuses it. The watermark
/// has moved, so the read is retried once at the fresh one: served from
/// the snapshot plane, at the new value, and not counted as refused.
#[test]
fn snapshot_read_refused_behind_a_moved_watermark_is_retried_at_the_fresh_one() {
    let db = Database::open(config(1, 2)).unwrap();
    let installs = db.inner.config.version_retain as Value + 1;
    let writer = db.clone();
    crate::route::AFTER_WATERMARK_LOAD.set(Some(Box::new(move || {
        for _ in 0..installs {
            writer
                .run_transaction(&TxnSpec::new().write(li(0)), |reads| {
                    vec![(li(0), reads[&li(0)] + 1)]
                })
                .unwrap();
        }
    })));
    let receipt = db.execute(&TxnSpec::new().read(li(0))).unwrap();
    assert!(
        receipt.snapshot,
        "served by the snapshot plane: {receipt:?}"
    );
    assert_eq!(receipt.reads[&li(0)], installs, "at the fresh watermark");
    let report = db.shutdown().unwrap();
    assert_eq!(report.stats.snapshot_reads, 1);
    assert_eq!(report.stats.snapshot_refused, 0);
    assert_eq!(report.stats.snapshot_retries, 1, "the retry is counted");
    assert!(report.serializable().is_ok());
}

/// Chaos regression (PR 10): a snapshot read against a crashed shard
/// surfaces a bounded `ShardUnavailable` — never a hang, never a
/// silent fall-through to a torn answer. Its command waits out the
/// core wait, finds the core still held by the outage and is enqueued,
/// busy, its wait counted as expired.
#[test]
fn snapshot_read_on_a_dead_shard_is_bounded() {
    one_shot_on_a_dead_shard_is_bounded(TxnSpec::new().read(li(0)));
}

/// The bypass twin of `snapshot_read_on_a_dead_shard_is_bounded`: a
/// single-item add against a crashed shard ends the same way.
#[test]
fn bypass_add_on_a_dead_shard_is_bounded() {
    one_shot_on_a_dead_shard_is_bounded(TxnSpec::new().add(li(0), 1));
}

fn one_shot_on_a_dead_shard_is_bounded(spec: TxnSpec) {
    let db = Database::open(RuntimeConfig {
        diagnostic_timeout: Duration::from_millis(40),
        // No periodic edge report joins the one-shot in the counters.
        deadlock_scan_interval: Duration::from_secs(10),
        ..config(1, 4)
    })
    .unwrap();
    db.inner.shard_txs[0]
        .send(ShardCmd::Crash {
            outage: Duration::from_millis(400),
        })
        .map_err(|_| ())
        .unwrap();
    // The shard thread takes the core for the outage; until then the
    // one-shot would find the ring busy, not the core.
    while !db.inner.shard_txs[0].ring_is_idle() {
        std::thread::yield_now();
    }
    let begun = Instant::now();
    let err = db.execute(&spec).unwrap_err();
    assert_eq!(err, TxnError::ShardUnavailable);
    assert!(
        begun.elapsed() < Duration::from_millis(350),
        "the core wait must give up before the outage ends, took {:?}",
        begun.elapsed()
    );
    let stats = db.stats();
    assert_eq!(stats.shard_unavailable, 1);
    assert_eq!(stats.committed, 0);
    assert_eq!(
        (
            stats.shard_enqueued_busy,
            stats.shard_inline_waited,
            stats.shard_wait_expired
        ),
        (1, 0, 1),
        "{stats:?}"
    );
    db.shutdown();
}

/// Satellite 3 (PR 10): when the hard cap has pruned the chain past
/// the (stalled) watermark, the snapshot plane refuses rather than
/// serving a wrong version, and the transparent fallback still
/// commits the read — correct answer, counted refusal. The fallback is
/// the bypass when it is on and coordination when it is off; either way
/// the snapshot plane is asked, and the refusal counted, exactly once.
#[test]
fn pruned_chain_refuses_and_falls_back() {
    for confluence_fastpath in [true, false] {
        let db = Database::open(RuntimeConfig {
            commit_timeout: Duration::from_millis(40),
            version_retain: 1,
            confluence_fastpath,
            ..config(1, 4)
        })
        .unwrap();
        // Stall the watermark at zero: a T/O writer parked behind a
        // share-holding reader draws the first commit stamp and times
        // out, so the stamp is never retired.
        let reader = db
            .begin(
                &TxnSpec::new()
                    .read(li(1))
                    .method(CcMethod::TimestampOrdering),
            )
            .unwrap();
        let mut writer = db
            .begin(
                &TxnSpec::new()
                    .write(li(1))
                    .method(CcMethod::TimestampOrdering),
            )
            .unwrap();
        writer.write(li(1), 9).unwrap();
        assert_eq!(writer.commit().unwrap_err(), TxnError::ShardUnavailable);
        reader.commit().unwrap();
        // Six stamped writes against retain=1 (hard cap 4) prune li(0)'s
        // seed version out of the chain.
        for v in 1..=6 {
            db.run_transaction(&TxnSpec::new().write(li(0)), |_| vec![(li(0), v)])
                .unwrap();
        }
        let receipt = db.execute(&TxnSpec::new().read(li(0))).unwrap();
        assert!(
            !receipt.snapshot,
            "a chain pruned past the watermark must not serve a snapshot"
        );
        assert_eq!(receipt.fastpath, confluence_fastpath);
        assert_eq!(receipt.reads[&li(0)], 6);
        assert_eq!(
            db.stats().snapshot_refused,
            1,
            "fastpath={confluence_fastpath}: the fallback must not ask the snapshot plane again"
        );
        let report = db.shutdown().unwrap();
        assert!(report.serializable().is_ok());
    }
}

/// The mutation gate (PR 10): with `snapshot_validation = false` the
/// plane serves raw heads, and a snapshot transaction whose two reads
/// straddle a writer's commit observes a torn state — the oracle must
/// reject the cycle. (This is the proof that the watermark visibility
/// check is what keeps snapshot reads serializable.)
#[test]
fn disabling_snapshot_validation_admits_a_non_serializable_history() {
    let db = Database::open(RuntimeConfig {
        snapshot_validation: false,
        ..config(1, 2)
    })
    .unwrap();
    let mut t = db.begin(&TxnSpec::new().write(li(0)).write(li(1))).unwrap();
    t.write(li(0), 10).unwrap();
    t.write(li(1), 20).unwrap();
    let phys0 = db.catalog().physical_copies(li(0)).unwrap()[0];
    let phys1 = db.catalog().physical_copies(li(1)).unwrap()[0];
    let f = TxnId(1_000_000);
    let send = |items: Vec<dbmodel::PhysicalItemId>| {
        let (tx, rx) = transport::oneshot::channel();
        db.inner.shard_txs[0]
            .send(ShardCmd::SnapshotRead {
                txn: f,
                ts: Timestamp::ZERO,
                items: items.into_iter().collect(),
                reply: tx,
            })
            .map_err(|_| ())
            .unwrap();
        rx.recv().unwrap()
    };
    // F reads item 0 *before* T installs (seed version: F → T)...
    assert_eq!(send(vec![phys0]), Some(vec![(phys0, 0)]));
    t.commit().unwrap();
    // ...and item 1 *after*: the unvalidated head is T's stamped
    // write, far above F's snapshot timestamp (T → F): a cycle.
    assert_eq!(send(vec![phys1]), Some(vec![(phys1, 20)]));
    let report = db.shutdown().unwrap();
    assert!(
        report.serializable().is_err(),
        "the unvalidated snapshot plane must admit a torn read"
    );
}

/// The shard index that owns `item`'s (single) copy.
fn shard_of(db: &Database, item: LogicalItemId) -> usize {
    let site = db.catalog().physical_copies(item).unwrap()[0].site;
    db.inner.shard_of(site)
}

/// Hold shard `idx`'s core on another thread — taken before this returns
/// — until a submit to it has started the core wait or been enqueued busy,
/// then ~2 µs more, and let go. The holder reacts to the submit, so which
/// of the two the submit did is forced, not timed.
fn hold_core_until_a_submit(db: &Database, idx: usize) -> std::thread::JoinHandle<()> {
    let db = db.clone();
    let (locked_tx, locked_rx) = std::sync::mpsc::channel();
    let holder = std::thread::spawn(move || {
        let counters = &db.inner.stats.per_shard[idx];
        let seen = || {
            counters.core_waits.load(Ordering::Relaxed)
                + counters.enqueued_busy.load(Ordering::Relaxed)
        };
        let before = seen();
        let held = db.inner.shard_txs[idx].hold_core();
        locked_tx.send(()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while seen() == before {
            assert!(Instant::now() < deadline, "nobody submitted");
            std::hint::spin_loop();
        }
        let release = Instant::now() + Duration::from_micros(2);
        while Instant::now() < release {
            std::hint::spin_loop();
        }
        drop(held);
    });
    locked_rx.recv().unwrap();
    holder
}

/// Begin a 2PL transfer between `from` and `to` on this thread, with the
/// cores of `held` shards held as [`hold_core_until_a_submit`] holds
/// them, and return the per-shard counters of its access phase; then
/// commit it. The core-wait bound is raised to 5 s on this thread for the
/// access phase, so a waiter outlasts a holder descheduled mid-hold.
fn transfer_against_held_cores(
    db: &Database,
    from: LogicalItemId,
    to: LogicalItemId,
    held: &[usize],
) -> Vec<crate::stats::ShardCounterSnapshot> {
    let holders: Vec<_> = held
        .iter()
        .map(|&idx| hold_core_until_a_submit(db, idx))
        .collect();
    let spec = TxnSpec::new()
        .write(from)
        .write(to)
        .method(CcMethod::TwoPhaseLocking);
    shard::CORE_WAIT_BOUND.set(Duration::from_secs(5));
    let begun = db.begin(&spec);
    shard::CORE_WAIT_BOUND.set(shard::CORE_WAIT);
    for holder in holders {
        holder.join().unwrap();
    }
    let mut txn = begun.unwrap();
    let accessed = db.stats().per_shard;
    let (a, b) = (txn.read(from).unwrap(), txn.read(to).unwrap());
    txn.write(from, a - 1).unwrap();
    txn.write(to, b + 1).unwrap();
    txn.commit().unwrap();
    accessed
}

/// A config whose detector never scans during the test: its edge reports
/// would take the cores the tests hold.
fn quiet_config(shards: u32) -> RuntimeConfig {
    RuntimeConfig {
        deadlock_scan_interval: Duration::from_secs(10),
        ..config(shards, 4)
    }
}

/// The send batcher groups by shard at any size: a 70-item write whose
/// items alternate between two shards submits one batch per shard per
/// phase — two access batches, two release batches — however the
/// messages interleave.
#[test]
fn a_wide_write_sends_one_batch_per_shard_per_phase() {
    let db = Database::open(RuntimeConfig {
        num_items: 70,
        ..quiet_config(2)
    })
    .unwrap();
    assert_ne!(shard_of(&db, li(0)), shard_of(&db, li(1)));
    let submits = |db: &Database| {
        let stats = db.stats();
        stats.shard_inline
            + stats.shard_enqueued_busy
            + stats.shard_enqueued_backlog
            + stats.shard_enqueued_log_full
    };
    let before = submits(&db);
    let spec = (0..70).fold(TxnSpec::new(), |spec, i| spec.write(li(i)));
    let spec = spec.method(CcMethod::TwoPhaseLocking);
    db.run_transaction(&spec, |_| (0..70).map(|i| (li(i), 1)).collect())
        .unwrap();
    assert_eq!(submits(&db) - before, 4);
    assert!(db.shutdown().unwrap().serializable().is_ok());
}

/// The core wait, single shard: the transfer's one access batch is the
/// caller's only outstanding command, so it waits out a briefly held core
/// and runs inline — no busy enqueue, no ring hop.
#[test]
fn a_sole_batch_waits_out_a_briefly_held_core() {
    let db = Database::open(quiet_config(1)).unwrap();
    let accessed = transfer_against_held_cores(&db, li(0), li(1), &[0]);
    assert_eq!(
        (accessed[0].inline_waited, accessed[0].enqueued_busy),
        (1, 0),
        "{accessed:?}"
    );
    let stats = db.stats();
    assert!(stats.shard_inline_waited >= 1, "{stats:?}");
    assert_eq!(
        (stats.shard_enqueued_busy, stats.shard_wait_expired),
        (0, 0),
        "{stats:?}"
    );
    assert_eq!(stats.committed, 1);
    assert!(db.shutdown().unwrap().serializable().is_ok());
}

/// The core wait, two shards, first one held: its batch tries once and is
/// enqueued, and the last batch — no longer the caller's only outstanding
/// command — tries once too, although its core is held as well.
#[test]
fn a_last_batch_behind_an_enqueued_one_does_not_wait() {
    let db = Database::open(quiet_config(2)).unwrap();
    let (first, last) = (shard_of(&db, li(0)), shard_of(&db, li(1)));
    assert_ne!(first, last, "the transfer spans both shards");
    let accessed = transfer_against_held_cores(&db, li(0), li(1), &[first, last]);
    for idx in [first, last] {
        let shard = &accessed[idx];
        assert_eq!((shard.enqueued_busy, shard.inline), (1, 0), "{accessed:?}");
        assert_eq!(
            db.inner.stats.per_shard[idx]
                .core_waits
                .load(Ordering::Relaxed),
            0
        );
    }
    assert_eq!(db.stats().shard_inline_waited, 0);
    assert!(db.shutdown().unwrap().serializable().is_ok());
}

/// The core wait, two shards, last one held: the first batch runs inline,
/// so the last is the caller's only outstanding command and waits.
#[test]
fn a_last_batch_behind_inline_ones_waits() {
    let db = Database::open(quiet_config(2)).unwrap();
    let (first, last) = (shard_of(&db, li(0)), shard_of(&db, li(1)));
    assert_ne!(first, last, "the transfer spans both shards");
    let accessed = transfer_against_held_cores(&db, li(0), li(1), &[last]);
    assert_eq!(
        (accessed[first].inline, accessed[first].inline_waited),
        (1, 0),
        "{accessed:?}"
    );
    assert_eq!(
        (accessed[last].inline, accessed[last].inline_waited),
        (1, 1),
        "{accessed:?}"
    );
    let stats = db.stats();
    assert_eq!(
        (stats.shard_enqueued_busy, stats.shard_wait_expired),
        (0, 0),
        "{stats:?}"
    );
    assert!(db.shutdown().unwrap().serializable().is_ok());
}

/// The events one transfer's incarnation left in the flight recorder, in
/// timestamp order.
fn events_of(db: &Database, txn: TxnId) -> Vec<trace::TraceEvent> {
    trace::TraceLog::from_events(db.trace_snapshot())
        .events_of(txn.0)
        .expect("the incarnation was recorded")
        .to_vec()
}

/// Fewer clock reads, the same record: a single-shard 2PL transfer on
/// idle shards runs both of its tenures inline and leaves exactly its
/// nine events. Events that share a boundary share its stamp —
/// `SelectionDone` carries `Begin`'s when no selector runs, `Granted`
/// its tenure's `ShardRecv` — and each is still counted.
#[test]
fn an_inline_commit_records_every_event() {
    let db = Database::open(quiet_config(2)).unwrap();
    assert_eq!(shard_of(&db, li(0)), shard_of(&db, li(2)));
    let before = db.stats().trace_events;
    let spec = TxnSpec::new().write(li(0)).write(li(2));
    let receipt = db
        .run_transaction(&spec, |reads| {
            vec![(li(0), reads[&li(0)] - 1), (li(2), reads[&li(2)] + 1)]
        })
        .unwrap();
    assert_eq!(receipt.method, CcMethod::TwoPhaseLocking);
    let events = events_of(&db, receipt.id);
    let phases: Vec<Phase> = events.iter().map(|e| e.phase).collect();
    assert_eq!(
        phases,
        [
            Phase::Begin,
            Phase::SelectionDone,
            Phase::ShardRecv,
            Phase::Granted,
            Phase::TransportEnqueued,
            Phase::ExecutionStart,
            Phase::CommitStart,
            Phase::ShardRecv,
            Phase::Committed,
        ]
    );
    let ts = |i: usize| events[i].ts_nanos;
    assert_eq!(
        ts(1),
        ts(0),
        "no selector ran: SelectionDone is Begin's read"
    );
    assert_eq!(ts(3), ts(2), "Granted carries its tenure's entry stamp");
    assert_eq!(db.stats().trace_events - before, 9);
    assert_eq!(db.stats().shard_inline, 2, "both tenures ran inline");
    assert!(db.shutdown().unwrap().serializable().is_ok());
}

/// The one policy that selects reads the clock again after it.
#[test]
fn a_dynamic_selection_is_stamped_after_begin() {
    let db = open_dynamic();
    let spec = TxnSpec::new().write(li(0)).write(li(1));
    let receipt = db.run_transaction(&spec, |_| vec![]).unwrap();
    let events = events_of(&db, receipt.id);
    let stamp = |phase: Phase| {
        events
            .iter()
            .find(|e| e.phase == phase)
            .map(|e| e.ts_nanos)
            .unwrap()
    };
    assert!(stamp(Phase::SelectionDone) >= stamp(Phase::Begin));
    assert_eq!(db.stats().selections, 1);
    db.shutdown().unwrap();
}
