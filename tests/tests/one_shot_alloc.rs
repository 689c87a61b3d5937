//! The allocation budget of the two one-shot routes and of a coordinated
//! transfer, asserted directly: after warm-up, a served 4-item snapshot
//! read spanning two shards costs at most five heap allocations — through
//! `execute` or through `begin` and `commit` — a single-item bypass add at
//! most two, and a `run_transaction` transfer at most 12
//! (`TRANSFER_ALLOCS`), on one shard or across two.
//!
//! The five of the read are one oneshot reply slot and one answer vector
//! per shard, and the receipt's read map; a snapshot `begin` builds no
//! transaction and no issuer beside them. The add's are its reply slot
//! and at most one more. The grouping of the work per shard, the commands
//! themselves and the shard's served-version scratch allocate nothing.
//! The transfer's budget counts the closure's own write vector; which item
//! of the incarnation has had its first reply is a bitset, not a set.
//!
//! A counting global allocator wraps `System` and counts the `alloc`,
//! `alloc_zeroed` and `realloc` calls *of the calling thread* (a
//! `const`-initialised thread-local, so counting allocates nothing): with
//! one client and idle shards every command runs inline on that thread,
//! while the keeper's log folding stays out of the count. The
//! measurement takes the minimum over several windows, so a stray
//! allocation (a log-fold nudge's ring slot, a version ring growing) cannot
//! flake the test; a route that allocates more per transaction still fails
//! every window.
//!
//! The allocator is process-wide but the count is per thread, so the tests
//! here do not disturb one another's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dbmodel::LogicalItemId;
use runtime::{Database, RuntimeConfig, TxnSpec};

thread_local! {
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread being torn down has no counter left to bump.
    let _ = ALLOC_CALLS.try_with(|calls| calls.set(calls.get() + 1));
}

fn allocations() -> u64 {
    ALLOC_CALLS.with(Cell::get)
}

struct CountingAllocator;

// SAFETY: defers entirely to `System`; the counter is a plain
// thread-local cell that never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const TXNS: u64 = 200;

/// Allocations per `run(db)` on this thread, the minimum over five
/// windows of [`TXNS`] transactions after a warm-up of as many. Each must
/// bump `served` once: it took the route the budget is for.
fn allocations_per_txn(
    db: &Database,
    run: impl Fn(&Database),
    served: impl Fn(&Database) -> u64,
) -> f64 {
    for _ in 0..TXNS {
        run(db);
    }
    let mut min_delta = u64::MAX;
    for _ in 0..5 {
        let served_before = served(db);
        let before = allocations();
        for _ in 0..TXNS {
            run(db);
        }
        min_delta = min_delta.min(allocations() - before);
        assert_eq!(
            served(db) - served_before,
            TXNS,
            "every transaction took the route"
        );
    }
    min_delta as f64 / TXNS as f64
}

/// How many sites the single copies of `items` live on.
fn sites(db: &Database, items: &[u64]) -> usize {
    let mut sites: Vec<_> = items
        .iter()
        .map(|&i| db.catalog().physical_copies(LogicalItemId(i)).unwrap()[0].site)
        .collect();
    sites.sort();
    sites.dedup();
    sites.len()
}

fn two_shards() -> Database {
    Database::open(RuntimeConfig {
        num_shards: 2,
        num_items: 8,
        ..RuntimeConfig::default()
    })
    .unwrap()
}

#[test]
fn one_shot_routes_stay_inside_their_allocation_budget() {
    let db = two_shards();
    let read_items = [0, 1, 2, 3];
    assert_eq!(sites(&db, &read_items), 2, "the read spans both shards");
    let read = TxnSpec::new().reads(read_items.map(LogicalItemId));
    let add = TxnSpec::new().add(LogicalItemId(5), 1);

    let per_read = allocations_per_txn(
        &db,
        |db| drop(db.execute(&read).unwrap()),
        |db| db.stats().snapshot_reads,
    );
    let per_add = allocations_per_txn(
        &db,
        |db| drop(db.execute(&add).unwrap()),
        |db| db.stats().fastpath_applied,
    );
    println!("allocations per transaction: snapshot read {per_read}, bypass add {per_add}");
    assert!(
        per_read <= 5.0,
        "a 2-shard snapshot read allocates {per_read}"
    );
    assert!(per_add <= 2.0, "a bypass add allocates {per_add}");

    let report = db.shutdown().unwrap();
    assert!(report.serializable().is_ok());
}

#[test]
fn a_snapshot_begin_and_commit_stays_inside_the_read_budget() {
    let db = two_shards();
    let read_items = [0, 1, 2, 3];
    assert_eq!(sites(&db, &read_items), 2, "the read spans both shards");
    let read = TxnSpec::new().reads(read_items.map(LogicalItemId));
    let per_read = allocations_per_txn(
        &db,
        |db| {
            let txn = db.begin(&read).unwrap();
            assert!(txn.is_snapshot());
            drop(txn.commit().unwrap());
        },
        |db| db.stats().snapshot_reads,
    );
    println!("allocations per snapshot begin + commit: {per_read}");
    assert!(
        per_read <= 5.0,
        "a 2-shard snapshot begin + commit allocates {per_read}"
    );
    let report = db.shutdown().unwrap();
    assert!(report.serializable().is_ok());
}

/// Heap allocations a coordinated `run_transaction` transfer may make on
/// the calling thread, closure included.
const TRANSFER_ALLOCS: f64 = 12.0;

#[test]
fn a_coordinated_transfer_stays_inside_its_allocation_budget() {
    let db = two_shards();
    for (from, to, spanned) in [(0, 2, 1), (0, 1, 2)] {
        assert_eq!(sites(&db, &[from, to]), spanned);
        let (from, to) = (LogicalItemId(from), LogicalItemId(to));
        let transfer = TxnSpec::new().write(from).write(to);
        let per_transfer = allocations_per_txn(
            &db,
            |db| {
                db.run_transaction(&transfer, |reads| {
                    vec![(from, reads[&from] - 1), (to, reads[&to] + 1)]
                })
                .unwrap();
            },
            |db| db.stats().committed,
        );
        println!("allocations per transfer over {spanned} shard(s): {per_transfer}");
        assert!(
            per_transfer <= TRANSFER_ALLOCS,
            "a transfer over {spanned} shard(s) allocates {per_transfer}"
        );
    }
    let report = db.shutdown().unwrap();
    assert!(report.serializable().is_ok());
}
