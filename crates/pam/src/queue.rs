//! The data queue `QUEUE(j)` of the paper: one per physical data item.
//!
//! Entries are kept sorted in increasing precedence order. Each entry is
//! marked `Accepted` or `Blocked` (PA requests awaiting their issuer's final
//! backed-off timestamp are `Blocked`), and records whether it has been
//! granted. The head `HD(j)` is the ungranted request with the smallest
//! precedence such that all requests with smaller precedences have already
//! been granted — with the queue sorted, that is simply the first ungranted
//! entry.
//!
//! Grant *eligibility* (lock compatibility, the semi-lock rules) is decided
//! by the queue manager that owns the queue; this structure only maintains
//! order and status.

use dbmodel::{AccessMode, CcMethod, TxnId};

use crate::precedence::Precedence;

/// Whether an entry's precedence is final (`Accepted`) or awaiting a PA
/// timestamp update (`Blocked`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryStatus {
    /// The precedence is final; the entry may be granted when it reaches the
    /// head and its lock request is compatible.
    Accepted,
    /// PA: the entry is waiting for its issuer's final backed-off timestamp
    /// and must not be granted.
    Blocked,
}

/// One request waiting in (or granted from) a data queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueEntry {
    /// The issuing transaction.
    pub txn: TxnId,
    /// Read or write access.
    pub mode: AccessMode,
    /// The issuing transaction's concurrency-control method.
    pub method: CcMethod,
    /// The assigned precedence.
    pub precedence: Precedence,
    /// Accepted or blocked.
    pub status: EntryStatus,
    /// Whether the request has been granted a lock.
    pub granted: bool,
}

/// Entry capacity a queue reserves on first use and retains from then on.
/// Removal never shrinks the buffer, so steady-state enqueue/grant/release
/// churn below this depth touches the allocator exactly once per item over
/// the queue's whole lifetime (deeper queues grow once and keep the larger
/// buffer).
const MIN_ENTRY_CAPACITY: usize = 8;

/// A precedence-sorted data queue with capacity-reusing entry storage.
#[derive(Debug, Clone, Default)]
pub struct DataQueue {
    entries: Vec<QueueEntry>,
}

impl DataQueue {
    /// Create an empty queue. The entry buffer is reserved lazily on the
    /// first insert.
    pub fn new() -> Self {
        DataQueue::default()
    }

    /// Number of entries (granted and waiting).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the queue has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The retained entry capacity (allocation-stability diagnostics).
    pub fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// Reserve the retained minimum now instead of on the first insert, so
    /// the first request a queue sees allocates nothing — for embedders
    /// that care *which thread* a queue's one allocation happens on.
    pub fn prewarm(&mut self) {
        if self.entries.capacity() == 0 {
            self.entries.reserve(MIN_ENTRY_CAPACITY);
        }
    }

    /// Insert an entry at its precedence-sorted position.
    ///
    /// Panics in debug builds if the transaction already has an entry in this
    /// queue (each transaction issues at most one request per physical item).
    pub fn insert(&mut self, entry: QueueEntry) {
        debug_assert!(
            self.position_of(entry.txn).is_none(),
            "transaction {:?} already queued",
            entry.txn
        );
        self.prewarm();
        let pos = self
            .entries
            .partition_point(|e| e.precedence <= entry.precedence);
        self.entries.insert(pos, entry);
    }

    /// Index of the entry belonging to `txn`, if present.
    fn position_of(&self, txn: TxnId) -> Option<usize> {
        self.entries.iter().position(|e| e.txn == txn)
    }

    /// The entry belonging to `txn`, if present.
    pub fn get(&self, txn: TxnId) -> Option<&QueueEntry> {
        self.position_of(txn).map(|i| &self.entries[i])
    }

    /// Remove and return the entry belonging to `txn`.
    pub fn remove(&mut self, txn: TxnId) -> Option<QueueEntry> {
        self.position_of(txn).map(|i| self.entries.remove(i))
    }

    /// Update the precedence of `txn`'s entry (PA timestamp update), mark it
    /// accepted, and re-insert it at its new sorted position. Any grant the
    /// entry held is dropped: a grant belongs to the precedence it was
    /// issued at, and the owning item re-decides (and re-issues) it at the
    /// new position. Returns `false` if the transaction has no entry in
    /// this queue.
    pub fn reprioritise(&mut self, txn: TxnId, precedence: Precedence) -> bool {
        let Some(mut entry) = self.remove(txn) else {
            return false;
        };
        entry.precedence = precedence;
        entry.status = EntryStatus::Accepted;
        entry.granted = false;
        self.insert(entry);
        true
    }

    /// Mark `txn`'s entry granted. Returns `false` if absent.
    pub fn mark_granted(&mut self, txn: TxnId) -> bool {
        if let Some(i) = self.position_of(txn) {
            self.entries[i].granted = true;
            true
        } else {
            false
        }
    }

    /// Mark `HD(j)` — the first ungranted entry — granted. Returns `false`
    /// when every entry already is. Unlike [`DataQueue::mark_granted`] this
    /// names the entry by position, so it makes progress even on a queue
    /// corrupted by a double-queued transaction.
    pub fn grant_head(&mut self) -> bool {
        match self.entries.iter_mut().find(|e| !e.granted) {
            Some(head) => {
                head.granted = true;
                true
            }
            None => false,
        }
    }

    /// `HD(j)`: the first ungranted entry in precedence order. All entries
    /// before it are granted by construction.
    pub fn head(&self) -> Option<&QueueEntry> {
        self.entries.iter().find(|e| !e.granted)
    }

    /// Drop every *ungranted* entry, keeping granted ones — the queue half
    /// of crash recovery with partial amnesia: grants (and the locks that
    /// back them) have reached stable storage, in-flight admissions have
    /// not. Returns how many entries were wiped.
    pub fn retain_granted(&mut self) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| e.granted);
        before - self.entries.len()
    }

    /// All currently granted entries, in precedence order.
    pub fn granted(&self) -> impl Iterator<Item = &QueueEntry> + '_ {
        self.entries.iter().filter(|e| e.granted)
    }

    /// All entries in precedence order.
    pub fn iter(&self) -> impl Iterator<Item = &QueueEntry> + '_ {
        self.entries.iter()
    }

    /// The granted entries whose transactions the (ungranted) entry of `txn`
    /// is waiting behind — used to build the wait-for graph for deadlock
    /// detection. Only conflicting granted entries are returned.
    pub fn waits_for(&self, txn: TxnId) -> Vec<TxnId> {
        let Some(entry) = self.get(txn) else {
            return Vec::new();
        };
        if entry.granted {
            return Vec::new();
        }
        self.entries
            .iter()
            .filter(|e| e.granted && e.txn != txn && e.mode.conflicts_with(entry.mode))
            .map(|e| e.txn)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbmodel::{SiteId, Timestamp};

    fn entry(txn: u64, ts: u64, mode: AccessMode) -> QueueEntry {
        QueueEntry {
            txn: TxnId(txn),
            mode,
            method: CcMethod::TimestampOrdering,
            precedence: Precedence::timestamped(Timestamp(ts), SiteId(0), TxnId(txn)),
            status: EntryStatus::Accepted,
            granted: false,
        }
    }

    #[test]
    fn insert_keeps_precedence_order() {
        let mut q = DataQueue::new();
        q.insert(entry(1, 30, AccessMode::Read));
        q.insert(entry(2, 10, AccessMode::Read));
        q.insert(entry(3, 20, AccessMode::Write));
        let order: Vec<u64> = q.iter().map(|e| e.txn.0).collect();
        assert_eq!(order, vec![2, 3, 1]);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn head_is_first_ungranted() {
        let mut q = DataQueue::new();
        q.insert(entry(1, 10, AccessMode::Read));
        q.insert(entry(2, 20, AccessMode::Write));
        assert_eq!(q.head().unwrap().txn, TxnId(1));
        q.mark_granted(TxnId(1));
        assert_eq!(q.head().unwrap().txn, TxnId(2));
        q.mark_granted(TxnId(2));
        assert!(q.head().is_none());
    }

    #[test]
    fn grant_head_walks_the_queue_in_precedence_order() {
        let mut q = DataQueue::new();
        q.insert(entry(1, 20, AccessMode::Read));
        q.insert(entry(2, 10, AccessMode::Write));
        assert!(q.grant_head());
        assert!(q.get(TxnId(2)).unwrap().granted);
        assert_eq!(q.head().unwrap().txn, TxnId(1));
        assert!(q.grant_head());
        assert!(!q.grant_head(), "nothing left to grant");
    }

    #[test]
    fn retain_granted_wipes_only_waiters() {
        let mut q = DataQueue::new();
        q.insert(entry(1, 10, AccessMode::Write));
        q.insert(entry(2, 20, AccessMode::Write));
        q.insert(entry(3, 30, AccessMode::Read));
        q.mark_granted(TxnId(1));
        assert_eq!(q.retain_granted(), 2);
        let left: Vec<u64> = q.iter().map(|e| e.txn.0).collect();
        assert_eq!(left, vec![1]);
        assert_eq!(q.retain_granted(), 0, "idempotent once waiters are gone");
    }

    #[test]
    fn reprioritise_moves_and_accepts() {
        let mut q = DataQueue::new();
        let mut blocked = entry(1, 10, AccessMode::Write);
        blocked.status = EntryStatus::Blocked;
        q.insert(blocked);
        q.insert(entry(2, 20, AccessMode::Read));
        assert!(q.reprioritise(
            TxnId(1),
            Precedence::timestamped(Timestamp(30), SiteId(0), TxnId(1))
        ));
        let order: Vec<u64> = q.iter().map(|e| e.txn.0).collect();
        assert_eq!(order, vec![2, 1]);
        assert_eq!(q.get(TxnId(1)).unwrap().status, EntryStatus::Accepted);
        assert!(!q.reprioritise(
            TxnId(99),
            Precedence::timestamped(Timestamp(1), SiteId(0), TxnId(99))
        ));
    }

    #[test]
    fn remove_and_get() {
        let mut q = DataQueue::new();
        q.insert(entry(1, 10, AccessMode::Read));
        assert!(q.get(TxnId(1)).is_some());
        assert!(q.get(TxnId(2)).is_none());
        let removed = q.remove(TxnId(1)).unwrap();
        assert_eq!(removed.txn, TxnId(1));
        assert!(q.is_empty());
        assert!(q.remove(TxnId(1)).is_none());
    }

    #[test]
    fn waits_for_reports_conflicting_granted_holders() {
        let mut q = DataQueue::new();
        q.insert(entry(1, 10, AccessMode::Read));
        q.insert(entry(2, 20, AccessMode::Read));
        q.insert(entry(3, 30, AccessMode::Write));
        q.mark_granted(TxnId(1));
        q.mark_granted(TxnId(2));
        // t3 writes; it waits for both granted readers.
        assert_eq!(q.waits_for(TxnId(3)), vec![TxnId(1), TxnId(2)]);
        // A granted entry waits for nobody.
        assert_eq!(q.waits_for(TxnId(1)), Vec::<TxnId>::new());
        // A read waiting behind a granted read does not wait on it.
        let mut q2 = DataQueue::new();
        q2.insert(entry(1, 10, AccessMode::Read));
        q2.insert(entry(2, 20, AccessMode::Read));
        q2.mark_granted(TxnId(1));
        assert!(q2.waits_for(TxnId(2)).is_empty());
        // Unknown transaction waits for nothing.
        assert!(q2.waits_for(TxnId(42)).is_empty());
    }

    #[test]
    fn granted_iterates_in_order() {
        let mut q = DataQueue::new();
        q.insert(entry(1, 10, AccessMode::Read));
        q.insert(entry(2, 20, AccessMode::Read));
        q.insert(entry(3, 30, AccessMode::Read));
        q.mark_granted(TxnId(3));
        q.mark_granted(TxnId(1));
        let granted: Vec<u64> = q.granted().map(|e| e.txn.0).collect();
        assert_eq!(granted, vec![1, 3]);
    }

    #[test]
    fn prewarm_makes_the_first_insert_allocation_free() {
        let mut q = DataQueue::new();
        q.prewarm();
        let cap = q.capacity();
        assert!(cap >= 8, "prewarm reserves the retained minimum");
        q.insert(entry(0, 1, AccessMode::Write));
        q.prewarm();
        assert_eq!(q.capacity(), cap, "nothing left for the insert to reserve");
    }

    #[test]
    fn entry_storage_capacity_survives_churn() {
        let mut q = DataQueue::new();
        assert_eq!(q.capacity(), 0, "empty queues hold no buffer");
        q.insert(entry(0, 1, AccessMode::Write));
        let cap = q.capacity();
        assert!(cap >= 8, "first insert reserves the retained minimum");
        // Sustained enqueue/grant/remove churn below the retained depth
        // must never touch the allocator again: capacity is stable.
        for round in 1..500u64 {
            for k in 0..4 {
                q.insert(entry(round * 10 + k, round * 10 + k, AccessMode::Write));
            }
            q.mark_granted(TxnId(round * 10));
            for k in 0..4 {
                q.remove(TxnId(round * 10 + k));
            }
            assert_eq!(q.capacity(), cap, "churn round {round} reallocated");
        }
    }

    #[test]
    fn equal_precedence_inserts_after_existing() {
        // Stable behaviour for identical precedences (should not occur for
        // distinct transactions in practice, but must not panic or reorder).
        let mut q = DataQueue::new();
        let mut a = entry(1, 10, AccessMode::Read);
        let mut b = entry(2, 10, AccessMode::Read);
        // Force identical precedences.
        b.precedence = a.precedence;
        a.granted = false;
        q.insert(a);
        q.insert(b);
        let order: Vec<u64> = q.iter().map(|e| e.txn.0).collect();
        assert_eq!(order, vec![1, 2]);
    }
}
