//! Per-physical-item implementation logs.
//!
//! The paper models an execution as "a set of logs. There is one log
//! associated with each physical data item. The log indicates the order in
//! which physical operations are implemented on that data item." (Section 2.)
//!
//! Queue managers append to an [`ItemLog`] whenever an operation is
//! *implemented* (in the unified scheme: a 2PL/PA lock released, or a T/O
//! lock turned into a semi-lock or released). The [`LogSet`] collects the
//! logs of all items and is the input to the serializability oracle in the
//! `sercheck` crate.

use std::collections::btree_map::{BTreeMap, Entry};

use crate::ids::{PhysicalItemId, Timestamp, TxnId};
use crate::op::AccessMode;

/// One implemented physical operation, as recorded in an item's log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImplementedOp {
    /// The transaction whose operation was implemented.
    pub txn: TxnId,
    /// Read or write.
    pub mode: AccessMode,
    /// Position in the item's log (0 = first implemented).
    pub seq: u64,
    /// For writes: the global commit timestamp the write was stamped with
    /// (`None` on the unstamped simulator path). For snapshot reads: the
    /// commit timestamp of the version the read actually served.
    pub commit_ts: Option<Timestamp>,
    /// True when the entry was recorded by the MVCC snapshot-read plane.
    /// Snapshot entries are ordered against writers by `commit_ts`, not by
    /// log position (they never enter a queue, so their position in the
    /// log says nothing about the serialization order).
    pub snapshot: bool,
}

/// The implementation log of one physical data item.
#[derive(Debug, Clone, Default)]
pub struct ItemLog {
    entries: Vec<ImplementedOp>,
}

impl ItemLog {
    /// Create an empty log.
    pub fn new() -> Self {
        ItemLog::default()
    }

    /// Append an implemented operation and return its sequence number.
    pub fn append(&mut self, txn: TxnId, mode: AccessMode) -> u64 {
        self.append_full(txn, mode, None, false)
    }

    /// Append an implemented operation carrying its commit-timestamp
    /// stamp and snapshot-plane flag (see [`ImplementedOp`]).
    pub fn append_full(
        &mut self,
        txn: TxnId,
        mode: AccessMode,
        commit_ts: Option<Timestamp>,
        snapshot: bool,
    ) -> u64 {
        let seq = self.entries.len() as u64;
        self.entries.push(ImplementedOp {
            txn,
            mode,
            seq,
            commit_ts,
            snapshot,
        });
        seq
    }

    /// All entries in implementation order.
    pub fn entries(&self) -> &[ImplementedOp] {
        &self.entries
    }

    /// Number of implemented operations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing has been implemented on this item.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Pairs `(earlier, later)` of *conflicting* operations in this log, in
    /// implementation order. These are exactly the edges contributed by this
    /// item to the conflict (serialization) graph. Snapshot-plane entries
    /// are excluded: their log position carries no ordering information —
    /// the oracle orders them against writers by `commit_ts` instead.
    pub fn conflict_pairs(&self) -> Vec<(ImplementedOp, ImplementedOp)> {
        let mut pairs = Vec::new();
        for i in 0..self.entries.len() {
            for j in (i + 1)..self.entries.len() {
                let a = self.entries[i];
                let b = self.entries[j];
                if a.snapshot || b.snapshot {
                    continue;
                }
                if a.txn != b.txn && a.mode.conflicts_with(b.mode) {
                    pairs.push((a, b));
                }
            }
        }
        pairs
    }

    /// Remove every entry belonging to `txn`. Used when an aborted
    /// transaction's partial effects must be expunged before restart.
    pub fn purge_txn(&mut self, txn: TxnId) {
        self.entries.retain(|e| e.txn != txn);
        for (i, e) in self.entries.iter_mut().enumerate() {
            e.seq = i as u64;
        }
    }
}

/// The set of implementation logs of all physical items in the system.
#[derive(Debug, Clone, Default)]
pub struct LogSet {
    logs: BTreeMap<PhysicalItemId, ItemLog>,
}

impl LogSet {
    /// Create an empty log set.
    pub fn new() -> Self {
        LogSet::default()
    }

    /// Record that `txn` implemented an operation with the given mode on
    /// `item`.
    pub fn record(&mut self, item: PhysicalItemId, txn: TxnId, mode: AccessMode) -> u64 {
        self.logs.entry(item).or_default().append(txn, mode)
    }

    /// Record an implemented operation carrying its commit-timestamp stamp
    /// and snapshot-plane flag (see [`ImplementedOp`]).
    pub fn record_full(
        &mut self,
        item: PhysicalItemId,
        txn: TxnId,
        mode: AccessMode,
        commit_ts: Option<Timestamp>,
        snapshot: bool,
    ) -> u64 {
        self.logs
            .entry(item)
            .or_default()
            .append_full(txn, mode, commit_ts, snapshot)
    }

    /// Move every log of `other` into this set. A log for an item this
    /// set has none for — every log, when the two sets cover different
    /// sites, as the slices of a sharded runtime do — moves as it is,
    /// buffer and all: nothing is copied and nothing grows. Entries for
    /// an item both sets know are appended after this set's own.
    pub fn absorb(&mut self, other: LogSet) {
        if self.logs.is_empty() {
            self.logs = other.logs;
            return;
        }
        for (item, log) in other.logs {
            match self.logs.entry(item) {
                Entry::Vacant(slot) => {
                    slot.insert(log);
                }
                Entry::Occupied(mut slot) => {
                    for e in log.entries {
                        slot.get_mut()
                            .append_full(e.txn, e.mode, e.commit_ts, e.snapshot);
                    }
                }
            }
        }
    }

    /// The log of one item, if any operation has been implemented on it.
    pub fn log(&self, item: PhysicalItemId) -> Option<&ItemLog> {
        self.logs.get(&item)
    }

    /// Iterate over `(item, log)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (PhysicalItemId, &ItemLog)> + '_ {
        self.logs.iter().map(|(&k, v)| (k, v))
    }

    /// Total number of implemented operations across all items.
    pub fn total_ops(&self) -> usize {
        self.logs.values().map(|l| l.len()).sum()
    }

    /// Distinct transactions appearing anywhere in the logs.
    pub fn transactions(&self) -> Vec<TxnId> {
        let mut txns: Vec<TxnId> = self
            .logs
            .values()
            .flat_map(|l| l.entries().iter().map(|e| e.txn))
            .collect();
        txns.sort_unstable();
        txns.dedup();
        txns
    }

    /// Remove every entry of `txn` from every log.
    pub fn purge_txn(&mut self, txn: TxnId) {
        for log in self.logs.values_mut() {
            log.purge_txn(txn);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{LogicalItemId, SiteId};

    fn pi(i: u64, s: u32) -> PhysicalItemId {
        PhysicalItemId::new(LogicalItemId(i), SiteId(s))
    }

    #[test]
    fn absorb_moves_disjoint_logs_and_appends_shared_ones() {
        let mut a = LogSet::new();
        a.record(pi(1, 0), TxnId(1), AccessMode::Write);
        let mut b = LogSet::new();
        b.record(pi(1, 1), TxnId(2), AccessMode::Write);
        b.record(pi(1, 0), TxnId(3), AccessMode::Read);
        let moved = b.log(pi(1, 1)).unwrap().entries().as_ptr();
        a.absorb(b);
        assert_eq!(a.total_ops(), 3);
        assert_eq!(
            a.log(pi(1, 1)).unwrap().entries().as_ptr(),
            moved,
            "a log for a new item moves with its buffer"
        );
        let shared: Vec<(u64, u64)> = a
            .log(pi(1, 0))
            .unwrap()
            .entries()
            .iter()
            .map(|e| (e.txn.0, e.seq))
            .collect();
        assert_eq!(shared, [(1, 0), (3, 1)], "shared items append in order");
        let mut empty = LogSet::new();
        empty.absorb(a);
        assert_eq!(empty.total_ops(), 3);
    }

    #[test]
    fn append_assigns_increasing_seq() {
        let mut log = ItemLog::new();
        assert_eq!(log.append(TxnId(1), AccessMode::Read), 0);
        assert_eq!(log.append(TxnId(2), AccessMode::Write), 1);
        assert_eq!(log.len(), 2);
        assert!(!log.is_empty());
    }

    #[test]
    fn conflict_pairs_only_cross_txn_with_a_write() {
        let mut log = ItemLog::new();
        log.append(TxnId(1), AccessMode::Read); // seq 0
        log.append(TxnId(2), AccessMode::Read); // seq 1 — no conflict with 0
        log.append(TxnId(3), AccessMode::Write); // seq 2 — conflicts with 0 and 1
        log.append(TxnId(3), AccessMode::Read); // seq 3 — same txn as 2, conflicts with nothing new from 3's view
        let pairs = log.conflict_pairs();
        let as_txns: Vec<(u64, u64)> = pairs.iter().map(|(a, b)| (a.txn.0, b.txn.0)).collect();
        // Only r1(t1)→w(t3) and r(t2)→w(t3) conflict; read/read pairs and
        // same-transaction pairs contribute nothing.
        assert_eq!(as_txns, vec![(1, 3), (2, 3)]);
    }

    #[test]
    fn snapshot_entries_are_excluded_from_position_conflicts() {
        use crate::ids::Timestamp;
        let mut log = ItemLog::new();
        log.append_full(TxnId(1), AccessMode::Write, Some(Timestamp(3)), false);
        log.append_full(TxnId(2), AccessMode::Read, Some(Timestamp(3)), true);
        log.append(TxnId(3), AccessMode::Write);
        let as_txns: Vec<(u64, u64)> = log
            .conflict_pairs()
            .iter()
            .map(|(a, b)| (a.txn.0, b.txn.0))
            .collect();
        // The snapshot read's position contributes nothing; only the two
        // position-ordered writers conflict.
        assert_eq!(as_txns, vec![(1, 3)]);
        assert!(log.entries()[1].snapshot);
        assert_eq!(log.entries()[1].commit_ts, Some(Timestamp(3)));
        assert_eq!(log.entries()[2].commit_ts, None);
    }

    #[test]
    fn purge_txn_removes_and_reseqs() {
        let mut log = ItemLog::new();
        log.append(TxnId(1), AccessMode::Write);
        log.append(TxnId(2), AccessMode::Write);
        log.append(TxnId(1), AccessMode::Read);
        log.purge_txn(TxnId(1));
        assert_eq!(log.len(), 1);
        assert_eq!(log.entries()[0].txn, TxnId(2));
        assert_eq!(log.entries()[0].seq, 0);
    }

    #[test]
    fn logset_records_and_lists_transactions() {
        let mut set = LogSet::new();
        set.record(pi(1, 0), TxnId(5), AccessMode::Write);
        set.record(pi(1, 0), TxnId(3), AccessMode::Read);
        set.record(pi(2, 1), TxnId(5), AccessMode::Read);
        assert_eq!(set.total_ops(), 3);
        assert_eq!(set.transactions(), vec![TxnId(3), TxnId(5)]);
        assert_eq!(set.log(pi(1, 0)).unwrap().len(), 2);
        assert!(set.log(pi(9, 9)).is_none());
    }

    #[test]
    fn logset_purge_spans_items() {
        let mut set = LogSet::new();
        set.record(pi(1, 0), TxnId(5), AccessMode::Write);
        set.record(pi(2, 0), TxnId(5), AccessMode::Write);
        set.record(pi(2, 0), TxnId(6), AccessMode::Write);
        set.purge_txn(TxnId(5));
        assert_eq!(set.total_ops(), 1);
        assert_eq!(set.transactions(), vec![TxnId(6)]);
    }
}
