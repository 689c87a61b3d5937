//! The transaction model.
//!
//! The paper's "legal transaction" has three phases: a read phase (copy data
//! from the database into the user's local memory), a local computing phase,
//! and a write phase (copy results back). Read and write sets are therefore
//! known when the transaction enters the system, which is also what lets the
//! request issuer send all requests to the data-queue managers up front — a
//! prerequisite for both T/O and PA as specified in Sections 3.3–3.4.
//!
//! Each transaction additionally carries the concurrency-control method it
//! runs under ([`CcMethod`]); in the unified system this is chosen per
//! transaction, either statically or by the STL-based selector.

use std::collections::BTreeSet;

use crate::ids::{LogicalItemId, SiteId, TxnId};
use crate::op::{AccessMode, LogicalOp};

/// The concurrency-control protocol a transaction runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CcMethod {
    /// Static two-phase locking (FCFS queues, read/write locks, deadlock
    /// detection with victim abort).
    TwoPhaseLocking,
    /// Basic timestamp ordering (reject-and-restart on out-of-order arrival).
    TimestampOrdering,
    /// Precedence agreement (timestamp backoff negotiation; deadlock- and
    /// restart-free).
    PrecedenceAgreement,
}

impl CcMethod {
    /// All three methods, in the order the paper introduces them.
    pub const ALL: [CcMethod; 3] = [
        CcMethod::TwoPhaseLocking,
        CcMethod::TimestampOrdering,
        CcMethod::PrecedenceAgreement,
    ];

    /// A short label used in reports and experiment output.
    pub fn label(self) -> &'static str {
        match self {
            CcMethod::TwoPhaseLocking => "2PL",
            CcMethod::TimestampOrdering => "T/O",
            CcMethod::PrecedenceAgreement => "PA",
        }
    }
}

impl std::fmt::Display for CcMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The phase a transaction is currently in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxnPhase {
    /// Waiting for / performing database reads.
    Read,
    /// Performing local computation on the data read.
    LocalCompute,
    /// Writing results back to the database.
    Write,
    /// All operations implemented and locks released.
    Finished,
}

/// A transaction: predeclared read and write sets plus bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transaction {
    /// Unique transaction identifier.
    pub id: TxnId,
    /// The site whose request issuer the transaction was submitted to.
    pub origin: SiteId,
    /// Concurrency-control method this transaction runs under.
    pub method: CcMethod,
    /// Logical items read (sorted, deduplicated).
    read_set: Vec<LogicalItemId>,
    /// Logical items written (sorted, deduplicated).
    write_set: Vec<LogicalItemId>,
}

impl Transaction {
    /// Start building a transaction.
    pub fn builder(id: TxnId, origin: SiteId) -> TransactionBuilder {
        TransactionBuilder {
            id,
            origin,
            method: CcMethod::TwoPhaseLocking,
            reads: BTreeSet::new(),
            writes: BTreeSet::new(),
        }
    }

    /// A transaction over access sets already in the builder's canonical
    /// form: each ascending and free of duplicates, and no read that is
    /// also written. Copies the two slices and nothing else — the path
    /// for callers that canonicalize without a set (the live runtime's
    /// `begin`). Debug builds check the form.
    pub fn from_sets(
        id: TxnId,
        origin: SiteId,
        method: CcMethod,
        reads: &[LogicalItemId],
        writes: &[LogicalItemId],
    ) -> Transaction {
        debug_assert!(
            reads.windows(2).all(|w| w[0] < w[1]) && writes.windows(2).all(|w| w[0] < w[1]),
            "access sets must be ascending and free of duplicates"
        );
        debug_assert!(
            reads.iter().all(|item| writes.binary_search(item).is_err()),
            "a written item must not also be in the read set"
        );
        Transaction {
            id,
            origin,
            method,
            read_set: reads.to_vec(),
            write_set: writes.to_vec(),
        }
    }

    /// The logical items this transaction reads.
    pub fn read_set(&self) -> &[LogicalItemId] {
        &self.read_set
    }

    /// The logical items this transaction writes.
    pub fn write_set(&self) -> &[LogicalItemId] {
        &self.write_set
    }

    /// Number of read operations, the paper's `m(t)`.
    pub fn num_reads(&self) -> usize {
        self.read_set.len()
    }

    /// Number of write operations, the paper's `n(t)`.
    pub fn num_writes(&self) -> usize {
        self.write_set.len()
    }

    /// Total number of logical items accessed (the paper's transaction size
    /// `st` when read and write sets are disjoint).
    pub fn size(&self) -> usize {
        self.read_set.len() + self.write_set.len()
    }

    /// True when the transaction accesses no data at all.
    pub fn is_empty(&self) -> bool {
        self.read_set.is_empty() && self.write_set.is_empty()
    }

    /// All logical operations of the transaction: reads first, then writes,
    /// matching the three-phase execution order.
    pub fn logical_ops(&self) -> Vec<LogicalOp> {
        let mut ops = Vec::with_capacity(self.size());
        for &item in &self.read_set {
            ops.push(LogicalOp::read(self.id, item));
        }
        for &item in &self.write_set {
            ops.push(LogicalOp::write(self.id, item));
        }
        ops
    }

    /// The access mode this transaction uses for `item`, if it accesses it.
    /// An item in both sets is reported as a write (the stricter mode).
    pub fn mode_for(&self, item: LogicalItemId) -> Option<AccessMode> {
        if self.write_set.binary_search(&item).is_ok() {
            Some(AccessMode::Write)
        } else if self.read_set.binary_search(&item).is_ok() {
            Some(AccessMode::Read)
        } else {
            None
        }
    }

    /// Return a copy of this transaction running under a different method.
    pub fn with_method(&self, method: CcMethod) -> Transaction {
        Transaction {
            method,
            ..self.clone()
        }
    }
}

/// Builder for [`Transaction`]; deduplicates and sorts the item sets.
#[derive(Debug, Clone)]
pub struct TransactionBuilder {
    id: TxnId,
    origin: SiteId,
    method: CcMethod,
    reads: BTreeSet<LogicalItemId>,
    writes: BTreeSet<LogicalItemId>,
}

impl TransactionBuilder {
    /// Set the concurrency-control method (default: 2PL).
    pub fn method(mut self, method: CcMethod) -> Self {
        self.method = method;
        self
    }

    /// Add a logical item to the read set.
    pub fn read(mut self, item: LogicalItemId) -> Self {
        self.reads.insert(item);
        self
    }

    /// Add a logical item to the write set.
    pub fn write(mut self, item: LogicalItemId) -> Self {
        self.writes.insert(item);
        self
    }

    /// Add several items to the read set.
    pub fn reads<I: IntoIterator<Item = LogicalItemId>>(mut self, items: I) -> Self {
        self.reads.extend(items);
        self
    }

    /// Add several items to the write set.
    pub fn writes<I: IntoIterator<Item = LogicalItemId>>(mut self, items: I) -> Self {
        self.writes.extend(items);
        self
    }

    /// Finish building. An item present in both sets is kept only in the
    /// write set (a read-modify-write access needs only the write request in
    /// every protocol modelled here, since write locks subsume read locks and
    /// the write timestamp check subsumes the read check).
    pub fn build(self) -> Transaction {
        let write_set: Vec<LogicalItemId> = self.writes.iter().copied().collect();
        let read_set: Vec<LogicalItemId> = self
            .reads
            .iter()
            .copied()
            .filter(|i| !self.writes.contains(i))
            .collect();
        Transaction {
            id: self.id,
            origin: self.origin,
            method: self.method,
            read_set,
            write_set,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn li(i: u64) -> LogicalItemId {
        LogicalItemId(i)
    }

    #[test]
    fn builder_dedups_and_sorts() {
        let t = Transaction::builder(TxnId(1), SiteId(0))
            .read(li(5))
            .read(li(3))
            .read(li(5))
            .write(li(9))
            .write(li(2))
            .build();
        assert_eq!(t.read_set(), &[li(3), li(5)]);
        assert_eq!(t.write_set(), &[li(2), li(9)]);
        assert_eq!(t.num_reads(), 2);
        assert_eq!(t.num_writes(), 2);
        assert_eq!(t.size(), 4);
    }

    #[test]
    fn read_write_overlap_becomes_write_only() {
        let t = Transaction::builder(TxnId(1), SiteId(0))
            .read(li(1))
            .read(li(2))
            .write(li(2))
            .build();
        assert_eq!(t.read_set(), &[li(1)]);
        assert_eq!(t.write_set(), &[li(2)]);
        assert_eq!(t.mode_for(li(2)), Some(AccessMode::Write));
    }

    #[test]
    fn logical_ops_lists_reads_then_writes() {
        let t = Transaction::builder(TxnId(7), SiteId(1))
            .read(li(1))
            .write(li(2))
            .build();
        let ops = t.logical_ops();
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0], LogicalOp::read(TxnId(7), li(1)));
        assert_eq!(ops[1], LogicalOp::write(TxnId(7), li(2)));
    }

    #[test]
    fn mode_for_reports_access() {
        let t = Transaction::builder(TxnId(1), SiteId(0))
            .read(li(1))
            .write(li(2))
            .build();
        assert_eq!(t.mode_for(li(1)), Some(AccessMode::Read));
        assert_eq!(t.mode_for(li(2)), Some(AccessMode::Write));
        assert_eq!(t.mode_for(li(3)), None);
    }

    #[test]
    fn with_method_changes_only_method() {
        let t = Transaction::builder(TxnId(1), SiteId(0))
            .method(CcMethod::TimestampOrdering)
            .read(li(1))
            .build();
        let t2 = t.with_method(CcMethod::PrecedenceAgreement);
        assert_eq!(t2.method, CcMethod::PrecedenceAgreement);
        assert_eq!(t2.read_set(), t.read_set());
        assert_eq!(t2.id, t.id);
    }

    #[test]
    fn from_sets_matches_the_builder() {
        let built = Transaction::builder(TxnId(3), SiteId(1))
            .method(CcMethod::PrecedenceAgreement)
            .reads([li(4), li(1), li(7)])
            .writes([li(7), li(2)])
            .build();
        let direct = Transaction::from_sets(
            TxnId(3),
            SiteId(1),
            CcMethod::PrecedenceAgreement,
            &[li(1), li(4)],
            &[li(2), li(7)],
        );
        assert_eq!(direct, built);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "must not also be in the read set")]
    fn from_sets_rejects_a_read_that_is_written() {
        Transaction::from_sets(
            TxnId(1),
            SiteId(0),
            CcMethod::TwoPhaseLocking,
            &[li(2)],
            &[li(2)],
        );
    }

    #[test]
    fn empty_transaction_is_flagged() {
        let t = Transaction::builder(TxnId(1), SiteId(0)).build();
        assert!(t.is_empty());
        assert_eq!(t.size(), 0);
    }

    #[test]
    fn method_labels() {
        assert_eq!(CcMethod::TwoPhaseLocking.label(), "2PL");
        assert_eq!(CcMethod::TimestampOrdering.to_string(), "T/O");
        assert_eq!(CcMethod::PrecedenceAgreement.label(), "PA");
        assert_eq!(CcMethod::ALL.len(), 3);
    }
}
