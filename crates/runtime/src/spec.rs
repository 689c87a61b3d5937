//! What a caller hands the runtime and what it gets back: the predeclared
//! transaction shape ([`TxnSpec`]), the commit receipt ([`TxnReceipt`])
//! and the failure vocabulary ([`TxnError`]).

use std::collections::BTreeMap;

use dbmodel::{CatalogError, CcMethod, LogicalItemId, SiteId, TxnId, Value};
use selection::OpProfile;

/// The predeclared shape of one transaction: its read and write sets, and
/// optionally a pinned origin site and concurrency-control method.
#[derive(Debug, Clone, Default)]
pub struct TxnSpec {
    pub(crate) reads: Vec<LogicalItemId>,
    pub(crate) writes: Vec<LogicalItemId>,
    /// Commutative increments (`item += delta`): confluent, fast-path
    /// eligible. On the coordinated path they stage
    /// `predecessor.wrapping_add(delta)` from the write grant's value.
    pub(crate) adds: Vec<(LogicalItemId, Value)>,
    /// Blind absolute writes (`item = value`): confluent, fast-path
    /// eligible.
    pub(crate) puts: Vec<(LogicalItemId, Value)>,
    pub(crate) origin: Option<SiteId>,
    pub(crate) method: Option<CcMethod>,
}

impl TxnSpec {
    /// An empty spec.
    pub fn new() -> Self {
        TxnSpec::default()
    }

    /// Add a logical item to the read set.
    pub fn read(mut self, item: LogicalItemId) -> Self {
        self.reads.push(item);
        self
    }

    /// Add a logical item to the write set.
    pub fn write(mut self, item: LogicalItemId) -> Self {
        self.writes.push(item);
        self
    }

    /// Add several logical items to the read set.
    pub fn reads<I: IntoIterator<Item = LogicalItemId>>(mut self, items: I) -> Self {
        self.reads.extend(items);
        self
    }

    /// Add several logical items to the write set.
    pub fn writes<I: IntoIterator<Item = LogicalItemId>>(mut self, items: I) -> Self {
        self.writes.extend(items);
        self
    }

    /// Add a commutative increment: `item += delta` (wrapping). Confluent —
    /// eligible for the coordination-avoidance fast path of
    /// [`crate::Database::execute`].
    pub fn add(mut self, item: LogicalItemId, delta: Value) -> Self {
        self.adds.push((item, delta));
        self
    }

    /// Add a blind absolute write: `item = value` (last-writer-wins).
    /// Confluent — eligible for the coordination-avoidance fast path of
    /// [`crate::Database::execute`].
    pub fn put(mut self, item: LogicalItemId, value: Value) -> Self {
        self.puts.push((item, value));
        self
    }

    /// Pin the origin site (default: round-robin over sites).
    pub fn origin(mut self, site: SiteId) -> Self {
        self.origin = Some(site);
        self
    }

    /// Pin the concurrency-control method, overriding the database policy.
    pub fn method(mut self, method: CcMethod) -> Self {
        self.method = Some(method);
        self
    }

    /// The spec's access sets as a [`dbmodel::Transaction`] would hold
    /// them — each ascending and free of duplicates, no read that is also
    /// written — handed to `f` as `(reads, writes)` without building one.
    /// Shapes of up to [`INLINE_ITEMS`] accesses never touch the heap.
    pub(crate) fn with_access_sets<R>(
        &self,
        f: impl FnOnce(&[LogicalItemId], &[LogicalItemId]) -> R,
    ) -> R {
        let written = self
            .writes
            .iter()
            .copied()
            .chain(self.adds.iter().map(|&(item, _)| item))
            .chain(self.puts.iter().map(|&(item, _)| item));
        let n_writes = self.writes.len() + self.adds.len() + self.puts.len();
        let total = n_writes + self.reads.len();
        let mut inline = [LogicalItemId(0); INLINE_ITEMS];
        let mut spilled = Vec::new();
        let items: &mut [LogicalItemId] = if total <= INLINE_ITEMS {
            &mut inline[..total]
        } else {
            spilled.resize(total, LogicalItemId(0));
            &mut spilled
        };
        for (slot, item) in items
            .iter_mut()
            .zip(written.chain(self.reads.iter().copied()))
        {
            *slot = item;
        }
        let (writes, reads) = items.split_at_mut(n_writes);
        let n_writes = sort_dedup(writes, |_| true);
        let writes = &writes[..n_writes];
        let n_reads = sort_dedup(reads, |item| writes.binary_search(item).is_err());
        f(&reads[..n_reads], writes)
    }

    /// The shape routing classifies: which op kinds the spec performs,
    /// and its read and write counts.
    pub(crate) fn profile(&self) -> (OpProfile, usize, usize) {
        let mut profile = OpProfile::empty();
        if !self.reads.is_empty() {
            profile = profile.with(OpProfile::READS);
        }
        if !self.adds.is_empty() {
            profile = profile.with(OpProfile::ADDS);
        }
        if !self.puts.is_empty() {
            profile = profile.with(OpProfile::PUTS);
        }
        if !self.writes.is_empty() {
            // Declared read-modify-write items: their commit values come
            // from arbitrary computation over coordinated reads.
            profile = profile.with(OpProfile::RMW_WRITES);
        }
        let writes = self.adds.len() + self.puts.len() + self.writes.len();
        (profile, self.reads.len(), writes)
    }
}

/// Accesses [`TxnSpec::with_access_sets`] canonicalizes on the stack.
const INLINE_ITEMS: usize = 16;

/// Sort `items`, then compact the distinct ones `keep` accepts to the
/// front; returns how many.
fn sort_dedup(items: &mut [LogicalItemId], keep: impl Fn(&LogicalItemId) -> bool) -> usize {
    items.sort_unstable();
    let mut kept = 0;
    for i in 0..items.len() {
        if (kept == 0 || items[kept - 1] != items[i]) && keep(&items[i]) {
            items[kept] = items[i];
            kept += 1;
        }
    }
    kept
}

/// Why a transaction could not run to commit.
///
/// Each variant documents its *post-state*: what the caller may assume
/// about item values, the grants and queue entries the transaction held,
/// its reply mailbox slot and its commit stamp. Two points split them:
///
/// * **Before the decision point** — an error from [`crate::Database::begin`],
///   `execute` or `run_transaction` before commit — nothing of the
///   transaction was implemented, no commit stamp was drawn, and the
///   mailbox slot is back in the pool.
/// * **Calling [`crate::ActiveTxn::commit`] is the decision point.** An
///   error from it leaves the handle finished: it is deregistered and its
///   mailbox slot back in the pool, it sends no `Abort` (some shard may
///   already have installed its writes), it is not counted in
///   [`crate::StatsSnapshot::user_aborts`], and a drawn stamp is never
///   retired — the read watermark stays below it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnError {
    /// The spec names a logical item the catalog does not know. Raised
    /// before any request is sent: nothing was queued, granted or
    /// implemented.
    UnknownItem(CatalogError),
    /// The transaction was restarted `attempts` times without reaching its
    /// execution phase: the last incarnation was a T/O rejection or a
    /// deadlock victim. Each incarnation's issuer aborted its queue entries
    /// and grants; nothing was implemented. Counted in
    /// [`crate::StatsSnapshot::failed`].
    TooManyRestarts {
        /// Number of attempts made.
        attempts: u32,
    },
    /// A write was staged for an item outside the transaction's write set.
    /// The handle stays open with every grant held: the caller may stage
    /// other writes, commit or abort. (`run_transaction` drops the handle,
    /// which aborts it.)
    NotInWriteSet(LogicalItemId),
    /// Every one of the reply plane's `reply_max_clients` mailboxes
    /// stayed held by an open transaction for the whole bounded acquire
    /// wait — the admission limit, reported instead of blocking `begin`
    /// forever. Raised before any request is sent.
    ReplyPlaneExhausted {
        /// The configured `reply_max_clients` limit.
        max_clients: usize,
    },
    /// The database shut down while the transaction was in flight.
    ///
    /// From `begin`: nothing was implemented and the incarnation is
    /// deregistered; its queue entries are left to the stopping shards (no
    /// `Abort` is sent). From `commit`: the commit is decided but cut
    /// short. Its writes reached the shards its releases and demotes were
    /// routed to before the stop and no others; the final report's log
    /// says which.
    /// A release wait that sees the stop after every release was routed
    /// returns the receipt instead: that commit stands. Counted in no
    /// statistic.
    ShuttingDown,
    /// A shard stopped answering within the configured deadline
    /// ([`crate::RuntimeConfig::request_timeout`] /
    /// [`crate::RuntimeConfig::commit_timeout`] /
    /// [`crate::RuntimeConfig::diagnostic_timeout`]), and the bounded
    /// retry budget is exhausted. Counted in
    /// [`crate::StatsSnapshot::shard_unavailable`].
    ///
    /// From `begin`: a clean failure. Each timed-out incarnation sent an
    /// `Abort` for every item it asked for (best effort; the detector's
    /// stranded-transaction sweep removes whatever they miss), and nothing
    /// was implemented. From a one-shot route of `execute`: a snapshot
    /// read wrote nothing, but a bypass command may still apply when the
    /// shard recovers. From `commit`: *decided but unacknowledged* — the
    /// writes were implemented when the locks demoted, never a partial
    /// commit, and the unretired stamp holds the read watermark below it.
    ShardUnavailable,
}

impl std::fmt::Display for TxnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxnError::UnknownItem(e) => write!(f, "{e}"),
            TxnError::TooManyRestarts { attempts } => {
                write!(f, "transaction gave up after {attempts} restarts")
            }
            TxnError::NotInWriteSet(item) => {
                write!(f, "item {item} is not in the transaction's write set")
            }
            TxnError::ReplyPlaneExhausted { max_clients } => write!(
                f,
                "all {max_clients} reply mailboxes are held by open transactions \
                 (raise RuntimeConfig::reply_max_clients or commit sooner)"
            ),
            TxnError::ShuttingDown => write!(f, "database is shutting down"),
            TxnError::ShardUnavailable => write!(
                f,
                "a shard stopped answering within the configured deadline"
            ),
        }
    }
}

impl std::error::Error for TxnError {}

/// What a committed transaction observed.
#[derive(Debug, Clone)]
pub struct TxnReceipt {
    /// Transaction id of the committed incarnation.
    pub id: TxnId,
    /// The method the committed incarnation ran under. Fast-path commits
    /// bypass the protocols entirely and report the default method as a
    /// placeholder — check [`TxnReceipt::fastpath`].
    pub method: CcMethod,
    /// Restart attempts before the committed incarnation (0 = first try).
    pub restarts: u32,
    /// The values read, keyed by logical item.
    pub reads: BTreeMap<LogicalItemId, Value>,
    /// True when the transaction committed through the
    /// coordination-avoidance bypass (no grants, no queue time).
    pub fastpath: bool,
    /// True when the transaction was served from the MVCC snapshot plane
    /// at the global read watermark (read-only; no coordination at all).
    pub snapshot: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbmodel::{SiteId, Transaction};

    /// The slices the selector summarises are exactly the sets the
    /// transaction built from the same spec will hold.
    #[test]
    fn access_sets_match_the_transaction_built_from_the_spec() {
        let li = LogicalItemId;
        let wide = (0..40u64).rev().map(li);
        let specs = [
            TxnSpec::new(),
            TxnSpec::new().reads([li(9), li(3), li(9)]).write(li(5)),
            // A read the spec also writes is a write only.
            TxnSpec::new()
                .reads([li(4), li(1)])
                .writes([li(4), li(2), li(2)]),
            TxnSpec::new()
                .read(li(7))
                .add(li(7), 1)
                .put(li(3), 0)
                .add(li(8), 2),
            // Past the inline capacity.
            TxnSpec::new().reads(wide.clone()).writes(wide.step_by(3)),
        ];
        for spec in specs {
            let txn = Transaction::builder(TxnId(1), SiteId(0))
                .reads(spec.reads.iter().copied())
                .writes(spec.writes.iter().copied())
                .writes(spec.adds.iter().map(|&(item, _)| item))
                .writes(spec.puts.iter().map(|&(item, _)| item))
                .build();
            spec.with_access_sets(|reads, writes| {
                assert_eq!(reads, txn.read_set(), "{spec:?}");
                assert_eq!(writes, txn.write_set(), "{spec:?}");
            });
        }
    }
}
