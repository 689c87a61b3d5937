//! [`ActiveTxn`]: a transaction in its execution phase, and the driver
//! that commits or aborts it.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use dbmodel::{AccessMode, CcMethod, LogicalItemId, TxnId, Value};
use pam::RequestMsg;
use trace::{Phase, SpanTimings};
use transport::stamp::now_nanos;
use unified_cc::{RequestIssuer, RiAction, RiOutput};

use crate::db::{nanos, nanos_between, Database, SHUTDOWN_POLL};
use crate::registry::{ClientEvent, ClientMailbox};
use crate::spec::{TxnError, TxnReceipt};

/// A transaction in its execution phase: every request granted, read values
/// available, writes stageable. Created by [`Database::begin`]; ends with
/// [`ActiveTxn::commit`] or [`ActiveTxn::abort`] (dropping it aborts).
pub struct ActiveTxn {
    db: Database,
    ri: RequestIssuer,
    /// The reply endpoint of a coordinated transaction; `None` for a
    /// snapshot transaction, which never receives a reply.
    events: Option<ClientMailbox>,
    reads: BTreeMap<LogicalItemId, Value>,
    /// The incarnation's begin stamp ([`now_nanos`]); 0 for a snapshot
    /// transaction, which records no latency.
    begun: u64,
    restarts: u32,
    finished: bool,
    /// True when the reads were served from the MVCC snapshot plane at
    /// the global read watermark: nothing is held anywhere, commit is a
    /// local accounting step and abort has nothing to send.
    snapshot: bool,
    /// The client's trace lane, fixed at begin.
    lane: usize,
    /// Boundary timestamps collected so far (begin → exec-start); commit
    /// fills the rest and folds them into the Section-5 accumulator.
    timings: SpanTimings,
}

impl ActiveTxn {
    pub(crate) fn new(
        db: Database,
        ri: RequestIssuer,
        events: ClientMailbox,
        begun: u64,
        restarts: u32,
        lane: usize,
        timings: SpanTimings,
    ) -> Self {
        // Inserted one by one: collecting would sort through a scratch
        // vector first, and the issuer's results are already in order.
        let mut reads = BTreeMap::new();
        for (item, &value) in ri.read_results() {
            reads.insert(item.logical, value);
        }
        ActiveTxn {
            db,
            ri,
            events: Some(events),
            reads,
            begun,
            restarts,
            finished: false,
            snapshot: false,
            lane,
            timings,
        }
    }

    pub(crate) fn new_snapshot(
        db: Database,
        ri: RequestIssuer,
        reads: BTreeMap<LogicalItemId, Value>,
        lane: usize,
    ) -> Self {
        ActiveTxn {
            db,
            ri,
            events: None,
            reads,
            begun: 0,
            restarts: 0,
            finished: false,
            snapshot: true,
            lane,
            timings: SpanTimings::default(),
        }
    }

    /// True when this transaction's reads came from the MVCC snapshot
    /// plane (see [`Database::begin`]).
    pub fn is_snapshot(&self) -> bool {
        self.snapshot
    }

    /// The id of this incarnation.
    pub fn id(&self) -> TxnId {
        self.ri.txn_id()
    }

    /// The site this incarnation originates from.
    #[cfg(test)]
    pub(crate) fn origin(&self) -> dbmodel::SiteId {
        self.ri.txn().origin
    }

    /// The concurrency-control method this incarnation runs under.
    pub fn method(&self) -> CcMethod {
        self.ri.txn().method
    }

    /// The value read for a logical item, if it is in the read set.
    pub fn read(&self, item: LogicalItemId) -> Option<Value> {
        self.reads.get(&item).copied()
    }

    /// All values read, keyed by logical item.
    pub fn reads(&self) -> &BTreeMap<LogicalItemId, Value> {
        &self.reads
    }

    /// Stage the value this transaction writes to `item` at commit (the
    /// issuer holds it; a later write of the same item replaces it).
    pub fn write(&mut self, item: LogicalItemId, value: Value) -> Result<(), TxnError> {
        if self.ri.txn().mode_for(item) != Some(AccessMode::Write) {
            return Err(TxnError::NotInWriteSet(item));
        }
        self.ri.set_write_value(item, value);
        Ok(())
    }

    /// Commit: install the staged writes, release every lock, return the
    /// receipt. Blocks until the release conversation completes (for T/O
    /// transactions that executed on pre-scheduled locks this waits for the
    /// trailing normal grants, per the semi-lock protocol).
    pub fn commit(mut self) -> Result<TxnReceipt, TxnError> {
        if self.snapshot {
            // Nothing is held anywhere: the reads were served and logged
            // at begin, so committing is pure local accounting.
            self.finished = true;
            self.db
                .inner
                .stats
                .committed
                .fetch_add(1, Ordering::Relaxed);
            self.db
                .inner
                .trace
                .record(self.lane, self.ri.txn_id().0, Phase::Committed, 0);
            return Ok(TxnReceipt {
                id: self.ri.txn_id(),
                method: self.ri.txn().method,
                restarts: 0,
                reads: std::mem::take(&mut self.reads),
                fastpath: false,
                snapshot: true,
            });
        }
        let origin = self.ri.txn().origin;
        let method = self.ri.txn().method;
        let plane = Arc::clone(&self.db.inner.trace);
        // Read even with the plane off: the commit wait's deadline runs
        // from it.
        let t_commit_start = now_nanos();
        plane.record_at(
            self.lane,
            t_commit_start,
            self.ri.txn_id().0,
            Phase::CommitStart,
            0,
        );
        // A writing commit draws its global stamp before any release or
        // demote is built: every install this transaction performs
        // carries `cts`, and the stamp stays in flight — holding the read
        // watermark below it — until the installs are enqueued at every
        // owning shard.
        let cts = if self.ri.txn().write_set().is_empty() {
            None
        } else {
            let cts = self.db.inner.clock.draw();
            self.ri.set_commit_ts(cts);
            Some(cts)
        };
        let out = self.ri.on_execution_done();
        let mut released = out.actions.contains(&RiAction::FullyReleased);
        self.db.route_all(origin, out.sends)?;
        // Bounded commit wait: T/O transactions that executed on
        // pre-scheduled locks wait here for trailing normal grants, and a
        // dead or partitioned shard would otherwise hold the client
        // forever. At this point every write is already implemented (the
        // releases/demotes travel the reliable channel), so expiry is
        // "decided but unacknowledged" — surfaced as `ShardUnavailable`,
        // never a partial commit. Like the execution wait, the deadline is
        // checked after every pass that leaves the wait open.
        let deadline = t_commit_start.saturating_add(nanos(self.db.inner.config.commit_timeout));
        let poll = SHUTDOWN_POLL.min(self.db.inner.config.commit_timeout);
        while !released {
            let events = self
                .events
                .as_mut()
                .expect("coordinated transaction has a reply mailbox");
            match events.recv_timeout(self.ri.txn_id().0, poll) {
                Some(ClientEvent::Replies(replies)) => {
                    let mut sends: Vec<RequestMsg> = Vec::new();
                    for reply in replies.iter() {
                        let out: RiOutput = self.ri.on_reply(reply);
                        released = released || out.actions.contains(&RiAction::FullyReleased);
                        sends.extend(out.sends);
                    }
                    self.db.route_all(origin, sends)?;
                    if released {
                        break;
                    }
                }
                // Executing or releasing transactions cannot be victims.
                Some(ClientEvent::DeadlockVictim) => {}
                None => {
                    if self.db.inner.stopped.load(Ordering::Relaxed) {
                        break;
                    }
                }
            }
            if now_nanos() >= deadline {
                self.finished = true;
                self.db.inner.registry.deregister(self.ri.txn_id());
                self.db
                    .inner
                    .stats
                    .shard_unavailable
                    .fetch_add(1, Ordering::Relaxed);
                self.db
                    .inner
                    .trace
                    .record(self.lane, self.ri.txn_id().0, Phase::Aborted, 1);
                // Deliberately NOT retiring `cts`: the commit is decided
                // but unacknowledged, so the read watermark stalls below
                // it — snapshot reads keep serving the last provably
                // consistent prefix instead of racing an unconfirmed
                // install (see [`crate::clock::CommitClock`]).
                return Err(TxnError::ShardUnavailable);
            }
        }
        // Every release/demote is now enqueued at its owning shard (the
        // loop above routed the last of them), so retiring the stamp is
        // safe: a watermark load that observes it happens-after these
        // enqueues, and per-shard FIFO order puts the installs ahead of
        // any snapshot command sent from then on.
        if let Some(cts) = cts {
            self.db.inner.clock.retire(cts);
        }
        self.finished = true;
        self.db.inner.registry.deregister(self.ri.txn_id());
        self.db
            .inner
            .stats
            .committed
            .fetch_add(1, Ordering::Relaxed);
        // One read ends both the recorded latency and the span.
        let t_committed = now_nanos();
        {
            // Recorded into the calling thread's own metric stripe — the
            // commit path takes no lock shared with admission or the
            // epoch re-fit.
            let latency = nanos_between(self.begun, t_committed);
            self.db.inner.metrics.with_local(|m| {
                m.record_commit(method, latency);
                m.record_lock_hold(method, latency, false);
            });
        }
        plane.record_at(
            self.lane,
            t_committed,
            self.ri.txn_id().0,
            Phase::Committed,
            0,
        );
        let mut timings = self.timings;
        timings.commit_start = t_commit_start;
        timings.committed = t_committed;
        plane.record_span(method, &timings);
        Ok(TxnReceipt {
            id: self.ri.txn_id(),
            method,
            restarts: self.restarts,
            reads: std::mem::take(&mut self.reads),
            fastpath: false,
            snapshot: false,
        })
    }

    /// Abort: drop every lock and queue entry without implementing
    /// anything.
    pub fn abort(mut self) {
        self.abort_inner();
    }

    fn abort_inner(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        if self.snapshot {
            // Nothing was ever held or queued anywhere; the logged reads
            // observed committed state and are harmless to leave behind.
            self.db
                .inner
                .stats
                .user_aborts
                .fetch_add(1, Ordering::Relaxed);
            self.db
                .inner
                .trace
                .record(self.lane, self.ri.txn_id().0, Phase::Aborted, 0);
            return;
        }
        let origin = self.ri.txn().origin;
        let sends: Vec<RequestMsg> = self
            .ri
            .accessed_items()
            .map(|(item, _)| RequestMsg::Abort {
                txn: self.ri.txn_id(),
                item,
            })
            .collect();
        let _ = self.db.route_all(origin, sends);
        self.db.inner.registry.deregister(self.ri.txn_id());
        self.db
            .inner
            .stats
            .user_aborts
            .fetch_add(1, Ordering::Relaxed);
        self.db
            .inner
            .trace
            .record(self.lane, self.ri.txn_id().0, Phase::Aborted, 0);
    }
}

impl Drop for ActiveTxn {
    fn drop(&mut self) {
        self.abort_inner();
    }
}

impl std::fmt::Debug for ActiveTxn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActiveTxn")
            .field("id", &self.ri.txn_id())
            .field("method", &self.ri.txn().method)
            .field("phase", &self.ri.phase())
            .finish()
    }
}
