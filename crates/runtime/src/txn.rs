//! [`ActiveTxn`]: a transaction in its execution phase, and the one driver
//! of a coordinated incarnation's conversation with the queue managers —
//! the mailbox loop `begin` waits in for its grants and `commit` waits in
//! for its release.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;

use dbmodel::{AccessMode, CcMethod, LogicalItemId, PhysicalItemId, SiteId, TxnId, Value};
use pam::{ReplyMsg, RequestMsg};
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
    id: TxnId,
    reads: BTreeMap<LogicalItemId, Value>,
    /// The coordinated incarnation holding this transaction's grants;
    /// `None` for a snapshot transaction, whose reads were served from the
    /// MVCC snapshot plane at the global read watermark: nothing is held
    /// anywhere, commit is a local accounting step and abort has nothing
    /// to send.
    inc: Option<Incarnation>,
    /// Set on entry to commit or abort: from then on, dropping the handle
    /// sends nothing and counts nothing.
    finished: bool,
}

impl ActiveTxn {
    /// The handle of a coordinated incarnation `begin` drove to its
    /// execution phase.
    pub(crate) fn new(db: Database, inc: Incarnation) -> Self {
        // Inserted one by one: collecting would sort through a scratch
        // vector first, and the issuer's results are already in order.
        let mut reads = BTreeMap::new();
        for (item, &value) in inc.ri.read_results() {
            reads.insert(item.logical, value);
        }
        ActiveTxn {
            db,
            id: inc.ri.txn_id(),
            reads,
            inc: Some(inc),
            finished: false,
        }
    }

    /// The handle of a served snapshot read: its id and its values.
    pub(crate) fn snapshot(db: Database, id: TxnId, reads: BTreeMap<LogicalItemId, Value>) -> Self {
        ActiveTxn {
            db,
            id,
            reads,
            inc: None,
            finished: false,
        }
    }

    /// True when this transaction's reads came from the MVCC snapshot
    /// plane (see [`Database::begin`]).
    pub fn is_snapshot(&self) -> bool {
        self.inc.is_none()
    }

    /// The id of this incarnation.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// The site a coordinated incarnation originates from.
    #[cfg(test)]
    pub(crate) fn origin(&self) -> SiteId {
        self.inc.as_ref().expect("a coordinated transaction").origin
    }

    /// The concurrency-control method this incarnation runs under. A
    /// snapshot transaction runs none and reports the default method, as
    /// its receipt does.
    pub fn method(&self) -> CcMethod {
        self.inc
            .as_ref()
            .map_or(CcMethod::TwoPhaseLocking, |inc| inc.ri.txn().method)
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
    /// issuer holds it; a later write of the same item replaces it). A
    /// snapshot transaction writes nothing.
    pub fn write(&mut self, item: LogicalItemId, value: Value) -> Result<(), TxnError> {
        match &mut self.inc {
            Some(inc) if inc.ri.txn().mode_for(item) == Some(AccessMode::Write) => {
                inc.ri.set_write_value(item, value);
                Ok(())
            }
            _ => Err(TxnError::NotInWriteSet(item)),
        }
    }

    /// Commit: install the staged writes, release every lock, return the
    /// receipt. Blocks until the release conversation completes (for T/O
    /// transactions that executed on pre-scheduled locks this waits for the
    /// trailing normal grants, per the semi-lock protocol).
    ///
    /// Calling it is the decision point: whatever it returns, the handle is
    /// finished and dropping it aborts nothing (see [`TxnError`] for what
    /// each error leaves behind).
    pub fn commit(mut self) -> Result<TxnReceipt, TxnError> {
        self.finished = true;
        let reads = std::mem::take(&mut self.reads);
        match &mut self.inc {
            // The reads were served and logged at begin.
            None => Ok(self.db.commit_snapshot(self.id, reads)),
            Some(inc) => inc.commit(&self.db, reads),
        }
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
        let inner = &self.db.inner;
        let lane = match &self.inc {
            // Nothing was ever held or queued anywhere; the logged reads
            // observed committed state and are harmless to leave behind.
            None => inner.trace.client_lane(),
            Some(inc) => {
                inc.abort(&self.db);
                inner.registry.deregister(self.id);
                inc.lane
            }
        };
        inner.stats.user_aborts.fetch_add(1, Ordering::Relaxed);
        inner.trace.record(lane, self.id.0, Phase::Aborted, 0);
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
            .field("id", &self.id)
            .field("method", &self.method())
            .field("phase", &self.inc.as_ref().map(|inc| inc.ri.phase()))
            .finish()
    }
}

/// What a wait on the reply mailbox waits for: the one input that sets
/// the two waits apart. The timeout that bounds the wait and whether a
/// reply feeds the STL estimators follow from it; what a stop means is
/// the caller's to decide (see [`Ended::Stopped`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Until {
    /// Every grant (or a restart): `begin`'s wait, bounded by
    /// `request_timeout`. Each item's first reply is a request outcome.
    Executing,
    /// The release: `commit`'s wait, bounded by `commit_timeout`. The
    /// trailing normal grants it waits for carry no value and record
    /// nothing.
    Released,
}

/// How a wait on the reply mailbox ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ended {
    /// The action it waited for: `StartExecution` or `FullyReleased`.
    Reached,
    /// The incarnation aborted (a T/O rejection or a deadlock victim) and
    /// must run again under a fresh id. Only a waiting incarnation can.
    Restart { rejected: bool },
    /// The deadline passed with the wait still open: a shard is down, a
    /// message was dropped, or a grant is parked behind a partition.
    TimedOut,
    /// The database stopped while the wait had nothing to read. Before
    /// execution `begin` fails with `ShuttingDown`; after it the commit
    /// is already decided and stands.
    Stopped,
}

/// One coordinated incarnation: the issuer that speaks for it and the reply
/// mailbox its queue managers answer on.
pub(crate) struct Incarnation {
    pub(crate) ri: RequestIssuer,
    /// Held for the whole transaction: `begin` moves it from one
    /// incarnation to the next.
    pub(crate) events: ClientMailbox,
    pub(crate) origin: SiteId,
    /// The client's trace lane, fixed at begin.
    pub(crate) lane: usize,
    /// The incarnation's begin stamp ([`now_nanos`]): `request_timeout`
    /// and the commit latency run from it.
    pub(crate) begun: u64,
    /// Restarts before this incarnation.
    pub(crate) restarts: u32,
    /// Boundary timestamps collected so far (begin → exec-start); commit
    /// fills the rest and folds them into the Section-5 accumulator.
    pub(crate) timings: SpanTimings,
}

impl Incarnation {
    /// Block on the reply mailbox until the wait `until` names ends. Each
    /// pass feeds one event — a batch of replies, or the detector's victim
    /// signal — to the issuer and routes the follow-up sends in one call.
    /// The deadline runs from stamp `from`: replies may keep trickling in
    /// (partial grants) without the wait ever ending, so it is checked
    /// after every pass that leaves the wait open, not only after empty
    /// polls. A pass that ends the wait reads no clock.
    ///
    /// The victim signal needs no phase check: the issuer ignores it
    /// outside the waiting phases, so an executing or releasing
    /// incarnation cannot be a victim.
    pub(crate) fn wait(
        &mut self,
        db: &Database,
        until: Until,
        from: u64,
    ) -> Result<Ended, TxnError> {
        let inner = &db.inner;
        let timeout = match until {
            Until::Executing => inner.config.request_timeout,
            Until::Released => inner.config.commit_timeout,
        };
        let deadline = from.saturating_add(nanos(timeout));
        let poll = SHUTDOWN_POLL.min(timeout);
        let txn = self.ri.txn_id().0;
        let method = self.ri.txn().method;
        let lane = self.lane;
        // One request outcome is recorded per item per incarnation (the
        // reply to the initial `Access`), matching the simulator's
        // accounting; later replies for the same item (backoff re-grants,
        // normal-grant upgrades) would otherwise skew the denial
        // probabilities the STL selector consumes.
        let mut first_replies = (until == Until::Executing).then(|| FirstReplies::new(&self.ri));
        loop {
            if let Some(event) = self.events.recv_timeout(txn, poll) {
                // One event may carry several replies (a shard's batched
                // grants); their follow-up sends are routed in one batched
                // call after the whole event is absorbed.
                let mut ended = None;
                let mut sends: Vec<RequestMsg> = Vec::new();
                let mut absorb = |out: RiOutput| {
                    for action in &out.actions {
                        match action {
                            RiAction::StartExecution | RiAction::FullyReleased => {
                                ended = Some(Ended::Reached)
                            }
                            RiAction::Restart { rejected } => {
                                ended = Some(Ended::Restart {
                                    rejected: *rejected,
                                })
                            }
                            RiAction::BackoffRound => {
                                inner.stats.backoff_rounds.fetch_add(1, Ordering::Relaxed);
                                inner.metrics.with_local(|m| m.record_backoff_round(method));
                                inner.trace.record(lane, txn, Phase::BackoffRound, 0);
                            }
                            RiAction::Committed => {}
                        }
                    }
                    sends.extend(out.sends);
                };
                match event {
                    ClientEvent::Replies(replies) => {
                        for reply in replies.iter() {
                            if let Some(seen) = &mut first_replies {
                                let first_for_item = seen.insert(&self.ri, reply.item());
                                self.observe_reply(db, reply, first_for_item);
                            }
                            absorb(self.ri.on_reply(reply));
                        }
                    }
                    ClientEvent::DeadlockVictim => absorb(self.ri.abort_for_deadlock()),
                }
                db.route_all(self.origin, sends)?;
                if let Some(ended) = ended {
                    return Ok(ended);
                }
            } else if inner.stopped.load(Ordering::Relaxed) {
                return Ok(Ended::Stopped);
            }
            if now_nanos() >= deadline {
                return Ok(Ended::TimedOut);
            }
        }
    }

    /// Route an `Abort` for every item this incarnation asked for. Best
    /// effort: the aborts cross the fault plane too, and the detector's
    /// stranded-transaction sweep covers whatever they do not reach.
    pub(crate) fn abort(&self, db: &Database) {
        let txn = self.ri.txn_id();
        let aborts = self
            .ri
            .accessed_items()
            .map(|(item, _)| RequestMsg::Abort { txn, item })
            .collect();
        let _ = db.route_all(self.origin, aborts);
    }

    /// Commit an executing incarnation: draw its stamp, release, wait out
    /// the release, account it. Every exit deregisters it; none sends an
    /// `Abort`, since some shard may already have installed its writes.
    fn commit(
        &mut self,
        db: &Database,
        reads: BTreeMap<LogicalItemId, Value>,
    ) -> Result<TxnReceipt, TxnError> {
        let inner = &db.inner;
        let plane = &inner.trace;
        let txn = self.ri.txn_id();
        let method = self.ri.txn().method;
        // Read even with the plane off: the release wait's deadline runs
        // from it.
        let t_commit_start = now_nanos();
        plane.record_at(self.lane, t_commit_start, txn.0, Phase::CommitStart, 0);
        // A writing commit draws its global stamp before any release or
        // demote is built: every install this transaction performs
        // carries `cts`, and the stamp stays in flight — holding the read
        // watermark below it — until the installs are enqueued at every
        // owning shard.
        let cts = (!self.ri.txn().write_set().is_empty()).then(|| {
            let cts = inner.clock.draw();
            self.ri.set_commit_ts(cts);
            cts
        });
        let out = self.ri.on_execution_done();
        let released = out.actions.contains(&RiAction::FullyReleased);
        // Bounded release wait: T/O transactions that executed on
        // pre-scheduled locks wait here for trailing normal grants, and a
        // dead or partitioned shard would otherwise hold the client
        // forever. Every write is already implemented (the releases and
        // demotes travel the reliable channel), so a stop only cuts the
        // acknowledgement short: the commit stands.
        let ended = db.route_all(self.origin, out.sends).and_then(|()| {
            if released {
                Ok(Ended::Reached)
            } else {
                self.wait(db, Until::Released, t_commit_start)
            }
        });
        inner.registry.deregister(txn);
        let error = match ended {
            Ok(Ended::Reached | Ended::Stopped) => None,
            // The protocols never restart an executed incarnation; should a
            // stray rejection abort the issuer anyway, the decision stands
            // just as unacknowledged as on a timeout.
            Ok(Ended::TimedOut | Ended::Restart { .. }) => {
                inner
                    .stats
                    .shard_unavailable
                    .fetch_add(1, Ordering::Relaxed);
                Some(TxnError::ShardUnavailable)
            }
            Err(e) => Some(e),
        };
        if let Some(e) = error {
            // Decided but unacknowledged. Deliberately NOT retiring `cts`:
            // the read watermark stalls below it, so snapshot reads keep
            // serving the last provably consistent prefix instead of racing
            // an unconfirmed install (see [`crate::clock::CommitClock`]).
            plane.record(self.lane, txn.0, Phase::Aborted, 1);
            return Err(e);
        }
        // Every release/demote is now enqueued at its owning shard (the
        // wait routed the last of them), so retiring the stamp is safe: a
        // watermark load that observes it happens-after these enqueues,
        // and per-shard FIFO order puts the installs ahead of any snapshot
        // command sent from then on.
        if let Some(cts) = cts {
            inner.clock.retire(cts);
        }
        inner.stats.committed.fetch_add(1, Ordering::Relaxed);
        // One read ends both the recorded latency and the span.
        let t_committed = now_nanos();
        // Recorded into the calling thread's own metric stripe — the commit
        // path takes no lock shared with admission or the epoch re-fit.
        let latency = nanos_between(self.begun, t_committed);
        inner.metrics.with_local(|m| {
            m.record_commit(method, latency);
            m.record_lock_hold(method, latency, false);
        });
        plane.record_at(self.lane, t_committed, txn.0, Phase::Committed, 0);
        let mut timings = self.timings;
        timings.commit_start = t_commit_start;
        timings.committed = t_committed;
        plane.record_span(method, &timings);
        Ok(TxnReceipt {
            id: txn,
            method,
            restarts: self.restarts,
            reads,
            fastpath: false,
            snapshot: false,
        })
    }

    /// Per-reply metric accounting (feeds the STL estimators).
    /// `first_for_item` is true for the first reply this incarnation
    /// received for the item — only that one counts as a request outcome.
    fn observe_reply(&self, db: &Database, reply: &ReplyMsg, first_for_item: bool) {
        // A backoff proposal lifts the global timestamp clock (Lamport
        // style): the proposing queue's thresholds sit at `new_ts`, and
        // without adoption a T/O transaction retrying against that item
        // would crawl towards it one tick per incarnation and exhaust its
        // restart budget.
        if let ReplyMsg::Backoff { new_ts, .. } = reply {
            db.inner.ts_counter.fetch_max(new_ts.0, Ordering::Relaxed);
        }
        let mode = self
            .ri
            .accessed_items()
            .find(|(item, _)| *item == reply.item())
            .map(|(_, mode)| mode)
            .unwrap_or(AccessMode::Read);
        let method = self.ri.txn().method;
        db.inner.metrics.with_local(|m| {
            if let ReplyMsg::Grant { value, .. } = reply {
                // Counted per issued grant (value-carrying grants
                // correspond to the queue's `GrantIssued` events;
                // normal-grant upgrades carry no value and are not new
                // grants).
                if value.is_some() {
                    m.record_grant(reply.item(), mode);
                }
            }
            if first_for_item {
                let denied = matches!(reply, ReplyMsg::Reject { .. } | ReplyMsg::Backoff { .. });
                m.record_request_outcome(method, mode, denied);
            }
        });
    }
}

/// The items of one incarnation that have had a reply: a bit per entry
/// of the issuer's access list (no allocation), or a set for an
/// incarnation of more than 64 items.
enum FirstReplies {
    Bits(u64),
    Set(std::collections::HashSet<PhysicalItemId>),
}

impl FirstReplies {
    fn new(ri: &RequestIssuer) -> Self {
        if ri.accessed_items().count() <= 64 {
            FirstReplies::Bits(0)
        } else {
            FirstReplies::Set(std::collections::HashSet::new())
        }
    }

    /// Mark `item` replied; true if it had not been (or, never expected,
    /// is not in the access list).
    fn insert(&mut self, ri: &RequestIssuer, item: PhysicalItemId) -> bool {
        match self {
            FirstReplies::Bits(bits) => {
                let Some(pos) = ri.accessed_items().position(|(i, _)| i == item) else {
                    return true;
                };
                let first = *bits & (1 << pos) == 0;
                *bits |= 1 << pos;
                first
            }
            FirstReplies::Set(seen) => seen.insert(item),
        }
    }
}
