//! Per-item state: unified precedence assignment, the data queue, and the
//! semi-lock table (paper, Sections 4.1–4.2).
//!
//! One [`ItemState`] exists for every physical data item. It owns
//!
//! * the item's [`DataQueue`] (`QUEUE(j)`),
//! * the unified [`AssignmentPolicy`] (timestamp space, 2PL tail insertion),
//! * the `R-TS(j)` / `W-TS(j)` acceptance thresholds of T/O and PA,
//! * the table of currently held locks (RL / WL / SRL / SWL, normal or
//!   pre-scheduled), and
//! * the item's current value.
//!
//! The grant rules implement the semi-lock protocol:
//!
//! | head request            | may be granted when …                                   | lock granted |
//! |-------------------------|----------------------------------------------------------|--------------|
//! | read by 2PL or PA       | no unreleased WL or SWL                                   | RL           |
//! | write by 2PL or PA      | no unreleased lock of any kind                            | WL           |
//! | read by T/O             | no unreleased WL (SWL does **not** block)                 | SRL          |
//! | write by T/O            | no unreleased RL or WL (SRL/SWL do **not** block)         | WL           |
//!
//! A grant issued while a *conflicting* lock is still outstanding is
//! *pre-scheduled*; when the last such conflicting lock is released the item
//! issues a second, *normal* grant for it. T/O transactions that executed
//! while holding a pre-scheduled lock demote their locks to semi-locks and
//! keep them until those normal grants arrive (driven by the request issuer).
//!
//! Every handler pushes its replies and events straight into the caller's
//! reusable [`QmSink`] — the state transitions themselves never allocate,
//! which is what makes the owning queue manager's batched hot path
//! allocation-free in steady state. A normal-upgrade of a previously
//! pre-scheduled lock appears in the sink as a second `Grant` reply with
//! `class = Normal` and `value = None` (a real grant always carries
//! `Some(value)`).

use std::collections::VecDeque;

use dbmodel::{AccessMode, CcMethod, PhysicalItemId, SiteId, Timestamp, TsTuple, TxnId, Value};
use pam::precedence::{AssignmentPolicy, PrecClass, Precedence};
use pam::queue::{DataQueue, EntryStatus, QueueEntry};
use pam::{GrantClass, LockMode, ReplyMsg};

use crate::qm::QmEvent;
use crate::sink::QmSink;

/// Default number of versions each item retains above the read watermark.
pub const DEFAULT_VERSION_RETAIN: usize = 8;

/// Hard bound on the chain as a multiple of the retain knob: if the
/// watermark stalls (a commit decided but unacknowledged pins it), the
/// chain still cannot grow past `retain * VERSION_HARD_CAP_FACTOR` —
/// the oldest versions are dropped instead, and a snapshot read that
/// needed them is *refused* (it falls back to the coordinated path)
/// rather than served a wrong value.
pub const VERSION_HARD_CAP_FACTOR: usize = 4;

/// One committed version of an item's value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Version {
    /// The global commit timestamp the value was installed at
    /// (`Timestamp::ZERO` only for the seed version holding the initial
    /// value).
    pub ts: Timestamp,
    /// The committed value.
    pub value: Value,
}

/// Which precedence-enforcement variant the item runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnforcementMode {
    /// The semi-lock protocol of Section 4.2 (the paper's proposal).
    SemiLock,
    /// The simpler "use locking for all requests" alternative the paper
    /// mentions and rejects: T/O requests are treated exactly like PA
    /// requests for locking purposes. Used as the ablation baseline (E5).
    LockAll,
}

/// A lock currently held on the item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeldLock {
    /// The holding transaction.
    pub txn: TxnId,
    /// The lock mode currently held (may have been demoted to a semi-lock).
    pub mode: LockMode,
    /// Normal or pre-scheduled, as decided at grant time.
    pub class: GrantClass,
    /// Grant order on this item (smaller = granted earlier).
    pub seq: u64,
    /// The access mode of the underlying request (read/write), independent of
    /// later demotion.
    pub access: AccessMode,
}

/// The complete concurrency-control state of one physical data item.
#[derive(Debug, Clone)]
pub struct ItemState {
    item: PhysicalItemId,
    queue: DataQueue,
    assign: AssignmentPolicy,
    r_ts: Timestamp,
    w_ts: Timestamp,
    locks: Vec<HeldLock>,
    value: Value,
    grant_counter: u64,
    enforcement: EnforcementMode,
    /// Committed versions in commit-timestamp order (append-only ring:
    /// writers on one item are serialized by lock exclusivity, and
    /// fast-path writes draw their stamp at apply time on an idle item,
    /// so stamps only ever grow). The chain always holds at least one
    /// version — the seed at `Timestamp::ZERO` until the first stamped
    /// write prunes past it.
    versions: VecDeque<Version>,
    /// How many versions to keep above the watermark (see
    /// [`ItemState::set_version_retain`]).
    version_retain: usize,
    /// [`ItemState::has_waiters`] as of the last
    /// [`ItemState::announce_new_edges`]. Stale only if a handler was
    /// called outside that bracket, and then only towards announcing an
    /// old edge again.
    had_waiters: bool,
}

impl ItemState {
    /// Create the state of `item` with an initial value.
    pub fn new(item: PhysicalItemId, initial_value: Value, enforcement: EnforcementMode) -> Self {
        let mut versions =
            VecDeque::with_capacity(DEFAULT_VERSION_RETAIN * VERSION_HARD_CAP_FACTOR + 1);
        versions.push_back(Version {
            ts: Timestamp::ZERO,
            value: initial_value,
        });
        ItemState {
            item,
            queue: DataQueue::new(),
            assign: AssignmentPolicy::new(),
            r_ts: Timestamp::ZERO,
            w_ts: Timestamp::ZERO,
            locks: Vec::new(),
            value: initial_value,
            grant_counter: 0,
            enforcement,
            versions,
            version_retain: DEFAULT_VERSION_RETAIN,
            had_waiters: false,
        }
    }

    /// The physical item this state belongs to.
    pub fn item(&self) -> PhysicalItemId {
        self.item
    }

    /// The item's current (committed) value.
    pub fn value(&self) -> Value {
        self.value
    }

    /// The currently held locks, in grant order.
    pub fn locks(&self) -> &[HeldLock] {
        &self.locks
    }

    /// The `R-TS(j)` threshold.
    pub fn r_ts(&self) -> Timestamp {
        self.r_ts
    }

    /// The `W-TS(j)` threshold.
    pub fn w_ts(&self) -> Timestamp {
        self.w_ts
    }

    /// Number of queued (waiting or granted) requests.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// True when no requests are queued and no locks are held.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.locks.is_empty()
    }

    /// True when `txn` has an entry (granted or waiting) in this item's
    /// queue. A queue entry exists from admission until release/abort, so
    /// this is the idempotence key for duplicate `Access` suppression:
    /// TxnIds are never reused across incarnations, and one incarnation
    /// issues at most one request per item.
    pub fn has_queued(&self, txn: TxnId) -> bool {
        self.queue.get(txn).is_some()
    }

    /// True when `txn` holds any state at this item — a queue entry or a
    /// (possibly semi-) lock. Used by the stranded-transaction sweep.
    pub fn involves(&self, txn: TxnId) -> bool {
        self.has_queued(txn) || self.locks.iter().any(|l| l.txn == txn)
    }

    /// Append every transaction holding any state at this item (queued or
    /// locked) to `out`.
    pub fn present_txns_into(&self, out: &mut Vec<TxnId>) {
        out.extend(self.queue.iter().map(|e| e.txn));
        out.extend(self.locks.iter().map(|l| l.txn));
    }

    /// Crash with partial amnesia: drop every *ungranted* queue entry
    /// (in-flight admissions that never reached stable storage) while
    /// keeping granted entries, held locks, the item value and the
    /// `R-TS`/`W-TS` thresholds (all durable). Lock upgrades and grants
    /// are re-evaluated afterwards (defensively — every surviving entry
    /// is granted already, so this is normally a no-op) with any output
    /// flowing into `sink` like any other transition. Returns how many
    /// entries were wiped.
    pub fn crash_recover(&mut self, sink: &mut QmSink) -> usize {
        let wiped = self.queue.retain_granted();
        if wiped > 0 {
            self.after_lock_removal(sink);
        }
        wiped
    }

    /// True when a coordination-free read of this item must be refused: a
    /// write-kind lock is held (the holder's write will implement at some
    /// later point on *every* item it touches, and a fast-path read
    /// slipping between those points could close a precedence cycle), or a
    /// write-access request is queued (granting it later has the same
    /// effect). Held read-kind locks and queued reads are harmless — reads
    /// commute with reads.
    pub fn confluent_read_blocked(&self) -> bool {
        self.locks.iter().any(|l| l.mode.is_write_kind())
            || self.queue.iter().any(|e| e.mode == AccessMode::Write)
    }

    /// Install a value written by the coordination-free fast path. Only
    /// legal on an idle item (the caller checks); deliberately leaves
    /// `R-TS`/`W-TS` untouched — fast-path writes are not part of any
    /// timestamp order, they occupy a single point in the owning shard's
    /// command order instead. `commit_ts` is the stamp drawn *at the shard*
    /// when the command was applied (drawing at the client would let two
    /// idle-window writers install out of stamp order).
    pub(crate) fn apply_confluent_write(
        &mut self,
        value: Value,
        commit_ts: Timestamp,
        watermark: Timestamp,
    ) {
        self.value = value;
        self.install_version(commit_ts, value, watermark);
    }

    // ------------------------------------------------------------------
    // Version chain (MVCC snapshot-read plane)
    // ------------------------------------------------------------------

    /// The committed versions currently retained, oldest first.
    pub fn versions(&self) -> impl Iterator<Item = &Version> + '_ {
        self.versions.iter()
    }

    /// Set how many versions to keep above the watermark (at least one),
    /// re-reserving the ring so steady-state installs never reallocate.
    pub fn set_version_retain(&mut self, retain: usize) {
        self.version_retain = retain.max(1);
        let want = self.version_retain * VERSION_HARD_CAP_FACTOR + 1;
        if self.versions.capacity() < want {
            self.versions.reserve(want - self.versions.len());
        }
    }

    /// The newest committed value with a stamp at or below `ts`, or `None`
    /// when the chain no longer reaches back that far (pruned past `ts`) —
    /// the caller must refuse the snapshot read and fall back.
    pub fn snapshot_value_at(&self, ts: Timestamp) -> Option<Version> {
        self.versions.iter().rev().find(|v| v.ts <= ts).copied()
    }

    /// The raw head of the chain: the newest committed version regardless
    /// of any watermark. Only the `snapshot_validation = false` mutation
    /// switch serves this — it is exactly the torn read the watermark
    /// check exists to prevent.
    pub fn head_version(&self) -> Version {
        *self.versions.back().expect("the chain is never empty")
    }

    /// Append a committed `(ts, value)` version and prune: versions
    /// shadowed at the watermark (a newer version also ≤ watermark exists)
    /// are dropped once the chain exceeds the retain knob, and the hard
    /// cap drops oldest-first unconditionally. Unstamped writes
    /// (`Timestamp::ZERO`, the simulator path) keep the chain untouched.
    fn install_version(&mut self, ts: Timestamp, value: Value, watermark: Timestamp) {
        if ts == Timestamp::ZERO {
            return;
        }
        debug_assert!(
            self.versions.back().is_none_or(|v| v.ts <= ts),
            "commit stamps on one item must be monotone"
        );
        self.versions.push_back(Version { ts, value });
        while self.versions.len() > self.version_retain
            && self.versions.get(1).is_some_and(|v| v.ts <= watermark)
        {
            self.versions.pop_front();
        }
        while self.versions.len() > self.version_retain * VERSION_HARD_CAP_FACTOR {
            self.versions.pop_front();
        }
    }

    // ------------------------------------------------------------------
    // Incoming protocol actions
    // ------------------------------------------------------------------

    /// Handle an incoming access request (the `Access` message).
    pub fn handle_access(
        &mut self,
        txn: TxnId,
        site: SiteId,
        mode: AccessMode,
        method: CcMethod,
        ts: TsTuple,
        sink: &mut QmSink,
    ) {
        let effective_method = self.effective_method(method);
        match effective_method {
            CcMethod::TwoPhaseLocking => {
                let precedence = self
                    .assign
                    .assign(CcMethod::TwoPhaseLocking, ts.ts, site, txn);
                self.queue.insert(QueueEntry {
                    txn,
                    mode,
                    method,
                    precedence,
                    status: EntryStatus::Accepted,
                    granted: false,
                });
            }
            CcMethod::TimestampOrdering => {
                if self.to_acceptable(mode, ts.ts) {
                    let precedence = self.assign.assign(method, ts.ts, site, txn);
                    self.queue.insert(QueueEntry {
                        txn,
                        mode,
                        method,
                        precedence,
                        status: EntryStatus::Accepted,
                        granted: false,
                    });
                } else {
                    sink.replies.push(ReplyMsg::Reject {
                        txn,
                        item: self.item,
                    });
                    return;
                }
            }
            CcMethod::PrecedenceAgreement => {
                if self.to_acceptable(mode, ts.ts) {
                    let precedence = self.assign.assign(method, ts.ts, site, txn);
                    self.queue.insert(QueueEntry {
                        txn,
                        mode,
                        method,
                        precedence,
                        status: EntryStatus::Accepted,
                        granted: false,
                    });
                    // Acknowledge the acceptance unless the grant is issued in
                    // this very call (the grant then subsumes the ack). The
                    // ack, when needed, precedes any grants the insertion
                    // triggered, so it is spliced in at the pre-grant mark.
                    let mark = sink.replies.len();
                    self.try_grants(sink);
                    let granted_now = sink.replies[mark..]
                        .iter()
                        .any(|r| matches!(r, ReplyMsg::Grant { txn: t, .. } if *t == txn));
                    if !granted_now {
                        sink.replies.insert(
                            mark,
                            ReplyMsg::Ack {
                                txn,
                                item: self.item,
                            },
                        );
                    }
                    return;
                } else {
                    let floor = match mode {
                        AccessMode::Read => self.w_ts,
                        AccessMode::Write => self.w_ts.max(self.r_ts),
                    };
                    let new_ts = ts.ts.min_backoff_above(ts.interval, floor);
                    self.assign.observe_ts(new_ts);
                    self.queue.insert(QueueEntry {
                        txn,
                        mode,
                        method,
                        precedence: Precedence::timestamped(new_ts, site, txn),
                        status: EntryStatus::Blocked,
                        granted: false,
                    });
                    sink.replies.push(ReplyMsg::Backoff {
                        txn,
                        item: self.item,
                        new_ts,
                    });
                }
            }
        }
        self.try_grants(sink);
    }

    /// Handle a PA `UpdatedTs` message: the issuer's final backed-off
    /// timestamp for this transaction.
    pub fn handle_updated_ts(&mut self, txn: TxnId, new_ts: Timestamp, sink: &mut QmSink) {
        let Some(entry) = self.queue.get(txn) else {
            return;
        };
        let site = match entry.precedence.class {
            PrecClass::NonTwoPl { site, .. } => site,
            // A 2PL entry never receives timestamp updates; ignore.
            PrecClass::TwoPl { .. } => return,
        };
        let was_granted = entry.granted;
        self.assign.observe_ts(new_ts);
        self.queue
            .reprioritise(txn, Precedence::timestamped(new_ts, site, txn));
        if was_granted {
            // Revoke the grant rather than carry it to the new precedence.
            // A grant kept while its entry moves *up* lets a conflicting
            // smaller-precedence request be granted and implemented
            // underneath the still-unimplemented lock; the log stays
            // serializable (the implementation order follows precedence),
            // but the value that was attached to this transaction's original
            // grant is then no longer its predecessor state — a lost update
            // for read-modify-write embedders. Dropping the lock re-queues
            // the entry at its backed-off precedence; `try_grants` re-issues
            // the grant (immediately, unless a smaller-precedence conflict
            // now exists) with a fresh value, and the issuer awaits fresh
            // grants for every item after its backoff round.
            if let Some(pos) = self.locks.iter().position(|l| l.txn == txn) {
                self.locks.remove(pos);
            }
            self.after_lock_removal(sink);
            return;
        }
        self.try_grants(sink);
    }

    /// Make the allocations a first request would — the queue's retained
    /// entry buffer and the lock list's first growth — up front (see
    /// [`crate::QueueManager::prewarm`]).
    pub fn prewarm(&mut self) {
        self.queue.prewarm();
        if self.locks.capacity() == 0 {
            self.locks.reserve(4);
        }
    }

    /// Handle a `Release` message: drop the transaction's lock and queue
    /// entry. For a write access of a 2PL/PA transaction (or of a T/O
    /// transaction that never demoted), the value is installed and the
    /// operation is implemented now — appending `(commit_ts, value)` to the
    /// version chain when the release carries a stamp.
    pub fn handle_release(
        &mut self,
        txn: TxnId,
        write_value: Option<Value>,
        commit_ts: Timestamp,
        watermark: Timestamp,
        sink: &mut QmSink,
    ) {
        let Some(pos) = self.locks.iter().position(|l| l.txn == txn) else {
            // No lock held (already released, or the request never granted);
            // still drop any queue entry so the item does not leak state.
            self.queue.remove(txn);
            self.after_lock_removal(sink);
            return;
        };
        let lock = self.locks.remove(pos);
        // A semi-lock means the operation was already implemented at demote
        // time; a normal lock is implemented now.
        if !lock.mode.is_semi() {
            let mut stamp = None;
            if lock.access == AccessMode::Write {
                if let Some(v) = write_value {
                    self.value = v;
                    self.install_version(commit_ts, v, watermark);
                    if commit_ts != Timestamp::ZERO {
                        stamp = Some(commit_ts);
                    }
                }
            }
            sink.events.push(QmEvent::Implemented {
                item: self.item,
                txn,
                access: lock.access,
                commit_ts: stamp,
            });
        }
        self.queue.remove(txn);
        self.after_lock_removal(sink);
    }

    /// Handle a T/O `Demote` message: the transaction executed while holding
    /// at least one pre-scheduled lock; its lock on this item becomes a
    /// semi-lock and the operation is implemented now.
    pub fn handle_demote(
        &mut self,
        txn: TxnId,
        write_value: Option<Value>,
        commit_ts: Timestamp,
        watermark: Timestamp,
        sink: &mut QmSink,
    ) {
        let Some(lock) = self.locks.iter_mut().find(|l| l.txn == txn) else {
            return;
        };
        if lock.mode.is_semi() {
            // Already demoted; nothing to do.
            return;
        }
        let mut stamp = None;
        if lock.access == AccessMode::Write {
            if let Some(v) = write_value {
                self.value = v;
                if commit_ts != Timestamp::ZERO {
                    stamp = Some(commit_ts);
                }
            }
        }
        lock.mode = lock.mode.demoted();
        let access = lock.access;
        if let (Some(ts), Some(v)) = (stamp, write_value) {
            self.install_version(ts, v, watermark);
        }
        sink.events.push(QmEvent::Implemented {
            item: self.item,
            txn,
            access,
            commit_ts: stamp,
        });
        // Demotion can unblock waiting T/O requests (a WL that blocked a T/O
        // read became an SWL, an RL that blocked a T/O write became an SRL).
        self.try_grants(sink);
    }

    /// Handle an `Abort`: remove the transaction's lock and queue entry
    /// without implementing anything.
    pub fn handle_abort(&mut self, txn: TxnId, sink: &mut QmSink) {
        self.locks.retain(|l| l.txn != txn);
        self.queue.remove(txn);
        self.after_lock_removal(sink);
    }

    // ------------------------------------------------------------------
    // Wait-for edges for deadlock detection
    // ------------------------------------------------------------------

    /// Append this item's wait-for edges to `edges`: `(waiter, holder)` pairs
    /// where `waiter` is an ungranted request and `holder` is a transaction
    /// it must wait for (either the holder of a conflicting unreleased lock,
    /// or an earlier ungranted entry that must reach the head first).
    pub fn wait_edges_into(&self, edges: &mut Vec<(TxnId, TxnId)>) {
        self.for_each_wait_edge(|waiter, holder| edges.push((waiter, holder)));
    }

    /// True when this item contributes any wait-for edge: a request is
    /// queued without a grant, or a lock is held pre-scheduled (its holder
    /// waits for the normal grant). Two short scans and no allocation — the
    /// test a message pays to learn that it has nothing to announce (see
    /// [`ItemState::announce_new_edges`]).
    pub fn has_waiters(&self) -> bool {
        self.queue.head().is_some()
            || self
                .locks
                .iter()
                .any(|l| l.class == GrantClass::PreScheduled)
    }

    /// Before a state transition: remember, in the sink's scratch, the
    /// wait-for edges the item reports now, for
    /// [`ItemState::announce_new_edges`] to compare against. Free for an
    /// item that had no waiter after its previous transition.
    #[inline]
    pub(crate) fn note_edges(&self, sink: &mut QmSink) {
        debug_assert!(sink.edge_scratch.is_empty());
        if self.had_waiters {
            self.wait_edges_into(&mut sink.edge_scratch);
        }
    }

    /// After a state transition: push a [`QmEvent::WaitEdge`] for every
    /// wait-for edge the item reports now and did not report at
    /// [`ItemState::note_edges`] — the queue manager brackets every message
    /// with the pair, so no edge ever appears in
    /// [`ItemState::wait_edges_into`] unannounced (an event-driven deadlock
    /// detector rests on exactly that). A transition that leaves no waiter
    /// costs one [`ItemState::has_waiters`] test and announces nothing.
    #[inline]
    pub(crate) fn announce_new_edges(&mut self, sink: &mut QmSink) {
        self.had_waiters = self.has_waiters();
        if self.had_waiters {
            let QmSink {
                events,
                edge_scratch: before,
                ..
            } = sink;
            self.for_each_wait_edge(|waiter, holder| {
                if !before.contains(&(waiter, holder)) {
                    events.push(QmEvent::WaitEdge { waiter, holder });
                }
            });
        }
        sink.edge_scratch.clear();
    }

    fn for_each_wait_edge(&self, mut edge: impl FnMut(TxnId, TxnId)) {
        for (pos, entry) in self.queue.iter().enumerate() {
            if entry.granted {
                continue;
            }
            // Lock-conflict edges: only locks held by smaller-precedence
            // entries actually block this request (mirrors the grant rule).
            for holder in self.queue.iter() {
                if !holder.granted
                    || holder.txn == entry.txn
                    || holder.precedence >= entry.precedence
                {
                    continue;
                }
                for lock in &self.locks {
                    if lock.txn == holder.txn
                        && self.lock_blocks_request(lock, entry.mode, entry.method)
                    {
                        edge(entry.txn, lock.txn);
                    }
                }
            }
            // Head-order edges: every earlier ungranted entry must be granted
            // before this one can reach the head.
            for earlier in self.queue.iter().take(pos).filter(|e| !e.granted) {
                edge(entry.txn, earlier.txn);
            }
        }
        // A transaction holding a *pre-scheduled* lock is waiting for the
        // conflicting locks of smaller-precedence entries to be released
        // (that is when its normal grant is issued). Without these edges a
        // cycle running through a T/O transaction in its collect-normal-
        // grants phase would be invisible to the deadlock detector and the
        // 2PL member of the cycle would never be chosen as a victim.
        for lock in &self.locks {
            if lock.class != GrantClass::PreScheduled {
                continue;
            }
            let Some(my_prec) = self.queue.get(lock.txn).map(|e| e.precedence) else {
                continue;
            };
            for other in &self.locks {
                if other.txn != lock.txn
                    && other.mode.conflicts_with(lock.mode)
                    && self
                        .queue
                        .get(other.txn)
                        .is_some_and(|e| e.precedence < my_prec)
                {
                    edge(lock.txn, other.txn);
                }
            }
        }
    }

    /// The wait-for edges contributed by this item, as a fresh vector
    /// (convenience over [`ItemState::wait_edges_into`]).
    pub fn wait_edges(&self) -> Vec<(TxnId, TxnId)> {
        let mut edges = Vec::new();
        self.wait_edges_into(&mut edges);
        edges
    }

    /// Append the transactions currently waiting (queued but not granted) at
    /// this item to `out`.
    pub fn waiting_txns_into(&self, out: &mut Vec<TxnId>) {
        out.extend(self.queue.iter().filter(|e| !e.granted).map(|e| e.txn));
    }

    /// The transactions currently waiting at this item, as a fresh vector.
    pub fn waiting_txns(&self) -> Vec<TxnId> {
        let mut out = Vec::new();
        self.waiting_txns_into(&mut out);
        out
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Under [`EnforcementMode::LockAll`] every T/O request is treated like a
    /// PA request for queueing and locking purposes (but it is still rejected
    /// rather than backed off, so the ablation changes only the enforcement
    /// side).
    fn effective_method(&self, method: CcMethod) -> CcMethod {
        match (self.enforcement, method) {
            (EnforcementMode::LockAll, CcMethod::TimestampOrdering) => CcMethod::TimestampOrdering,
            _ => method,
        }
    }

    fn to_acceptable(&self, mode: AccessMode, ts: Timestamp) -> bool {
        match mode {
            AccessMode::Read => ts > self.w_ts,
            AccessMode::Write => ts > self.w_ts && ts > self.r_ts,
        }
    }

    /// Does an outstanding lock block a head request of the given mode and
    /// method?
    fn lock_blocks_request(&self, lock: &HeldLock, mode: AccessMode, method: CcMethod) -> bool {
        let semi_aware =
            self.enforcement == EnforcementMode::SemiLock && method == CcMethod::TimestampOrdering;
        match (mode, semi_aware) {
            // 2PL/PA read: blocked by WL and SWL.
            (AccessMode::Read, false) => lock.mode.is_write_kind(),
            // 2PL/PA write: blocked by every lock.
            (AccessMode::Write, false) => true,
            // T/O read: blocked only by WL.
            (AccessMode::Read, true) => lock.mode == LockMode::Write,
            // T/O write: blocked by RL and WL (not by semi-locks).
            (AccessMode::Write, true) => {
                lock.mode == LockMode::Read || lock.mode == LockMode::Write
            }
        }
    }

    /// Whether an outstanding lock *conflicts* with a request (for deciding
    /// the pre-scheduled class), per the semi-lock conflict rule: at least
    /// one of the two is a write or semi-write lock.
    fn lock_conflicts_with_request(lock: &HeldLock, mode: AccessMode) -> bool {
        let requested = match mode {
            AccessMode::Read => LockMode::Read,
            AccessMode::Write => LockMode::Write,
        };
        lock.mode.conflicts_with(requested)
    }

    fn try_grants(&mut self, sink: &mut QmSink) {
        while let Some(head) = self.queue.head() {
            if head.status == EntryStatus::Blocked {
                break;
            }
            let txn = head.txn;
            let mode = head.mode;
            let method = head.method;
            let precedence = head.precedence;
            let prec_ts = precedence.ts;
            // The head is blocked only by conflicting locks whose queue
            // entries have *smaller precedence*. Locks held by later-
            // precedence requests (possible when a PA transaction's granted
            // entry was re-timestamped upwards by its backoff round) do not
            // block it — this is the reading of "previously granted" under
            // which the paper's Theorem 3 (only 2PL can block the system)
            // actually holds; blocking on wall-clock grant order instead
            // lets two PA transactions deadlock.
            let blocked = self.queue.iter().any(|e| {
                e.granted
                    && e.txn != txn
                    && e.precedence < precedence
                    && self
                        .locks
                        .iter()
                        .any(|l| l.txn == e.txn && self.lock_blocks_request(l, mode, method))
            });
            if blocked {
                break;
            }
            // Grant. The grant is pre-scheduled when a *smaller-precedence*
            // entry still holds a conflicting (possibly semi-) lock — the
            // same precedence-based reading of "granted earlier" as the
            // blocking rule above. Conflicting locks held by larger-
            // precedence entries are logically after this request and must
            // not tie its release to theirs (doing so creates PA/T-O wait
            // cycles with no 2PL member, which Theorem 3 rules out).
            let class = if self.queue.iter().any(|e| {
                e.granted
                    && e.txn != txn
                    && e.precedence < precedence
                    && self
                        .locks
                        .iter()
                        .any(|l| l.txn == e.txn && Self::lock_conflicts_with_request(l, mode))
            }) {
                GrantClass::PreScheduled
            } else {
                GrantClass::Normal
            };
            let lock_mode = match (mode, method, self.enforcement) {
                (AccessMode::Read, CcMethod::TimestampOrdering, EnforcementMode::SemiLock) => {
                    LockMode::SemiRead
                }
                (AccessMode::Read, _, _) => LockMode::Read,
                (AccessMode::Write, _, _) => LockMode::Write,
            };
            let seq = self.grant_counter;
            self.grant_counter += 1;
            self.locks.push(HeldLock {
                txn,
                mode: lock_mode,
                class,
                seq,
                access: mode,
            });
            // By position, not by transaction id: should a duplicate
            // `Access` ever double-queue a transaction (dedup switched off),
            // marking "the entry of `txn`" would re-mark its first, granted
            // entry and leave this head ungranted — an endless grant loop.
            self.queue.grant_head();
            match mode {
                AccessMode::Read => self.r_ts = self.r_ts.max(prec_ts),
                AccessMode::Write => self.w_ts = self.w_ts.max(prec_ts),
            }
            // The current value is attached to every grant, not only to
            // read grants. Whenever a grant is issued — normal or
            // pre-scheduled — every conflicting predecessor has already been
            // implemented (a semi-lock installs its value at demote time,
            // and a not-yet-implemented normal lock blocks the grant), so
            // the value is the request's correct predecessor state. Write
            // grants carrying the value is what gives embedders
            // read-modify-write semantics for items in the write set.
            sink.replies.push(ReplyMsg::Grant {
                txn,
                item: self.item,
                lock: lock_mode,
                class,
                value: Some(self.value),
                at: prec_ts,
            });
            sink.events.push(QmEvent::GrantIssued {
                item: self.item,
                txn,
                access: mode,
                lock: lock_mode,
                class,
            });
        }
    }

    /// After a lock disappears (release or abort): upgrade pre-scheduled
    /// locks whose conflicts are gone, then try to grant the head.
    fn after_lock_removal(&mut self, sink: &mut QmSink) {
        // Upgrade pre-scheduled locks that no longer have a conflicting lock
        // held by a smaller-precedence entry (mirror of the pre-scheduled
        // classification at grant time). The upgrade decisions are all taken
        // against the current lock table before any class is rewritten —
        // only the transaction ids are snapshotted (into the sink's reusable
        // scratch), not the whole lock vector.
        let mut upgrades = std::mem::take(&mut sink.upgrade_scratch);
        debug_assert!(upgrades.is_empty());
        for lock in self
            .locks
            .iter()
            .filter(|l| l.class == GrantClass::PreScheduled)
        {
            let Some(my_prec) = self.queue.get(lock.txn).map(|e| e.precedence) else {
                continue;
            };
            let still_conflicted = self.locks.iter().any(|other| {
                other.txn != lock.txn
                    && other.mode.conflicts_with(lock.mode)
                    && self
                        .queue
                        .get(other.txn)
                        .is_some_and(|e| e.precedence < my_prec)
            });
            if !still_conflicted {
                upgrades.push(lock.txn);
            }
        }
        for &txn in &upgrades {
            let at = self
                .queue
                .get(txn)
                .map(|e| e.precedence.ts)
                .unwrap_or(Timestamp::ZERO);
            if let Some(lock) = self.locks.iter_mut().find(|l| l.txn == txn) {
                lock.class = GrantClass::Normal;
                sink.replies.push(ReplyMsg::Grant {
                    txn: lock.txn,
                    item: self.item,
                    lock: lock.mode,
                    class: GrantClass::Normal,
                    value: None,
                    at,
                });
            }
        }
        upgrades.clear();
        sink.upgrade_scratch = upgrades;
        self.try_grants(sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbmodel::LogicalItemId;

    fn item() -> PhysicalItemId {
        PhysicalItemId::new(LogicalItemId(1), SiteId(0))
    }

    fn ts(v: u64) -> TsTuple {
        TsTuple::new(Timestamp(v), 10)
    }

    fn state() -> ItemState {
        ItemState::new(item(), 100, EnforcementMode::SemiLock)
    }

    /// Run an access through a fresh sink and return it.
    fn access(
        s: &mut ItemState,
        txn: u64,
        site: u32,
        mode: AccessMode,
        method: CcMethod,
        at: TsTuple,
    ) -> QmSink {
        let mut sink = QmSink::new();
        s.handle_access(TxnId(txn), SiteId(site), mode, method, at, &mut sink);
        sink
    }

    fn release(s: &mut ItemState, txn: u64, value: Option<Value>) -> QmSink {
        let mut sink = QmSink::new();
        s.handle_release(
            TxnId(txn),
            value,
            Timestamp::ZERO,
            Timestamp::ZERO,
            &mut sink,
        );
        sink
    }

    /// Transactions granted a *real* lock in this sink (a real grant always
    /// carries the item value; normal-upgrade notices carry `None`).
    fn grant_txns(sink: &QmSink) -> Vec<TxnId> {
        sink.events
            .iter()
            .filter_map(|e| match e {
                QmEvent::GrantIssued { txn, .. } => Some(*txn),
                _ => None,
            })
            .collect()
    }

    /// Transactions whose pre-scheduled lock became normal in this sink.
    fn upgraded_txns(sink: &QmSink) -> Vec<(TxnId, LockMode)> {
        sink.replies
            .iter()
            .filter_map(|r| match r {
                ReplyMsg::Grant {
                    txn,
                    lock,
                    class: GrantClass::Normal,
                    value: None,
                    ..
                } => Some((*txn, *lock)),
                _ => None,
            })
            .collect()
    }

    fn implemented(sink: &QmSink) -> Vec<(TxnId, AccessMode)> {
        sink.events
            .iter()
            .filter_map(|e| match e {
                QmEvent::Implemented { txn, access, .. } => Some((*txn, *access)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn two_pl_requests_grant_fcfs_and_block_on_conflict() {
        let mut s = state();
        let e1 = access(
            &mut s,
            1,
            0,
            AccessMode::Read,
            CcMethod::TwoPhaseLocking,
            ts(0),
        );
        assert_eq!(grant_txns(&e1), vec![TxnId(1)]);
        // A second reader is also granted (read locks are compatible).
        let e2 = access(
            &mut s,
            2,
            1,
            AccessMode::Read,
            CcMethod::TwoPhaseLocking,
            ts(0),
        );
        assert_eq!(grant_txns(&e2), vec![TxnId(2)]);
        // A writer must wait for both readers.
        let e3 = access(
            &mut s,
            3,
            2,
            AccessMode::Write,
            CcMethod::TwoPhaseLocking,
            ts(0),
        );
        assert!(grant_txns(&e3).is_empty());
        // Release one reader: still blocked; release the second: granted.
        let e4 = release(&mut s, 1, None);
        assert!(grant_txns(&e4).is_empty());
        let e5 = release(&mut s, 2, None);
        assert_eq!(grant_txns(&e5), vec![TxnId(3)]);
    }

    #[test]
    fn read_grant_attaches_current_value_and_write_applies_at_release() {
        let mut s = state();
        let e = access(
            &mut s,
            1,
            0,
            AccessMode::Write,
            CcMethod::TwoPhaseLocking,
            ts(0),
        );
        assert_eq!(grant_txns(&e), vec![TxnId(1)]);
        assert_eq!(s.value(), 100, "value unchanged until release");
        release(&mut s, 1, Some(250));
        assert_eq!(s.value(), 250);
        let e = access(
            &mut s,
            2,
            0,
            AccessMode::Read,
            CcMethod::TwoPhaseLocking,
            ts(0),
        );
        match &e.replies[0] {
            ReplyMsg::Grant { value, .. } => assert_eq!(*value, Some(250)),
            other => panic!("expected grant, got {other:?}"),
        }
    }

    #[test]
    fn to_read_below_w_ts_is_rejected() {
        let mut s = state();
        // A T/O writer with ts 50 is granted and released, setting W-TS = 50.
        access(
            &mut s,
            1,
            0,
            AccessMode::Write,
            CcMethod::TimestampOrdering,
            ts(50),
        );
        release(&mut s, 1, Some(7));
        // A reader with a smaller timestamp must be rejected.
        let e = access(
            &mut s,
            2,
            1,
            AccessMode::Read,
            CcMethod::TimestampOrdering,
            ts(40),
        );
        assert_eq!(
            e.replies,
            vec![ReplyMsg::Reject {
                txn: TxnId(2),
                item: item()
            }]
        );
        assert!(e.events.is_empty());
        // A reader with a larger timestamp is accepted.
        let e = access(
            &mut s,
            3,
            1,
            AccessMode::Read,
            CcMethod::TimestampOrdering,
            ts(60),
        );
        assert_eq!(grant_txns(&e), vec![TxnId(3)]);
    }

    #[test]
    fn to_write_checks_both_thresholds() {
        let mut s = state();
        access(
            &mut s,
            1,
            0,
            AccessMode::Read,
            CcMethod::TimestampOrdering,
            ts(80),
        );
        // R-TS is now 80; a write with ts 70 is rejected even though W-TS is 0.
        let e = access(
            &mut s,
            2,
            1,
            AccessMode::Write,
            CcMethod::TimestampOrdering,
            ts(70),
        );
        assert_eq!(
            e.replies,
            vec![ReplyMsg::Reject {
                txn: TxnId(2),
                item: item()
            }]
        );
    }

    #[test]
    fn pa_request_backs_off_instead_of_rejecting() {
        let mut s = state();
        access(
            &mut s,
            1,
            0,
            AccessMode::Write,
            CcMethod::PrecedenceAgreement,
            ts(50),
        );
        release(&mut s, 1, Some(1));
        // PA read at ts 30 with interval 10: smallest 30 + 10k above 50 is 60.
        let e = access(
            &mut s,
            2,
            1,
            AccessMode::Read,
            CcMethod::PrecedenceAgreement,
            TsTuple::new(Timestamp(30), 10),
        );
        assert_eq!(
            e.replies,
            vec![ReplyMsg::Backoff {
                txn: TxnId(2),
                item: item(),
                new_ts: Timestamp(60)
            }]
        );
        // The blocked entry is not granted until the updated timestamp arrives.
        assert!(s.queue_len() == 1);
        let mut sink = QmSink::new();
        s.handle_updated_ts(TxnId(2), Timestamp(75), &mut sink);
        assert_eq!(grant_txns(&sink), vec![TxnId(2)]);
    }

    #[test]
    fn pa_accepted_but_queued_is_acknowledged_before_grants() {
        let mut s = state();
        // A 2PL writer holds the item, so an accepted PA reader queues.
        access(
            &mut s,
            1,
            0,
            AccessMode::Write,
            CcMethod::TwoPhaseLocking,
            ts(0),
        );
        let e = access(
            &mut s,
            2,
            1,
            AccessMode::Read,
            CcMethod::PrecedenceAgreement,
            ts(50),
        );
        assert_eq!(
            e.replies,
            vec![ReplyMsg::Ack {
                txn: TxnId(2),
                item: item()
            }],
            "accepted-but-queued PA request is acknowledged"
        );
    }

    #[test]
    fn blocked_pa_entry_prevents_later_grants() {
        let mut s = state();
        // Seed thresholds with a granted+released PA write at ts 50.
        access(
            &mut s,
            1,
            0,
            AccessMode::Write,
            CcMethod::PrecedenceAgreement,
            ts(50),
        );
        release(&mut s, 1, None);
        // PA write at ts 20 gets backed off (blocked, proposed 60).
        let e = access(
            &mut s,
            2,
            1,
            AccessMode::Write,
            CcMethod::PrecedenceAgreement,
            TsTuple::new(Timestamp(20), 40),
        );
        assert!(matches!(e.replies[0], ReplyMsg::Backoff { .. }));
        // A later T/O read at ts 100 queues behind the blocked entry and must
        // not be granted while the head is blocked.
        let e = access(
            &mut s,
            3,
            2,
            AccessMode::Read,
            CcMethod::TimestampOrdering,
            ts(100),
        );
        assert!(grant_txns(&e).is_empty(), "head is blocked; nothing grants");
        // Once the PA entry is accepted, both grant in precedence order.
        let mut sink = QmSink::new();
        s.handle_updated_ts(TxnId(2), Timestamp(60), &mut sink);
        assert_eq!(grant_txns(&sink), vec![TxnId(2)]);
    }

    #[test]
    fn semi_lock_lets_to_read_overlap_semi_write() {
        let mut s = state();
        // A T/O writer is granted (normal), executes, and demotes because it
        // held a pre-scheduled lock elsewhere — here we just demote directly.
        access(
            &mut s,
            1,
            0,
            AccessMode::Write,
            CcMethod::TimestampOrdering,
            ts(10),
        );
        let mut sink = QmSink::new();
        s.handle_demote(
            TxnId(1),
            Some(777),
            Timestamp::ZERO,
            Timestamp::ZERO,
            &mut sink,
        );
        assert_eq!(implemented(&sink), vec![(TxnId(1), AccessMode::Write)]);
        assert_eq!(s.value(), 777, "demote implements the write");
        // A T/O reader with a later timestamp may be granted an SRL even
        // though the SWL is still held…
        let e = access(
            &mut s,
            2,
            1,
            AccessMode::Read,
            CcMethod::TimestampOrdering,
            ts(20),
        );
        assert_eq!(grant_txns(&e), vec![TxnId(2)]);
        match &e.replies[0] {
            ReplyMsg::Grant {
                lock, class, value, ..
            } => {
                assert_eq!(*lock, LockMode::SemiRead);
                assert_eq!(*class, GrantClass::PreScheduled);
                assert_eq!(*value, Some(777), "reads the demoted writer's value");
            }
            other => panic!("unexpected {other:?}"),
        }
        // …but a PA reader is still blocked by the semi-write lock.
        let e = access(
            &mut s,
            3,
            2,
            AccessMode::Read,
            CcMethod::PrecedenceAgreement,
            ts(30),
        );
        assert!(grant_txns(&e).is_empty());
        // When the T/O writer finally releases, the pre-scheduled SRL becomes
        // normal and the PA reader is granted.
        let e = release(&mut s, 1, None);
        assert_eq!(upgraded_txns(&e), vec![(TxnId(2), LockMode::SemiRead)]);
        assert!(grant_txns(&e).contains(&TxnId(3)));
    }

    #[test]
    fn lock_all_mode_blocks_to_read_behind_semi_write() {
        let mut s = ItemState::new(item(), 0, EnforcementMode::LockAll);
        access(
            &mut s,
            1,
            0,
            AccessMode::Write,
            CcMethod::TimestampOrdering,
            ts(10),
        );
        let mut sink = QmSink::new();
        s.handle_demote(
            TxnId(1),
            Some(5),
            Timestamp::ZERO,
            Timestamp::ZERO,
            &mut sink,
        );
        let e = access(
            &mut s,
            2,
            1,
            AccessMode::Read,
            CcMethod::TimestampOrdering,
            ts(20),
        );
        assert!(
            grant_txns(&e).is_empty(),
            "under lock-all enforcement the T/O read waits for the release"
        );
        let e = release(&mut s, 1, None);
        assert_eq!(grant_txns(&e), vec![TxnId(2)]);
    }

    #[test]
    fn release_implements_and_purges_state() {
        let mut s = state();
        access(
            &mut s,
            1,
            0,
            AccessMode::Write,
            CcMethod::PrecedenceAgreement,
            ts(5),
        );
        let e = release(&mut s, 1, Some(9));
        assert_eq!(implemented(&e), vec![(TxnId(1), AccessMode::Write)]);
        assert!(s.is_idle());
        assert_eq!(s.value(), 9);
        // Releasing again is a no-op.
        let e = release(&mut s, 1, Some(1000));
        assert!(implemented(&e).is_empty());
        assert_eq!(s.value(), 9);
    }

    #[test]
    fn release_after_demote_does_not_reimplement() {
        let mut s = state();
        access(
            &mut s,
            1,
            0,
            AccessMode::Write,
            CcMethod::TimestampOrdering,
            ts(5),
        );
        let mut sink = QmSink::new();
        s.handle_demote(
            TxnId(1),
            Some(1),
            Timestamp::ZERO,
            Timestamp::ZERO,
            &mut sink,
        );
        assert_eq!(implemented(&sink).len(), 1);
        let release_events = release(&mut s, 1, Some(2));
        assert_eq!(
            implemented(&release_events).len(),
            0,
            "a demoted lock's operation is implemented only once"
        );
        assert_eq!(s.value(), 1, "the release after demote does not overwrite");
    }

    #[test]
    fn abort_discards_without_implementing() {
        let mut s = state();
        access(
            &mut s,
            1,
            0,
            AccessMode::Write,
            CcMethod::TwoPhaseLocking,
            ts(0),
        );
        access(
            &mut s,
            2,
            1,
            AccessMode::Write,
            CcMethod::TwoPhaseLocking,
            ts(0),
        );
        let mut e = QmSink::new();
        s.handle_abort(TxnId(1), &mut e);
        assert!(implemented(&e).is_empty());
        assert_eq!(
            grant_txns(&e),
            vec![TxnId(2)],
            "the waiter is granted after the abort"
        );
        assert_eq!(s.value(), 100);
    }

    #[test]
    fn crash_recover_wipes_waiters_keeps_grants_and_regrants() {
        let mut s = state();
        // t1 holds the write lock; t2 and t3 wait.
        access(
            &mut s,
            1,
            0,
            AccessMode::Write,
            CcMethod::TwoPhaseLocking,
            ts(0),
        );
        access(
            &mut s,
            2,
            1,
            AccessMode::Write,
            CcMethod::TwoPhaseLocking,
            ts(0),
        );
        access(
            &mut s,
            3,
            2,
            AccessMode::Read,
            CcMethod::TwoPhaseLocking,
            ts(0),
        );
        assert!(s.involves(TxnId(2)) && s.has_queued(TxnId(3)));
        let mut sink = QmSink::new();
        let wiped = s.crash_recover(&mut sink);
        assert_eq!(wiped, 2, "both waiters wiped");
        assert!(grant_txns(&sink).is_empty(), "nothing new grantable yet");
        assert_eq!(s.locks().len(), 1, "the granted lock survives");
        assert_eq!(s.queue_len(), 1);
        assert!(!s.involves(TxnId(2)));
        // The holder's release still implements its write after the crash.
        let e = release(&mut s, 1, Some(41));
        assert_eq!(implemented(&e), vec![(TxnId(1), AccessMode::Write)]);
        assert_eq!(s.value(), 41);
        assert!(s.is_idle());
        // A present-txns report covers queued and locked transactions.
        access(
            &mut s,
            4,
            0,
            AccessMode::Write,
            CcMethod::TwoPhaseLocking,
            ts(0),
        );
        let mut present = Vec::new();
        s.present_txns_into(&mut present);
        present.sort_unstable();
        present.dedup();
        assert_eq!(present, vec![TxnId(4)]);
    }

    #[test]
    fn crash_recover_wipes_blocked_heads_too() {
        let mut s = state();
        // Seed thresholds, then park a blocked PA head in front of an
        // ungranted T/O read (same shape as
        // `blocked_pa_entry_prevents_later_grants`).
        access(
            &mut s,
            1,
            0,
            AccessMode::Write,
            CcMethod::PrecedenceAgreement,
            ts(50),
        );
        release(&mut s, 1, None);
        access(
            &mut s,
            2,
            1,
            AccessMode::Write,
            CcMethod::PrecedenceAgreement,
            TsTuple::new(Timestamp(20), 40),
        );
        let e = access(
            &mut s,
            3,
            2,
            AccessMode::Read,
            CcMethod::TimestampOrdering,
            ts(100),
        );
        assert!(grant_txns(&e).is_empty(), "blocked head holds t3 back");
        let mut sink = QmSink::new();
        let wiped = s.crash_recover(&mut sink);
        assert_eq!(wiped, 2, "both ungranted entries wiped");
        assert!(s.is_idle(), "no locks were held; item empty after crash");
    }

    #[test]
    fn wait_edges_capture_lock_and_order_waits() {
        let mut s = state();
        access(
            &mut s,
            1,
            0,
            AccessMode::Write,
            CcMethod::TwoPhaseLocking,
            ts(0),
        );
        access(
            &mut s,
            2,
            1,
            AccessMode::Write,
            CcMethod::TwoPhaseLocking,
            ts(0),
        );
        access(
            &mut s,
            3,
            2,
            AccessMode::Write,
            CcMethod::TwoPhaseLocking,
            ts(0),
        );
        let edges = s.wait_edges();
        // t2 waits for the holder t1; t3 waits for t1 (lock) and t2 (order).
        assert!(edges.contains(&(TxnId(2), TxnId(1))));
        assert!(edges.contains(&(TxnId(3), TxnId(1))));
        assert!(edges.contains(&(TxnId(3), TxnId(2))));
        assert!(!edges.iter().any(|&(w, _)| w == TxnId(1)));
        assert_eq!(s.waiting_txns(), vec![TxnId(2), TxnId(3)]);
        // The `_into` variants append to the caller's buffers.
        let mut buf = vec![(TxnId(99), TxnId(98))];
        s.wait_edges_into(&mut buf);
        assert_eq!(buf[0], (TxnId(99), TxnId(98)));
        assert_eq!(buf.len(), 1 + edges.len());
    }

    #[test]
    fn to_timestamp_order_enforced_among_queued_requests() {
        let mut s = state();
        // Two T/O writers arrive out of order while a 2PL reader holds the item.
        access(
            &mut s,
            1,
            0,
            AccessMode::Read,
            CcMethod::TwoPhaseLocking,
            ts(0),
        );
        let e = access(
            &mut s,
            2,
            1,
            AccessMode::Write,
            CcMethod::TimestampOrdering,
            ts(50),
        );
        assert!(grant_txns(&e).is_empty());
        let e = access(
            &mut s,
            3,
            2,
            AccessMode::Write,
            CcMethod::TimestampOrdering,
            ts(40),
        );
        assert!(grant_txns(&e).is_empty());
        // Release the reader: the smaller-timestamp writer (t3) must be
        // granted first, then t2 after t3 releases.
        let e = release(&mut s, 1, None);
        assert_eq!(grant_txns(&e), vec![TxnId(3)]);
        let e = release(&mut s, 3, Some(1));
        assert_eq!(grant_txns(&e), vec![TxnId(2)]);
    }

    #[test]
    fn updated_ts_revokes_and_regrants_with_fresh_value() {
        // P (PA) is granted a write at ts 10, then backs off to ts 50 while
        // T (T/O, ts 20) waits. The timestamp update must revoke P's grant:
        // T is granted first (value 100), implements its write (v = 7), and
        // only then is P re-granted — with the fresh value, not the one
        // attached to its original grant. Keeping the original grant would
        // let P overwrite T's update from a stale read.
        let mut s = state();
        let e = access(
            &mut s,
            1,
            0,
            AccessMode::Write,
            CcMethod::PrecedenceAgreement,
            ts(10),
        );
        assert_eq!(grant_txns(&e), vec![TxnId(1)]);
        let e = access(
            &mut s,
            2,
            1,
            AccessMode::Write,
            CcMethod::TimestampOrdering,
            ts(20),
        );
        assert!(grant_txns(&e).is_empty(), "blocked behind P's write lock");

        let mut e = QmSink::new();
        s.handle_updated_ts(TxnId(1), Timestamp(50), &mut e);
        assert_eq!(grant_txns(&e), vec![TxnId(2)], "revocation unblocks T");
        let t_value = e.replies.iter().find_map(|r| match r {
            ReplyMsg::Grant {
                txn: TxnId(2),
                value,
                ..
            } => *value,
            _ => None,
        });
        assert_eq!(t_value, Some(100), "T reads the original value");

        let e = release(&mut s, 2, Some(7));
        assert_eq!(grant_txns(&e), vec![TxnId(1)], "P re-granted after T");
        let p_value = e.replies.iter().find_map(|r| match r {
            ReplyMsg::Grant {
                txn: TxnId(1),
                value,
                ..
            } => *value,
            _ => None,
        });
        assert_eq!(p_value, Some(7), "P's re-grant carries the fresh value");
        assert_eq!(s.w_ts(), Timestamp(50));
    }
}
