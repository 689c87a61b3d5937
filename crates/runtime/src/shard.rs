//! Shards: one per site, each a [`ShardCore`] run by whoever holds its lock,
//! and the keeper: one thread per database that serves every shard.
//!
//! A shard is the runtime analogue of the simulator's per-site queue
//! manager. Its state — the site's [`QueueManager`], the reusable
//! [`QmSink`] (no per-message `QmOutput` allocation anywhere on the
//! path), the reply-flush scratch, a fixed buffer of execution-log
//! records and the buffer of a hand-off pass — is a [`ShardCore`] behind
//! one mutex, and a command reaches it one of three ways:
//!
//! * **Caller-runs.** [`ShardSender::submit`] try-locks the core. If it
//!   is free, the inbox ring is idle and the log buffer has room, the
//!   *calling* thread runs its own `HandleBatch` / `ApplyConfluent` /
//!   `SnapshotRead` right there — through the same
//!   [`ShardCore::apply_cmd`] and the same reply flush the keeper uses —
//!   and finds its grants already in its mailbox (or its oneshot already
//!   filled). Nobody parks and nobody is woken: the uncontended command
//!   pays no thread hop at all.
//!
//!   **The core wait.** A submit whose caller asks for it retries a held
//!   core's `try_lock` for up to [`CORE_WAIT`] before it hands its
//!   command over. The one-shot routes (`SnapshotRead`, `ApplyConfluent`)
//!   always ask: each shard's answer is produced inside one core tenure,
//!   and the caller's next step is to collect it. The send batcher
//!   (`Database::route_all`) asks for the *last* of a call's per-shard
//!   `HandleBatch`es, and only if every earlier one ran inline: had one
//!   been handed over the caller waits for that shard's replies anyway,
//!   and a batch that waited with others behind it would delay them —
//!   measured, spinning every `HandleBatch` turns overlapping
//!   transactions into core-lock convoys and doubles `wide_hot`'s median
//!   commit. The holder a waiter meets is almost always another caller's
//!   ~1 µs inline run (or a keeper tenure), and a wait can at worst cost
//!   what it tries to save; a core that is down (a `Crash` outage, see
//!   "Faults") counts as held, so a waiter moves on within the bound:
//!   nothing on a client path ever blocks in `lock()`. FIFO is
//!   unaffected: the wait only decides *when* the caller gets the core,
//!   and every admission rule below — `closed`, the ring-idle test, log
//!   room — is still made under the lock once it has it, so a waiter that
//!   wins the core behind a backlog enqueues behind that backlog.
//! * **The hand-off.** A submit that finds the core held (past the wait,
//!   if it asked for one) or finds a backlog in the inbox pushes its
//!   command onto the inbox ring *quietly* — the keeper is not woken —
//!   and tries the core once more. Every client tenure ends in a
//!   [`CoreGuard`], which after unlocking makes the same check: if the
//!   inbox holds commands and the core try-locks, the thread runs **one
//!   pass** — the prefix of the inbox it may run as it stands at that
//!   moment (protocol commands, while the log buffer has room for them,
//!   at most [`PASS_CMDS`]), in inbox order, as one tenure exactly like
//!   the keeper's — flushes, lets go, and wakes the keeper for anything
//!   left: a command it may not run (`Crash`, `Shutdown`, `LogSnapshot`,
//!   the diagnostics' commands, one with no log room) or one that arrived
//!   during the pass. So a command that meets a held core is run by the
//!   thread already running the shard, a few microseconds later, and
//!   nobody pays the two thread hops of a wake-up (the keeper's, then the
//!   caller's on the reply, ≈ 6.5 µs each on a 2-core VM). The caller
//!   polls for its reply for up to the same bound before it parks
//!   ([`transport::SPIN_WAIT`]). Only a releaser runs queued work and
//!   only one pass of it; nobody waits in order to combine. A releaser
//!   that looped until the inbox was idle measured 7–20 % slower at the
//!   median on `dynamic_skewed`: one pass bounds what a client's own
//!   commit pays for others' work.
//! * **The keeper.** Everything else goes through the bounded MPSC ring
//!   (`transport::ring`, backpressure towards the clients) to the
//!   database's one `cc-keeper` thread, which owns every shard's inbox
//!   receiver and log: every [`ShardSender::send`] — `Crash`,
//!   `Shutdown`, the diagnostics' commands — a submit whose command has
//!   no log room, and whatever a pass left. For each shard in turn the
//!   keeper try-locks the core, drains everything enqueued since its last
//!   tenure, applies it and flushes the accumulated replies through the
//!   [`Registry`] once per drained batch. It never blocks on a core: a
//!   core held by a client is left to that client, whose release makes
//!   the hand-off check. Between its rounds over the shards it takes its
//!   turn at deadlock detection (`detector.rs`), reading each core's wait
//!   edges under that core's lock.
//!
//! **FIFO per shard** is load-bearing (a transaction's `Release` must not
//! overtake its `Access`; a snapshot read must queue behind the installs
//! its watermark covers) and two rules keep it. The ring has two
//! consumers — the keeper's drain and a pass's take — and each touches it
//! *only under the core lock*: lock, then take, never take-then-lock, and
//! everything taken is applied before the lock is next free (or, behind a
//! `Crash`, kept by the keeper and applied first once the outage ends,
//! while the down core admits nobody). Both take from the front, so
//! commands are applied in ring order whoever takes them. And a caller
//! runs inline only if, under the lock, the ring is idle: its copy of the
//! queue length reads zero ([`RingSender::is_idle`], no second lock).
//! Only a take lowers that copy, and takes happen under the core lock, so
//! while the caller holds it the copy can only grow; a push stores it
//! under the ring's lock before returning. So its own earlier commands,
//! and any install another client enqueued before retiring the commit
//! stamp this caller's watermark covers, are then already applied.
//!
//! **Nothing handed over is stranded.** A quiet push wakes nobody, so
//! some thread must see it. The pusher does push → `SeqCst` fence →
//! `try_lock`; a client tenure ends unlock → `SeqCst` fence → `is_idle`.
//! This is Dekker's pattern: of the two fences, one precedes the other
//! in their single total order, and the later side's load sees the
//! earlier side's store. So either the pusher's `try_lock` sees the core
//! unlocked — it wins the core and runs the pass itself, or someone else
//! won it and that holder makes the same check as it lets go — or the
//! holder's `is_idle` sees the push and runs a pass (or, having run its
//! pass, wakes the keeper; or, finding the core taken again, leaves it to
//! the next holder's check). The keeper is a holder like any other, and
//! makes the same check before it parks: it registers as the consumer of
//! every ring (each under that ring's lock, [`RingReceiver::register`]),
//! fences, and then retries the core of each non-idle ring, serving the
//! ones it wins — register → `SeqCst` fence → `is_idle` → `try_lock`. Its
//! fence orders every tenure it ran before it against every pusher's, so
//! a push the retry misses met a core the keeper no longer held; and
//! because it registered first, the wake-up of a releaser that leaves
//! commands behind reaches it wherever it is in its round. A caller that
//! must not block holding the core (its push might wait for space in a
//! full ring, which only a core holder can free) lets go first, without
//! the check, and makes it as the pusher instead.
//!
//! **The keeper keeps the log.** Every implemented operation is appended
//! — in processing order, by whoever runs the command — to a
//! fixed-capacity record buffer inside the core. The keeper, in every
//! tenure, swaps that buffer with the shard's spare under the lock and
//! folds the records into the shard's [`LogSet`] outside it; a caller
//! that fills the buffer half way sends one [`ShardCmd::FoldLog`] nudge
//! through the ring, and inline admission requires room. The one
//! allocation that grows per commit therefore stays in one thread's
//! malloc arena (spread over every client's arena it ratchets RSS up by
//! a quarter). Because every physical item lives on exactly one shard,
//! the per-item implementation order — the thing the serializability
//! oracle consumes — is exactly the order the core processed the
//! operations in, with no further synchronisation.
//!
//! **The announce rule.** A deadlock is found when its closing wait edge is
//! queued, not at the detector's next tick. The queue manager reports every
//! wait-for edge a message creates as a [`QmEvent::WaitEdge`] (and reports
//! nothing for a message that blocks nobody); [`ShardCore::fold_events`]
//! hands each to [`Registry::note_wait`], which marks the holder
//! "waited-on" and answers whether the *waiter* already is — the edge that
//! closes a cycle is always queued by a transaction that already has
//! someone behind it. If so the registry's scan request is raised there and
//! then, under the core lock, so that a scan able to read the edge can also
//! see the request. A client that holds the core wakes the keeper through
//! the shard's inbox ([`RingSender::wake_consumer`]) once it has let go of
//! it (the scan's first act is to read this shard's edges); the keeper
//! looks at the request after its fence, before it parks, so a wake-up
//! that finds it unregistered is not lost. A keeper tenure needs no
//! wake-up: its next detection turn reads the request. The marks, and why the last-announced edge of a cycle
//! always finds its waiter marked whatever the interleaving across shards,
//! are in `registry.rs`; what the detector does with the request is in
//! `detector.rs`. A transaction whose accesses are all granted on arrival
//! produces no such event: the new path costs it the one `match` arm it
//! never takes.
//!
//! **Faults.** One thread serves every shard, so nothing may sleep while
//! it holds a core. `Crash { outage }` marks the core *down* until a
//! deadline instead: every client path treats a down core exactly like a
//! held one, so callers hand their commands over and the inbox backs up
//! exactly as the fault model says, and the keeper skips the shard —
//! serving the others, and skipped by the deadlock scan — and parks no
//! later than the deadline. Only the keeper clears the mark, after
//! [`QueueManager::crash_recover`]. An engine panic is caught on whichever
//! thread runs the command — a client's inline run or pass, or a keeper
//! tenure — and the core is marked closed; the keeper then drops that
//! shard's inbox and reports the panic as that shard's result: the shard
//! dies, not the caller and not the other shards, and both entries fail
//! from then on like a send to a dropped receiver.
//!
//! Shutdown drains first: a [`ShardCmd::Shutdown`] marks the shard for
//! exit, but every command already enqueued — including commands ahead of
//! or behind it in the same drained batch — is still processed, and the
//! core is closed in the same lock tenure, before the keeper drops its
//! inbox. Without this, a release enqueued by a committing client just
//! before shutdown could be dropped and its write silently lost from the
//! final log. The keeper returns once every shard is closed; a shard whose
//! senders are all gone (a database dropped without `shutdown`) is
//! drained and closed the same way.

use std::any::Any;
use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{fence, AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use dbmodel::{AccessMode, LogSet, PhysicalItemId, SiteId, Timestamp, TxnId, Value};
use pam::{GrantClass, ReplyMsg, RequestMsg};
use trace::{Phase, TraceLevel, TracePlane};
use transport::batch::SmallBatch;
use transport::oneshot::OneshotSender;
use transport::ring::{RingReceiver, RingSender};
use unified_cc::{ConfluentOp, QmEvent, QmSink, QueueManager};

use crate::clock::CommitClock;
use crate::detector::Detector;
use crate::registry::Registry;
use crate::stats::RuntimeStats;

/// Commands a shard processes.
// The variant size gap is deliberate: request batches travel inline so no
// heap allocation crosses the client→shard boundary, and they are nearly
// all of the traffic.
#[allow(clippy::large_enum_variant)]
pub(crate) enum ShardCmd {
    /// Apply a transaction's messages for this shard in order; `origin`
    /// is the issuing site (used for precedence tie-breaking). Built by
    /// the client-side send batcher. Small batches live inline in the
    /// command itself — no heap allocation crosses the thread boundary.
    HandleBatch {
        origin: SiteId,
        msgs: SmallBatch<RequestMsg>,
    },
    /// Apply an invariant-confluent transaction through the queue
    /// manager's coordination-avoidance bypass: one command, no grants,
    /// no queue transitions. The shard answers through `reply` —
    /// `Some(reads)` when applied, `None` when the queue manager refused
    /// (a touched slot had coordinated work in flight) and the client
    /// must fall back to the coordinated path.
    ApplyConfluent {
        origin: SiteId,
        txn: TxnId,
        ops: SmallBatch<ConfluentOp>,
        check: bool,
        reply: OneshotSender<Option<Vec<(PhysicalItemId, Value)>>>,
    },
    /// Serve a read-only transaction from the item version chains at
    /// timestamp `ts` (the global read watermark the client loaded): no
    /// grants, no queue transitions, no wait edges. The shard answers
    /// `Some(values)` when every item had a version at `ts`, `None` when
    /// any chain was pruned past it (or the item is unknown here) and the
    /// client must fall back to the coordinated path. Served reads enter
    /// the execution log stamped with the version they observed so the
    /// serializability oracle can order them against writers.
    SnapshotRead {
        txn: TxnId,
        ts: Timestamp,
        items: SmallBatch<PhysicalItemId>,
        reply: OneshotSender<Option<Vec<(PhysicalItemId, Value)>>>,
    },
    /// Injected node fault: go unresponsive for `outage` — the core is
    /// down, so the inbox backs up, exerting real backpressure on clients
    /// — then come back having lost all *ungranted* queue entries: the
    /// partial-amnesia crash model. Granted entries, held locks, item
    /// values and timestamps survive (they model state re-read from the
    /// durable log tap on restart); waiters that had not been granted are
    /// simply gone and their clients recover through the timeout/restart
    /// machinery.
    Crash { outage: Duration },
    /// Report the transactions currently queued and not granted
    /// (diagnostics).
    Waiting(OneshotSender<Vec<TxnId>>),
    /// Report a copy of the shard's execution-log slice (live log tap),
    /// every record still in the core's buffer folded in first.
    LogSnapshot(OneshotSender<LogSet>),
    /// Wake the keeper so it folds the core's log buffer into the shard's
    /// log — sent by a caller whose inline run filled the buffer half
    /// way, or that caught an engine panic. Carries nothing: every tenure
    /// folds.
    FoldLog,
    /// Drain everything already enqueued, then close the shard; the
    /// keeper returns its final log slice.
    Shutdown,
}

/// How long a submit that asks to wait keeps retrying a held core before
/// it hands its command to the holder — the same bound as the reply spin
/// ([`transport::SPIN_WAIT`]), and sized the same way: against the ~1 µs
/// another caller's inline run holds the core, a wait that outlasts a
/// thread hop (≈ 6.5 µs on a 2-core x86-64 VM) can only lose.
pub(crate) const CORE_WAIT: Duration = transport::SPIN_WAIT;

#[cfg(test)]
thread_local! {
    /// The core-wait bound of submits made on this thread. Tests that
    /// force a waiter/holder interleaving raise it, so their outcome does
    /// not depend on the holder staying on a CPU through 8 µs.
    pub(crate) static CORE_WAIT_BOUND: std::cell::Cell<Duration> =
        const { std::cell::Cell::new(CORE_WAIT) };
}

/// Commands one hand-off pass takes at most, in a buffer allocated once,
/// in the core.
const PASS_CMDS: usize = 64;

/// Records the core's log buffer holds, allocated once at build (twice:
/// the keeper keeps a spare to swap in). A caller nudges the keeper at
/// half full and stops running inline when its command might not fit.
const LOG_BUF_RECORDS: usize = 2048;

/// One implemented operation on its way to the keeper's [`LogSet`].
struct LogRecord {
    item: PhysicalItemId,
    txn: TxnId,
    access: AccessMode,
    commit_ts: Option<Timestamp>,
    snapshot: bool,
}

fn fold_log(logs: &mut LogSet, records: &mut Vec<LogRecord>) {
    for r in records.drain(..) {
        logs.record_full(r.item, r.txn, r.access, r.commit_ts, r.snapshot);
    }
}

impl ShardCmd {
    /// The commands a caller may run on its own thread — the protocol
    /// commands; the rest belong to the keeper (they end an outage, exit,
    /// or read its log).
    fn runs_inline(&self) -> bool {
        matches!(
            self,
            ShardCmd::HandleBatch { .. }
                | ShardCmd::ApplyConfluent { .. }
                | ShardCmd::SnapshotRead { .. }
        )
    }

    /// The transaction a protocol command speaks for (a batch carries
    /// one transaction's messages); `None` for everything else.
    fn txn(&self) -> Option<TxnId> {
        match self {
            ShardCmd::HandleBatch { msgs, .. } => msgs.iter().next().map(RequestMsg::txn),
            ShardCmd::ApplyConfluent { txn, .. } | ShardCmd::SnapshotRead { txn, .. } => Some(*txn),
            _ => None,
        }
    }

    /// Upper bound on the log records applying this command appends: a
    /// `Release` / `Demote` implements at most its own operation, a
    /// one-shot command at most one per op.
    fn log_demand(&self) -> usize {
        match self {
            ShardCmd::HandleBatch { msgs, .. } => msgs.len(),
            ShardCmd::ApplyConfluent { ops, .. } => ops.len(),
            ShardCmd::SnapshotRead { items, .. } => items.len(),
            // A crash only ever drops queue entries.
            _ => 0,
        }
    }
}

/// A shard's whole mutable state, owned by whoever holds its lock: the
/// keeper in one of its tenures, or a client running its own command
/// inline (see the module docs).
pub(crate) struct ShardCore {
    pub(crate) qm: QueueManager,
    /// The reusable engine sink: replies accumulate here across a whole
    /// lock tenure and are flushed straight to the registry (no
    /// intermediate per-message `QmOutput`); events are folded into the
    /// stats and the log buffer after each protocol command.
    sink: QmSink,
    /// Retained grouping scratch for the reply flushes: the flush path
    /// pays no allocation per tenure.
    reply_groups: Vec<(TxnId, SmallBatch<ReplyMsg>)>,
    /// Retained scratch for a snapshot read's served `(item, value,
    /// stamp)` triples: the answer is allocated once, as it is sent.
    snap_served: Vec<(PhysicalItemId, Value, Timestamp)>,
    /// The commands of a hand-off pass ([`ShardCore::run_pass`]), taken
    /// off the inbox into a buffer allocated once: a hand-off allocates
    /// nothing.
    pass: Vec<ShardCmd>,
    /// Implemented operations not yet folded into the keeper's `LogSet`,
    /// in processing order.
    log_buf: Vec<LogRecord>,
    /// A `FoldLog` nudge is on its way; cleared when the keeper swaps.
    nudged: bool,
    /// Set once, under the lock: by the keeper in the shard's last
    /// tenure, or by a thread whose run of a command panicked. `submit`
    /// fails from then on.
    closed: bool,
    /// The payload of an engine panic caught while running a command, for
    /// the keeper to report as the shard's end.
    panic: Option<Box<dyn Any + Send>>,
    /// The end of a `Crash` outage: while set, the core is down and every
    /// client path treats it as held. Only the keeper clears it.
    down_until: Option<Instant>,
    /// This tenure announced an edge that may have closed a wait cycle:
    /// a client that holds the core wakes the keeper once it lets go (see
    /// `let_go`); the keeper takes its detection turn anyway.
    scan_wanted: bool,
    registry: Arc<Registry>,
    stats: Arc<RuntimeStats>,
    /// The flight recorder; commands record into lane `idx` whichever
    /// thread runs them. Events are aggregated per engine call (one
    /// `Granted` per fold) and per tenure (one `ShardRecv`), all sharing
    /// one clock read, so the traced path stays allocation-free and
    /// branch-cheap.
    plane: Arc<TracePlane>,
    /// The tenure's one clock read, taken by [`ShardCore::enter`] (0 with
    /// the plane off): every event the tenure records carries it.
    tenure_ts: u64,
    /// The global commit clock: fast-path writes draw/retire their stamp
    /// here (shard-side — the apply is the whole commit), and each
    /// tenure republishes the read watermark into the queue manager so
    /// version-chain pruning tracks it.
    clock: Arc<CommitClock>,
    idx: usize,
}

/// Run `work` on the core. The engine's invariants are asserts: contain a
/// failing one so that it takes the shard down, not the thread that
/// happened to run it — a client, or the keeper, which serves every
/// other shard too.
fn run_contained(core: &mut ShardCore, work: impl FnOnce(&mut ShardCore)) {
    if let Err(panic) = catch_unwind(AssertUnwindSafe(|| work(&mut *core))) {
        core.closed = true;
        core.panic = Some(panic);
    }
}

impl ShardCore {
    fn count_msg(&self, msg: &RequestMsg) {
        if matches!(msg, RequestMsg::Abort { .. }) {
            self.stats.per_shard[self.idx]
                .aborts
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    fn log_room(&self, cmd: &ShardCmd) -> bool {
        self.log_buf.len() + cmd.log_demand() <= self.log_buf.capacity()
    }

    fn count_implemented(&self, ops: u64) {
        self.stats.per_shard[self.idx]
            .implemented
            .fetch_add(ops, Ordering::Relaxed);
    }

    /// Is a `Crash` outage in progress?
    pub(crate) fn is_down(&self) -> bool {
        self.down_until.is_some()
    }

    /// Abort `txns`' residual state on this shard (the sweep's cleanup of
    /// transactions registered nowhere) as one tenure: the grants it
    /// frees are flushed before the core is let go.
    pub(crate) fn cleanup(&mut self, txns: &[TxnId]) {
        self.enter(&[]);
        run_contained(self, |core| {
            let cleaned = txns
                .iter()
                .map(|&txn| core.qm.cleanup_txn(txn, &mut core.sink));
            let cleaned: u64 = cleaned.sum();
            core.fold_events();
            core.stats
                .cleanup_aborts
                .fetch_add(cleaned, Ordering::Relaxed);
        });
        self.flush_replies(None);
    }

    /// Drain the events the last engine call pushed into the sink. Runs
    /// after *every* protocol command — a `LogSnapshot` later in the same
    /// drained batch must observe the operations implemented before it.
    /// Replies stay in the sink until the tenure's flush.
    fn fold_events(&mut self) {
        let counters = &self.stats.per_shard[self.idx];
        let mut granted = 0u32;
        let mut last_granted = 0u64;
        let mut implemented = 0u64;
        for event in self.sink.events.drain(..) {
            match event {
                QmEvent::GrantIssued { txn, class, .. } => {
                    counters.grants.fetch_add(1, Ordering::Relaxed);
                    if class == GrantClass::PreScheduled {
                        counters.prescheduled.fetch_add(1, Ordering::Relaxed);
                    }
                    granted += 1;
                    last_granted = txn.0;
                }
                QmEvent::Implemented {
                    item,
                    txn,
                    access,
                    commit_ts,
                } => {
                    self.log_buf.push(LogRecord {
                        item,
                        txn,
                        access,
                        commit_ts,
                        snapshot: false,
                    });
                    implemented += 1;
                }
                // The announce rule (module docs): the one branch a
                // transaction that blocks nobody never takes.
                QmEvent::WaitEdge { waiter, holder } => {
                    self.stats.deadlock_probes.fetch_add(1, Ordering::Relaxed);
                    self.scan_wanted |= self.registry.note_wait(waiter, holder);
                }
            }
        }
        if implemented > 0 {
            self.count_implemented(implemented);
        }
        let dups = self.qm.take_dup_suppressed();
        if dups > 0 {
            self.stats.dup_suppressed.fetch_add(dups, Ordering::Relaxed);
        }
        // One aggregated trace event per engine call, at the tenure's
        // entry stamp: a fold costs one ring write and no clock read. A
        // keeper tenure over a drained batch thus stamps every
        // `Granted` with the time it entered the core, not the time its
        // command ran.
        if granted > 0 {
            self.plane.record_at(
                self.idx,
                self.tenure_ts,
                last_granted,
                Phase::Granted,
                granted,
            );
        }
    }

    /// The only place a protocol command is executed, whichever thread
    /// holds the core.
    fn apply_cmd(&mut self, cmd: ShardCmd) {
        match cmd {
            ShardCmd::HandleBatch { origin, msgs } => {
                for msg in msgs.iter() {
                    self.count_msg(msg);
                }
                self.qm.handle_batch(origin, msgs.iter(), &mut self.sink);
                self.fold_events();
            }
            ShardCmd::ApplyConfluent {
                origin,
                txn,
                ops,
                check,
                reply,
            } => {
                // A writing fast-path transaction commits inside this one
                // command, so its stamp is drawn and retired right here:
                // the draw happens before any install (a concurrent
                // watermark load either precedes it — and cannot serve
                // the new versions — or sees it in flight and stays
                // below), and the retire happens only after every install
                // has entered the log buffer.
                let writes = ops.iter().any(|op| !matches!(op, ConfluentOp::Read(_)));
                let cts = if writes {
                    self.clock.draw()
                } else {
                    Timestamp::ZERO
                };
                let result =
                    self.qm
                        .apply_confluent(origin, txn, ops.iter(), check, cts, &mut self.sink);
                // Implemented events must land in the log in the core's
                // processing order, like every protocol command.
                self.fold_events();
                if writes {
                    self.clock.retire(cts);
                }
                reply.send(result)
            }
            ShardCmd::SnapshotRead {
                txn,
                ts,
                items,
                reply,
            } => {
                let served = &mut self.snap_served;
                if self.qm.snapshot_read_into(ts, items.iter(), served) {
                    // Logged at the stamp of the version actually served
                    // — the oracle orders the read against writers by it,
                    // not by log position.
                    self.log_buf
                        .extend(served.iter().map(|&(item, _, stamp)| LogRecord {
                            item,
                            txn,
                            access: AccessMode::Read,
                            commit_ts: Some(stamp),
                            snapshot: true,
                        }));
                    let answer: Vec<_> = served
                        .drain(..)
                        .map(|(item, value, _)| (item, value))
                        .collect();
                    self.count_implemented(answer.len() as u64);
                    reply.send(Some(answer))
                } else {
                    reply.send(None)
                }
            }
            // Unresponsive for the outage: the core is down, so callers
            // hand their commands to the inbox and it backs up; the keeper
            // runs nothing more here until it recovers the shard.
            ShardCmd::Crash { outage } => self.down_until = Some(Instant::now() + outage),
            ShardCmd::Waiting(reply_to) => {
                let mut waiting = Vec::new();
                self.qm.waiting_txns_into(&mut waiting);
                reply_to.send(waiting)
            }
            ShardCmd::LogSnapshot(_) | ShardCmd::FoldLog | ShardCmd::Shutdown => {
                unreachable!("the keeper keeps the log and consumes these itself")
            }
        }
    }

    /// Open a tenure over `cmds`: the tenure's one clock read, one
    /// `ShardRecv` on the shard's lane at it — the trace plane sees when
    /// the core was entered and how many protocol commands the entry
    /// amortised — and a fresh read watermark for version-chain pruning
    /// (pruning against a stale, lower watermark only retains more
    /// versions, never fewer, so tenure granularity is always safe).
    fn enter(&mut self, cmds: &[ShardCmd]) {
        self.tenure_ts = self.plane.now();
        trace_batch(&self.plane, self.idx, self.tenure_ts, cmds);
        self.qm.set_watermark(self.clock.watermark());
    }

    /// Flush the tenure's replies, in processing order, straight from the
    /// engine sink: one registry pass covers every reply the tenure
    /// produced, and — measured on a loaded single-CPU box — waking
    /// waiters mid-batch lets them preempt the holder and roughly halves
    /// throughput. `own` is the transaction of a caller running inline:
    /// it is the only thread that can drain its mailbox, so its delivery
    /// never waits on a full one.
    fn flush_replies(&mut self, own: Option<TxnId>) {
        if !self.sink.replies.is_empty() {
            self.registry.deliver_all_with(
                self.sink.replies.drain(..),
                &mut self.reply_groups,
                own,
            );
        }
    }

    /// One caller-runs tenure: exactly what the keeper does for a drained
    /// batch of one.
    fn run_inline(&mut self, cmd: ShardCmd) {
        let own = cmd.txn();
        self.enter(std::slice::from_ref(&cmd));
        self.apply_cmd(cmd);
        self.flush_replies(own);
    }

    /// One hand-off pass: take the prefix of the inbox a caller may run —
    /// protocol commands, while the log buffer has room for their records,
    /// at most [`PASS_CMDS`] — as it stands now, and run it as one tenure,
    /// in inbox order, exactly as the keeper runs a drained batch.
    /// `own` is the running thread's transaction (see
    /// [`ShardCore::flush_replies`]). Returns how many commands ran.
    fn run_pass(&mut self, ring: &RingSender<ShardCmd>, own: Option<TxnId>) -> u64 {
        let mut cmds = std::mem::take(&mut self.pass);
        let mut room = self.log_buf.capacity().saturating_sub(self.log_buf.len());
        let runnable = |cmd: &ShardCmd| {
            let demand = cmd.log_demand();
            let fits = cmd.runs_inline() && demand <= room;
            if fits {
                room -= demand;
            }
            fits
        };
        let taken = ring.take_while(PASS_CMDS, runnable, &mut cmds);
        if taken > 0 {
            self.enter(&cmds);
            for cmd in cmds.drain(..) {
                self.apply_cmd(cmd);
            }
            self.flush_replies(own);
        }
        self.pass = cmds;
        taken as u64
    }
}

/// A shard's core held by a client — one running its own command, or a
/// hand-off pass — and the one way such a thread lets go of it. Dropping
/// it unlocks, sends the wake-ups the tenure owes, and then makes the
/// hand-off check (see the module docs): a tenure that has not run a pass
/// yet runs one if the inbox holds commands, and one that has wakes the
/// keeper for whatever is left.
pub(crate) struct CoreGuard<'a> {
    core: Option<MutexGuard<'a, ShardCore>>,
    shard: &'a ShardSender,
    /// The holding thread's own transaction, if it is a client's.
    own: Option<TxnId>,
    /// This tenure ran its pass.
    passed: bool,
}

impl Deref for CoreGuard<'_> {
    type Target = ShardCore;

    fn deref(&self) -> &ShardCore {
        self.core.as_ref().expect("held until let go")
    }
}

impl DerefMut for CoreGuard<'_> {
    fn deref_mut(&mut self) -> &mut ShardCore {
        self.core.as_mut().expect("held until let go")
    }
}

impl CoreGuard<'_> {
    /// Run this tenure's one hand-off pass, counted per shard.
    fn pass(&mut self) {
        self.passed = true;
        let (shard, own) = (self.shard, self.own);
        let mut ran = 0;
        run_contained(self, |core| ran = core.run_pass(&shard.ring, own));
        if ran > 0 {
            self.shard.stats.per_shard[self.shard.idx]
                .combined
                .fetch_add(ran, Ordering::Relaxed);
        }
    }

    /// Let go without the hand-off check, for a caller that hands a
    /// command over next: its own push-fence-try makes the check. False
    /// when the core is closed.
    fn unlock(mut self) -> bool {
        let core = self.core.take().expect("held until let go");
        self.shard.let_go(core)
    }
}

impl Drop for CoreGuard<'_> {
    fn drop(&mut self) {
        let Some(core) = self.core.take() else {
            return;
        };
        if !self.shard.let_go(core) {
            return;
        }
        if !self.passed {
            // Its `Err` only says the core turned out closed: there is
            // nobody to answer to.
            let _ = self.shard.hand_off(self.own);
            return;
        }
        fence(Ordering::SeqCst);
        if !self.shard.ring.is_idle() {
            self.shard.ring.wake_consumer();
        }
    }
}

/// The error of both entries of a [`ShardSender`]: the shard is gone (shut down, or
/// dead of an engine panic) and the command with it.
#[derive(Debug)]
pub(crate) struct ShardGone;

/// The clone-able handle for handing commands to a shard.
#[derive(Clone)]
pub(crate) struct ShardSender {
    ring: RingSender<ShardCmd>,
    core: Arc<Mutex<ShardCore>>,
    stats: Arc<RuntimeStats>,
    idx: usize,
}

/// The consuming end of a shard's inbox.
pub(crate) type ShardInbox = RingReceiver<ShardCmd>;

impl ShardSender {
    /// Enqueue at the shard's inbox for the keeper; blocks while the
    /// inbox is full and fails once the shard is gone.
    pub(crate) fn send(&self, cmd: ShardCmd) -> Result<(), ShardGone> {
        self.ring.send(cmd).map_err(|_| ShardGone)
    }

    /// Hand over a protocol command the cheapest way that keeps per-shard
    /// FIFO: run it on this thread if the core is free, the inbox idle
    /// and the log buffer roomy (see the module docs); else hand it to
    /// the inbox for whoever holds the core next. With `wait`, a core
    /// found held is retried for up to [`CORE_WAIT`] first; without, it
    /// is tried once. The caller decides (the module docs say who asks and
    /// why). Nothing here ever blocks in `lock()`. Every decision is
    /// counted per shard. `Ok(true)` when the command ran inline, its
    /// answer already delivered; `Ok(false)` when it was enqueued (and
    /// maybe run since, by this thread's own pass).
    pub(crate) fn submit(&self, cmd: ShardCmd, wait: bool) -> Result<bool, ShardGone> {
        if !cmd.runs_inline() {
            return self.send(cmd).map(|()| false);
        }
        let counters = &self.stats.per_shard[self.idx];
        let own = cmd.txn();
        let handed = match self.try_core(wait) {
            Ok((core, waited)) => {
                let mut core = self.guard(core, own);
                if core.closed {
                    return Err(ShardGone);
                }
                let idle = self.ring.is_idle();
                if idle && core.log_room(&cmd) {
                    counters.inline.fetch_add(1, Ordering::Relaxed);
                    if waited {
                        counters.inline_waited.fetch_add(1, Ordering::Relaxed);
                    }
                    run_contained(&mut core, |core| core.run_inline(cmd));
                    let died = core.closed;
                    drop(core);
                    return if died { Err(ShardGone) } else { Ok(true) };
                }
                if !core.unlock() {
                    return Err(ShardGone);
                }
                if idle {
                    // No log room: the keeper must fold first, so wake it.
                    counters.enqueued_log_full.fetch_add(1, Ordering::Relaxed);
                    return self.send(cmd).map(|()| false);
                }
                // Behind a backlog: join its tail and hand it all over.
                &counters.enqueued_backlog
            }
            // Held or down (past the wait, if it waited). A dead shard's
            // inbox is gone, and the push below fails.
            Err(waited) => {
                if waited {
                    counters.wait_expired.fetch_add(1, Ordering::Relaxed);
                }
                &counters.enqueued_busy
            }
        };
        handed.fetch_add(1, Ordering::Relaxed);
        self.ring.send_quiet(cmd).map_err(|_| ShardGone)?;
        self.hand_off(own).map(|()| false)
    }

    /// The hand-off check, made after a quiet push and by every
    /// [`CoreGuard`] as it lets go: fence, and if the inbox holds
    /// commands, try the core once; won, run one pass. A core still held
    /// is left to its holder, which makes this same check as it lets go,
    /// and a down one to the keeper — the module docs say why nothing is
    /// stranded. `Err` when the core turns out closed.
    fn hand_off(&self, own: Option<TxnId>) -> Result<(), ShardGone> {
        fence(Ordering::SeqCst);
        if self.ring.is_idle() {
            return Ok(());
        }
        let Some(core) = self.try_up() else {
            return Ok(());
        };
        let mut core = self.guard(core, own);
        if core.closed {
            return Err(ShardGone);
        }
        core.pass();
        if core.closed {
            Err(ShardGone)
        } else {
            Ok(())
        }
    }

    fn guard<'a>(&'a self, core: MutexGuard<'a, ShardCore>, own: Option<TxnId>) -> CoreGuard<'a> {
        CoreGuard {
            core: Some(core),
            shard: self,
            own,
            passed: false,
        }
    }

    /// Unlock `core` at the end of a client tenure and send the wake-ups
    /// it owes the keeper: for a scan an announced edge asked for, to fold
    /// a half-full log buffer, or to end the shard of a panic the tenure
    /// caught. False when the core is closed.
    fn let_go(&self, mut core: MutexGuard<'_, ShardCore>) -> bool {
        let nudge = !core.nudged && core.log_buf.len() >= LOG_BUF_RECORDS / 2;
        core.nudged |= nudge;
        let scan = std::mem::take(&mut core.scan_wanted);
        let (open, panicked) = (!core.closed, core.panic.is_some());
        drop(core);
        if scan {
            self.ring.wake_consumer();
        }
        if nudge {
            self.stats.per_shard[self.idx]
                .log_fold_nudges
                .fetch_add(1, Ordering::Relaxed);
        }
        if nudge || panicked {
            // A full ring has the keeper woken by the next push that
            // finds it full.
            let _ = self.ring.try_send(ShardCmd::FoldLog);
        }
        open
    }

    /// The core as a client may take it: `None` when it is held, down or
    /// poisoned.
    fn try_up(&self) -> Option<MutexGuard<'_, ShardCore>> {
        self.core.try_lock().ok().filter(|core| !core.is_down())
    }

    /// Try-lock the core, and say whether that took a wait: with `wait`,
    /// a core held or down is retried under `spin_loop` until
    /// [`CORE_WAIT`] has passed; without, it is tried once. `Err` when
    /// the core stayed unavailable, carrying the same flag.
    fn try_core(&self, wait: bool) -> Result<(MutexGuard<'_, ShardCore>, bool), bool> {
        if let Some(core) = self.try_up() {
            return Ok((core, false));
        }
        if !wait {
            return Err(false);
        }
        #[cfg(test)]
        self.stats.per_shard[self.idx]
            .core_waits
            .fetch_add(1, Ordering::Relaxed);
        #[cfg(not(test))]
        let bound = CORE_WAIT;
        #[cfg(test)]
        let bound = CORE_WAIT_BOUND.get();
        let mut won = None;
        transport::spin_until(bound, || {
            won = self.try_up();
            won.is_some()
        });
        won.map(|core| (core, true)).ok_or(true)
    }

    /// The inbox ring's queue-dwell meter (see
    /// [`RingSender::queue_dwell`]); inline runs never enter the ring and
    /// are not in it.
    pub(crate) fn queue_dwell(&self) -> (u64, u64) {
        self.ring.queue_dwell()
    }
}

/// Build the core for `qm`'s site and the handle that feeds it through
/// `tx`; the keeper gets the consuming end of that ring. `idx` is the
/// shard's slot in the runtime's per-shard counter table.
pub(crate) fn build(
    qm: QueueManager,
    idx: usize,
    tx: RingSender<ShardCmd>,
    registry: Arc<Registry>,
    stats: Arc<RuntimeStats>,
    plane: Arc<TracePlane>,
    clock: Arc<CommitClock>,
) -> ShardSender {
    let core = Arc::new(Mutex::new(ShardCore {
        qm,
        // Pre-size to a pass's depth so the first batches skip the
        // sink's warm-up growth.
        sink: QmSink::with_capacity(64, 64),
        reply_groups: Vec::with_capacity(16),
        snap_served: Vec::with_capacity(16),
        pass: Vec::with_capacity(PASS_CMDS),
        log_buf: Vec::with_capacity(LOG_BUF_RECORDS),
        nudged: false,
        closed: false,
        panic: None,
        down_until: None,
        scan_wanted: false,
        registry,
        stats: Arc::clone(&stats),
        plane,
        tenure_ts: 0,
        clock,
        idx,
    }));
    ShardSender {
        ring: tx,
        core,
        stats,
        idx,
    }
}

/// Record one `ShardRecv` per tenure, at `ts` (see [`ShardCore::enter`]).
fn trace_batch(plane: &TracePlane, lane: usize, ts: u64, buf: &[ShardCmd]) {
    if plane.level() == TraceLevel::Off {
        return;
    }
    let mut txn = 0u64;
    let mut protocol_cmds = 0u32;
    for first in buf.iter().filter_map(ShardCmd::txn) {
        if protocol_cmds == 0 {
            txn = first.0;
        }
        protocol_cmds += 1;
    }
    if protocol_cmds > 0 {
        plane.record_at(lane, ts, txn, Phase::ShardRecv, protocol_cmds);
    }
}

/// The keeper's join handle: every shard's final log slice, in shard
/// order, or the engine panic the shard died of.
pub(crate) type KeeperJoin = JoinHandle<Vec<thread::Result<LogSet>>>;

/// Start the keeper over `shards` — each shard's handle and the consuming
/// end of its inbox. It serves them until every one is closed, and gives
/// `detector` a turn every round until `stopped` is raised.
pub(crate) fn spawn_keeper(
    shards: Vec<(&ShardSender, ShardInbox)>,
    detector: Detector,
    stopped: Arc<AtomicBool>,
) -> KeeperJoin {
    let kept = shards
        .into_iter()
        .map(|(shard, inbox)| Kept {
            core: Arc::clone(&shard.core),
            inbox: Some(inbox),
            logs: LogSet::new(),
            spare: Vec::with_capacity(LOG_BUF_RECORDS),
            pending: VecDeque::new(),
            down_until: None,
            exiting: false,
        })
        .collect();
    thread::Builder::new()
        .name("cc-keeper".into())
        .spawn(move || keep(kept, detector, &stopped))
        .expect("failed to spawn the keeper")
}

/// What the keeper holds of one shard.
struct Kept {
    core: Arc<Mutex<ShardCore>>,
    /// The consuming end of the inbox; dropped once the shard is closed,
    /// which fails every further send.
    inbox: Option<ShardInbox>,
    /// The shard's slice of the execution log.
    logs: LogSet,
    /// The log buffer swapped into the core at every tenure.
    spare: Vec<LogRecord>,
    /// Commands taken off the inbox and not yet applied: the rest of a
    /// drained batch behind a `Crash` waits here for the outage to end.
    pending: VecDeque<ShardCmd>,
    /// The end of the shard's outage: the core's mark, as the keeper set
    /// it.
    down_until: Option<Instant>,
    /// A `Shutdown` was taken, or every sender is gone: drain and close.
    exiting: bool,
}

/// The keeper's loop (see the module docs): rounds of tenures and
/// detection turns while there is work, then the park protocol.
fn keep(
    mut kept: Vec<Kept>,
    mut detector: Detector,
    stopped: &AtomicBool,
) -> Vec<thread::Result<LogSet>> {
    let cores: Vec<_> = kept.iter().map(|shard| Arc::clone(&shard.core)).collect();
    while kept.iter().any(|shard| shard.inbox.is_some()) {
        let detecting = !stopped.load(Ordering::Relaxed);
        if serve_all(&mut kept) | (detecting && detector.turn(&cores)) {
            continue;
        }
        // Park: register on every ring, fence, and retry the core of every
        // non-idle one — and look at the scan request, which a releaser
        // announces through its shard's ring. A ring whose senders are all
        // gone closes its shard.
        for shard in &mut kept {
            if let Some(inbox) = &shard.inbox {
                shard.exiting |= inbox.register().is_err();
            }
        }
        fence(Ordering::SeqCst);
        if serve_all(&mut kept) || detecting && detector.registry.scan_requested() {
            continue;
        }
        let tick = detecting.then_some(detector.next_tick);
        let outages = kept.iter().filter_map(|shard| shard.down_until);
        match outages.chain(tick).min() {
            Some(at) => thread::park_timeout(at.saturating_duration_since(Instant::now())),
            None => thread::park(),
        }
    }
    kept.into_iter()
        .map(|shard| {
            let panic = shard.core.lock().map(|mut core| core.panic.take());
            panic.ok().flatten().map_or(Ok(shard.logs), Err)
        })
        .collect()
}

/// One round over the shards: a tenure for each that has work and whose
/// core is free. Whether any ran.
fn serve_all(kept: &mut [Kept]) -> bool {
    let now = Instant::now();
    kept.iter_mut()
        .fold(false, |served, shard| shard.serve(now) | served)
}

impl Kept {
    /// One keeper tenure over this shard, if it has work. One sweep of the
    /// inbox — or, once `Shutdown` was taken, as many as it takes to empty
    /// it (commands racing with the shutdown included), so no committed
    /// write is dropped from the log — applied in order; a `Crash` ends
    /// the sweep, and what follows it waits in `pending` to run first once
    /// the outage is over. Then the log buffer is swapped under the lock
    /// and folded outside it. False when there was nothing to do, the
    /// shard is down, or its core is held — by a client, whose release
    /// makes the hand-off check.
    fn serve(&mut self, now: Instant) -> bool {
        let Some(inbox) = &mut self.inbox else {
            return false;
        };
        if self.down_until.is_some_and(|end| now < end) {
            return false;
        }
        let mut recover = self.down_until.is_some();
        if !recover && !self.exiting && self.pending.is_empty() && inbox.is_idle() {
            return false;
        }
        let Ok(mut core) = self.core.try_lock() else {
            return false;
        };
        let (pending, logs, exiting) = (&mut self.pending, &mut self.logs, &mut self.exiting);
        if core.panic.is_none() {
            run_contained(&mut core, |core| loop {
                inbox.drain_into(pending);
                core.enter(pending.make_contiguous());
                if std::mem::take(&mut recover) {
                    // The outage is over: partial amnesia — the ungranted
                    // tail of every queue is wiped. Lock removal may
                    // re-grant survivors; those grants flow out like any
                    // other replies/events.
                    core.down_until = None;
                    core.qm.crash_recover(&mut core.sink);
                    core.fold_events();
                    core.stats.shard_crashes.fetch_add(1, Ordering::Relaxed);
                }
                while !core.is_down() {
                    let Some(cmd) = pending.pop_front() else {
                        break;
                    };
                    match cmd {
                        ShardCmd::LogSnapshot(reply_to) => {
                            fold_log(logs, &mut core.log_buf);
                            reply_to.send(logs.clone())
                        }
                        // The wake-up was the point: every tenure folds.
                        ShardCmd::FoldLog => {}
                        ShardCmd::Shutdown => *exiting = true,
                        cmd => {
                            if !core.log_room(&cmd) {
                                fold_log(logs, &mut core.log_buf);
                            }
                            core.apply_cmd(cmd)
                        }
                    }
                }
                core.flush_replies(None);
                if !*exiting || core.is_down() || inbox.is_idle() {
                    break;
                }
            });
        }
        // Closing in the tenure of the last sweep: nothing runs inline
        // after it, so the records swapped out below are the last.
        let closing = self.exiting && !core.is_down() || core.panic.is_some();
        core.closed |= closing;
        std::mem::swap(&mut core.log_buf, &mut self.spare);
        core.nudged = false;
        // This round's detection turn reads the request itself.
        core.scan_wanted = false;
        self.down_until = core.down_until;
        drop(core);
        fold_log(&mut self.logs, &mut self.spare);
        if closing {
            // A dead shard's commands go with its inbox, their answers
            // with them.
            self.inbox = None;
            self.pending.clear();
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ClientMailbox;
    use crate::stats::ShardCounterSnapshot;
    use dbmodel::{
        AccessMode, CcMethod, LogicalItemId, PhysicalItemId, Timestamp, TsTuple, TxnId, Value,
    };
    use std::panic::resume_unwind;
    use std::time::Duration;
    use unified_cc::EnforcementMode;

    /// Test access to a shard's core and ring from outside this module.
    impl ShardSender {
        /// Take the core, blocking, the way a client holds it: letting go
        /// makes the hand-off check.
        pub(crate) fn hold_core(&self) -> CoreGuard<'_> {
            self.guard(self.core.lock().unwrap(), None)
        }

        /// Has the shard taken everything enqueued so far?
        pub(crate) fn ring_is_idle(&self) -> bool {
            self.ring.is_idle()
        }

        /// The shard's core, as the detector reads it.
        pub(crate) fn core(&self) -> Arc<Mutex<ShardCore>> {
            Arc::clone(&self.core)
        }
    }

    /// The item of shard 0, the only shard of most tests.
    fn item() -> PhysicalItemId {
        item_at(0)
    }

    /// The one item of the shard at `site`.
    fn item_at(site: u32) -> PhysicalItemId {
        PhysicalItemId::new(LogicalItemId(1), SiteId(site))
    }

    /// A queue manager for `site` holding its one item.
    fn qm_at(site: u32) -> QueueManager {
        let mut qm = QueueManager::new(SiteId(site));
        qm.add_item(item_at(site), 42, EnforcementMode::SemiLock);
        qm
    }

    /// Shards under one running keeper, `txs[i]` the handle of shard `i`.
    struct Running {
        txs: Vec<ShardSender>,
        keeper: KeeperJoin,
    }

    impl Running {
        /// Shard 0's handle.
        fn tx(&self) -> &ShardSender {
            &self.txs[0]
        }
    }

    /// Start a keeper over `shards`: each a queue manager, the sender its
    /// handle feeds, and the inbox the keeper consumes — the same ring's
    /// receiving end, or another ring's the test feeds by hand. The
    /// periodic detector tick is ten seconds away, so nothing but a send,
    /// a wake-up owed by a release, or its own registration moves it.
    fn start(
        shards: Vec<(QueueManager, RingSender<ShardCmd>, ShardInbox)>,
        registry: &Arc<Registry>,
        stats: &Arc<RuntimeStats>,
    ) -> Running {
        let plane = Arc::new(TracePlane::new(&trace::TraceConfig::default(), 1));
        let clock = Arc::new(CommitClock::new());
        let (txs, inboxes): (Vec<_>, Vec<_>) = shards
            .into_iter()
            .enumerate()
            .map(|(idx, (qm, tx, inbox))| {
                let registry = Arc::clone(registry);
                let shard = build(
                    qm,
                    idx,
                    tx,
                    registry,
                    Arc::clone(stats),
                    Arc::clone(&plane),
                    Arc::clone(&clock),
                );
                (shard, inbox)
            })
            .unzip();
        let detector = Detector::new(registry, stats, &plane, Duration::from_secs(10));
        let keeper = spawn_keeper(
            txs.iter().zip(inboxes).collect(),
            detector,
            Arc::new(AtomicBool::new(false)),
        );
        Running { txs, keeper }
    }

    /// `n` shards, shard `i` at site `i`, each fed through its own inbox.
    fn spawn_shards(n: u32) -> (Running, Arc<Registry>, Arc<RuntimeStats>) {
        let registry = Arc::new(Registry::new(64));
        let stats = Arc::new(RuntimeStats::with_shards(n as usize));
        let shards = (0..n)
            .map(|site| {
                let (tx, rx) = transport::ring::channel(16);
                (qm_at(site), tx, rx)
            })
            .collect();
        (start(shards, &registry, &stats), registry, stats)
    }

    fn spawn_one() -> (Running, Arc<Registry>, Arc<RuntimeStats>) {
        spawn_shards(1)
    }

    /// [`spawn_one`], but what is sent to the shard lands on a ring nobody
    /// drains, returned with a sender into the keeper's real inbox: until
    /// the test forwards commands, the keeper stays parked and never
    /// contends for the core.
    fn spawn_unfed() -> (Running, ShardInbox, RingSender<ShardCmd>) {
        let (tx, sent) = transport::ring::channel(16);
        let (inbox_tx, inbox) = transport::ring::channel(16);
        let registry = Arc::new(Registry::new(64));
        let stats = Arc::new(RuntimeStats::with_shards(1));
        let running = start(vec![(qm_at(0), tx, inbox)], &registry, &stats);
        (running, sent, inbox_tx)
    }

    /// Join the keeper once every shard is closed: shard 0's final slice.
    fn join(running: Running) -> LogSet {
        drop(running.txs);
        let mut slices = running.keeper.join().expect("the keeper contains panics");
        slices.swap_remove(0).expect("shard 0 lived")
    }

    fn expect_replies(mb: &mut ClientMailbox, txn: u64) {
        match mb.recv_timeout(txn, Duration::from_secs(2)) {
            Some(crate::registry::ClientEvent::Replies(_)) => {}
            other => panic!("expected replies, got {other:?}"),
        }
    }

    fn access(txn: u64, mode: AccessMode, ts: u64) -> RequestMsg {
        RequestMsg::Access {
            txn: TxnId(txn),
            item: item(),
            mode,
            method: CcMethod::TwoPhaseLocking,
            ts: TsTuple::new(Timestamp(ts), 10),
        }
    }

    fn release(txn: u64, value: Value) -> RequestMsg {
        RequestMsg::Release {
            txn: TxnId(txn),
            item: item(),
            write_value: Some(value),
            commit_ts: Timestamp::ZERO,
        }
    }

    fn batch<const N: usize>(msgs: [RequestMsg; N]) -> ShardCmd {
        ShardCmd::HandleBatch {
            origin: SiteId(0),
            msgs: msgs.into_iter().collect(),
        }
    }

    #[test]
    fn shard_grants_logs_and_shuts_down() {
        let (running, registry, stats) = spawn_one();
        let handle = running.tx();
        let mut mb = registry.client_mailbox().expect("mailbox");
        let t = registry.txn_id(1, mb.slot()).0;
        registry.register(TxnId(t), CcMethod::TwoPhaseLocking, &mut mb);
        assert!(handle
            .send(batch([access(t, AccessMode::Write, 1)]))
            .is_ok());
        // The grant is routed through the registry.
        expect_replies(&mut mb, t);
        assert!(handle.send(batch([release(t, 7)])).is_ok());
        let (log_tx, log_rx) = transport::oneshot::channel();
        assert!(handle.send(ShardCmd::LogSnapshot(log_tx)).is_ok());
        let logs = log_rx.recv().unwrap();
        assert_eq!(logs.total_ops(), 1);
        let logs = shutdown(running);
        assert_eq!(logs.log(item()).map(|log| log.entries().len()), Some(1));
        assert_eq!(logs.total_ops(), 1);
        let stats = stats.snapshot();
        assert_eq!((stats.grants, stats.implemented_ops), (1, 1));
        let shard0 = &stats.per_shard[0];
        assert_eq!(shard0.grants, 1);
        assert_eq!(shard0.implemented, 1);
        assert_eq!(shard0.prescheduled, 0, "uncontended grant is normal");
        assert_eq!(shard0.aborts, 0);
    }

    /// A database dropped without `shutdown` drops every shard's senders:
    /// the keeper drains and closes each shard and exits within a bound.
    #[test]
    fn shard_exits_when_all_senders_drop() {
        let (running, _registry, _stats) = spawn_shards(2);
        let Running { txs, keeper } = running;
        assert!(txs[1].send(write_on(item_at(1), 1)).is_ok());
        drop(txs);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !keeper.is_finished() {
            assert!(std::time::Instant::now() < deadline, "the keeper lives on");
            std::thread::sleep(Duration::from_millis(1));
        }
        let slices: Vec<LogSet> = keeper
            .join()
            .unwrap()
            .into_iter()
            .map(|slice| slice.unwrap())
            .collect();
        assert_eq!(slices[0].total_ops(), 0);
        assert_eq!(log_order_of(&slices[1], item_at(1)), [1], "drained first");
    }

    #[test]
    fn handle_batch_applies_messages_in_order() {
        let (running, registry, stats) = spawn_one();
        let mut mb = registry.client_mailbox().expect("mailbox");
        let t = registry.txn_id(1, mb.slot()).0;
        registry.register(TxnId(t), CcMethod::TwoPhaseLocking, &mut mb);
        assert!(running
            .tx()
            .send(batch([access(t, AccessMode::Write, 1), release(t, 9)]))
            .is_ok());
        expect_replies(&mut mb, t);
        let logs = shutdown(running);
        assert_eq!(logs.total_ops(), 1, "access then release implemented");
        assert_eq!(stats.snapshot().implemented_ops, 1);
    }

    /// A `Shutdown` ordered *ahead of* enqueued `HandleBatch` commands
    /// from other senders must not abandon them — the shard drains the
    /// inbox before closing. The inbox is pre-filled before the keeper
    /// even starts, so its first tenure drains one buffer shaped
    /// `[25 txns, Shutdown, 25 txns]`; a naive `break` on seeing
    /// `Shutdown` would drop every release behind it and lose committed
    /// writes from the final log.
    #[test]
    fn shutdown_drains_commands_enqueued_around_it() {
        const TXNS: u64 = 50;
        let registry = Arc::new(Registry::new(64));
        let stats = Arc::new(RuntimeStats::with_shards(1));
        let (tx, inbox) = transport::ring::channel(128);
        for t in 1..=TXNS {
            assert!(tx
                .try_send(batch([
                    access(t, AccessMode::Write, t),
                    release(t, t as Value)
                ]))
                .is_ok());
            if t == TXNS / 2 {
                // Another sender's shutdown lands mid-stream.
                assert!(tx.try_send(ShardCmd::Shutdown).is_ok());
            }
        }
        let logs = join(start(
            vec![(qm_at(0), tx.clone(), inbox)],
            &registry,
            &stats,
        ));
        assert_eq!(
            logs.total_ops(),
            TXNS as usize,
            "every enqueued release must be implemented"
        );
        assert_eq!(stats.snapshot().implemented_ops, TXNS);
    }

    /// The item's log as the sequence of transactions implemented on it.
    fn log_order(logs: &LogSet) -> Vec<u64> {
        log_order_of(logs, item())
    }

    fn log_order_of(logs: &LogSet, it: PhysicalItemId) -> Vec<u64> {
        logs.log(it)
            .map(|log| log.entries().iter().map(|e| e.txn.0).collect())
            .unwrap_or_default()
    }

    /// One whole write transaction as a single command.
    fn write_txn(t: u64) -> ShardCmd {
        write_on(item(), t)
    }

    /// [`write_txn`] on `it`.
    fn write_on(it: PhysicalItemId, t: u64) -> ShardCmd {
        let access = RequestMsg::Access {
            txn: TxnId(t),
            item: it,
            mode: AccessMode::Write,
            method: CcMethod::TwoPhaseLocking,
            ts: TsTuple::new(Timestamp(t), 10),
        };
        let release = RequestMsg::Release {
            txn: TxnId(t),
            item: it,
            write_value: Some(t as Value),
            commit_ts: Timestamp::ZERO,
        };
        batch([access, release])
    }

    /// A snapshot read of the item for `t` at stamp zero (the initial
    /// version, never pruned by the unstamped test writes). The answer is
    /// dropped: the tests read the log.
    fn snapshot_read(t: u64) -> ShardCmd {
        let (reply, _) = transport::oneshot::channel();
        ShardCmd::SnapshotRead {
            txn: TxnId(t),
            ts: Timestamp::ZERO,
            items: std::iter::once(item()).collect(),
            reply,
        }
    }

    /// A checked bypass add of 1 to the item for `t`.
    fn bypass_add(t: u64) -> ShardCmd {
        let (reply, _) = transport::oneshot::channel();
        ShardCmd::ApplyConfluent {
            origin: SiteId(0),
            txn: TxnId(t),
            ops: std::iter::once(ConfluentOp::Add(item(), 1)).collect(),
            check: true,
            reply,
        }
    }

    /// A command builder and the wait its caller asks `submit` for.
    type Kind = (fn(u64) -> ShardCmd, bool);

    /// Every kind of submit the FIFO tests push last: a whole coordinated
    /// write, tried once and waiting (the last batch of a `route_all` call
    /// whose earlier batches ran inline), and the two one-shot commands,
    /// which always wait.
    const EVERY_KIND: [Kind; 4] = [
        (write_txn, false),
        (write_txn, true),
        (snapshot_read, true),
        (bypass_add, true),
    ];

    /// Shut every shard down: shard 0's final slice.
    fn shutdown(running: Running) -> LogSet {
        for tx in &running.txs {
            let _ = tx.send(ShardCmd::Shutdown);
        }
        join(running)
    }

    /// FIFO, ring pre-filled: the inbox already holds forty transactions
    /// when the keeper starts, and a `submit` racing the keeper's
    /// first tenure — busy core, backlog, or idle by then; for a waiting
    /// submit also a wait that ends in any of those — still lands behind
    /// every one of them.
    #[test]
    fn submit_never_overtakes_a_prefilled_inbox() {
        for last in EVERY_KIND {
            submit_after_a_prefilled_inbox(last);
        }
    }

    fn submit_after_a_prefilled_inbox((last, wait): Kind) {
        const QUEUED: u64 = 40;
        let stats = Arc::new(RuntimeStats::with_shards(1));
        let (tx, inbox) = transport::ring::channel(64);
        for t in 1..=QUEUED {
            assert!(tx.try_send(write_txn(t)).is_ok());
        }
        let registry = Arc::new(Registry::new(64));
        let running = start(vec![(qm_at(0), tx, inbox)], &registry, &stats);
        running.tx().submit(last(QUEUED + 1), wait).unwrap();
        let logs = shutdown(running);
        assert_eq!(log_order(&logs), (1..=QUEUED + 1).collect::<Vec<_>>());
        let shard0 = &stats.snapshot().per_shard[0];
        assert_eq!(
            shard0.inline + shard0.enqueued_busy + shard0.enqueued_backlog,
            1,
            "the one submit is counted exactly once: {shard0:?}"
        );
        assert!(shard0.inline_waited <= shard0.inline, "{shard0:?}");
        assert!(shard0.wait_expired <= shard0.enqueued_busy, "{shard0:?}");
    }

    /// FIFO, core held: while the test holds the core a `submit` cannot
    /// run inline — a waiting one waits out its bound and gives up —
    /// so it queues behind the command `send` put there; once the core is
    /// free and the inbox drained, the next one runs inline and lands
    /// last.
    #[test]
    fn submit_behind_a_held_core_keeps_inbox_order() {
        for kind in EVERY_KIND {
            submit_behind_a_held_core(kind);
        }
    }

    fn submit_behind_a_held_core((kind, wait): Kind) {
        let (handle, _registry, stats) = spawn_one();
        let tx = handle.tx().clone();
        let held = tx.hold_core();
        assert!(tx.send(write_txn(1)).is_ok());
        tx.submit(kind(2), wait).unwrap();
        assert!(!tx.ring.is_idle(), "nothing is taken without the core");
        drop(held);
        // Wait for the keeper's tenure (it was already woken) so the
        // third transaction finds the idle shard it needs to run inline.
        while !tx.ring.is_idle() {
            std::thread::yield_now();
        }
        drop(tx.hold_core());
        tx.submit(kind(3), wait).unwrap();
        let shard0 = stats.snapshot().per_shard[0];
        assert_eq!((shard0.enqueued_busy, shard0.inline), (1, 1), "{shard0:?}");
        assert_eq!(shard0.inline_waited, 0, "{shard0:?}");
        assert_eq!(shard0.wait_expired, u64::from(wait), "{shard0:?}");
        assert_eq!(log_order(&shutdown(handle)), [1, 2, 3]);
    }

    /// Hold `tx`'s core on another thread — taken before this returns —
    /// until a `submit` has started waiting for it, then `then`
    /// while still holding it, then ~2 µs more, and let go. The wait is
    /// what the holder reacts to, so the interleaving is forced, not timed.
    /// It holds the bare mutex, not a [`CoreGuard`]: letting go runs no
    /// hand-off pass, so what `then` enqueues is still queued when the
    /// waiter wins the core — a clean forcing of the waiter's side that a
    /// client (whose release would run that pass) never produces.
    fn hold_until_a_waiter(
        tx: &ShardSender,
        then: impl FnOnce(&ShardSender) + Send + 'static,
    ) -> std::thread::JoinHandle<()> {
        let tx = tx.clone();
        let (locked_tx, locked_rx) = std::sync::mpsc::channel();
        let holder = std::thread::spawn(move || {
            let counters = &tx.stats.per_shard[tx.idx];
            let waits = counters.core_waits.load(Ordering::Relaxed);
            let held = tx.core.lock().unwrap();
            locked_tx.send(()).unwrap();
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while counters.core_waits.load(Ordering::Relaxed) == waits {
                assert!(std::time::Instant::now() < deadline, "nobody waited");
                std::hint::spin_loop();
            }
            then(&tx);
            let release = std::time::Instant::now() + Duration::from_micros(2);
            while std::time::Instant::now() < release {
                std::hint::spin_loop();
            }
            drop(held);
        });
        locked_rx.recv().unwrap();
        holder
    }

    /// Submit `cmd`, asking for the wait, against a core held as
    /// [`hold_until_a_waiter`] holds it. The wait bound is raised to 5 s on
    /// this thread for the submit:
    /// the holder lets go microseconds after the wait starts, but one
    /// descheduled in between — a thread it wakes is often placed on its
    /// CPU — outlasts 8 µs on a loaded box, and the waiter would give up.
    fn submit_against_a_briefly_held_core(
        tx: &ShardSender,
        cmd: ShardCmd,
        then: fn(&ShardSender),
    ) -> ShardCounterSnapshot {
        let holder = hold_until_a_waiter(tx, then);
        CORE_WAIT_BOUND.set(Duration::from_secs(5));
        let submitted = tx.submit(cmd, true);
        CORE_WAIT_BOUND.set(CORE_WAIT);
        holder.join().unwrap();
        submitted.unwrap();
        tx.stats.snapshot().per_shard[tx.idx]
    }

    /// The caller's flag decides: another thread holds the core for a
    /// couple of microseconds. A `HandleBatch` submitted with the wait
    /// waits for it and runs inline — counted as inline and as waited —
    /// where the same batch submitted without it tries once and enqueues,
    /// busy.
    #[test]
    fn a_submit_waits_out_a_briefly_held_core_only_when_asked() {
        let (handle, _registry, stats) = spawn_one();
        let tx = handle.tx().clone();
        let shard0 = submit_against_a_briefly_held_core(&tx, write_txn(1), |_| {});
        assert_eq!((shard0.inline, shard0.inline_waited), (1, 1), "{shard0:?}");
        assert_eq!(
            (shard0.enqueued_busy, shard0.wait_expired),
            (0, 0),
            "{shard0:?}"
        );
        // Without the wait: held on another thread, released only once
        // `submit` has returned — it must not have waited for the core.
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let (locked_tx, locked_rx) = std::sync::mpsc::channel();
        let holder = {
            let tx = tx.clone();
            std::thread::spawn(move || {
                let held = tx.hold_core();
                locked_tx.send(()).unwrap();
                release_rx.recv().unwrap();
                drop(held);
            })
        };
        locked_rx.recv().unwrap();
        let waits = stats.per_shard[0].core_waits.load(Ordering::Relaxed);
        assert_eq!(tx.submit(write_txn(100), false).ok(), Some(false));
        release_tx.send(()).unwrap();
        holder.join().unwrap();
        let shard0 = stats.snapshot().per_shard[0];
        assert_eq!(shard0.enqueued_busy, 1, "{shard0:?}");
        assert_eq!(
            (shard0.inline_waited, shard0.wait_expired),
            (1, 0),
            "{shard0:?}"
        );
        assert_eq!(
            stats.per_shard[0].core_waits.load(Ordering::Relaxed),
            waits,
            "a submit without the wait never starts it"
        );
        let order = log_order(&shutdown(handle));
        assert_eq!(order.last(), Some(&100), "{order:?}");
    }

    /// The ring-idle rule still holds after a wait: a holder that enqueues
    /// a write as it lets go leaves the waiter winning the core with a
    /// backlog — and it enqueues behind that write instead of running
    /// ahead of it (its own hand-off pass then runs both, in that order).
    /// A live keeper would race the waiter for the core (and, winning,
    /// drain the write so the waiter runs inline after it), so here its
    /// inbox is a second ring, fed what the first one holds, in order,
    /// only once the submit is done.
    #[test]
    fn a_waiter_that_wins_the_core_behind_a_backlog_enqueues() {
        for kind in [snapshot_read, bypass_add, write_txn] {
            let (handle, mut sent, inbox) = spawn_unfed();
            let tx = handle.tx().clone();
            let shard0 = submit_against_a_briefly_held_core(&tx, kind(1), |tx| {
                assert!(tx.send(write_txn(1000)).is_ok());
            });
            assert_eq!(
                (shard0.enqueued_backlog, shard0.inline, shard0.combined),
                (1, 0, 2),
                "{shard0:?}"
            );
            assert!(tx.send(ShardCmd::Shutdown).is_ok());
            let mut cmds = Vec::new();
            sent.drain_into(&mut cmds);
            for cmd in cmds {
                assert!(inbox.send(cmd).is_ok());
            }
            let order = log_order(&join(handle));
            assert_eq!(order, [1000, 1], "write first");
        }
    }

    /// The hand-off, forced: while the test holds the core (as a client
    /// does, through a [`CoreGuard`]) a `HandleBatch` submitted with the
    /// wait waits out its bound and is handed over — queued, not run, and
    /// nobody woken. Letting go runs it: its grant is in the mailbox when
    /// the release returns. The keeper's inbox is a second ring the test
    /// never feeds, so the keeper ran no tenure for it.
    #[test]
    fn a_command_handed_to_a_held_core_is_run_as_the_holder_lets_go() {
        let (handle, mut sent, inbox) = spawn_unfed();
        let tx = handle.tx().clone();
        let registry = Arc::clone(&tx.hold_core().registry);
        let mut mb = registry.client_mailbox().expect("mailbox");
        let t = registry.txn_id(1, mb.slot());
        registry.register(t, CcMethod::TwoPhaseLocking, &mut mb);
        let held = tx.hold_core();
        let access = batch([access(t.0, AccessMode::Write, 1)]);
        assert_eq!(tx.submit(access, true).ok(), Some(false), "handed over");
        assert!(!tx.ring.is_idle(), "queued for the holder");
        assert!(
            mb.recv_timeout(t.0, Duration::ZERO).is_none(),
            "not run yet"
        );
        drop(held);
        assert!(tx.ring.is_idle(), "run as the holder let go");
        assert!(
            matches!(
                mb.recv_timeout(t.0, Duration::ZERO),
                Some(crate::registry::ClientEvent::Replies(_))
            ),
            "the grant was delivered before the release returned"
        );
        let shard0 = tx.stats.snapshot().per_shard[0];
        assert_eq!(
            (shard0.enqueued_busy, shard0.wait_expired, shard0.combined),
            (1, 1, 1),
            "{shard0:?}"
        );
        assert_eq!((shard0.inline, shard0.grants), (0, 1), "{shard0:?}");
        assert_eq!(tx.submit(batch([release(t.0, 7)]), false).ok(), Some(true));
        assert_eq!(sent.drain_into(&mut Vec::new()), 0, "nothing left over");
        assert!(inbox.send(ShardCmd::Shutdown).is_ok());
        assert_eq!(log_order(&join(handle)), [t.0]);
    }

    /// A pass run by a client delivers that client's own replies without
    /// waiting: its mailbox is full, and only this thread could drain it,
    /// so the grant is dropped and counted at once instead of after the
    /// one-second deliver timeout.
    #[test]
    fn a_pass_never_waits_on_its_own_full_mailbox() {
        let (handle, mut sent, inbox) = spawn_unfed();
        let tx = handle.tx().clone();
        let registry = Arc::clone(&tx.hold_core().registry);
        let mut mb = registry.client_mailbox().expect("mailbox");
        let t = registry.txn_id(1, mb.slot());
        registry.register(t, CcMethod::TwoPhaseLocking, &mut mb);
        // One event per flush: 64 flushes fill the 64-event mailbox.
        for n in 100..164 {
            registry.deliver_all([ReplyMsg::Ack {
                txn: t,
                item: PhysicalItemId::new(LogicalItemId(n), SiteId(0)),
            }]);
        }
        assert!(tx
            .ring
            .send_quiet(batch([access(t.0, AccessMode::Write, 1)]))
            .is_ok());
        let begun = std::time::Instant::now();
        let mut core = tx.guard(tx.core.lock().unwrap(), Some(t));
        core.pass();
        drop(core);
        assert!(begun.elapsed() < Duration::from_millis(500), "it waited");
        assert_eq!(registry.full_drops(), 1, "the own grant was dropped");
        assert_eq!(tx.stats.snapshot().per_shard[0].combined, 1);
        assert_eq!(sent.drain_into(&mut Vec::new()), 0);
        drop(mb);
        assert!(inbox.send(ShardCmd::Shutdown).is_ok());
        join(handle);
    }

    /// Nothing handed over is stranded: four submitters race one shard,
    /// all four submitting at once every round, each waiting for its
    /// answer before the next, with commands most of which write no log
    /// record (so no log-fold nudge wakes the keeper by the way). A
    /// handed-over command whose holder let go without the hand-off check
    /// would sit in the inbox with nobody left to submit behind it: its
    /// submitter's answer would never come, and the others would wait at
    /// the round's barrier. Each answer must come within a bound and the
    /// whole race within a watchdog's, on one CPU too.
    #[test]
    fn racing_submitters_strand_no_handed_over_command() {
        race_within_a_watchdog(1, false, 2_000);
    }

    /// The same race over two shards under one keeper, two submitters
    /// each, with one round in eight a diagnostics command only the keeper
    /// runs. The keeper parks with the periodic tick ten seconds away, so
    /// only its registration on both rings wakes it — for a send, and for
    /// what a releaser leaves behind — and only its fence-and-retry before
    /// parking catches a command that arrived while it looked elsewhere.
    #[test]
    fn racing_submitters_on_two_shards_strand_nothing_under_one_keeper() {
        race_within_a_watchdog(2, true, 100_000);
    }

    fn race_within_a_watchdog(shards: u32, diagnostics: bool, rounds: u64) {
        const SUBMITTERS: u64 = 4;
        const BOUND: Duration = Duration::from_secs(5);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let race = std::thread::spawn(move || {
            race_submitters(shards, diagnostics, SUBMITTERS, rounds, BOUND);
            done_tx.send(()).expect("the watchdog outlives the race");
        });
        if let Err(std::sync::mpsc::RecvTimeoutError::Timeout) =
            done_rx.recv_timeout(Duration::from_secs(60))
        {
            panic!("not finished after 60 s: a handed-over command was stranded");
        }
        // Finished, or panicked (the sender dropped unsent): re-raise.
        race.join().unwrap_or_else(|panic| resume_unwind(panic));
    }

    /// Submitter `s` races on shard `s % shards`. Seven rounds in eight it
    /// submits a snapshot read of an item its shard does not hold: refused,
    /// it answers and writes no log record. The eighth is a bypass add.
    /// With `diagnostics`, one of the seven sends the keeper a `Waiting`.
    fn race_submitters(
        shards: u32,
        diagnostics: bool,
        submitters: u64,
        rounds: u64,
        bound: Duration,
    ) {
        let (running, _registry, stats) = spawn_shards(shards);
        let round_start = Arc::new(std::sync::Barrier::new(submitters as usize));
        let racers: Vec<_> = (0..submitters)
            .map(|s| {
                let site = (s % u64::from(shards)) as u32;
                let tx = running.txs[site as usize].clone();
                let round_start = Arc::clone(&round_start);
                std::thread::spawn(move || {
                    for round in 0..rounds {
                        round_start.wait();
                        let wait = (round + s) % 2 == 0;
                        let txn = TxnId(s * rounds + round + 1);
                        if diagnostics && round % 2 == 0 {
                            // A keeper-only command: its send wakes the
                            // keeper through its registration alone.
                            let (reply, answer) = transport::oneshot::channel();
                            assert!(tx.send(ShardCmd::Waiting(reply)).is_ok());
                            assert!(answer.recv_timeout(bound).is_ok(), "round {round}");
                        } else if round % 8 == 7 {
                            let (reply, answer) = transport::oneshot::channel();
                            let add = ShardCmd::ApplyConfluent {
                                origin: SiteId(site),
                                txn,
                                ops: std::iter::once(ConfluentOp::Add(item_at(site), 1)).collect(),
                                check: false,
                                reply,
                            };
                            tx.submit(add, wait).unwrap();
                            let applied = answer.recv_timeout(bound);
                            assert!(matches!(applied, Ok(Some(_))), "round {round}");
                        } else {
                            let (reply, answer) = transport::oneshot::channel();
                            let elsewhere = PhysicalItemId::new(LogicalItemId(1), SiteId(99));
                            let read = ShardCmd::SnapshotRead {
                                txn,
                                ts: Timestamp::ZERO,
                                items: std::iter::once(elsewhere).collect(),
                                reply,
                            };
                            tx.submit(read, wait).unwrap();
                            let refused = answer.recv_timeout(bound);
                            assert!(matches!(refused, Ok(None)), "round {round}");
                        }
                    }
                })
            })
            .collect();
        for racer in racers {
            racer.join().unwrap();
        }
        let per_shard = stats.snapshot().per_shard;
        let submitted: u64 = per_shard
            .iter()
            .map(|shard| {
                shard.inline
                    + shard.enqueued_busy
                    + shard.enqueued_backlog
                    + shard.enqueued_log_full
            })
            .sum();
        let sent = if diagnostics { rounds / 2 } else { 0 };
        assert_eq!(submitted, submitters * (rounds - sent), "{per_shard:?}");
        let adds = submitters * rounds / 8;
        for tx in &running.txs {
            let _ = tx.send(ShardCmd::Shutdown);
        }
        let slices = running.keeper.join().unwrap();
        let logged: usize = slices
            .iter()
            .zip(0..)
            .map(|(slice, site)| log_order_of(slice.as_ref().unwrap(), item_at(site)).len())
            .sum();
        assert_eq!(logged as u64, adds);
    }

    /// A `Crash` marks the core down: a `submit` during the outage returns
    /// at once — a waiting one after its bounded wait, counted as expired
    /// — enqueued, not run, and is applied only when the outage is over.
    #[test]
    fn submit_during_a_crash_outage_enqueues_and_the_outage_lasts() {
        for kind in EVERY_KIND {
            submit_during_a_crash_outage(kind);
        }
    }

    fn submit_during_a_crash_outage((kind, wait): Kind) {
        const OUTAGE: Duration = Duration::from_millis(150);
        let (handle, _registry, stats) = spawn_one();
        let tx = handle.tx();
        let crashed = std::time::Instant::now();
        assert!(tx.send(ShardCmd::Crash { outage: OUTAGE }).is_ok());
        // Taken off the ring means taken under the lock, in the tenure
        // that marks the core down.
        while !tx.ring.is_idle() {
            std::thread::yield_now();
        }
        let submitted = std::time::Instant::now();
        assert_eq!(tx.submit(kind(1), wait).ok(), Some(false));
        let took = submitted.elapsed();
        assert!(
            crashed.elapsed() < OUTAGE,
            "submit must not wait out the outage"
        );
        assert!(!wait || took >= CORE_WAIT, "it waited: {took:?}");
        let shard0 = stats.snapshot().per_shard[0];
        assert_eq!((shard0.enqueued_busy, shard0.inline), (1, 0), "{shard0:?}");
        assert_eq!(shard0.wait_expired, u64::from(wait), "{shard0:?}");
        assert_eq!(shard0.implemented, 0, "nothing runs during the outage");
        let (log_tx, log_rx) = transport::oneshot::channel();
        assert!(tx.send(ShardCmd::LogSnapshot(log_tx)).is_ok());
        assert_eq!(log_order(&log_rx.recv().unwrap()), [1]);
        assert!(crashed.elapsed() >= OUTAGE, "the outage still lasted");
        assert_eq!(stats.shard_crashes.load(Ordering::Relaxed), 1);
        shutdown(handle);
    }

    /// After the shard's last tenure both entries fail and carry nothing
    /// anywhere; what was enqueued before `Shutdown` is all in the log.
    #[test]
    fn submit_after_shutdown_fails_and_reaches_no_log() {
        let (handle, _registry, stats) = spawn_one();
        let tx = handle.tx().clone();
        for t in 1..=5 {
            assert!(tx.send(write_txn(t)).is_ok());
        }
        let logs = shutdown(handle);
        assert_eq!(log_order(&logs), [1, 2, 3, 4, 5]);
        assert!(tx.submit(write_txn(6), false).is_err(), "closed core");
        assert!(tx.send(write_txn(7)).is_err(), "dropped inbox");
        let shard0 = stats.snapshot().per_shard[0];
        assert_eq!(shard0.implemented, 5, "the late commands never ran");
        assert_eq!(shard0.inline, 0);
    }

    /// The log tap folds first: records of inline runs sit in the core's
    /// buffer until the keeper wakes, and a `LogSnapshot` is a wake-up
    /// that must show them all.
    #[test]
    fn log_snapshot_sees_inline_commits_before_any_fold() {
        const COMMITS: u64 = 10;
        let (handle, _registry, stats) = spawn_one();
        for t in 1..=COMMITS {
            handle.tx().submit(write_txn(t), false).unwrap();
        }
        let shard0 = stats.snapshot().per_shard[0];
        // The keeper parks until something is sent, so nothing contends
        // for the core and nothing has folded.
        assert_eq!(shard0.inline, COMMITS, "{shard0:?}");
        assert_eq!(shard0.log_fold_nudges, 0);
        assert_eq!(handle.tx().hold_core().log_buf.len(), 10);
        let (log_tx, log_rx) = transport::oneshot::channel();
        assert!(handle.tx().send(ShardCmd::LogSnapshot(log_tx)).is_ok());
        let expected: Vec<u64> = (1..=COMMITS).collect();
        assert_eq!(log_order(&log_rx.recv().unwrap()), expected);
        assert_eq!(log_order(&shutdown(handle)), expected);
    }

    /// A caller that fills the log buffer half way nudges the keeper
    /// once; inline admission stops at a full buffer and resumes after
    /// the fold. Nothing is lost or reordered on the way.
    #[test]
    fn a_filling_log_buffer_nudges_once_and_refuses_when_full() {
        let (handle, _registry, stats) = spawn_one();
        let tx = handle.tx();
        // The bare mutex: a guard's release would itself nudge.
        let fill = |records: usize| {
            let mut core = tx.core.lock().unwrap();
            core.log_buf.extend(
                std::iter::repeat_with(|| LogRecord {
                    item: item(),
                    txn: TxnId(0),
                    access: AccessMode::Read,
                    commit_ts: None,
                    snapshot: false,
                })
                .take(records),
            );
        };
        fill(LOG_BUF_RECORDS / 2 - 1);
        tx.submit(write_txn(1), false).unwrap();
        let shard0 = stats.snapshot().per_shard[0];
        assert_eq!(
            (shard0.inline, shard0.log_fold_nudges),
            (1, 1),
            "{shard0:?}"
        );
        // The nudge wakes the keeper; once it has swapped, the buffer is
        // empty again and the fillers are in its log.
        while !tx.hold_core().log_buf.is_empty() {
            std::thread::yield_now();
        }
        fill(LOG_BUF_RECORDS);
        tx.submit(write_txn(2), false).unwrap();
        let shard0 = stats.snapshot().per_shard[0];
        assert_eq!(shard0.enqueued_log_full, 1, "{shard0:?}");
        let logs = shutdown(handle);
        let order = log_order(&logs);
        let written: Vec<u64> = order.iter().copied().filter(|&t| t != 0).collect();
        assert_eq!(written, [1, 2]);
        assert_eq!(order.len(), LOG_BUF_RECORDS / 2 - 1 + LOG_BUF_RECORDS + 2);
    }

    /// An engine panic during an inline run takes the *shard* down, and
    /// that shard alone: the caller gets a typed error back, the keeper
    /// reports the panic as the shard's result, both entries fail from
    /// then on, and the keeper's other shard keeps committing — inline and
    /// through the keeper — with its slice in the report.
    #[test]
    fn an_inline_engine_panic_kills_the_shard_not_the_caller() {
        let (handle, _registry, _stats) = spawn_shards(2);
        let (tx, other) = (handle.txs[0].clone(), handle.txs[1].clone());
        // The dedup mutation: with suppression off, a duplicated `Access`
        // trips the queue's "already queued" debug assertion.
        tx.hold_core().qm.set_dedup_access(false);
        let twice = access(1, AccessMode::Write, 1);
        if tx.submit(batch([twice, twice]), false).is_ok() {
            // Release builds compile the assertion out (the duplicate
            // double-queues instead): nothing to contain.
            shutdown(handle);
            return;
        }
        // The caller's release woke the keeper, which drops the dead
        // shard's inbox.
        while tx.send(ShardCmd::FoldLog).is_ok() {
            std::thread::yield_now();
        }
        assert!(tx.submit(write_txn(2), false).is_err());
        assert!(tx.send(write_txn(3)).is_err());
        assert_eq!(
            other.submit(write_on(item_at(1), 4), false).ok(),
            Some(true)
        );
        assert!(other.send(write_on(item_at(1), 5)).is_ok());
        let (log_tx, log_rx) = transport::oneshot::channel();
        assert!(other.send(ShardCmd::LogSnapshot(log_tx)).is_ok());
        assert_eq!(log_order_of(&log_rx.recv().unwrap(), item_at(1)), [4, 5]);
        let _ = other.send(ShardCmd::Shutdown);
        drop((tx, other));
        let mut slices = handle.keeper.join().expect("the keeper lives on");
        let survivor = slices.pop().unwrap().expect("shard 1 lived");
        assert!(slices.pop().unwrap().is_err(), "shard 0 died of the panic");
        assert_eq!(log_order_of(&survivor, item_at(1)), [4, 5]);
    }
}
