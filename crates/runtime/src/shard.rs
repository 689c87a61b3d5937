//! Shards: one per site, each a [`ShardCore`] run by whoever holds its lock.
//!
//! A shard is the runtime analogue of the simulator's per-site queue
//! manager. Its state — the site's [`QueueManager`], the reusable
//! [`QmSink`] (no per-message `QmOutput` allocation anywhere on the
//! path), the reply-flush scratch and a fixed buffer of execution-log
//! records — is a [`ShardCore`] behind one mutex, and a command reaches
//! it one of two ways:
//!
//! * **Caller-runs.** [`ShardSender::submit`] try-locks the core. If it
//!   is free, the inbox ring is idle and the log buffer has room, the
//!   *calling* thread runs its own `HandleBatch` / `ApplyConfluent` /
//!   `SnapshotRead` (or the detector its `WaitEdges`) right there — through the same
//!   [`ShardCore::apply_cmd`] and the same reply flush the shard thread
//!   uses — and finds its grants already in its mailbox (or its oneshot
//!   already filled). Nobody parks and nobody is woken: the uncontended
//!   command pays no thread hop at all.
//!
//!   **The core wait.** A submit whose caller asks for it retries a held
//!   core's `try_lock` for up to [`CORE_WAIT`] before it takes the ring.
//!   The one-shot routes (`SnapshotRead`, `ApplyConfluent`) always ask:
//!   each shard's answer is produced inside one core tenure, and the
//!   caller's next step is to collect it. The send batcher
//!   (`Database::route_all`) asks for the *last* of a call's per-shard
//!   `HandleBatch`es, and only if every earlier one ran inline: had one
//!   gone to the ring the caller parks for that shard's replies anyway,
//!   and a batch that waited with others behind it would delay them —
//!   measured, spinning every `HandleBatch` turns overlapping
//!   transactions into core-lock convoys and doubles `wide_hot`'s median
//!   commit. The detector's `WaitEdges` never asks. The holder a waiter
//!   meets is almost always another caller's ~1 µs inline run (or a
//!   shard-thread tenure). The bound is the price of what the wait
//!   replaces — a ring fallback costs two thread hops, the shard thread's
//!   wake-up and then the caller's on the reply, ≈ 6.5 µs each — so a
//!   wait can at worst cost what the fallback would have, and a `Crash`
//!   outage (which sleeps holding the core) still sends a waiter to the
//!   ring within the bound: nothing on a client path ever blocks in
//!   `lock()`. FIFO is unaffected: the wait only decides *when* the
//!   caller gets the core, and every admission rule below — `closed`, the
//!   ring-idle test, log room — is still made under the lock once it has
//!   it, so a waiter that wins the core behind a backlog enqueues behind
//!   that backlog.
//! * **The inbox.** Anything else goes through the bounded MPSC ring
//!   (`transport::ring`, backpressure towards the clients): `submit`
//!   when the core is busy, the ring has a backlog or the log buffer is
//!   full; every [`ShardSender::send`] — `Crash`, `Shutdown`, the
//!   sweep's and the diagnostics' commands. The shard thread parks on
//!   the ring *without consuming* ([`RingReceiver::wait_ready`]), takes
//!   the core lock, drains everything enqueued since its last tenure,
//!   applies it and flushes the accumulated replies through the
//!   [`Registry`] once per drained batch.
//!
//! **FIFO per shard** is load-bearing (a transaction's `Release` must not
//! overtake its `Access`; a snapshot read must queue behind the installs
//! its watermark covers) and two rules keep it. The consuming end of the
//! ring is touched *only under the core lock* — lock, then drain, never
//! pop-then-lock — so every command taken off the ring is applied before
//! the lock is next free. And a caller runs inline only if, under the
//! lock, the ring is idle: its copy of the queue length reads zero
//! ([`RingSender::is_idle`], no second lock). Only a take lowers that
//! copy, and takes happen under the core lock, so while the caller holds
//! it the copy can only grow; a send stores it under the ring's lock
//! before returning. So its own earlier commands, and any install
//! another client enqueued before retiring the commit stamp this caller's
//! watermark covers, are then already applied.
//!
//! **The shard thread is the log keeper.** Every implemented operation is
//! appended — in processing order, by whoever runs the command — to a
//! fixed-capacity record buffer inside the core. The shard thread, on any
//! wake-up, swaps that buffer with its spare under the lock and folds the
//! records into its thread-owned [`LogSet`] outside it; a caller that
//! fills the buffer half way sends one [`ShardCmd::FoldLog`] nudge
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
//! see the request; the thread that holds the core unparks the detector
//! once it has let go of it (the detector's first act is to ask this shard
//! for its edges). The marks, and why the last-announced edge of a cycle
//! always finds its waiter marked whatever the interleaving across shards,
//! are in `registry.rs`; what the detector does with the request is in
//! `detector.rs`. A transaction whose accesses are all granted on arrival
//! produces no such event: the new path costs it the one `match` arm it
//! never takes.
//!
//! **Faults.** `Crash { outage }` sleeps holding the core, so callers
//! fall back to the ring and the inbox backs up exactly as the fault
//! model says. An engine panic during an inline run is caught on the
//! calling thread, the core is marked closed and the shard thread
//! re-raises the panic as its own: the shard dies, not the caller, and
//! both entries fail from then on like a send to a dropped receiver.
//!
//! Shutdown drains first: a [`ShardCmd::Shutdown`] marks the loop for
//! exit, but every command already enqueued — including commands ahead of
//! or behind it in the same drained batch — is still processed, and the
//! core is closed in the same lock tenure, before the thread returns its
//! log slice. Without this, a release enqueued by a committing client
//! just before shutdown could be dropped and its write silently lost from
//! the final log.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dbmodel::{AccessMode, LogSet, PhysicalItemId, SiteId, Timestamp, TxnId, Value};
use pam::{GrantClass, ReplyMsg, RequestMsg};
use trace::{Phase, TraceLevel, TracePlane};
use transport::batch::SmallBatch;
use transport::oneshot::OneshotSender;
use transport::ring::{RingReceiver, RingSender};
use unified_cc::{ConfluentOp, QmEvent, QmSink, QueueManager};

use crate::clock::CommitClock;
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
    /// Injected node fault: go unresponsive for `outage` (the inbox backs
    /// up, exerting real backpressure on clients), then come back having
    /// lost all *ungranted* queue entries — the partial-amnesia crash
    /// model. Granted entries, held locks, item values and timestamps
    /// survive (they model state re-read from the durable log tap on
    /// restart); waiters that had not been granted are simply gone and
    /// their clients recover through the timeout/restart machinery.
    Crash { outage: std::time::Duration },
    /// Report every transaction with any queue or lock presence on this
    /// shard (detector's stranded-transaction sweep).
    PresentTxns(OneshotSender<Vec<TxnId>>),
    /// Abort the listed transactions' residual state on this shard (the
    /// detector's cleanup of transactions no longer registered anywhere).
    Cleanup(Vec<TxnId>),
    /// Report the shard's current wait-for edges (deadlock detector). Runs
    /// inline like a protocol command: a scan of idle shards reads their
    /// edges on the detector's thread and wakes nobody.
    WaitEdges(OneshotSender<Vec<(TxnId, TxnId)>>),
    /// Report the transactions currently queued and not granted
    /// (diagnostics).
    Waiting(OneshotSender<Vec<TxnId>>),
    /// Report a copy of the shard's execution-log slice (live log tap),
    /// every record still in the core's buffer folded in first.
    LogSnapshot(OneshotSender<LogSet>),
    /// Wake the shard thread so it folds the core's log buffer into its
    /// log — sent by a caller whose inline run filled the buffer half
    /// way. Carries nothing: every wake-up folds.
    FoldLog,
    /// Drain everything already enqueued, then exit, returning the final
    /// log slice through the join handle.
    Shutdown,
}

/// How long a submit that asks to wait keeps retrying a held core before
/// it takes the ring. Sized to what the ring costs it — two thread hops,
/// waking the shard thread and then being woken by the reply, ≈ 6.5 µs
/// each on a 2-core x86-64 VM — against the ~1 µs another caller's inline
/// run holds the core: a wait that outlasts the hop pair can only lose. A
/// time, not a spin count, so the bound means the same on any CPU.
pub(crate) const CORE_WAIT: Duration = Duration::from_micros(8);

#[cfg(test)]
thread_local! {
    /// The core-wait bound of submits made on this thread. Tests that
    /// force a waiter/holder interleaving raise it, so their outcome does
    /// not depend on the holder staying on a CPU through 8 µs.
    pub(crate) static CORE_WAIT_BOUND: std::cell::Cell<Duration> =
        const { std::cell::Cell::new(CORE_WAIT) };
}

/// Records the core's log buffer holds, allocated once at spawn (twice:
/// the shard thread keeps a spare to swap in). A caller nudges the keeper
/// at half full and stops running inline when its command might not fit.
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
    /// commands and the detector's edge report; the rest belong to the
    /// shard thread (they sleep, exit, or read its log).
    fn runs_inline(&self) -> bool {
        matches!(
            self,
            ShardCmd::HandleBatch { .. }
                | ShardCmd::ApplyConfluent { .. }
                | ShardCmd::SnapshotRead { .. }
                | ShardCmd::WaitEdges(_)
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
            // Crash recovery and cleanup only ever drop queue entries.
            _ => 0,
        }
    }
}

/// A shard's whole mutable state, owned by whoever holds its lock: the
/// shard thread while it drains the ring, or a client running its own
/// command inline (see the module docs).
pub(crate) struct ShardCore {
    qm: QueueManager,
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
    /// Implemented operations not yet folded into the keeper's `LogSet`,
    /// in processing order.
    log_buf: Vec<LogRecord>,
    /// A `FoldLog` nudge is on its way; cleared when the keeper swaps.
    nudged: bool,
    /// Set once, under the lock: by the shard thread in its last tenure,
    /// or by a caller whose inline run panicked. `submit` fails from then
    /// on.
    closed: bool,
    /// The payload of an engine panic caught on a caller's thread, for
    /// the shard thread to die of.
    panic: Option<Box<dyn Any + Send>>,
    /// This tenure announced an edge that may have closed a wait cycle:
    /// whoever holds the core unparks the detector once it lets go (see
    /// `submit` and `shard_loop`).
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
        self.stats.implemented_ops.fetch_add(ops, Ordering::Relaxed);
        self.stats.per_shard[self.idx]
            .implemented
            .fetch_add(ops, Ordering::Relaxed);
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
                    self.stats.grants.fetch_add(1, Ordering::Relaxed);
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
        // shard-thread tenure over a drained batch thus stamps every
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
            ShardCmd::Crash { outage } => {
                // Unresponsive for the outage — asleep *holding the
                // core*, so callers fall back to the inbox and it backs
                // up — then partial amnesia: the ungranted tail of every
                // queue is wiped. Lock removal may re-grant survivors;
                // those grants flow out like any other replies/events.
                std::thread::sleep(outage);
                self.qm.crash_recover(&mut self.sink);
                self.fold_events();
                self.stats.shard_crashes.fetch_add(1, Ordering::Relaxed);
            }
            ShardCmd::PresentTxns(reply_to) => {
                let mut present = Vec::new();
                self.qm.present_txns_into(&mut present);
                reply_to.send(present)
            }
            ShardCmd::Cleanup(txns) => {
                let mut cleaned = 0u64;
                for txn in txns {
                    cleaned += self.qm.cleanup_txn(txn, &mut self.sink);
                }
                self.fold_events();
                if cleaned > 0 {
                    self.stats
                        .cleanup_aborts
                        .fetch_add(cleaned, Ordering::Relaxed);
                }
            }
            ShardCmd::WaitEdges(reply_to) => {
                let mut edges = Vec::new();
                self.qm.wait_edges_into(&mut edges);
                reply_to.send(edges)
            }
            ShardCmd::Waiting(reply_to) => {
                let mut waiting = Vec::new();
                self.qm.waiting_txns_into(&mut waiting);
                reply_to.send(waiting)
            }
            ShardCmd::LogSnapshot(_) | ShardCmd::FoldLog | ShardCmd::Shutdown => {
                unreachable!("the shard thread keeps the log and consumes these itself")
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

    /// One caller-runs tenure: exactly what the shard thread does for a
    /// drained batch of one.
    fn run_inline(&mut self, cmd: ShardCmd) {
        let own = cmd.txn();
        self.enter(std::slice::from_ref(&cmd));
        self.apply_cmd(cmd);
        self.flush_replies(own);
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
    registry: Arc<Registry>,
    stats: Arc<RuntimeStats>,
    idx: usize,
}

/// The consuming end of a shard's inbox.
pub(crate) type ShardInbox = RingReceiver<ShardCmd>;

impl ShardSender {
    /// Enqueue at the shard's inbox for the shard thread; blocks while
    /// the inbox is full and fails once the shard is gone.
    pub(crate) fn send(&self, cmd: ShardCmd) -> Result<(), ShardGone> {
        self.ring.send(cmd).map_err(|_| ShardGone)
    }

    /// Hand over a protocol command the cheapest way that keeps per-shard
    /// FIFO: run it on this thread if the core is free, the inbox idle
    /// and the log buffer roomy (see the module docs), else enqueue it.
    /// With `wait`, a core found held is retried for up to [`CORE_WAIT`]
    /// first; without, it is tried once. The caller decides (the module
    /// docs say who asks and why). Nothing here ever blocks in `lock()`. Every decision is
    /// counted per shard. `Ok(true)` when the command ran inline, its
    /// answer already delivered; `Ok(false)` when it was enqueued.
    pub(crate) fn submit(&self, cmd: ShardCmd, wait: bool) -> Result<bool, ShardGone> {
        if !cmd.runs_inline() {
            return self.send(cmd).map(|()| false);
        }
        let counters = &self.stats.per_shard[self.idx];
        let fallback = match self.try_core(wait) {
            Ok((mut core, waited)) => {
                if core.closed {
                    return Err(ShardGone);
                }
                if !self.ring.is_idle() {
                    &counters.enqueued_backlog
                } else if !core.log_room(&cmd) {
                    &counters.enqueued_log_full
                } else {
                    counters.inline.fetch_add(1, Ordering::Relaxed);
                    if waited {
                        counters.inline_waited.fetch_add(1, Ordering::Relaxed);
                    }
                    // The engine's invariants are asserts: contain a
                    // failing one so it takes the shard down, not the
                    // client that happened to be running it.
                    let ran = catch_unwind(AssertUnwindSafe(|| core.run_inline(cmd)));
                    if let Err(panic) = ran {
                        core.closed = true;
                        core.panic = Some(panic);
                    }
                    let died = core.closed;
                    let nudge = !core.nudged && core.log_buf.len() >= LOG_BUF_RECORDS / 2;
                    core.nudged |= nudge;
                    let scan = std::mem::take(&mut core.scan_wanted);
                    drop(core);
                    if scan {
                        self.registry.wake_detector();
                    }
                    if nudge {
                        counters.log_fold_nudges.fetch_add(1, Ordering::Relaxed);
                    }
                    if nudge || died {
                        // Wake the shard thread, to fold or to die of the
                        // panic; a full ring wakes it by itself.
                        let _ = self.ring.try_send(ShardCmd::FoldLog);
                    }
                    return if died { Err(ShardGone) } else { Ok(true) };
                }
            }
            // Held (past the wait, if it waited) — or poisoned: the shard
            // thread died mid-command, its inbox goes with it and the send
            // below fails.
            Err(waited) => {
                if waited {
                    counters.wait_expired.fetch_add(1, Ordering::Relaxed);
                }
                &counters.enqueued_busy
            }
        };
        fallback.fetch_add(1, Ordering::Relaxed);
        self.send(cmd).map(|()| false)
    }

    /// Try-lock the core, and say whether that took a wait: with `wait`,
    /// a held core is retried under `spin_loop` until [`CORE_WAIT`] has
    /// passed; without, it is tried once. `Err` when the core stayed held
    /// or is poisoned, carrying the same flag.
    fn try_core(&self, wait: bool) -> Result<(MutexGuard<'_, ShardCore>, bool), bool> {
        match self.core.try_lock() {
            Ok(core) => return Ok((core, false)),
            Err(TryLockError::WouldBlock) if wait => {}
            Err(_) => return Err(false),
        }
        #[cfg(test)]
        self.stats.per_shard[self.idx]
            .core_waits
            .fetch_add(1, Ordering::Relaxed);
        #[cfg(not(test))]
        let deadline = Instant::now() + CORE_WAIT;
        #[cfg(test)]
        let deadline = Instant::now() + CORE_WAIT_BOUND.get();
        loop {
            std::hint::spin_loop();
            match self.core.try_lock() {
                Ok(core) => return Ok((core, true)),
                Err(TryLockError::WouldBlock) if Instant::now() < deadline => {}
                Err(_) => return Err(true),
            }
        }
    }

    /// The inbox ring's queue-dwell meter (see
    /// [`RingSender::queue_dwell`]); inline runs never enter the ring and
    /// are not in it.
    pub(crate) fn queue_dwell(&self) -> (u64, u64) {
        self.ring.queue_dwell()
    }
}

/// Test access to a shard's core and ring from outside this module.
#[cfg(test)]
impl ShardSender {
    /// Take the core the way the shard thread does, blocking.
    pub(crate) fn hold_core(&self) -> MutexGuard<'_, ShardCore> {
        self.core.lock().unwrap()
    }

    /// Has the shard taken everything enqueued so far?
    pub(crate) fn ring_is_idle(&self) -> bool {
        self.ring.is_idle()
    }
}

/// A running shard.
pub(crate) struct ShardHandle {
    pub(crate) tx: ShardSender,
    pub(crate) join: JoinHandle<(SiteId, LogSet)>,
}

/// Build the core for `site` around its queue manager and spawn the shard
/// thread on `inbox`, the consuming end of the ring `tx` feeds. `idx` is
/// the shard's slot in the runtime's per-shard counter table.
#[allow(clippy::too_many_arguments)]
pub(crate) fn spawn(
    qm: QueueManager,
    idx: usize,
    inbox: ShardInbox,
    tx: RingSender<ShardCmd>,
    registry: Arc<Registry>,
    stats: Arc<RuntimeStats>,
    plane: Arc<TracePlane>,
    clock: Arc<CommitClock>,
) -> ShardHandle {
    let site = qm.site();
    let core = Arc::new(Mutex::new(ShardCore {
        qm,
        // Pre-size to the drain buffer's depth so the first batches skip
        // the sink's warm-up growth.
        sink: QmSink::with_capacity(64, 64),
        reply_groups: Vec::with_capacity(16),
        snap_served: Vec::with_capacity(16),
        log_buf: Vec::with_capacity(LOG_BUF_RECORDS),
        nudged: false,
        closed: false,
        panic: None,
        scan_wanted: false,
        registry: Arc::clone(&registry),
        stats: Arc::clone(&stats),
        plane,
        tenure_ts: 0,
        clock,
        idx,
    }));
    let join = std::thread::Builder::new()
        .name(format!("cc-shard-{}", site.0))
        .spawn({
            let core = Arc::clone(&core);
            let registry = Arc::clone(&registry);
            move || (site, shard_loop(&core, &registry, inbox))
        })
        .expect("failed to spawn shard thread");
    ShardHandle {
        tx: ShardSender {
            ring: tx,
            core,
            registry,
            stats,
            idx,
        },
        join,
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

/// The shard thread: consumer of the inbox and keeper of the log.
fn shard_loop(core: &Mutex<ShardCore>, registry: &Registry, mut inbox: ShardInbox) -> LogSet {
    let mut logs = LogSet::new();
    let mut spare: Vec<LogRecord> = Vec::with_capacity(LOG_BUF_RECORDS);
    let mut buf: Vec<ShardCmd> = Vec::with_capacity(64);
    let mut exiting = false;
    while !exiting {
        // Parked outside the lock, and nothing is taken until it is held.
        // A closed inbox (all senders dropped) covers a `Database`
        // dropped without an explicit shutdown.
        exiting = inbox.wait_ready().is_err();
        let mut core = core.lock().expect("only this thread panics in the core");
        if core.closed {
            // An inline run hit an engine panic: it is this shard's.
            let panic = core.panic.take().expect("a caller closes with its panic");
            drop(core);
            resume_unwind(panic);
        }
        // One sweep per tenure — or, once `Shutdown` was seen, as many as
        // it takes to empty the ring (commands racing with the shutdown
        // included), so no committed write is dropped from the log.
        while inbox.drain_into(&mut buf) > 0 {
            core.enter(&buf);
            for cmd in buf.drain(..) {
                match cmd {
                    ShardCmd::LogSnapshot(reply_to) => {
                        fold_log(&mut logs, &mut core.log_buf);
                        reply_to.send(logs.clone())
                    }
                    // The wake-up was the point: the swap below folds.
                    ShardCmd::FoldLog => {}
                    ShardCmd::Shutdown => exiting = true,
                    cmd => {
                        if !core.log_room(&cmd) {
                            fold_log(&mut logs, &mut core.log_buf);
                        }
                        core.apply_cmd(cmd)
                    }
                }
            }
            core.flush_replies(None);
            if !exiting {
                break;
            }
        }
        // Closing in the tenure of the last sweep: nothing runs inline
        // after it, so the records swapped out below are the last.
        core.closed = exiting;
        std::mem::swap(&mut core.log_buf, &mut spare);
        core.nudged = false;
        let scan = std::mem::take(&mut core.scan_wanted);
        drop(core);
        if scan {
            registry.wake_detector();
        }
        fold_log(&mut logs, &mut spare);
    }
    logs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ClientMailbox;
    use crate::stats::ShardCounterSnapshot;
    use dbmodel::{
        AccessMode, CcMethod, LogicalItemId, PhysicalItemId, Timestamp, TsTuple, TxnId, Value,
    };
    use std::time::Duration;
    use unified_cc::EnforcementMode;

    fn item() -> PhysicalItemId {
        PhysicalItemId::new(LogicalItemId(1), SiteId(0))
    }

    fn spawn_one() -> (ShardHandle, Arc<Registry>, Arc<RuntimeStats>) {
        let mut qm = QueueManager::new(SiteId(0));
        qm.add_item(item(), 42, EnforcementMode::SemiLock);
        let registry = Arc::new(Registry::new(64));
        let stats = Arc::new(RuntimeStats::with_shards(1));
        let plane = Arc::new(TracePlane::new(&trace::TraceConfig::default(), 1));
        let (tx, rx) = transport::ring::channel(16);
        let handle = spawn(
            qm,
            0,
            rx,
            tx,
            Arc::clone(&registry),
            Arc::clone(&stats),
            plane,
            Arc::new(CommitClock::new()),
        );
        (handle, registry, stats)
    }

    /// [`spawn_one`], but what is sent to the shard lands on a ring no
    /// thread drains, returned with a sender into the shard thread's real
    /// inbox: until the test forwards commands, the shard thread stays
    /// parked and never contends for the core.
    fn spawn_unfed() -> (ShardHandle, ShardInbox, RingSender<ShardCmd>) {
        let mut qm = QueueManager::new(SiteId(0));
        qm.add_item(item(), 42, EnforcementMode::SemiLock);
        let (tx, sent) = transport::ring::channel(16);
        let (inbox_tx, inbox) = transport::ring::channel(16);
        let handle = spawn(
            qm,
            0,
            inbox,
            tx,
            Arc::new(Registry::new(64)),
            Arc::new(RuntimeStats::with_shards(1)),
            Arc::new(TracePlane::new(&trace::TraceConfig::default(), 1)),
            Arc::new(CommitClock::new()),
        );
        (handle, sent, inbox_tx)
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
        let (handle, registry, stats) = spawn_one();
        let mut mb = registry.client_mailbox().expect("mailbox");
        let t = registry.txn_id(1, mb.slot()).0;
        registry.register(TxnId(t), CcMethod::TwoPhaseLocking, &mut mb);
        assert!(handle
            .tx
            .send(batch([access(t, AccessMode::Write, 1)]))
            .is_ok());
        // The grant is routed through the registry.
        expect_replies(&mut mb, t);
        assert!(handle.tx.send(batch([release(t, 7)])).is_ok());
        let (log_tx, log_rx) = transport::oneshot::channel();
        assert!(handle.tx.send(ShardCmd::LogSnapshot(log_tx)).is_ok());
        let logs = log_rx.recv().unwrap();
        assert_eq!(logs.total_ops(), 1);
        let _ = handle.tx.send(ShardCmd::Shutdown);
        let (site, logs) = handle.join.join().unwrap();
        assert_eq!(site, SiteId(0));
        assert_eq!(logs.total_ops(), 1);
        assert_eq!(stats.grants.load(Ordering::Relaxed), 1);
        assert_eq!(stats.implemented_ops.load(Ordering::Relaxed), 1);
        let shard0 = &stats.snapshot().per_shard[0];
        assert_eq!(shard0.grants, 1);
        assert_eq!(shard0.implemented, 1);
        assert_eq!(shard0.prescheduled, 0, "uncontended grant is normal");
        assert_eq!(shard0.aborts, 0);
    }

    #[test]
    fn shard_exits_when_all_senders_drop() {
        let (handle, _registry, _stats) = spawn_one();
        drop(handle.tx);
        let (_, logs) = handle.join.join().unwrap();
        assert_eq!(logs.total_ops(), 0);
    }

    #[test]
    fn handle_batch_applies_messages_in_order() {
        let (handle, registry, stats) = spawn_one();
        let mut mb = registry.client_mailbox().expect("mailbox");
        let t = registry.txn_id(1, mb.slot()).0;
        registry.register(TxnId(t), CcMethod::TwoPhaseLocking, &mut mb);
        assert!(handle
            .tx
            .send(batch([access(t, AccessMode::Write, 1), release(t, 9)]))
            .is_ok());
        expect_replies(&mut mb, t);
        let _ = handle.tx.send(ShardCmd::Shutdown);
        let (_, logs) = handle.join.join().unwrap();
        assert_eq!(logs.total_ops(), 1, "access then release implemented");
        assert_eq!(stats.implemented_ops.load(Ordering::Relaxed), 1);
    }

    /// A `Shutdown` ordered *ahead of* enqueued `HandleBatch` commands
    /// from other senders must not abandon them — the shard drains the
    /// inbox before exiting. The inbox is pre-filled before the shard
    /// thread even starts, so the first wakeup drains one buffer shaped
    /// `[25 txns, Shutdown, 25 txns]`; a naive `break` on seeing
    /// `Shutdown` would drop every release behind it and lose committed
    /// writes from the final log.
    #[test]
    fn shutdown_drains_commands_enqueued_around_it() {
        const TXNS: u64 = 50;
        let mut qm = QueueManager::new(SiteId(0));
        qm.add_item(item(), 42, EnforcementMode::SemiLock);
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
        let handle = spawn(
            qm,
            0,
            inbox,
            tx.clone(),
            Arc::clone(&registry),
            Arc::clone(&stats),
            Arc::new(TracePlane::new(&trace::TraceConfig::default(), 1)),
            Arc::new(CommitClock::new()),
        );
        let (_, logs) = handle.join.join().unwrap();
        assert_eq!(
            logs.total_ops(),
            TXNS as usize,
            "every enqueued release must be implemented"
        );
        assert_eq!(stats.implemented_ops.load(Ordering::Relaxed), TXNS);
    }

    /// The item's log as the sequence of transactions implemented on it.
    fn log_order(logs: &LogSet) -> Vec<u64> {
        logs.log(item())
            .map(|log| log.entries().iter().map(|e| e.txn.0).collect())
            .unwrap_or_default()
    }

    /// One whole write transaction as a single command.
    fn write_txn(t: u64) -> ShardCmd {
        batch([access(t, AccessMode::Write, t), release(t, t as Value)])
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

    fn shutdown(handle: ShardHandle) -> LogSet {
        let _ = handle.tx.send(ShardCmd::Shutdown);
        handle.join.join().unwrap().1
    }

    /// FIFO, ring pre-filled: the inbox already holds forty transactions
    /// when the shard starts, and a `submit` racing the shard thread's
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
        let mut qm = QueueManager::new(SiteId(0));
        qm.add_item(item(), 42, EnforcementMode::SemiLock);
        let stats = Arc::new(RuntimeStats::with_shards(1));
        let (tx, inbox) = transport::ring::channel(64);
        for t in 1..=QUEUED {
            assert!(tx.try_send(write_txn(t)).is_ok());
        }
        let handle = spawn(
            qm,
            0,
            inbox,
            tx,
            Arc::new(Registry::new(64)),
            Arc::clone(&stats),
            Arc::new(TracePlane::new(&trace::TraceConfig::default(), 1)),
            Arc::new(CommitClock::new()),
        );
        handle.tx.submit(last(QUEUED + 1), wait).unwrap();
        let logs = shutdown(handle);
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
        let tx = handle.tx.clone();
        let held = tx.core.lock().unwrap();
        assert!(tx.send(write_txn(1)).is_ok());
        tx.submit(kind(2), wait).unwrap();
        assert!(!tx.ring.is_idle(), "nothing is taken without the core");
        drop(held);
        // Wait for the shard thread's tenure (it was already woken) so the
        // third transaction finds the idle shard it needs to run inline.
        while !tx.ring.is_idle() {
            std::thread::yield_now();
        }
        drop(tx.core.lock().unwrap());
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
        let tx = handle.tx.clone();
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
                let held = tx.core.lock().unwrap();
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
    /// ahead of it. A live shard thread would race the waiter for the core
    /// (and, winning, drain the write so the waiter runs inline after it),
    /// so here its inbox is a second ring, fed what the first one holds,
    /// in order, only once the submit is done.
    #[test]
    fn a_waiter_that_wins_the_core_behind_a_backlog_enqueues() {
        for kind in [snapshot_read, bypass_add, write_txn] {
            let (handle, mut sent, inbox) = spawn_unfed();
            let tx = handle.tx.clone();
            let shard0 = submit_against_a_briefly_held_core(&tx, kind(1), |tx| {
                assert!(tx.send(write_txn(1000)).is_ok());
            });
            assert_eq!(
                (shard0.enqueued_backlog, shard0.inline),
                (1, 0),
                "{shard0:?}"
            );
            assert!(tx.send(ShardCmd::Shutdown).is_ok());
            let mut cmds = Vec::new();
            sent.drain_into(&mut cmds);
            for cmd in cmds {
                assert!(inbox.send(cmd).is_ok());
            }
            let order = log_order(&handle.join.join().unwrap().1);
            assert_eq!(order, [1000, 1], "write first");
        }
    }

    /// A `Crash` sleeps holding the core: a `submit` during the outage
    /// returns at once — a waiting one after its bounded wait, counted as
    /// expired — enqueued, not run, and is applied only when the outage
    /// is over.
    #[test]
    fn submit_during_a_crash_outage_enqueues_and_the_outage_lasts() {
        for kind in EVERY_KIND {
            submit_during_a_crash_outage(kind);
        }
    }

    fn submit_during_a_crash_outage((kind, wait): Kind) {
        const OUTAGE: Duration = Duration::from_millis(150);
        let (handle, _registry, stats) = spawn_one();
        let tx = &handle.tx;
        let crashed = std::time::Instant::now();
        assert!(tx.send(ShardCmd::Crash { outage: OUTAGE }).is_ok());
        // Taken off the ring means taken under the lock, in the tenure
        // that sleeps.
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
        let tx = handle.tx.clone();
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
            handle.tx.submit(write_txn(t), false).unwrap();
        }
        let shard0 = stats.snapshot().per_shard[0];
        // The shard thread parks until something is sent, so nothing
        // contends for the core and nothing has folded.
        assert_eq!(shard0.inline, COMMITS, "{shard0:?}");
        assert_eq!(shard0.log_fold_nudges, 0);
        assert_eq!(handle.tx.core.lock().unwrap().log_buf.len(), 10);
        let (log_tx, log_rx) = transport::oneshot::channel();
        assert!(handle.tx.send(ShardCmd::LogSnapshot(log_tx)).is_ok());
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
        let tx = &handle.tx;
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
        while !tx.core.lock().unwrap().log_buf.is_empty() {
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

    /// An engine panic during an inline run takes the *shard* down: the
    /// caller gets a typed error back, the shard thread dies of the panic
    /// and both entries fail from then on.
    #[test]
    fn an_inline_engine_panic_kills_the_shard_not_the_caller() {
        let (handle, _registry, _stats) = spawn_one();
        let tx = handle.tx.clone();
        // The dedup mutation: with suppression off, a duplicated `Access`
        // trips the queue's "already queued" debug assertion.
        tx.core.lock().unwrap().qm.set_dedup_access(false);
        let twice = access(1, AccessMode::Write, 1);
        if tx.submit(batch([twice, twice]), false).is_ok() {
            // Release builds compile the assertion out (the duplicate
            // double-queues instead): nothing to contain.
            shutdown(handle);
            return;
        }
        assert!(handle.join.join().is_err(), "the shard thread re-raises");
        assert!(tx.submit(write_txn(2), false).is_err());
        assert!(tx.send(write_txn(3)).is_err());
    }
}
