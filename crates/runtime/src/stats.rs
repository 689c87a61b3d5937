//! Lock-free runtime counters, striped metric shards and their copyable
//! snapshot.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use metrics::{MetricsSample, SimMetrics};
use selection::CacheStats;
use simkit::time::SimTime;
use transport::CachePadded;

/// Commit-path-free metric collection: `SimMetrics` striped over
/// thread-affine shards. Each recording thread owns one stripe (threads
/// are assigned round-robin on first use), so the stripe mutex it takes
/// is effectively private — recording never contends with other
/// recorders, and never with admission. The only reader that touches
/// other stripes is [`MetricsShards::merged`], which the selector's
/// refitter calls at epoch-refit boundaries (and shutdown calls once); it
/// locks each stripe briefly in turn, so a refit can run *while* commits
/// keep recording.
pub(crate) struct MetricsShards {
    stripes: Box<[CachePadded<Mutex<SimMetrics>>]>,
    next_stripe: AtomicUsize,
}

/// Stripes in a [`MetricsShards`]. Chosen to comfortably exceed typical
/// client-thread counts; threads beyond this share stripes round-robin
/// (still correct, marginally more contention).
const METRIC_STRIPES: usize = 16;

thread_local! {
    /// This thread's stripe assignment (`usize::MAX` = unassigned).
    static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
}

impl MetricsShards {
    pub(crate) fn new() -> Self {
        MetricsShards {
            stripes: (0..METRIC_STRIPES)
                .map(|_| CachePadded::new(Mutex::new(SimMetrics::new())))
                .collect(),
            next_stripe: AtomicUsize::new(0),
        }
    }

    /// Record into the calling thread's stripe.
    pub(crate) fn with_local<R>(&self, f: impl FnOnce(&mut SimMetrics) -> R) -> R {
        let idx = STRIPE.with(|slot| {
            let mut idx = slot.get();
            if idx == usize::MAX {
                idx = self.next_stripe.fetch_add(1, Ordering::Relaxed) % METRIC_STRIPES;
                slot.set(idx);
            }
            idx
        });
        let mut stripe = self.stripes[idx % METRIC_STRIPES]
            .lock()
            .expect("metrics stripe poisoned");
        f(&mut stripe)
    }

    /// Fold every stripe into one collection covering `[0, end]`.
    pub(crate) fn merged(&self, end: SimTime) -> SimMetrics {
        let mut merged = SimMetrics::new();
        for stripe in self.stripes.iter() {
            let stripe = stripe.lock().expect("metrics stripe poisoned");
            merged.merge_from(&stripe);
        }
        merged.set_time_span(SimTime::ZERO, end);
        merged
    }

    /// Fold the system-wide scalars of every stripe over `[0, end]` — what
    /// [`MetricsShards::merged`]`(end).sample()` would return, without
    /// touching a per-item table or a histogram. This is all the selector's
    /// drift probe reads.
    pub(crate) fn sample(&self, end: SimTime) -> MetricsSample {
        let mut folded = MetricsSample {
            elapsed_secs: (end - SimTime::ZERO).as_secs_f64(),
            ..MetricsSample::default()
        };
        for stripe in self.stripes.iter() {
            let sample = stripe.lock().expect("metrics stripe poisoned").sample();
            folded.merge_from(&sample);
        }
        folded
    }
}

#[cfg(test)]
impl MetricsShards {
    /// Lock a stripe the calling thread does not record into: a merge
    /// started meanwhile blocks on it, this thread's transactions do not.
    pub(crate) fn lock_foreign_stripe(&self) -> std::sync::MutexGuard<'_, SimMetrics> {
        self.with_local(|_| ());
        let foreign = (STRIPE.with(Cell::get) + 1) % METRIC_STRIPES;
        self.stripes[foreign]
            .lock()
            .expect("metrics stripe poisoned")
    }
}

/// Counters about one shard, maintained by whoever runs its core or
/// submits to it: its grants, conflicts, implemented operations and
/// aborts — the only count of each, summed into [`StatsSnapshot`] — and
/// one counter per outcome of `ShardSender::submit`.
#[derive(Debug, Default)]
pub(crate) struct ShardCounters {
    /// Lock grants issued by this shard.
    pub(crate) grants: AtomicU64,
    /// Grants issued pre-scheduled, i.e. under a standing conflict.
    pub(crate) prescheduled: AtomicU64,
    /// Operations implemented (committed into this shard's log slice).
    pub(crate) implemented: AtomicU64,
    /// Abort messages processed (T/O restarts, deadlock victims, user
    /// aborts reaching this shard).
    pub(crate) aborts: AtomicU64,
    /// Submitted commands the calling thread ran itself (core free, inbox
    /// idle, log buffer roomy).
    pub(crate) inline: AtomicU64,
    /// Of `inline`, the submits that found the core held and got it
    /// within the bounded wait.
    pub(crate) inline_waited: AtomicU64,
    /// Submitted commands handed to the holder: another thread held the
    /// core, so they were pushed onto the inbox without waking anyone.
    pub(crate) enqueued_busy: AtomicU64,
    /// Of `enqueued_busy`, the submits that waited for the core and ran
    /// out of the bound.
    pub(crate) wait_expired: AtomicU64,
    /// … because the inbox held commands not yet taken (running ahead of
    /// them would break per-shard FIFO).
    pub(crate) enqueued_backlog: AtomicU64,
    /// … because the core's log buffer had no room for their records.
    pub(crate) enqueued_log_full: AtomicU64,
    /// `FoldLog` nudges sent to the keeper at a half-full buffer.
    pub(crate) log_fold_nudges: AtomicU64,
    /// Enqueued commands a hand-off pass ran — taken off the inbox by a
    /// thread letting go of the core (or winning it right after its own
    /// hand-off) instead of by the keeper.
    pub(crate) combined: AtomicU64,
    /// Submits that found the core held and started the bounded
    /// wait (whatever came of it): the hook a test forces its interleaving
    /// with.
    #[cfg(test)]
    pub(crate) core_waits: AtomicU64,
}

impl ShardCounters {
    fn snapshot(&self) -> ShardCounterSnapshot {
        ShardCounterSnapshot {
            grants: self.grants.load(Ordering::Relaxed),
            prescheduled: self.prescheduled.load(Ordering::Relaxed),
            implemented: self.implemented.load(Ordering::Relaxed),
            aborts: self.aborts.load(Ordering::Relaxed),
            inline: self.inline.load(Ordering::Relaxed),
            inline_waited: self.inline_waited.load(Ordering::Relaxed),
            enqueued_busy: self.enqueued_busy.load(Ordering::Relaxed),
            wait_expired: self.wait_expired.load(Ordering::Relaxed),
            enqueued_backlog: self.enqueued_backlog.load(Ordering::Relaxed),
            enqueued_log_full: self.enqueued_log_full.load(Ordering::Relaxed),
            log_fold_nudges: self.log_fold_nudges.load(Ordering::Relaxed),
            combined: self.combined.load(Ordering::Relaxed),
        }
    }
}

/// A copy of one shard's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardCounterSnapshot {
    /// Lock grants issued by this shard.
    pub grants: u64,
    /// Grants issued under a standing conflict (pre-scheduled).
    pub prescheduled: u64,
    /// Operations implemented by this shard.
    pub implemented: u64,
    /// Abort messages this shard processed.
    pub aborts: u64,
    /// Submitted commands run on the calling thread (no wake-up).
    pub inline: u64,
    /// Of `inline`, submits that waited for a held core first.
    pub inline_waited: u64,
    /// Submitted commands handed to the holder of the core.
    pub enqueued_busy: u64,
    /// Of `enqueued_busy`, submits that waited for the core and ran out
    /// of the bound.
    pub wait_expired: u64,
    /// Submitted commands enqueued behind an inbox backlog.
    pub enqueued_backlog: u64,
    /// Submitted commands enqueued because the log buffer was full.
    pub enqueued_log_full: u64,
    /// Log-fold nudges sent to the keeper.
    pub log_fold_nudges: u64,
    /// Enqueued commands a hand-off pass ran instead of the keeper.
    pub combined: u64,
}

/// Counters updated concurrently by client threads and the keeper (which
/// runs the deadlock detector). What a shard counts lives only in its `per_shard`
/// entry; `snapshot` sums the totals.
#[derive(Debug, Default)]
pub(crate) struct RuntimeStats {
    pub(crate) committed: AtomicU64,
    pub(crate) rejected_restarts: AtomicU64,
    pub(crate) deadlock_restarts: AtomicU64,
    pub(crate) backoff_rounds: AtomicU64,
    pub(crate) deadlock_victims: AtomicU64,
    pub(crate) deadlock_probes: AtomicU64,
    pub(crate) deadlock_push_scans: AtomicU64,
    pub(crate) deadlock_backstop_victims: AtomicU64,
    pub(crate) deadlock_report_skips: AtomicU64,
    pub(crate) user_aborts: AtomicU64,
    pub(crate) failed: AtomicU64,
    /// Transactions applied through the coordination-avoidance bypass.
    pub(crate) fastpath_applied: AtomicU64,
    /// Bypass attempts refused by a queue manager (touched slot had
    /// coordinated work in flight) and re-run on the coordinated path.
    pub(crate) fastpath_refused: AtomicU64,
    /// Read-only transactions served from the version chains at the
    /// global read watermark (no coordination at all).
    pub(crate) snapshot_reads: AtomicU64,
    /// Snapshot reads refused by a shard (a requested item had no
    /// version at the watermark — pruned or crash-wiped), after the one
    /// retry a moved watermark earns, and re-run on the coordinated path.
    pub(crate) snapshot_refused: AtomicU64,
    /// Snapshot reads refused at the watermark they loaded and retried
    /// once at the fresh one it had moved to.
    pub(crate) snapshot_retries: AtomicU64,
    /// Dynamic-policy selections performed.
    pub(crate) selections: AtomicU64,
    /// Wall-clock nanoseconds client threads spent selecting (dynamic
    /// policy): load the epoch, summarise, look up, argmin.
    pub(crate) selection_nanos: AtomicU64,
    /// Wall-clock nanoseconds spent answering re-fit requests — probe,
    /// stripe merge, fit, pre-warm — on the refitter thread or inside
    /// [`crate::Database::force_refit`].
    pub(crate) selection_refit_nanos: AtomicU64,
    /// Re-fits asked for and never published (shutdown, refitter panic).
    pub(crate) selection_refits_abandoned: AtomicU64,
    /// Incarnations restarted because `request_timeout` expired before
    /// every access was granted (fault plane / dead shard).
    pub(crate) timeout_restarts: AtomicU64,
    /// Transactions that gave up with [`crate::TxnError::ShardUnavailable`]
    /// after exhausting timeout restarts or a bounded commit wait.
    pub(crate) shard_unavailable: AtomicU64,
    /// Stranded-transaction queue entries aborted by the detector's
    /// cleanup sweep (zombie state left by dropped or late messages).
    pub(crate) cleanup_aborts: AtomicU64,
    /// Duplicate `Access` deliveries suppressed by the queue managers'
    /// idempotent-redelivery guard.
    pub(crate) dup_suppressed: AtomicU64,
    /// Shard crash faults injected (each wipes the shard's ungranted
    /// queue entries after an unresponsive outage).
    pub(crate) shard_crashes: AtomicU64,
    /// One-shot answers (snapshot reads, bypass applies) the bounded
    /// reply spin caught without its client parking; the mailbox replies
    /// it caught are counted by the registry.
    pub(crate) oneshot_spin_hits: AtomicU64,
    pub(crate) per_shard: Vec<ShardCounters>,
}

/// A consistent-enough copy of the runtime counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Transactions committed.
    pub committed: u64,
    /// Incarnations restarted after a T/O rejection.
    pub rejected_restarts: u64,
    /// Incarnations restarted as deadlock victims.
    pub deadlock_restarts: u64,
    /// PA backoff rounds performed.
    pub backoff_rounds: u64,
    /// Victim signals raised by the deadlock detector — one per victim
    /// incarnation, however many scans saw its cycle before it reacted.
    pub deadlock_victims: u64,
    /// Wait-for edges the shards announced to the registry as they were
    /// queued (one waited-on mark and one look each); zero for a workload
    /// in which nothing ever waits.
    pub deadlock_probes: u64,
    /// Detector scans run because a shard asked for one — it queued an
    /// edge whose waiter was itself waited on — rather than because
    /// `deadlock_scan_interval` came round.
    pub deadlock_push_scans: u64,
    /// Of `deadlock_victims`, those only a periodic scan found. The health
    /// signal of event-driven detection: non-zero means a wait-for edge
    /// was queued without being announced (or its announcement was lost)
    /// and the cycle stood until the backstop tick.
    pub deadlock_backstop_victims: u64,
    /// Shards a deadlock scan went on without: their core was down (a
    /// crash outage) or held past the scan's bound. A scan that skips a
    /// shard can miss a cycle through it; a pushed one asks once more.
    pub deadlock_report_skips: u64,
    /// Transaction handles ended by [`crate::ActiveTxn::abort`] or
    /// dropped before `commit` — snapshot ones included, and the handle a
    /// `run_transaction` drops on [`crate::TxnError::NotInWriteSet`]. An
    /// error from `commit` is not counted here, nor is any error from
    /// `begin`.
    pub user_aborts: u64,
    /// `begin`s that returned [`crate::TxnError::TooManyRestarts`]: the
    /// `max_restarts` budget ran out on a T/O rejection or a deadlock
    /// victim. A budget that runs out on an expired `request_timeout` is
    /// in `shard_unavailable`, not here.
    pub failed: u64,
    /// Lock grants issued across all shards (the sum of the per-shard
    /// `grants`).
    pub grants: u64,
    /// Operations implemented (entered the execution log) across all
    /// shards (the sum of the per-shard `implemented`).
    pub implemented_ops: u64,
    /// Transactions committed through the coordination-avoidance bypass
    /// (no grants, no precedence entries, no queue time).
    pub fastpath_applied: u64,
    /// Bypass attempts refused because a touched slot had queued or
    /// granted coordinated work; each re-ran on the coordinated path.
    pub fastpath_refused: u64,
    /// Read-only transactions served from the per-item version chains at
    /// the global read watermark — the snapshot plane's fourth method.
    pub snapshot_reads: u64,
    /// Snapshot reads a shard refused (no version at the watermark, even
    /// after the one retry at a moved watermark); each re-ran on the
    /// coordinated path.
    pub snapshot_refused: u64,
    /// Snapshot reads refused at the watermark they loaded and retried
    /// once at the fresh one it had moved to (served or refused, each is
    /// also in `snapshot_reads` or `snapshot_refused`).
    pub snapshot_retries: u64,
    /// Dynamic-policy selections performed.
    pub selections: u64,
    /// Wall-clock nanoseconds client threads spent inside the selector
    /// (dynamic policy): the admission-path half of its cost — loading the
    /// published epoch, table lookups, and the dynamic programs of the
    /// selections that missed.
    pub selection_nanos: u64,
    /// Wall-clock nanoseconds spent answering re-fit requests off the
    /// admission path — drift probe, stripe merge, model fit, pre-warm of
    /// the new epoch's table — by the refitter thread and by
    /// [`crate::Database::force_refit`]. With `selection_nanos`, the
    /// selector's whole cost.
    pub selection_refit_nanos: u64,
    /// Re-fits that were asked for and never published: cut short or
    /// still pending when the database shut down, or lost to a panic on
    /// the refitter thread (selection then keeps the last good epoch).
    pub selection_refits_abandoned: u64,
    /// Stale reply events suppressed by the reply plane: deliveries
    /// dropped because no live incarnation matched, plus events an
    /// earlier incarnation left queued and a register-time sweep
    /// discarded. Filled in by
    /// [`crate::Database::stats`] from the registry, not by
    /// `RuntimeStats` itself.
    pub stale_reply_events: u64,
    /// Always 0: the reply plane has no overflow map any more (a
    /// transaction id carries its mailbox slot). Kept only because
    /// existing metric readers still name it.
    pub mailbox_overflow_entries: u64,
    /// Always 0: the reply plane has no index to resize any more. Kept
    /// only because existing metric readers still name it.
    pub mailbox_index_resizes: u64,
    /// Reply deliveries dropped because a live mailbox stayed full past
    /// the transport's `MailboxOptions::deliver_timeout` default of one
    /// second (a stalled client thread; the transaction
    /// recovers through the timeout/restart machinery). Filled in by
    /// [`crate::Database::stats`] from the registry.
    pub mailbox_full_drops: u64,
    /// Trace events recorded by the flight-recorder plane across every
    /// lane (0 when tracing is off). Filled in by
    /// [`crate::Database::stats`] from the trace plane.
    pub trace_events: u64,
    /// Incarnations restarted because `request_timeout` expired before
    /// every access was granted (fault plane / dead shard).
    pub timeout_restarts: u64,
    /// Every [`crate::TxnError::ShardUnavailable`] returned: a `begin`
    /// whose restart budget ran out on an expired `request_timeout`, a
    /// `commit` whose release wait passed `commit_timeout`, and a one-shot
    /// route (snapshot read or bypass) a shard did not answer within
    /// `diagnostic_timeout`.
    pub shard_unavailable: u64,
    /// Stranded-transaction queue entries aborted by the detector's
    /// cleanup sweep.
    pub cleanup_aborts: u64,
    /// Duplicate `Access` deliveries suppressed by the queue managers.
    pub dup_suppressed: u64,
    /// Shard crash faults injected by the fault plane.
    pub shard_crashes: u64,
    /// Protocol commands (`HandleBatch`, bypass applies, snapshot reads)
    /// a client ran on its own thread — and edge reports the deadlock
    /// detector ran on its — because it found the owning shard's core free
    /// (free within the bounded wait, for a submit that asked for it) and
    /// its inbox idle: no wake-up paid. This and the three
    /// `shard_enqueued_*` counters partition the submitted commands; each
    /// is the sum of its per-shard namesake.
    pub shard_inline: u64,
    /// Of `shard_inline`, the submits that found the core held by
    /// another thread and ran inline after a bounded wait of a few
    /// microseconds instead of taking the ring: one-shot commands (snapshot
    /// reads, bypass applies), and a coordinated `HandleBatch` that was the
    /// last of its call with every earlier one run inline.
    /// `shard_inline_waited ⊆ shard_inline`: it is not a fifth outcome of
    /// a submit.
    pub shard_inline_waited: u64,
    /// Submitted commands handed to the holder: another thread held the
    /// core (for a submit that waited: still held after the bounded
    /// wait), so the command was pushed onto the inbox without waking the
    /// keeper, for whoever lets go of the core next to run.
    pub shard_enqueued_busy: u64,
    /// Of `shard_enqueued_busy`, the submits that waited for the core and
    /// ran out of the bound: what the wait cost without saving the hop.
    /// `shard_inline_waited + shard_wait_expired` counts every submit that
    /// waited.
    pub shard_wait_expired: u64,
    /// Submitted commands enqueued because the inbox held commands not
    /// yet taken (per-shard FIFO).
    pub shard_enqueued_backlog: u64,
    /// Submitted commands enqueued because the core's log buffer had no
    /// room for their records.
    pub shard_enqueued_log_full: u64,
    /// Nudges sent to the keeper to fold a half-full log buffer.
    pub log_fold_nudges: u64,
    /// Enqueued commands a hand-off pass ran: a thread letting go of a
    /// shard's core (or winning it right after handing over its own
    /// command) took them off the inbox and ran them, one pass of what
    /// was queued, instead of the keeper. The sum of the per-shard
    /// `combined`.
    pub shard_combined: u64,
    /// Reply waits — a client's mailbox receive, a one-shot route's
    /// answer — that found nothing yet and were served by the bounded
    /// spin ([`transport::SPIN_WAIT`]) without parking. Filled in by
    /// [`crate::Database::stats`].
    pub reply_spin_hits: u64,
    /// Selection-cache counters (all zero unless the policy is dynamic):
    /// `hits` and `misses` count admission-path decisions, `evals` every
    /// dynamic program run and `prewarmed` the share of them the refitter
    /// ran. Filled in by [`crate::Database::stats`] from the selector.
    pub cache: CacheStats,
    /// Per-shard grant / conflict / implementation counters.
    pub per_shard: Vec<ShardCounterSnapshot>,
}

impl RuntimeStats {
    /// Counters for a runtime with `shards` shards.
    pub(crate) fn with_shards(shards: usize) -> Self {
        RuntimeStats {
            per_shard: (0..shards).map(|_| ShardCounters::default()).collect(),
            ..RuntimeStats::default()
        }
    }

    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        let per_shard: Vec<_> = self.per_shard.iter().map(ShardCounters::snapshot).collect();
        let sum = |field: fn(&ShardCounterSnapshot) -> u64| per_shard.iter().map(field).sum();
        StatsSnapshot {
            committed: self.committed.load(Ordering::Relaxed),
            rejected_restarts: self.rejected_restarts.load(Ordering::Relaxed),
            deadlock_restarts: self.deadlock_restarts.load(Ordering::Relaxed),
            backoff_rounds: self.backoff_rounds.load(Ordering::Relaxed),
            deadlock_victims: self.deadlock_victims.load(Ordering::Relaxed),
            deadlock_probes: self.deadlock_probes.load(Ordering::Relaxed),
            deadlock_push_scans: self.deadlock_push_scans.load(Ordering::Relaxed),
            deadlock_backstop_victims: self.deadlock_backstop_victims.load(Ordering::Relaxed),
            deadlock_report_skips: self.deadlock_report_skips.load(Ordering::Relaxed),
            user_aborts: self.user_aborts.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            grants: sum(|s| s.grants),
            implemented_ops: sum(|s| s.implemented),
            fastpath_applied: self.fastpath_applied.load(Ordering::Relaxed),
            fastpath_refused: self.fastpath_refused.load(Ordering::Relaxed),
            snapshot_reads: self.snapshot_reads.load(Ordering::Relaxed),
            snapshot_refused: self.snapshot_refused.load(Ordering::Relaxed),
            snapshot_retries: self.snapshot_retries.load(Ordering::Relaxed),
            selections: self.selections.load(Ordering::Relaxed),
            selection_nanos: self.selection_nanos.load(Ordering::Relaxed),
            selection_refit_nanos: self.selection_refit_nanos.load(Ordering::Relaxed),
            selection_refits_abandoned: self.selection_refits_abandoned.load(Ordering::Relaxed),
            stale_reply_events: 0,
            mailbox_overflow_entries: 0,
            mailbox_index_resizes: 0,
            mailbox_full_drops: 0,
            trace_events: 0,
            timeout_restarts: self.timeout_restarts.load(Ordering::Relaxed),
            shard_unavailable: self.shard_unavailable.load(Ordering::Relaxed),
            cleanup_aborts: self.cleanup_aborts.load(Ordering::Relaxed),
            dup_suppressed: self.dup_suppressed.load(Ordering::Relaxed),
            shard_crashes: self.shard_crashes.load(Ordering::Relaxed),
            shard_inline: sum(|s| s.inline),
            shard_inline_waited: sum(|s| s.inline_waited),
            shard_enqueued_busy: sum(|s| s.enqueued_busy),
            shard_wait_expired: sum(|s| s.wait_expired),
            shard_enqueued_backlog: sum(|s| s.enqueued_backlog),
            shard_enqueued_log_full: sum(|s| s.enqueued_log_full),
            log_fold_nudges: sum(|s| s.log_fold_nudges),
            shard_combined: sum(|s| s.combined),
            reply_spin_hits: self.oneshot_spin_hits.load(Ordering::Relaxed),
            cache: CacheStats::default(),
            per_shard,
        }
    }
}

impl StatsSnapshot {
    /// Total restarts (rejections plus deadlock aborts).
    pub fn restarts(&self) -> u64 {
        self.rejected_restarts + self.deadlock_restarts
    }

    /// Total pre-scheduled (conflicted) grants over all shards.
    pub fn prescheduled_grants(&self) -> u64 {
        self.per_shard.iter().map(|s| s.prescheduled).sum()
    }

    /// Mean microseconds spent selecting a method per dynamic selection.
    pub fn selection_micros_per_txn(&self) -> f64 {
        if self.selections == 0 {
            0.0
        } else {
            self.selection_nanos as f64 / self.selections as f64 / 1_000.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbmodel::{AccessMode, CcMethod, LogicalItemId, PhysicalItemId, SiteId};
    use simkit::time::Duration;

    #[test]
    fn striped_sample_equals_the_sample_of_the_merge() {
        let shards = MetricsShards::new();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let shards = &shards;
                scope.spawn(move || {
                    for i in 0..50u64 {
                        shards.with_local(|m| {
                            let method = CcMethod::ALL[((t + i) % 3) as usize];
                            let item = PhysicalItemId::new(LogicalItemId(i % 9), SiteId(0));
                            m.record_grant(item, AccessMode::Read);
                            m.record_grant(item, AccessMode::Write);
                            m.record_lock_hold(
                                method,
                                Duration::from_micros(40 + t + i),
                                i % 7 == 0,
                            );
                            m.record_request_outcome(method, AccessMode::Write, i % 5 == 0);
                            m.record_commit(method, Duration::from_micros(200 + i));
                        });
                    }
                });
            }
        });
        let end = SimTime::from_millis(250);
        let (probe, full) = (shards.sample(end), shards.merged(end).sample());
        assert_eq!(probe.committed, 200);
        assert_eq!(format!("{probe:?}"), format!("{full:?}"));
    }
}
