//! The [`Database`] facade: thread-safe entry point for live transactions.
//!
//! A `Database` owns one shard per site (see `shard`) plus the background
//! deadlock detector. Any number of client threads may concurrently open
//! transactions; each client thread *is* the request issuer of its own
//! transaction — it drives the sans-IO [`RequestIssuer`] state machine,
//! blocking on its reply mailbox for queue-manager replies, exactly the
//! way the simulator drives it from the event loop — and, when the owning
//! shard is idle, the queue manager's side of the conversation too. Restarts (T/O rejections,
//! deadlock victims) are retried transparently under a fresh transaction id
//! and a larger timestamp, up to [`RuntimeConfig::max_restarts`] attempts.
//!
//! This module holds `open`, `begin`, the diagnostics and `shutdown`; the
//! caller-facing types live in `spec`, the routing decision and the two
//! one-shot routes (`execute`) in `route`, and the execution-phase handle
//! with its commit/abort driver in `txn`.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

use dbmodel::{
    AccessMode, Catalog, CcMethod, LogSet, LogicalItemId, PhysicalItemId, SiteId, Timestamp,
    Transaction, TsTuple, TxnId, Value,
};
use metrics::TxnOutcome;
use pam::{ReplyMsg, RequestMsg};
use selection::{CacheSettings, CachedStlSelector, Route};
use simkit::rng::{splitmix64_nth, unit_f64};
use simkit::time::SimTime;
use trace::{Phase, SpanTimings, TraceLevel, TracePlane, SELECTION_CACHE_HIT};
use transport::mailbox::MailboxOptions;
use unified_cc::{QueueManager, RequestIssuer, RiAction, RiOutput};

use crate::config::{CcPolicy, ConfigError, RuntimeConfig};
use crate::detector;
use crate::refitter;
use crate::registry::{ClientEvent, ClientMailbox, Registry};
use crate::report::RuntimeReport;
use crate::shard::{self, ShardCmd, ShardHandle, ShardSender};
pub use crate::spec::{TxnError, TxnReceipt, TxnSpec};
use crate::stats::{MetricsShards, RuntimeStats, StatsSnapshot};
pub use crate::txn::ActiveTxn;

/// How often a blocked client re-checks whether the database is shutting
/// down underneath it.
pub(crate) const SHUTDOWN_POLL: Duration = Duration::from_millis(50);

pub(crate) struct Inner {
    pub(crate) config: RuntimeConfig,
    pub(crate) catalog: Catalog,
    pub(crate) registry: Arc<Registry>,
    pub(crate) shard_txs: Vec<ShardSender>,
    pub(crate) site_index: HashMap<SiteId, usize>,
    pub(crate) stats: Arc<RuntimeStats>,
    /// Thread-striped metric shards: the commit path records into its own
    /// stripe; stripes are merged only at epoch-refit boundaries (by the
    /// refitter) and at shutdown. There is no global metrics mutex.
    pub(crate) metrics: Arc<MetricsShards>,
    /// The dynamic selector: `begin` reads its published epoch, the
    /// refitter replaces it. Shared with the refitter thread.
    selector: Arc<CachedStlSelector>,
    /// The refitter thread, to unpark when a selection asks for a re-fit
    /// (spawned under [`CcPolicy::DynamicStl`] only).
    refitter: Option<Thread>,
    /// Draws [`CcPolicy::Mix`] has made: the `n`-th `begin` takes the `n`-th
    /// value of the SplitMix64 stream of `config.seed`, so the policy costs
    /// one `fetch_add` and no lock.
    mix_draws: AtomicU64,
    /// Per-method selection tally, indexed by [`method_code`] — a fixed
    /// atomic array, the last lock the stats read path used to take.
    /// [`Database::shutdown`] folds it back into the report's `BTreeMap`.
    selection_counts: [AtomicU64; 3],
    /// Begin-order sequence of the last minted incarnation id (see
    /// [`Inner::mint_txn_id`]).
    next_seq: AtomicU64,
    ts_counter: AtomicU64,
    started: Instant,
    pub(crate) stopped: Arc<AtomicBool>,
    /// The armed fault-injection plane wrapping the client→shard
    /// transport boundary (`None` when the config schedules no faults).
    faults: Option<Arc<faultsim::FaultPlane>>,
    /// The flight-recorder tracing plane (see [`trace`]); shared with the
    /// shard threads and the deadlock detector.
    pub(crate) trace: Arc<TracePlane>,
    /// The global commit clock: coordinated commits draw/retire their
    /// stamp here; snapshot reads load its watermark. Shared with the
    /// shard threads (fast-path stamping and version-chain pruning).
    pub(crate) clock: Arc<crate::clock::CommitClock>,
    /// Keeps the serializability-violation observer alive: a failing
    /// oracle replay anywhere in the process latches this database's
    /// postmortem dump.
    _sercheck_guard: Option<sercheck::ObserverGuard>,
    // Taken exactly once, by whoever performs the shutdown.
    teardown: Mutex<Option<Teardown>>,
}

/// The threads a shutdown stops and joins.
struct Teardown {
    shards: Vec<ShardHandle>,
    detector: JoinHandle<()>,
    refitter: Option<JoinHandle<()>>,
}

impl Inner {
    /// Mint the next incarnation id: the next begin-order `seq`,
    /// addressed to reply mailbox `slot` (0 for the one-shot routes,
    /// which have no mailbox). See [`Registry::txn_id`].
    pub(crate) fn mint_txn_id(&self, slot: u32) -> TxnId {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed) + 1;
        self.registry.txn_id(seq, slot)
    }

    /// The site `txn` originates from: the spec's, or round-robin over
    /// the sites by begin order (its `seq`, not the packed id).
    pub(crate) fn origin_of(&self, spec: &TxnSpec, txn: TxnId) -> SiteId {
        spec.origin
            .unwrap_or_else(|| self.catalog.origin_for(TxnId(self.registry.seq(txn))))
    }

    /// Tell the refitter no further epoch is wanted and wake it so it
    /// notices; a re-fit in flight gives up at its next dynamic program.
    fn close_selector(&self) {
        self.selector.close();
        self.wake_refitter();
    }

    /// Unpark the refitter (if the policy has one) to look at the
    /// selector's request and close flags.
    fn wake_refitter(&self) {
        if let Some(refitter) = &self.refitter {
            refitter.unpark();
        }
    }

    /// Raise `stopped` and wake the detector so it notices — the same
    /// flag-then-unpark idiom as the refitter's.
    fn stop_detector(&self) {
        self.stopped.store(true, Ordering::Relaxed);
        self.registry.wake_detector();
    }
}

impl Drop for Inner {
    /// A database dropped without [`Database::shutdown`] must still let
    /// its background threads exit: the refitter and the detector hold no
    /// handle on this `Inner` (so they cannot delay the drop either), and
    /// the detector's shard senders are what keeps the shard inboxes open.
    fn drop(&mut self) {
        self.close_selector();
        self.stop_detector();
    }
}

/// A live, sharded, multi-threaded database running the unified
/// concurrency-control engine. Cheap to clone; all clones share the same
/// shards.
#[derive(Clone)]
pub struct Database {
    pub(crate) inner: Arc<Inner>,
}

impl Database {
    /// Start the shard threads and the deadlock detector.
    pub fn open(config: RuntimeConfig) -> Result<Database, ConfigError> {
        config.validate()?;
        let catalog = Catalog::generate(config.num_shards, config.num_items, config.replication);
        Self::open_with_catalog(config, catalog)
    }

    /// Start a database over an explicit catalog (one shard per catalog
    /// site). The item-placement fields of `config` are ignored.
    pub fn open_with_catalog(
        config: RuntimeConfig,
        catalog: Catalog,
    ) -> Result<Database, ConfigError> {
        Self::open_with_selector(config, catalog, CacheSettings::default())
    }

    /// [`Database::open_with_catalog`] with the [`CcPolicy::DynamicStl`]
    /// selector tuned by `cache` (tests reach non-default settings here).
    fn open_with_selector(
        config: RuntimeConfig,
        catalog: Catalog,
        cache: CacheSettings,
    ) -> Result<Database, ConfigError> {
        config.validate()?;
        let registry = Arc::new(Registry::with_options(MailboxOptions {
            mailbox_capacity: config.reply_mailbox_capacity,
            max_clients: config.reply_max_clients,
            ..MailboxOptions::default()
        }));
        let stats = Arc::new(RuntimeStats::with_shards(catalog.sites().len()));
        let stopped = Arc::new(AtomicBool::new(false));
        let plane = Arc::new(TracePlane::new(&config.trace, catalog.sites().len()));
        let clock = Arc::new(crate::clock::CommitClock::new());

        let mut shard_handles = Vec::new();
        let mut shard_txs = Vec::new();
        let mut site_index = HashMap::new();
        for (idx, &site) in catalog.sites().iter().enumerate() {
            let mut qm = QueueManager::from_catalog(
                site,
                &catalog,
                config.initial_value,
                config.enforcement,
            );
            qm.set_dedup_access(config.dedup_access);
            qm.set_version_retain(config.version_retain);
            qm.set_snapshot_validation(config.snapshot_validation);
            // Commands may run on client threads (caller-runs shards):
            // nothing long-lived is left to allocate there.
            qm.prewarm();
            let (tx, rx) = transport::ring::channel(config.shard_inbox_capacity);
            if plane.level() == TraceLevel::Full {
                // Queue-dwell stamping on the inbox ring: each slot
                // carries its enqueue time, the consumer accumulates the
                // dwell — the `qu/blk` segment's transport-side witness
                // for the commands that did not run on their caller.
                tx.set_stamping(true);
            }
            let handle = shard::spawn(
                qm,
                idx,
                rx,
                tx,
                Arc::clone(&registry),
                Arc::clone(&stats),
                Arc::clone(&plane),
                Arc::clone(&clock),
            );
            shard_txs.push(handle.tx.clone());
            site_index.insert(site, idx);
            shard_handles.push(handle);
        }

        let detector_join = detector::spawn(
            shard_txs.clone(),
            Arc::clone(&registry),
            Arc::clone(&stats),
            Arc::clone(&plane),
            config.deadlock_scan_interval,
            Arc::clone(&stopped),
        );

        // A serializability violation observed anywhere in the process
        // (the oracle is global) latches this database's postmortem dump.
        // Installed only when a dump could actually be written.
        let sercheck_guard =
            if plane.level() == TraceLevel::Full && config.trace.postmortem_dir.is_some() {
                let weak = Arc::downgrade(&plane);
                Some(sercheck::observe_violations(move |_err| {
                    if let Some(plane) = weak.upgrade() {
                        let _ = plane.trigger_postmortem("sercheck-violation");
                    }
                }))
            } else {
                None
            };

        let selector = Arc::new(CachedStlSelector::with_settings(cache));
        let metrics = Arc::new(MetricsShards::new());
        let started = Instant::now();
        // Static and mixed policies never select: no thread for them.
        let refitter = matches!(config.policy, CcPolicy::DynamicStl).then(|| {
            refitter::spawn(
                Arc::clone(&selector),
                Arc::clone(&metrics),
                Arc::clone(&stats),
                started,
            )
        });
        let faults = config
            .faults
            .clone()
            .map(|schedule| Arc::new(faultsim::FaultPlane::new(schedule)));
        Ok(Database {
            inner: Arc::new(Inner {
                mix_draws: AtomicU64::new(0),
                catalog,
                registry,
                shard_txs,
                site_index,
                stats,
                metrics,
                selector,
                refitter: refitter.as_ref().map(|join| join.thread().clone()),
                selection_counts: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
                next_seq: AtomicU64::new(0),
                ts_counter: AtomicU64::new(0),
                started,
                stopped,
                faults,
                trace: plane,
                clock,
                _sercheck_guard: sercheck_guard,
                teardown: Mutex::new(Some(Teardown {
                    shards: shard_handles,
                    detector: detector_join,
                    refitter,
                })),
                config,
            }),
        })
    }

    /// The replication catalog the shards were built from.
    pub fn catalog(&self) -> &Catalog {
        &self.inner.catalog
    }

    /// Number of shard threads.
    pub fn num_shards(&self) -> usize {
        self.inner.shard_txs.len()
    }

    /// A snapshot of the runtime counters, including the selection-cache
    /// counters. Reads only atomics — so stats polling cannot contend
    /// with admission — and is side-effect-free.
    pub fn stats(&self) -> StatsSnapshot {
        let mut snapshot = self.inner.stats.snapshot();
        snapshot.cache = self.inner.selector.cache_stats();
        snapshot.stale_reply_events = self.inner.registry.stale_reply_events();
        snapshot.mailbox_full_drops = self.inner.registry.full_drops();
        snapshot.trace_events = self.inner.trace.events_recorded();
        snapshot
    }

    /// The Section-5-style phase breakdown accumulated by the tracing
    /// plane so far: per-method segment histograms whose means telescope
    /// exactly to the measured end-to-end latency, global phase-event
    /// counters, and (at [`TraceLevel::Full`]) the per-shard inbox dwell
    /// meters. Empty at [`TraceLevel::Off`].
    pub fn trace_report(&self) -> trace::TraceReport {
        let mut report = self.inner.trace.report();
        report.transport_dwell = self
            .inner
            .shard_txs
            .iter()
            .enumerate()
            .filter_map(|(shard, tx)| {
                let (messages, nanos) = tx.queue_dwell();
                (messages > 0).then(|| trace::LaneDwell {
                    shard,
                    messages,
                    mean_dwell_us: nanos as f64 / messages as f64 / 1_000.0,
                })
            })
            .collect();
        report
    }

    /// A snapshot of every flight-recorder lane's surviving events
    /// (empty below [`TraceLevel::Full`]). Feed it to
    /// [`trace::TraceLog::from_events`] to reconstruct span trees.
    pub fn trace_snapshot(&self) -> Vec<trace::TraceEvent> {
        self.inner.trace.snapshot()
    }

    /// Number of transactions currently live (requesting, executing or
    /// releasing).
    pub fn live_transactions(&self) -> usize {
        self.inner.registry.len()
    }

    /// Transactions currently queued at some shard without a grant
    /// (diagnostics). Bounded: a shard that does not answer within
    /// [`crate::RuntimeConfig::diagnostic_timeout`] (e.g. mid-outage
    /// under the fault plane) is skipped rather than blocking the caller
    /// forever.
    pub fn waiting_transactions(&self) -> Vec<TxnId> {
        let deadline = self.inner.config.diagnostic_timeout;
        let mut waiting = Vec::new();
        for shard in &self.inner.shard_txs {
            let (tx, rx) = transport::oneshot::channel();
            if shard.send(ShardCmd::Waiting(tx)).is_ok() {
                if let Ok(mut txns) = rx.recv_timeout(deadline) {
                    waiting.append(&mut txns);
                }
            }
        }
        waiting.sort_unstable();
        waiting.dedup();
        waiting
    }

    /// A live copy of the execution log accumulated so far, merged across
    /// shards — the tap the serializability oracle replays. Bounded like
    /// [`Database::waiting_transactions`]: an unresponsive shard's slice
    /// is missing from the snapshot instead of hanging the caller.
    pub fn log_snapshot(&self) -> LogSet {
        let deadline = self.inner.config.diagnostic_timeout;
        let mut merged = LogSet::new();
        for shard in &self.inner.shard_txs {
            let (tx, rx) = transport::oneshot::channel();
            if shard.send(ShardCmd::LogSnapshot(tx)).is_ok() {
                if let Ok(slice) = rx.recv_timeout(deadline) {
                    merged.absorb(slice);
                }
            }
        }
        merged
    }

    /// Deactivate the fault plane and flush every message it still holds
    /// (delayed and partition-buffered) to its destination shard. Call
    /// before draining a chaos run so invariants are checked against a
    /// fully delivered history. No-op without an armed fault plane.
    pub fn quiesce_faults(&self) {
        if let Some(plane) = &self.inner.faults {
            plane.quiesce(|link, msg| {
                // The flushed message's origin is lost with the buffer;
                // precedence tie-breaking by origin only needs *a* site,
                // and the destination's own id is deterministic.
                let origin = self.inner.catalog.sites()[link];
                let _ = self.inner.shard_txs[link].send(ShardCmd::HandleBatch {
                    origin,
                    msgs: [msg].into_iter().collect(),
                });
            });
        }
    }

    /// Counters of every fault the armed plane injected so far (`None`
    /// without a fault schedule).
    pub fn fault_counters(&self) -> Option<faultsim::FaultCounters> {
        self.inner.faults.as_ref().map(|plane| plane.counters())
    }

    /// Force an epoch re-fit of the dynamic selector right now, on the
    /// calling thread: merge the metric stripes, fit, pre-warm, publish.
    /// Admission keeps reading the previous epoch until the publish.
    /// Useful for diagnostics and for tests that pin epoch boundaries.
    pub fn force_refit(&self) {
        let inner = &self.inner;
        let begun = Instant::now();
        let merged = inner.metrics.merged(self.now());
        let _ = inner
            .selector
            .refit_now(&merged, inner.stats.workload_signal());
        inner
            .stats
            .selection_refit_nanos
            .fetch_add(begun.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Open a transaction and drive it to its execution phase: all requests
    /// granted, read values in hand. Restarts are retried internally.
    ///
    /// Pure read-only shapes (with
    /// [`crate::RuntimeConfig::snapshot_reads`] on, no pinned method) are
    /// served from the MVCC snapshot plane instead: the returned
    /// transaction already holds its reads — observed at the global read
    /// watermark, with no locks, queue entries or restart exposure —
    /// and its [`ActiveTxn::commit`] is a pure local accounting step.
    /// Staging a write on such a transaction fails with
    /// [`TxnError::NotInWriteSet`], exactly as it would on the
    /// coordinated path. A refused snapshot falls back to coordination
    /// (the bypass commits inside one shard command, so it has no
    /// execution phase to hand back).
    pub fn begin(&self, spec: &TxnSpec) -> Result<ActiveTxn, TxnError> {
        let inner = &self.inner;
        if self.routes(spec).next() == Some(Route::Snapshot) {
            if let Some((txn_id, reads)) = self.snapshot_read_values(spec)? {
                let origin = inner.origin_of(spec, txn_id);
                let txn = Transaction::builder(txn_id, origin)
                    .reads(spec.reads.iter().copied())
                    .build();
                // A snapshot transaction never talks to a queue manager:
                // its issuer exists only to carry the id/shape (empty
                // access list, never started, never registered).
                let ri = RequestIssuer::new(
                    txn,
                    TsTuple::new(Timestamp::ZERO, inner.config.pa_backoff_interval),
                    Vec::new(),
                );
                return Ok(ActiveTxn::new_snapshot(
                    self.clone(),
                    ri,
                    reads,
                    inner.trace.client_lane(),
                ));
            }
        }
        self.begin_coordinated(spec)
    }

    /// [`Database::begin`] below the routing decision: drive a
    /// coordinated incarnation to its execution phase, never consulting
    /// the snapshot plane — the entry point a fallback uses, so a refused
    /// route is not asked twice.
    ///
    /// The reply endpoint is acquired **once** here and reused across
    /// every restart incarnation — that is the whole point of the mailbox
    /// slab: registration re-arms the same mailbox under the new
    /// transaction id instead of allocating a channel. Holding it first
    /// is also what lets every incarnation's id carry the mailbox's slot.
    pub(crate) fn begin_coordinated(&self, spec: &TxnSpec) -> Result<ActiveTxn, TxnError> {
        let inner = &self.inner;
        let plane = &inner.trace;
        let lane = plane.client_lane();
        let mut mailbox =
            inner
                .registry
                .client_mailbox()
                .map_err(|e| TxnError::ReplyPlaneExhausted {
                    max_clients: e.max_clients,
                })?;
        let mut attempt: u32 = 0;
        loop {
            if inner.stopped.load(Ordering::Relaxed) {
                return Err(TxnError::ShuttingDown);
            }
            let t_begin = plane.now();
            let (method, cache_hit) = match spec.method {
                Some(pinned) => (pinned, false),
                None => self.pick_method(spec),
            };
            let t_sel = plane.now();
            let txn_id = inner.mint_txn_id(mailbox.slot());
            plane.record_at(lane, t_begin, txn_id.0, Phase::Begin, attempt);
            let sel_arg = method_code(method) | if cache_hit { SELECTION_CACHE_HIT } else { 0 };
            plane.record_at(lane, t_sel, txn_id.0, Phase::SelectionDone, sel_arg);
            let ts = Timestamp(inner.ts_counter.fetch_add(1, Ordering::Relaxed) + 1);
            let origin = inner.origin_of(spec, txn_id);
            let txn = Transaction::builder(txn_id, origin)
                .method(method)
                .reads(spec.reads.iter().copied())
                .writes(spec.write_items())
                .build();
            let accesses: Vec<(PhysicalItemId, AccessMode)> = inner
                .catalog
                .translate_txn(&txn)
                .map_err(TxnError::UnknownItem)?
                .into_iter()
                .map(|op| (op.item, op.mode))
                .collect();

            inner.registry.register(txn_id, method, &mut mailbox);
            let mut ri = RequestIssuer::new(
                txn,
                TsTuple::new(ts, inner.config.pa_backoff_interval),
                accesses,
            );
            let begun = Instant::now();
            let out = ri.start();
            let started_exec = out.actions.contains(&RiAction::StartExecution);
            let n_sends = out.sends.len() as u32;
            if let Err(e) = self.route_all(origin, out.sends) {
                inner.registry.deregister(txn_id);
                return Err(e);
            }
            let t_enq = plane.now();
            plane.record_at(lane, t_enq, txn_id.0, Phase::TransportEnqueued, n_sends);
            let timings = |exec_start: u64| SpanTimings {
                begin: t_begin,
                selection_done: t_sel,
                enqueued: t_enq,
                exec_start,
                ..SpanTimings::default()
            };
            if started_exec {
                // Degenerate empty transaction: straight to execution.
                let t_exec = plane.now();
                plane.record_at(lane, t_exec, txn_id.0, Phase::ExecutionStart, 0);
                return Ok(ActiveTxn::new(
                    self.clone(),
                    ri,
                    mailbox,
                    begun,
                    attempt,
                    lane,
                    timings(t_exec),
                ));
            }

            match self.wait_for_execution(&mut ri, &mut mailbox, origin, method, lane)? {
                WaitOutcome::Executing => {
                    let t_exec = plane.now();
                    plane.record_at(lane, t_exec, txn_id.0, Phase::ExecutionStart, 0);
                    return Ok(ActiveTxn::new(
                        self.clone(),
                        ri,
                        mailbox,
                        begun,
                        attempt,
                        lane,
                        timings(t_exec),
                    ));
                }
                WaitOutcome::Restart { rejected } => {
                    inner.registry.deregister(txn_id);
                    let t_restart = plane.now();
                    let outcome = if rejected {
                        inner
                            .stats
                            .rejected_restarts
                            .fetch_add(1, Ordering::Relaxed);
                        plane.record_at(lane, t_restart, txn_id.0, Phase::RestartRejected, 0);
                        TxnOutcome::RejectedRestart
                    } else {
                        inner
                            .stats
                            .deadlock_restarts
                            .fetch_add(1, Ordering::Relaxed);
                        plane.record_at(lane, t_restart, txn_id.0, Phase::RestartDeadlock, 0);
                        TxnOutcome::DeadlockRestart
                    };
                    plane.record_restart(method, t_restart.saturating_sub(t_begin));
                    inner.metrics.with_local(|m| {
                        m.record_restart(method, outcome);
                        m.record_lock_hold(
                            method,
                            simkit::time::Duration::from_secs_f64(begun.elapsed().as_secs_f64()),
                            true,
                        );
                    });
                    attempt += 1;
                    if attempt > inner.config.max_restarts {
                        inner.stats.failed.fetch_add(1, Ordering::Relaxed);
                        return Err(TxnError::TooManyRestarts { attempts: attempt });
                    }
                    self.restart_pause(txn_id, attempt);
                }
                WaitOutcome::TimedOut => {
                    // Abort the incarnation's residual queue state (best
                    // effort — the Aborts cross the fault plane too; the
                    // detector's stranded-transaction sweep covers
                    // whatever they don't reach) and retry under a fresh
                    // id. Exhausting the budget is a clean
                    // `ShardUnavailable`: nothing of this transaction was
                    // ever implemented.
                    let aborts: Vec<RequestMsg> = ri
                        .accessed_items()
                        .map(|(item, _)| RequestMsg::Abort { txn: txn_id, item })
                        .collect();
                    let _ = self.route_all(origin, aborts);
                    inner.registry.deregister(txn_id);
                    inner.stats.timeout_restarts.fetch_add(1, Ordering::Relaxed);
                    attempt += 1;
                    if attempt > inner.config.max_restarts {
                        inner
                            .stats
                            .shard_unavailable
                            .fetch_add(1, Ordering::Relaxed);
                        return Err(TxnError::ShardUnavailable);
                    }
                    self.restart_pause(txn_id, attempt);
                }
            }
        }
    }

    /// Run one transaction end to end: open it, call `compute` with the
    /// values read, stage the writes `compute` returns, commit. `compute`
    /// may run more than once if the transaction restarts between opening
    /// and committing — it must be a pure function of the values read.
    pub fn run_transaction<F>(&self, spec: &TxnSpec, mut compute: F) -> Result<TxnReceipt, TxnError>
    where
        F: FnMut(&BTreeMap<LogicalItemId, Value>) -> Vec<(LogicalItemId, Value)>,
    {
        let mut txn = self.begin(spec)?;
        let writes = compute(txn.reads());
        for (item, value) in writes {
            txn.write(item, value)?;
        }
        txn.commit()
    }

    /// Stop accepting work, drain the shards and collapse the runtime into
    /// its final report. Returns `None` on every call but the first.
    pub fn shutdown(&self) -> Option<RuntimeReport> {
        let Teardown {
            shards,
            detector,
            refitter,
        } = self
            .inner
            .teardown
            .lock()
            .expect("teardown poisoned")
            .take()?;
        self.inner.stop_detector();
        // The refitter goes first: joined here, it cannot be mid-merge
        // when the final metrics are taken below, and nothing it
        // allocated outlives this database. It catches its own panics, so
        // the join only fails if the thread was killed from outside.
        self.inner.close_selector();
        if let Some(refitter) = refitter {
            let _ = refitter.join();
        }
        // Flush anything still parked in the fault plane so the final
        // drain sees every surviving message.
        self.quiesce_faults();
        // The detector is gone before the shards drain, so it cannot block
        // on a draining shard.
        let _ = detector.join();
        let mut logs = LogSet::new();
        for handle in &shards {
            let _ = handle.tx.send(ShardCmd::Shutdown);
        }
        for handle in shards {
            // Shards own disjoint items: each slice moves into the
            // report as it is, no entry copied.
            if let Ok((_site, slice)) = handle.join.join() {
                logs.absorb(slice);
            }
        }
        let metrics = self.inner.metrics.merged(self.now());
        let trace_report =
            (self.inner.trace.level() != TraceLevel::Off).then(|| self.trace_report());
        let mut selection_counts = BTreeMap::new();
        for method in [
            CcMethod::TwoPhaseLocking,
            CcMethod::TimestampOrdering,
            CcMethod::PrecedenceAgreement,
        ] {
            let n =
                self.inner.selection_counts[method_code(method) as usize].load(Ordering::Relaxed);
            if n > 0 {
                selection_counts.insert(method, n);
            }
        }
        Some(RuntimeReport {
            logs,
            stats: self.stats(),
            metrics,
            selection_counts,
            trace: trace_report,
        })
    }

    // ------------------------------------------------------------------

    /// Wall-clock time since the database opened, as a simulation-style
    /// timestamp (µs).
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.inner.started.elapsed().as_micros() as u64)
    }

    /// The method the policy assigns `spec`, and whether a dynamic
    /// selection was served wholly from the epoch's STL′ table.
    fn pick_method(&self, spec: &TxnSpec) -> (CcMethod, bool) {
        let inner = &self.inner;
        let (choice, cache_hit) = match inner.config.policy {
            CcPolicy::Static(m) => (m, false),
            CcPolicy::Mix { p_2pl, p_to } => {
                let n = inner.mix_draws.fetch_add(1, Ordering::Relaxed);
                let x = unit_f64(splitmix64_nth(inner.config.seed, n));
                let method = if x < p_2pl {
                    CcMethod::TwoPhaseLocking
                } else if x < p_2pl + p_to {
                    CcMethod::TimestampOrdering
                } else {
                    CcMethod::PrecedenceAgreement
                };
                (method, false)
            }
            CcPolicy::DynamicStl => {
                // Atomics only from here to the decision: the published
                // epoch, the shards' grant / conflict counters, the commit
                // count. Whatever a re-fit needs beyond that — stripes,
                // the model, the new table — is the refitter's business.
                let begun = Instant::now();
                let picked = spec.with_access_sets(|reads, writes| {
                    inner.selector.select_published(
                        reads,
                        writes,
                        SiteId(0),
                        &inner.catalog,
                        inner.stats.workload_signal(),
                        inner.stats.committed.load(Ordering::Relaxed),
                    )
                });
                if picked.raised {
                    inner.wake_refitter();
                }
                inner.stats.selections.fetch_add(1, Ordering::Relaxed);
                inner
                    .stats
                    .selection_nanos
                    .fetch_add(begun.elapsed().as_nanos() as u64, Ordering::Relaxed);
                (picked.decision.method, picked.hit)
            }
        };
        self.inner.selection_counts[method_code(choice) as usize].fetch_add(1, Ordering::Relaxed);
        (choice, cache_hit)
    }

    /// Block on the reply mailbox until the incarnation starts executing or
    /// must restart.
    fn wait_for_execution(
        &self,
        ri: &mut RequestIssuer,
        events: &mut ClientMailbox,
        origin: SiteId,
        method: CcMethod,
        lane: usize,
    ) -> Result<WaitOutcome, TxnError> {
        let txn = ri.txn_id().0;
        // One request outcome is recorded per item per incarnation (the
        // reply to the initial `Access`), matching the simulator's
        // accounting; later replies for the same item (backoff re-grants,
        // normal-grant upgrades) would otherwise skew the denial
        // probabilities the STL selector consumes.
        let mut outcome_seen = FirstReplies::new(ri);
        // The bounded wait: replies may keep trickling in (partial
        // grants) without execution ever starting — a dropped Access or a
        // crashed shard strands the incarnation — so the deadline is
        // checked on every pass, not only on empty polls.
        let deadline = Instant::now() + self.inner.config.request_timeout;
        let poll = SHUTDOWN_POLL.min(self.inner.config.request_timeout);
        loop {
            if Instant::now() >= deadline {
                return Ok(WaitOutcome::TimedOut);
            }
            let Some(event) = events.recv_timeout(txn, poll) else {
                if self.inner.stopped.load(Ordering::Relaxed) {
                    self.inner.registry.deregister(ri.txn_id());
                    return Err(TxnError::ShuttingDown);
                }
                continue;
            };
            // One event may carry several replies (a shard's batched
            // grants); their follow-up sends are routed in one batched
            // call after the whole event is absorbed.
            let mut outcome = None;
            let mut sends: Vec<RequestMsg> = Vec::new();
            let mut absorb = |out: RiOutput| {
                for action in &out.actions {
                    match action {
                        RiAction::StartExecution => outcome = Some(WaitOutcome::Executing),
                        RiAction::Restart { rejected } => {
                            outcome = Some(WaitOutcome::Restart {
                                rejected: *rejected,
                            })
                        }
                        RiAction::BackoffRound => {
                            self.inner
                                .stats
                                .backoff_rounds
                                .fetch_add(1, Ordering::Relaxed);
                            self.inner
                                .metrics
                                .with_local(|m| m.record_backoff_round(method));
                            self.inner.trace.record(lane, txn, Phase::BackoffRound, 0);
                        }
                        RiAction::Committed | RiAction::FullyReleased => {
                            unreachable!("cannot commit before executing")
                        }
                    }
                }
                sends.extend(out.sends);
            };
            match event {
                ClientEvent::Replies(replies) => {
                    for reply in replies.iter() {
                        let first_for_item = outcome_seen.insert(ri, reply.item());
                        self.observe_reply(ri, method, reply, first_for_item);
                        absorb(ri.on_reply(reply));
                    }
                }
                ClientEvent::DeadlockVictim => absorb(ri.abort_for_deadlock()),
            }
            self.route_all(origin, sends)?;
            if let Some(outcome) = outcome {
                return Ok(outcome);
            }
        }
    }

    /// Per-reply metric accounting (feeds the STL estimators).
    /// `first_for_item` is true for the first reply this incarnation
    /// received for the item — only that one counts as a request outcome.
    fn observe_reply(
        &self,
        ri: &RequestIssuer,
        method: CcMethod,
        reply: &ReplyMsg,
        first_for_item: bool,
    ) {
        // A backoff proposal lifts the global timestamp clock (Lamport
        // style): the proposing queue's thresholds sit at `new_ts`, and
        // without adoption a T/O transaction retrying against that item
        // would crawl towards it one tick per incarnation and exhaust its
        // restart budget.
        if let ReplyMsg::Backoff { new_ts, .. } = reply {
            self.inner.ts_counter.fetch_max(new_ts.0, Ordering::Relaxed);
        }
        let mode = ri
            .accessed_items()
            .find(|(item, _)| *item == reply.item())
            .map(|(_, mode)| mode)
            .unwrap_or(AccessMode::Read);
        self.inner.metrics.with_local(|m| {
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

    /// Send every message to the shard owning its item.
    ///
    /// This is the client-side **send batcher**: the transaction's
    /// messages are grouped per destination shard (stable — relative
    /// order per shard is preserved, which is all the protocol requires)
    /// and each group is submitted as one [`ShardCmd::HandleBatch`], so a
    /// transaction costs each shard one core tenure per phase instead of
    /// one per message — on this thread when the shard is idle
    /// ([`ShardSender::submit`]), else one enqueue and at most one wakeup.
    ///
    /// The batches go out in order, each trying the core once, except the
    /// last: if every earlier batch of this call ran inline, it waits a
    /// few microseconds for a held core, since it is then the caller's only
    /// outstanding command and the wait can save it the two thread hops
    /// of the ring. Had an earlier batch been enqueued, the caller parks
    /// for that shard's replies anyway; and a batch waiting with others
    /// still behind it would delay them (see `shard.rs`).
    pub(crate) fn route_all(&self, origin: SiteId, sends: Vec<RequestMsg>) -> Result<(), TxnError> {
        if sends.is_empty() {
            return Ok(());
        }
        let sends = match &self.inner.faults {
            Some(plane) if plane.is_active() => self.fault_filter(plane, sends)?,
            _ => sends,
        };
        if sends.is_empty() {
            return Ok(());
        }
        let shard_of = |msg: &RequestMsg| -> usize {
            *self
                .inner
                .site_index
                .get(&msg.item().site)
                .expect("catalog routed a message to an unknown site")
        };
        // Did every batch so far run inline? Then the last may wait.
        let mut all_inline = true;
        let mut send_batch = |idx: usize, msgs, last: bool| {
            let inline = self.inner.shard_txs[idx]
                .submit(ShardCmd::HandleBatch { origin, msgs }, last && all_inline)
                .map_err(|_| TxnError::ShuttingDown)?;
            all_inline &= inline;
            Ok::<_, TxnError>(())
        };
        // Group by destination without allocating: messages are `Copy`
        // plain data and transactions send at most a handful, so a
        // taken-bitmap scan collects each shard's batch in order.
        // (Transactions beyond 64 messages fall back to consecutive-run
        // grouping — still correct, just potentially more batches.)
        let n = sends.len();
        if n <= 64 {
            // Resolve each destination once up front; the grouping scans
            // below then compare plain indices.
            let mut dest = [0usize; 64];
            for (d, msg) in dest.iter_mut().zip(&sends) {
                *d = shard_of(msg);
            }
            let mut taken: u64 = 0;
            for i in 0..n {
                if taken & (1 << i) != 0 {
                    continue;
                }
                let idx = dest[i];
                let mut msgs = transport::batch::SmallBatch::new();
                for (j, msg) in sends.iter().enumerate().skip(i) {
                    if taken & (1 << j) == 0 && dest[j] == idx {
                        msgs.push(*msg);
                        taken |= 1 << j;
                    }
                }
                let last = taken.count_ones() as usize == n;
                send_batch(idx, msgs, last)?;
            }
        } else {
            let mut run_start = 0;
            while run_start < n {
                let idx = shard_of(&sends[run_start]);
                let mut run_end = run_start + 1;
                while run_end < n && shard_of(&sends[run_end]) == idx {
                    run_end += 1;
                }
                let msgs = sends[run_start..run_end].iter().copied().collect();
                send_batch(idx, msgs, run_end == n)?;
                run_start = run_end;
            }
        }
        Ok(())
    }

    /// Pass an outbound message list through the armed fault plane. Each
    /// message crosses the plane on the link of its destination shard;
    /// what comes back (possibly nothing — a drop or a hold — possibly
    /// more — duplicates, released delays, healed partitions) replaces it
    /// in the send list, still addressed to the same shard, so the
    /// batcher's per-shard packing works unchanged. A crossed crash
    /// point enqueues the crash command at the destination *before* the
    /// messages of this call, mirroring a node that goes down as traffic
    /// arrives.
    fn fault_filter(
        &self,
        plane: &faultsim::FaultPlane,
        sends: Vec<RequestMsg>,
    ) -> Result<Vec<RequestMsg>, TxnError> {
        let mut surviving = Vec::with_capacity(sends.len());
        let mut delivered = Vec::new();
        for msg in sends {
            let link = *self
                .inner
                .site_index
                .get(&msg.item().site)
                .expect("catalog routed a message to an unknown site");
            delivered.clear();
            let crash = plane.on_send(link, msg, &mut delivered);
            if let Some(signal) = crash {
                if self.inner.shard_txs[link]
                    .send(ShardCmd::Crash {
                        outage: signal.outage,
                    })
                    .is_err()
                {
                    return Err(TxnError::ShuttingDown);
                }
            }
            surviving.append(&mut delivered);
        }
        Ok(surviving)
    }

    /// Exponential backoff with a deterministic per-transaction jitter.
    /// Basic T/O livelocks under sustained write contention unless retries
    /// are spread out (the losing transaction must reach every queue before
    /// a younger competitor does); doubling the pause up to ~128× the base
    /// creates the quiet windows it needs, and the jitter keeps two
    /// symmetric victims from re-colliding forever. The jitter hashes the
    /// id's `seq`, not the packed id.
    fn restart_pause(&self, txn: TxnId, attempt: u32) {
        let base = self.inner.config.restart_backoff;
        if base.is_zero() {
            std::thread::yield_now();
            return;
        }
        let scaled = base.saturating_mul(1u32 << attempt.min(7));
        let seq = self.inner.registry.seq(txn);
        let jitter_us =
            (seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48) % scaled.as_micros().max(1) as u64;
        std::thread::sleep(scaled + Duration::from_micros(jitter_us));
    }
}

/// The CC method code carried in a `SelectionDone` event's arg (low
/// byte; [`SELECTION_CACHE_HIT`] is OR-ed in above it).
fn method_code(method: CcMethod) -> u32 {
    match method {
        CcMethod::TwoPhaseLocking => 0,
        CcMethod::TimestampOrdering => 1,
        CcMethod::PrecedenceAgreement => 2,
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

enum WaitOutcome {
    Executing,
    Restart {
        rejected: bool,
    },
    /// `request_timeout` expired before every access was granted: a
    /// shard is down, a message was dropped, or the grant is parked
    /// behind a partition. The incarnation is aborted and retried.
    TimedOut,
}

// The whole point of the runtime: the facade must be shareable across
// client threads.
const _: () = {
    fn assert_send_sync<T: Send + Sync>() {}
    fn assertions() {
        assert_send_sync::<Database>();
    }
    let _ = assertions;
};

#[cfg(test)]
#[path = "db_tests.rs"]
mod tests;
