//! The [`Database`] facade: thread-safe entry point for live transactions.
//!
//! A `Database` owns one shard per site (see `shard`) plus the background
//! deadlock detector. Any number of client threads may concurrently open
//! transactions; each client thread *is* the request issuer of its own
//! transaction — it drives the sans-IO [`RequestIssuer`] state machine
//! through one mailbox loop (`txn`'s `Incarnation::wait`) for both of its
//! waits, the grants in `begin` and the release in `commit`, and, when the
//! owning shard is idle, runs the queue manager's side of the conversation
//! too. Restarts (T/O rejections, deadlock victims, expired request waits)
//! are retried transparently under a fresh transaction id and a larger
//! timestamp, up to [`RuntimeConfig::max_restarts`] attempts.
//!
//! This module holds `open`, `begin` with its restart loop, the send
//! batcher (`route_all`), the diagnostics and `shutdown`; the caller-facing
//! types live in `spec`, the routing decision and the two one-shot routes
//! (`execute`) in `route`, and the execution-phase handle with the mailbox
//! loop and the commit/abort driver in `txn`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

use dbmodel::{
    Catalog, CcMethod, LogSet, LogicalItemId, SiteId, Timestamp, Transaction, TsTuple, TxnId, Value,
};
use metrics::TxnOutcome;
use pam::RequestMsg;
use selection::{CacheSettings, CachedStlSelector, Route};
use simkit::rng::{splitmix64_nth, unit_f64};
use simkit::time::SimTime;
use trace::{Phase, SpanTimings, TraceLevel, TracePlane, SELECTION_CACHE_HIT};
use transport::mailbox::MailboxOptions;
use transport::stamp::now_nanos;
use unified_cc::{QueueManager, RequestIssuer, RiAction};

use crate::config::{CcPolicy, ConfigError, RuntimeConfig};
use crate::detector;
use crate::refitter;
use crate::registry::Registry;
use crate::report::RuntimeReport;
use crate::route::PerShard;
use crate::shard::{self, ShardCmd, ShardHandle, ShardSender};
pub use crate::spec::{TxnError, TxnReceipt, TxnSpec};
use crate::stats::{MetricsShards, RuntimeStats, StatsSnapshot};
pub use crate::txn::ActiveTxn;
use crate::txn::{Ended, Incarnation, Until};

/// How often a blocked client re-checks whether the database is shutting
/// down underneath it.
pub(crate) const SHUTDOWN_POLL: Duration = Duration::from_millis(50);

pub(crate) struct Inner {
    pub(crate) config: RuntimeConfig,
    pub(crate) catalog: Catalog,
    pub(crate) registry: Arc<Registry>,
    pub(crate) shard_txs: Vec<ShardSender>,
    /// The shard index of each site, at `SiteId.0` (`None` where the
    /// catalog has no such site): one bounds-checked load per routed
    /// message. See [`Inner::shard_of`].
    site_index: Box<[Option<usize>]>,
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
    /// The global timestamp clock: each incarnation draws the next
    /// tick, and a PA backoff proposal lifts it (see `txn`).
    pub(crate) ts_counter: AtomicU64,
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

    /// The index (into `shard_txs`) of the shard that owns `site`.
    pub(crate) fn shard_of(&self, site: SiteId) -> usize {
        self.site_index
            .get(site.0 as usize)
            .copied()
            .flatten()
            .expect("catalog routed a message to an unknown site")
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
        let sites = catalog.sites();
        let mut site_index = vec![None; sites.iter().map(|s| s.0 as usize + 1).max().unwrap_or(0)];
        for (idx, &site) in sites.iter().enumerate() {
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
            site_index[site.0 as usize] = Some(idx);
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
                site_index: site_index.into_boxed_slice(),
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
        snapshot.reply_spin_hits += self.inner.registry.spin_hits();
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
        let _ = inner.selector.refit_now(&inner.metrics.merged(self.now()));
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
        if self.routes(spec).next() == Some(Route::Snapshot) {
            if let Some((txn_id, reads)) = self.snapshot_read_values(spec)? {
                return Ok(ActiveTxn::snapshot(self.clone(), txn_id, reads));
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
            // Only the dynamic selector does work between `Begin` and
            // `SelectionDone`: every other choice is stamped with `Begin`'s
            // read.
            let t_sel =
                if spec.method.is_none() && matches!(inner.config.policy, CcPolicy::DynamicStl) {
                    plane.now()
                } else {
                    t_begin
                };
            let txn_id = inner.mint_txn_id(mailbox.slot());
            plane.record_at(lane, t_begin, txn_id.0, Phase::Begin, attempt);
            let sel_arg = method_code(method) | if cache_hit { SELECTION_CACHE_HIT } else { 0 };
            plane.record_at(lane, t_sel, txn_id.0, Phase::SelectionDone, sel_arg);
            let ts = Timestamp(inner.ts_counter.fetch_add(1, Ordering::Relaxed) + 1);
            let origin = inner.origin_of(spec, txn_id);
            let txn = spec.with_access_sets(|reads, writes| {
                Transaction::from_sets(txn_id, origin, method, reads, writes)
            });
            let mut accesses = Vec::with_capacity(txn.size());
            inner
                .catalog
                .append_accesses(&txn, &mut accesses)
                .map_err(TxnError::UnknownItem)?;

            inner.registry.register(txn_id, method, &mut mailbox);
            let mut inc = Incarnation {
                ri: RequestIssuer::new(
                    txn,
                    TsTuple::new(ts, inner.config.pa_backoff_interval),
                    accesses,
                ),
                events: mailbox,
                origin,
                lane,
                // The plane's own clock, read even with the plane off:
                // `request_timeout` and the commit latency run from it.
                begun: now_nanos(),
                restarts: attempt,
                timings: SpanTimings {
                    begin: t_begin,
                    selection_done: t_sel,
                    ..SpanTimings::default()
                },
            };
            let out = inc.ri.start();
            let started_exec = out.actions.contains(&RiAction::StartExecution);
            let n_sends = out.sends.len() as u32;
            let ended = self.route_all(origin, out.sends).and_then(|()| {
                let t_enq = plane.now();
                plane.record_at(lane, t_enq, txn_id.0, Phase::TransportEnqueued, n_sends);
                inc.timings.enqueued = t_enq;
                if started_exec {
                    // Degenerate empty transaction: straight to execution.
                    Ok(Ended::Reached)
                } else {
                    inc.wait(self, Until::Executing, inc.begun)
                }
            });
            // Each arm that retries names the error and the counter an
            // exhausted restart budget ends in.
            let (error, exhausted) = match ended {
                Ok(Ended::Reached) => {
                    let t_exec = plane.now();
                    plane.record_at(lane, t_exec, txn_id.0, Phase::ExecutionStart, 0);
                    inc.timings.exec_start = t_exec;
                    return Ok(ActiveTxn::new(self.clone(), inc));
                }
                Ok(Ended::Stopped) => {
                    inner.registry.deregister(txn_id);
                    return Err(TxnError::ShuttingDown);
                }
                Err(e) => {
                    inner.registry.deregister(txn_id);
                    return Err(e);
                }
                Ok(Ended::Restart { rejected }) => {
                    // Read even with the plane off: it ends the lock hold.
                    let t_restart = now_nanos();
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
                        m.record_lock_hold(method, nanos_between(inc.begun, t_restart), true);
                    });
                    let error = TxnError::TooManyRestarts {
                        attempts: attempt + 1,
                    };
                    (error, &inner.stats.failed)
                }
                Ok(Ended::TimedOut) => {
                    // Abort the incarnation's residual queue state and
                    // retry under a fresh id. Exhausting the budget is a
                    // clean `ShardUnavailable`: nothing of this
                    // transaction was ever implemented.
                    inc.abort(self);
                    inner.stats.timeout_restarts.fetch_add(1, Ordering::Relaxed);
                    (TxnError::ShardUnavailable, &inner.stats.shard_unavailable)
                }
            };
            inner.registry.deregister(txn_id);
            mailbox = inc.events;
            attempt += 1;
            if attempt > inner.config.max_restarts {
                exhausted.fetch_add(1, Ordering::Relaxed);
                return Err(error);
            }
            self.restart_pause(txn_id, attempt);
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
                // epoch and the commit count. Whatever a re-fit needs
                // beyond that — stripes, the model, the new table — is the
                // refitter's business.
                let begun = Instant::now();
                let picked = spec.with_access_sets(|reads, writes| {
                    inner.selector.select_published(
                        reads,
                        writes,
                        SiteId(0),
                        &inner.catalog,
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

    /// Send every message to the shard owning its item.
    ///
    /// This is the client-side **send batcher**: the transaction's
    /// messages are grouped per destination shard, at any size (stable —
    /// relative order per shard is preserved, which is all the protocol
    /// requires) and each group is submitted as one
    /// [`ShardCmd::HandleBatch`], so a transaction costs each shard one
    /// core tenure per phase instead of one per message — on this thread
    /// when the shard is idle ([`ShardSender::submit`]), else one enqueue
    /// and at most one wakeup.
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
        let mut per_shard = PerShard::new();
        for msg in sends {
            per_shard.push(self.inner.shard_of(msg.item().site), msg);
        }
        let batches = per_shard.0.len();
        // Did every batch so far run inline? Then the last may wait.
        let mut all_inline = true;
        for (n, (idx, msgs)) in per_shard.0.into_iter().enumerate() {
            let wait = all_inline && n + 1 == batches;
            all_inline &= self.inner.shard_txs[idx]
                .submit(ShardCmd::HandleBatch { origin, msgs }, wait)
                .map_err(|_| TxnError::ShuttingDown)?;
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
            let link = self.inner.shard_of(msg.item().site);
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

/// `d` in whole nanoseconds, as the deadlines on [`now_nanos`] count.
pub(crate) fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The time from stamp `from` to stamp `to` (both [`now_nanos`]), as the
/// metrics record it.
pub(crate) fn nanos_between(from: u64, to: u64) -> simkit::time::Duration {
    simkit::time::Duration::from_secs_f64(to.saturating_sub(from) as f64 / 1e9)
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
