//! The [`Database`] facade: thread-safe entry point for live transactions.
//!
//! A `Database` owns one shard thread per site plus the background deadlock
//! detector. Any number of client threads may concurrently open
//! transactions; each client thread *is* the request issuer of its own
//! transaction — it drives the sans-IO [`RequestIssuer`] state machine,
//! blocking on an event channel for queue-manager replies, exactly the way
//! the simulator drives it from the event loop. Restarts (T/O rejections,
//! deadlock victims) are retried transparently under a fresh transaction id
//! and a larger timestamp, up to [`RuntimeConfig::max_restarts`] attempts.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dbmodel::{
    AccessMode, Catalog, CatalogError, CcMethod, LogSet, LogicalItemId, SiteId, Timestamp,
    Transaction, TsTuple, TxnId, Value,
};
use metrics::{MetricsSample, SimMetrics, TxnOutcome};
use pam::{ReplyMsg, RequestMsg};
use selection::{
    classify, is_read_only, CachedStlSelector, Confluence, OpProfile, SelectionDecision,
    StlSelector, WorkloadSignal,
};
use simkit::rng::SimRng;
use simkit::time::SimTime;
use trace::{Phase, SpanTimings, TraceLevel, TracePlane, SELECTION_CACHE_HIT};
use transport::mailbox::MailboxOptions;
use unified_cc::{ConfluentOp, QueueManager, RequestIssuer, RiAction, RiOutput};

use crate::config::{CcPolicy, ConfigError, RuntimeConfig, TransportKind};
use crate::detector;
use crate::registry::{ClientEvent, ClientMailbox, ClientRecvError, Registry};
use crate::report::RuntimeReport;
use crate::shard::{self, ShardCmd, ShardHandle, ShardSender};
use crate::stats::{MetricsShards, RuntimeStats, StatsSnapshot};

/// How often a blocked client re-checks whether the database is shutting
/// down underneath it.
const SHUTDOWN_POLL: Duration = Duration::from_millis(50);

/// The predeclared shape of one transaction: its read and write sets, and
/// optionally a pinned origin site and concurrency-control method.
#[derive(Debug, Clone, Default)]
pub struct TxnSpec {
    reads: Vec<LogicalItemId>,
    writes: Vec<LogicalItemId>,
    /// Commutative increments (`item += delta`): confluent, fast-path
    /// eligible. On the coordinated path they stage
    /// `predecessor.wrapping_add(delta)` from the write grant's value.
    adds: Vec<(LogicalItemId, Value)>,
    /// Blind absolute writes (`item = value`): confluent, fast-path
    /// eligible.
    puts: Vec<(LogicalItemId, Value)>,
    origin: Option<SiteId>,
    method: Option<CcMethod>,
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
    /// [`Database::execute`].
    pub fn add(mut self, item: LogicalItemId, delta: Value) -> Self {
        self.adds.push((item, delta));
        self
    }

    /// Add a blind absolute write: `item = value` (last-writer-wins).
    /// Confluent — eligible for the coordination-avoidance fast path of
    /// [`Database::execute`].
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

    /// Every logical item this spec writes — declared writes, adds and
    /// puts — deduplicated, as the coordinated path's write set.
    fn write_items(&self) -> Vec<LogicalItemId> {
        let mut items: Vec<LogicalItemId> = self
            .writes
            .iter()
            .copied()
            .chain(self.adds.iter().map(|&(item, _)| item))
            .chain(self.puts.iter().map(|&(item, _)| item))
            .collect();
        items.sort_unstable();
        items.dedup();
        items
    }
}

/// A served snapshot read: the assigned transaction id and the values
/// observed at one watermark cut. `None` means the spec is not
/// snapshot-eligible (or the plane is disabled) and the caller should
/// route through coordination instead.
type SnapshotAnswer = Option<(TxnId, BTreeMap<LogicalItemId, Value>)>;

/// Why a transaction could not run to commit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnError {
    /// The spec names a logical item the catalog does not know.
    UnknownItem(CatalogError),
    /// The transaction was restarted `attempts` times without reaching its
    /// execution phase.
    TooManyRestarts {
        /// Number of attempts made.
        attempts: u32,
    },
    /// A write was staged for an item outside the transaction's write set.
    NotInWriteSet(LogicalItemId),
    /// Every one of the reply plane's `reply_max_clients` mailboxes
    /// stayed held by an open transaction for the whole bounded acquire
    /// wait — the admission limit, reported instead of blocking `begin`
    /// forever.
    ReplyPlaneExhausted {
        /// The configured `reply_max_clients` limit.
        max_clients: usize,
    },
    /// The database shut down while the transaction was in flight.
    ShuttingDown,
    /// A shard stopped answering within the configured deadline
    /// ([`crate::RuntimeConfig::request_timeout`] /
    /// [`crate::RuntimeConfig::commit_timeout`] /
    /// [`crate::RuntimeConfig::diagnostic_timeout`]), and the bounded
    /// retry budget is exhausted. Before the execution phase this is a
    /// clean failure (nothing was implemented); at commit time the
    /// transaction's writes were already implemented when its locks
    /// demoted — the outcome is *decided but unacknowledged*, never a
    /// partial commit.
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

/// The dynamic-policy selector engine: the amortized cached variant (the
/// default) or the per-transaction fresh evaluation kept for overhead
/// comparisons. Both produce identical decisions within an epoch.
enum SelectorEngine {
    Cached(Box<CachedStlSelector>),
    Fresh(StlSelector),
}

impl SelectorEngine {
    /// Decide a method. The cached engine reads the (striped) metrics
    /// lazily — `merge` only on warm-up and epoch re-fits, the scalar-only
    /// `probe` on drift probes; the fresh engine merges them on every
    /// call, which is exactly the pre-cache overhead the `dyn-fresh`
    /// benchmark rows measure.
    fn select<F: FnOnce() -> SimMetrics, P: Fn() -> MetricsSample>(
        &mut self,
        txn: &Transaction,
        catalog: &Catalog,
        signal: WorkloadSignal,
        commits: u64,
        merge: F,
        probe: P,
    ) -> SelectionDecision {
        match self {
            SelectorEngine::Cached(c) => {
                c.select_sharded(txn, catalog, signal, commits, merge, probe)
            }
            SelectorEngine::Fresh(s) => s.select(txn, catalog, &merge()),
        }
    }
}

struct Inner {
    config: RuntimeConfig,
    catalog: Catalog,
    registry: Arc<Registry>,
    shard_txs: Vec<ShardSender>,
    site_index: HashMap<SiteId, usize>,
    stats: Arc<RuntimeStats>,
    /// Thread-striped metric shards: the commit path records into its own
    /// stripe; stripes are merged only at epoch-refit boundaries and at
    /// shutdown. There is no global metrics mutex.
    metrics: MetricsShards,
    selector: Mutex<SelectorEngine>,
    mix_rng: Mutex<SimRng>,
    /// Per-method selection tally, indexed by [`method_code`] — a fixed
    /// atomic array, the last lock the stats read path used to take.
    /// [`Database::shutdown`] folds it back into the report's `BTreeMap`.
    selection_counts: [AtomicU64; 3],
    next_txn_id: AtomicU64,
    ts_counter: AtomicU64,
    started: Instant,
    stopped: Arc<AtomicBool>,
    /// The armed fault-injection plane wrapping the client→shard
    /// transport boundary (`None` when the config schedules no faults).
    faults: Option<Arc<faultsim::FaultPlane>>,
    /// The flight-recorder tracing plane (see [`trace`]); shared with the
    /// shard threads and the deadlock detector.
    trace: Arc<TracePlane>,
    /// The global commit clock: coordinated commits draw/retire their
    /// stamp here; snapshot reads load its watermark. Shared with the
    /// shard threads (fast-path stamping and version-chain pruning).
    clock: Arc<crate::clock::CommitClock>,
    /// Keeps the serializability-violation observer alive: a failing
    /// oracle replay anywhere in the process latches this database's
    /// postmortem dump.
    _sercheck_guard: Option<sercheck::ObserverGuard>,
    // Taken exactly once, by whoever performs the shutdown.
    #[allow(clippy::type_complexity)]
    teardown: Mutex<Option<(Vec<ShardHandle>, Sender<()>, JoinHandle<()>)>>,
}

/// A live, sharded, multi-threaded database running the unified
/// concurrency-control engine. Cheap to clone; all clones share the same
/// shards.
#[derive(Clone)]
pub struct Database {
    inner: Arc<Inner>,
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
        config.validate()?;
        let registry = Arc::new(Registry::with_options(
            config.reply_plane,
            MailboxOptions {
                index_capacity: config.reply_index_capacity,
                index_max_capacity: config.reply_index_max_capacity,
                mailbox_capacity: config.reply_mailbox_capacity,
                max_clients: config.reply_max_clients,
                deliver_timeout: config.reply_deliver_timeout,
                ..MailboxOptions::default()
            },
        ));
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
            let (tx, rx) = shard::inbox_pair(config.transport, config.shard_inbox_capacity);
            if plane.level() == TraceLevel::Full {
                // Queue-dwell stamping on the batched ring: each slot
                // carries its enqueue time, the consumer accumulates the
                // dwell — the `qu/blk` segment's transport-side witness.
                if let shard::ShardSender::Ring(ring) = &tx {
                    ring.set_stamping(true);
                }
            }
            let handle = shard::spawn(
                qm,
                idx,
                rx,
                tx.clone(),
                Arc::clone(&registry),
                Arc::clone(&stats),
                Arc::clone(&plane),
                Arc::clone(&clock),
            );
            shard_txs.push(tx);
            site_index.insert(site, idx);
            shard_handles.push(handle);
        }

        let (stop_tx, stop_rx) = mpsc::channel();
        let detector_join = detector::spawn(
            shard_txs.clone(),
            Arc::clone(&registry),
            Arc::clone(&stats),
            Arc::clone(&plane),
            config.deadlock_scan_interval,
            stop_rx,
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

        let selector = match config.selection_cache {
            Some(settings) => {
                SelectorEngine::Cached(Box::new(CachedStlSelector::with_settings(settings)))
            }
            None => SelectorEngine::Fresh(StlSelector::new()),
        };
        let faults = config
            .faults
            .clone()
            .map(|schedule| Arc::new(faultsim::FaultPlane::new(schedule)));
        Ok(Database {
            inner: Arc::new(Inner {
                mix_rng: Mutex::new(SimRng::new(config.seed)),
                catalog,
                registry,
                shard_txs,
                site_index,
                stats,
                metrics: MetricsShards::new(),
                selector: Mutex::new(selector),
                selection_counts: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
                next_txn_id: AtomicU64::new(0),
                ts_counter: AtomicU64::new(0),
                started: Instant::now(),
                stopped,
                faults,
                trace: plane,
                clock,
                _sercheck_guard: sercheck_guard,
                teardown: Mutex::new(Some((shard_handles, stop_tx, detector_join))),
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
    /// counters when the dynamic policy runs cached. Reads only atomics —
    /// stats polling never takes the selector mutex, so it cannot contend
    /// with admission — and is side-effect-free (the mailbox-overflow
    /// postmortem fires on the registration that overflows, in `begin`,
    /// not here).
    pub fn stats(&self) -> StatsSnapshot {
        let mut snapshot = self.inner.stats.snapshot();
        snapshot.stale_reply_events = self.inner.registry.stale_reply_events();
        snapshot.mailbox_overflow_entries = self.inner.registry.overflow_entries() as u64;
        snapshot.mailbox_index_capacity = self.inner.registry.index_capacity() as u64;
        snapshot.mailbox_index_resizes = self.inner.registry.index_resizes();
        snapshot.mailbox_full_drops = self.inner.registry.full_drops();
        snapshot.trace_events = self.inner.trace.events_recorded();
        snapshot
    }

    /// The Section-5-style phase breakdown accumulated by the tracing
    /// plane so far: per-method segment histograms whose means telescope
    /// exactly to the measured end-to-end latency, global phase-event
    /// counters, and (on the batched-ring transport at
    /// [`TraceLevel::Full`]) the per-shard inbox dwell meters. Empty at
    /// [`TraceLevel::Off`].
    pub fn trace_report(&self) -> trace::TraceReport {
        let mut report = self.inner.trace.report();
        report.transport_dwell = self
            .inner
            .shard_txs
            .iter()
            .enumerate()
            .filter_map(|(shard, tx)| match tx {
                shard::ShardSender::Ring(ring) => {
                    let (messages, nanos) = ring.queue_dwell();
                    (messages > 0).then(|| trace::LaneDwell {
                        shard,
                        messages,
                        mean_dwell_us: nanos as f64 / messages as f64 / 1_000.0,
                    })
                }
                shard::ShardSender::Mpsc(_) => None,
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
                    merge_logs(&mut merged, &slice);
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
                let _ = self.inner.shard_txs[link].send(ShardCmd::Handle { origin, msg });
            });
        }
    }

    /// Counters of every fault the armed plane injected so far (`None`
    /// without a fault schedule).
    pub fn fault_counters(&self) -> Option<faultsim::FaultCounters> {
        self.inner.faults.as_ref().map(|plane| plane.counters())
    }

    /// Force an epoch re-fit of the cached dynamic selector right now,
    /// merging the metric stripes outside any commit-path lock. Returns
    /// `false` when the policy does not run a cached selector. Useful for
    /// diagnostics and for tests that pin epoch boundaries.
    pub fn force_refit(&self) -> bool {
        let now = self.now();
        let signal = WorkloadSignal {
            grants: self.inner.stats.grants.load(Ordering::Relaxed),
            conflicts: self.inner.stats.prescheduled_grants(),
        };
        // Merge *before* taking the selector mutex: admission stays free
        // to run while the stripes are folded.
        let merged = self.inner.metrics.merged(now);
        let mut selector = self.inner.selector.lock().expect("selector poisoned");
        match &mut *selector {
            SelectorEngine::Cached(c) => {
                c.refit_now(&merged, signal);
                let cs = c.cache_stats();
                drop(selector);
                self.inner.stats.publish_cache_stats(cs);
                true
            }
            SelectorEngine::Fresh(_) => false,
        }
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
    /// coordinated path.
    ///
    /// The reply endpoint is acquired **once** here and reused across
    /// every restart incarnation — on the mailbox plane that is the
    /// whole point of the slab: registration re-arms the same mailbox
    /// under the new transaction id instead of allocating a channel.
    pub fn begin(&self, spec: &TxnSpec) -> Result<ActiveTxn, TxnError> {
        let inner = &self.inner;
        if inner.config.snapshot_reads {
            if let Some((txn_id, reads)) = self.snapshot_read_values(spec)? {
                let origin = spec
                    .origin
                    .unwrap_or_else(|| inner.catalog.origin_for(txn_id));
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
            let hits_before = inner.stats.cache_hits.load(Ordering::Relaxed);
            let method = spec.method.unwrap_or_else(|| self.pick_method(spec));
            let t_sel = plane.now();
            // Approximate under concurrency (the mirror is global), but
            // exact on single-threaded runs — good enough for the
            // hit-rate the selection-done arg carries.
            let cache_hit = inner.stats.cache_hits.load(Ordering::Relaxed) > hits_before;
            let txn_id = TxnId(inner.next_txn_id.fetch_add(1, Ordering::Relaxed) + 1);
            plane.record_at(lane, t_begin, txn_id.0, Phase::Begin, attempt);
            let sel_arg = method_code(method) | if cache_hit { SELECTION_CACHE_HIT } else { 0 };
            plane.record_at(lane, t_sel, txn_id.0, Phase::SelectionDone, sel_arg);
            let ts = Timestamp(inner.ts_counter.fetch_add(1, Ordering::Relaxed) + 1);
            let origin = spec
                .origin
                .unwrap_or_else(|| inner.catalog.origin_for(txn_id));
            let txn = Transaction::builder(txn_id, origin)
                .method(method)
                .reads(spec.reads.iter().copied())
                .writes(spec.write_items())
                .build();
            let accesses: Vec<(dbmodel::PhysicalItemId, AccessMode)> = inner
                .catalog
                .translate_txn(&txn)
                .map_err(TxnError::UnknownItem)?
                .into_iter()
                .map(|op| (op.item, op.mode))
                .collect();

            if inner.registry.register(txn_id, method, &mut mailbox) {
                // This registration fell off the lock-free path onto the
                // overflow map — the transition into a degraded reply
                // plane is the anomaly worth a flight-recorder dump
                // (latched; no-op without a dump dir).
                let _ = plane.trigger_postmortem("mailbox-overflow");
            }
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

    /// Run one predeclared transaction end to end, routing it around the
    /// queue managers when its shape is invariant confluent — or, for
    /// pure read-only shapes, around *everything*: with
    /// [`crate::RuntimeConfig::snapshot_reads`] on, a shape classified
    /// read-only (see [`selection::is_read_only`]) is served from the
    /// per-item version chains at the global read watermark — no grants,
    /// no wait edges, no restart exposure — and its receipt reports
    /// [`TxnReceipt::snapshot`]. A shard that cannot serve the watermark
    /// (chain pruned past it) refuses, counted in
    /// [`StatsSnapshot::snapshot_refused`], and the transaction falls
    /// through to the paths below.
    ///
    /// Shapes built only from reads, [`TxnSpec::add`]s and
    /// [`TxnSpec::put`]s classify as [`Confluence::ConfluentFastPath`]
    /// (see [`selection::classify`]) and are applied by the owning shard
    /// in one direct command — no grants, no precedence entries, no
    /// deadlock exposure. The owning queue manager still *refuses* the
    /// bypass whenever a touched slot has queued or granted coordinated
    /// work; on refusal — and for every non-confluent, pinned-method,
    /// replicated-item or (with the safety check on) multi-site shape —
    /// the transaction transparently runs the coordinated
    /// `begin`/stage/`commit` path instead. Fast-path commits and
    /// refusals surface in [`StatsSnapshot::fastpath_applied`] /
    /// [`StatsSnapshot::fastpath_refused`].
    pub fn execute(&self, spec: &TxnSpec) -> Result<TxnReceipt, TxnError> {
        // Read-only shapes try the MVCC snapshot plane first — even less
        // coordination than the confluent bypass (no at-apply refusal
        // window to lose: a watermark read conflicts with nothing).
        if self.inner.config.snapshot_reads {
            if let Some((txn_id, reads)) = self.snapshot_read_values(spec)? {
                let inner = &self.inner;
                inner.stats.committed.fetch_add(1, Ordering::Relaxed);
                let plane = &inner.trace;
                plane.record(plane.client_lane(), txn_id.0, Phase::Committed, 0);
                return Ok(TxnReceipt {
                    id: txn_id,
                    method: CcMethod::TwoPhaseLocking,
                    restarts: 0,
                    reads,
                    fastpath: false,
                    snapshot: true,
                });
            }
        }
        if self.inner.config.confluence_fastpath {
            if let Some(receipt) = self.try_fastpath(spec)? {
                return Ok(receipt);
            }
        }
        self.execute_coordinated(spec)
    }

    /// The coordinated half of [`Database::execute`]: a normal
    /// `begin`/stage/`commit` incarnation. `add` ops stage the
    /// predecessor value the write grant carried plus their (per-item
    /// accumulated) delta; `put` ops stage their value directly.
    fn execute_coordinated(&self, spec: &TxnSpec) -> Result<TxnReceipt, TxnError> {
        let mut txn = self.begin(spec)?;
        let mut deltas: BTreeMap<LogicalItemId, Value> = BTreeMap::new();
        for &(item, delta) in &spec.adds {
            let slot = deltas.entry(item).or_insert(0);
            *slot = slot.wrapping_add(delta);
        }
        for (&item, &delta) in &deltas {
            let base = txn.read(item).unwrap_or(0);
            txn.write(item, base.wrapping_add(delta))?;
        }
        for &(item, value) in &spec.puts {
            txn.write(item, value)?;
        }
        txn.commit()
    }

    /// Attempt the coordination-avoidance bypass. `Ok(None)` means "run
    /// coordinated": the shape is not confluent, the spec pins a method,
    /// a written item is replicated, the footprint spans several sites
    /// while the safety check is on (the bypass is atomic only within
    /// one shard's command order), or the owning queue manager refused.
    fn try_fastpath(&self, spec: &TxnSpec) -> Result<Option<TxnReceipt>, TxnError> {
        let inner = &self.inner;
        if spec.method.is_some() {
            return Ok(None);
        }
        let mut profile = OpProfile::empty();
        if !spec.reads.is_empty() {
            profile = profile.with(OpProfile::READS);
        }
        if !spec.adds.is_empty() {
            profile = profile.with(OpProfile::ADDS);
        }
        if !spec.puts.is_empty() {
            profile = profile.with(OpProfile::PUTS);
        }
        if !spec.writes.is_empty() {
            // Declared read-modify-write items: their commit values come
            // from arbitrary computation over coordinated reads.
            profile = profile.with(OpProfile::RMW_WRITES);
        }
        let writes = spec.adds.len() + spec.puts.len() + spec.writes.len();
        // Pure classification — identical to the verdict the routed
        // selection cache memoizes for this profile (classification is
        // model-independent by construction), so the bypass gate never
        // takes the selector mutex.
        if classify(profile, spec.reads.len(), writes) == Confluence::Coordinated {
            return Ok(None);
        }
        let plane = &inner.trace;
        let lane = plane.client_lane();
        let t_begin = plane.now();
        let txn_id = TxnId(inner.next_txn_id.fetch_add(1, Ordering::Relaxed) + 1);
        let origin = spec
            .origin
            .unwrap_or_else(|| inner.catalog.origin_for(txn_id));
        // Translate: reads go to the preferred copy, adds/puts to the
        // single physical copy. Replicated written items fall back to the
        // coordinated path, which knows how to fan a write out.
        let mut per_site: BTreeMap<SiteId, Vec<ConfluentOp>> = BTreeMap::new();
        for &item in &spec.reads {
            let copy = inner
                .catalog
                .read_copy(item, origin)
                .map_err(TxnError::UnknownItem)?;
            per_site
                .entry(copy.site)
                .or_default()
                .push(ConfluentOp::Read(copy));
        }
        for &(item, delta) in &spec.adds {
            let copies = inner
                .catalog
                .physical_copies(item)
                .map_err(TxnError::UnknownItem)?;
            if copies.len() != 1 {
                return Ok(None);
            }
            per_site
                .entry(copies[0].site)
                .or_default()
                .push(ConfluentOp::Add(copies[0], delta));
        }
        for &(item, value) in &spec.puts {
            let copies = inner
                .catalog
                .physical_copies(item)
                .map_err(TxnError::UnknownItem)?;
            if copies.len() != 1 {
                return Ok(None);
            }
            per_site
                .entry(copies[0].site)
                .or_default()
                .push(ConfluentOp::Put(copies[0], value));
        }
        let check = inner.config.confluence_check;
        if check && per_site.len() != 1 {
            return Ok(None);
        }
        let mut n_ops = 0u32;
        let mut pending = Vec::with_capacity(per_site.len());
        for (site, ops) in per_site {
            let idx = *inner
                .site_index
                .get(&site)
                .expect("catalog routed an op to an unknown site");
            n_ops += ops.len() as u32;
            let (tx, rx) = transport::oneshot::channel();
            if inner.shard_txs[idx]
                .send(ShardCmd::ApplyConfluent {
                    origin,
                    txn: txn_id,
                    ops,
                    check,
                    reply: tx,
                })
                .is_err()
            {
                return Err(TxnError::ShuttingDown);
            }
            pending.push(rx);
        }
        let mut reads = BTreeMap::new();
        let mut refused = false;
        for rx in pending {
            // Bounded: a shard mid-outage must not hang the bypass. The
            // timeout is NOT a refusal — the command may still apply when
            // the shard recovers, so falling back to the coordinated path
            // here could double-apply. The whole transaction fails
            // instead.
            match rx.recv_timeout(inner.config.diagnostic_timeout) {
                Ok(Some(values)) => {
                    for (item, value) in values {
                        reads.insert(item.logical, value);
                    }
                }
                Ok(None) => refused = true,
                Err(transport::oneshot::RecvError::Disconnected) => {
                    return Err(TxnError::ShuttingDown)
                }
                Err(transport::oneshot::RecvError::Timeout) => {
                    inner
                        .stats
                        .shard_unavailable
                        .fetch_add(1, Ordering::Relaxed);
                    return Err(TxnError::ShardUnavailable);
                }
            }
        }
        if refused {
            inner.stats.fastpath_refused.fetch_add(1, Ordering::Relaxed);
            // Nothing is recorded for the refused incarnation: it never
            // entered any log and its id is simply abandoned.
            return Ok(None);
        }
        let t_applied = plane.now();
        inner.stats.committed.fetch_add(1, Ordering::Relaxed);
        inner.stats.fastpath_applied.fetch_add(1, Ordering::Relaxed);
        plane.record_at(lane, t_begin, txn_id.0, Phase::Begin, 0);
        plane.record_at(lane, t_applied, txn_id.0, Phase::FastPathApplied, n_ops);
        plane.record_at(lane, t_applied, txn_id.0, Phase::Committed, 0);
        Ok(Some(TxnReceipt {
            id: txn_id,
            method: CcMethod::TwoPhaseLocking,
            restarts: 0,
            reads,
            fastpath: true,
            snapshot: false,
        }))
    }

    /// Attempt to serve `spec` from the MVCC snapshot plane. `Ok(None)`
    /// means "run another path": the shape is not pure read-only, the
    /// spec pins a method, or some shard could not serve the watermark
    /// (its chain was pruned past it — counted as a refusal). On success
    /// the reads are final: every shard answered from the version chains
    /// at one watermark load, each served read already entered that
    /// shard's execution log stamped with the version it observed, and
    /// the caller only has to account the commit.
    ///
    /// Consistency rests on the commit clock's draw/retire protocol: a
    /// write's stamp is retired only after its installs are enqueued at
    /// every owning shard, so by the time a watermark load observes the
    /// stamp, per-shard FIFO order puts every install ahead of any
    /// snapshot command sent afterwards. One watermark therefore cuts the
    /// history at a transaction-consistent prefix across all shards.
    fn snapshot_read_values(&self, spec: &TxnSpec) -> Result<SnapshotAnswer, TxnError> {
        let inner = &self.inner;
        if spec.method.is_some() {
            return Ok(None);
        }
        let mut profile = OpProfile::empty();
        if !spec.reads.is_empty() {
            profile = profile.with(OpProfile::READS);
        }
        if !spec.adds.is_empty() {
            profile = profile.with(OpProfile::ADDS);
        }
        if !spec.puts.is_empty() {
            profile = profile.with(OpProfile::PUTS);
        }
        if !spec.writes.is_empty() {
            profile = profile.with(OpProfile::RMW_WRITES);
        }
        let writes = spec.adds.len() + spec.puts.len() + spec.writes.len();
        // Pure classification, identical to the snapshot verdict the
        // routed selection cache memoizes for this shape — the snapshot
        // gate never takes the selector mutex.
        if !is_read_only(profile, spec.reads.len(), writes) {
            return Ok(None);
        }
        let plane = &inner.trace;
        let lane = plane.client_lane();
        let t_begin = plane.now();
        let txn_id = TxnId(inner.next_txn_id.fetch_add(1, Ordering::Relaxed) + 1);
        let origin = spec
            .origin
            .unwrap_or_else(|| inner.catalog.origin_for(txn_id));
        // The single watermark load that defines the snapshot: every
        // shard serves at this timestamp.
        let ts = inner.clock.watermark();
        let mut per_site: BTreeMap<SiteId, Vec<dbmodel::PhysicalItemId>> = BTreeMap::new();
        for &item in &spec.reads {
            let copy = inner
                .catalog
                .read_copy(item, origin)
                .map_err(TxnError::UnknownItem)?;
            per_site.entry(copy.site).or_default().push(copy);
        }
        let mut n_items = 0u32;
        let mut pending = Vec::with_capacity(per_site.len());
        for (site, items) in per_site {
            let idx = *inner
                .site_index
                .get(&site)
                .expect("catalog routed a read to an unknown site");
            n_items += items.len() as u32;
            let (tx, rx) = transport::oneshot::channel();
            if inner.shard_txs[idx]
                .send(ShardCmd::SnapshotRead {
                    txn: txn_id,
                    ts,
                    items,
                    reply: tx,
                })
                .is_err()
            {
                return Err(TxnError::ShuttingDown);
            }
            pending.push(rx);
        }
        let mut reads = BTreeMap::new();
        let mut refused = false;
        for rx in pending {
            // Bounded: a shard mid-outage must not hang the read. The
            // timeout is surfaced as `ShardUnavailable` rather than a
            // silent fallback — a fallback would be correct (reads apply
            // nothing), but the caller asked for data a shard could not
            // produce within its deadline, and the chaos harness asserts
            // exactly this bounded failure instead of a torn answer.
            match rx.recv_timeout(inner.config.diagnostic_timeout) {
                Ok(Some(values)) => {
                    for (item, value) in values {
                        reads.insert(item.logical, value);
                    }
                }
                Ok(None) => refused = true,
                Err(transport::oneshot::RecvError::Disconnected) => {
                    return Err(TxnError::ShuttingDown)
                }
                Err(transport::oneshot::RecvError::Timeout) => {
                    inner
                        .stats
                        .shard_unavailable
                        .fetch_add(1, Ordering::Relaxed);
                    return Err(TxnError::ShardUnavailable);
                }
            }
        }
        if refused {
            // A shard already serving the watermark logged its reads —
            // harmless (they observed committed state); the abandoned id
            // simply never commits. The fallback runs under a fresh id.
            inner.stats.snapshot_refused.fetch_add(1, Ordering::Relaxed);
            return Ok(None);
        }
        inner.stats.snapshot_reads.fetch_add(1, Ordering::Relaxed);
        let t_served = plane.now();
        plane.record_at(lane, t_begin, txn_id.0, Phase::Begin, 0);
        plane.record_at(lane, t_served, txn_id.0, Phase::SnapshotRead, n_items);
        Ok(Some((txn_id, reads)))
    }

    /// Stop accepting work, drain the shards and collapse the runtime into
    /// its final report. Returns `None` on every call but the first.
    pub fn shutdown(&self) -> Option<RuntimeReport> {
        let (shards, stop_tx, detector_join) = self
            .inner
            .teardown
            .lock()
            .expect("teardown poisoned")
            .take()?;
        self.inner.stopped.store(true, Ordering::Relaxed);
        // Flush anything still parked in the fault plane so the final
        // drain sees every surviving message.
        self.quiesce_faults();
        // Stop the detector first so it cannot block on a draining shard.
        let _ = stop_tx.send(());
        let _ = detector_join.join();
        let mut logs = LogSet::new();
        for handle in &shards {
            let _ = handle.tx.send(ShardCmd::Shutdown);
        }
        for handle in shards {
            if let Ok((_site, slice)) = handle.join.join() {
                merge_logs(&mut logs, &slice);
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

    fn pick_method(&self, spec: &TxnSpec) -> CcMethod {
        let inner = &self.inner;
        let choice = match inner.config.policy {
            CcPolicy::Static(m) => m,
            CcPolicy::Mix { p_2pl, p_to } => {
                let x = inner.mix_rng.lock().expect("rng poisoned").next_f64();
                if x < p_2pl {
                    CcMethod::TwoPhaseLocking
                } else if x < p_2pl + p_to {
                    CcMethod::TimestampOrdering
                } else {
                    CcMethod::PrecedenceAgreement
                }
            }
            CcPolicy::DynamicStl => {
                let probe = Transaction::builder(TxnId(u64::MAX), SiteId(0))
                    .reads(spec.reads.iter().copied())
                    .writes(spec.write_items())
                    .build();
                // The per-shard feedback loop: grant / conflict counters
                // maintained by the shard threads drive the cached
                // selector's epoch logic (a conflict-ratio shift beyond the
                // drift threshold re-fits the model early).
                let signal = WorkloadSignal {
                    grants: inner.stats.grants.load(Ordering::Relaxed),
                    conflicts: inner.stats.prescheduled_grants(),
                };
                let commits = inner.stats.committed.load(Ordering::Relaxed);
                let now = self.now();
                let mut selector = inner.selector.lock().expect("selector poisoned");
                // Timed with the selector mutex already held, so the
                // metric reports selector work (including any lazy stripe
                // merge at a refit boundary or scalar fold at a drift
                // probe), not lock queueing.
                let begun = Instant::now();
                let method = selector
                    .select(
                        &probe,
                        &inner.catalog,
                        signal,
                        commits,
                        || inner.metrics.merged(now),
                        || inner.metrics.sample(now),
                    )
                    .method;
                let spent = begun.elapsed();
                let cache_stats = match &*selector {
                    SelectorEngine::Cached(c) => Some(c.cache_stats()),
                    SelectorEngine::Fresh(_) => None,
                };
                drop(selector);
                if let Some(cs) = cache_stats {
                    inner.stats.publish_cache_stats(cs);
                }
                inner.stats.selections.fetch_add(1, Ordering::Relaxed);
                inner
                    .stats
                    .selection_nanos
                    .fetch_add(spent.as_nanos() as u64, Ordering::Relaxed);
                method
            }
        };
        self.inner.selection_counts[method_code(choice) as usize].fetch_add(1, Ordering::Relaxed);
        choice
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
        let mut outcome_seen: std::collections::HashSet<dbmodel::PhysicalItemId> =
            std::collections::HashSet::new();
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
            let event = match events.recv_timeout(ri.txn_id(), poll) {
                Ok(ev) => ev,
                Err(ClientRecvError::Timeout) => {
                    if self.inner.stopped.load(Ordering::Relaxed) {
                        self.inner.registry.deregister(ri.txn_id());
                        return Err(TxnError::ShuttingDown);
                    }
                    continue;
                }
                Err(ClientRecvError::Disconnected) => {
                    self.inner.registry.deregister(ri.txn_id());
                    return Err(TxnError::ShuttingDown);
                }
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
                        let first_for_item = outcome_seen.insert(reply.item());
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
    /// On the batched plane this is the client-side **send batcher**: the
    /// transaction's messages are grouped per destination shard (stable —
    /// relative order per shard is preserved, which is all the protocol
    /// requires) and each group is enqueued as one
    /// [`ShardCmd::HandleBatch`], so a transaction costs each shard one
    /// enqueue and at most one wakeup per phase instead of one per
    /// message. The mpsc plane sends one [`ShardCmd::Handle`] per message,
    /// faithful to the pre-batching baseline.
    fn route_all(&self, origin: SiteId, sends: Vec<RequestMsg>) -> Result<(), TxnError> {
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
        match self.inner.config.transport {
            TransportKind::Mpsc => {
                for msg in sends {
                    let idx = shard_of(&msg);
                    if self.inner.shard_txs[idx]
                        .send(ShardCmd::Handle { origin, msg })
                        .is_err()
                    {
                        return Err(TxnError::ShuttingDown);
                    }
                }
            }
            TransportKind::BatchedRing => {
                // Group by destination without allocating: messages are
                // `Copy` plain data and transactions send at most a
                // handful, so a taken-bitmap scan collects each shard's
                // batch in order. (Transactions beyond 64 messages fall
                // back to consecutive-run grouping — still correct, just
                // potentially more batches.)
                let n = sends.len();
                if n <= 64 {
                    // Resolve each destination once up front; the
                    // grouping scans below then compare plain indices.
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
                        if self.inner.shard_txs[idx]
                            .send(ShardCmd::HandleBatch { origin, msgs })
                            .is_err()
                        {
                            return Err(TxnError::ShuttingDown);
                        }
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
                        if self.inner.shard_txs[idx]
                            .send(ShardCmd::HandleBatch { origin, msgs })
                            .is_err()
                        {
                            return Err(TxnError::ShuttingDown);
                        }
                        run_start = run_end;
                    }
                }
            }
        }
        Ok(())
    }

    /// Pass an outbound message list through the armed fault plane. Each
    /// message crosses the plane on the link of its destination shard;
    /// what comes back (possibly nothing — a drop or a hold — possibly
    /// more — duplicates, released delays, healed partitions) replaces it
    /// in the send list, still addressed to the same shard, so the
    /// plane-specific packing below works unchanged. A crossed crash
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
    /// symmetric victims from re-colliding forever.
    fn restart_pause(&self, txn: TxnId, attempt: u32) {
        let base = self.inner.config.restart_backoff;
        if base.is_zero() {
            std::thread::yield_now();
            return;
        }
        let scaled = base.saturating_mul(1u32 << attempt.min(7));
        let jitter_us =
            (txn.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48) % scaled.as_micros().max(1) as u64;
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

fn merge_logs(into: &mut LogSet, from: &LogSet) {
    for (item, log) in from.iter() {
        for entry in log.entries() {
            into.record_full(item, entry.txn, entry.mode, entry.commit_ts, entry.snapshot);
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
    staged: BTreeMap<LogicalItemId, Value>,
    begun: Instant,
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
    fn new(
        db: Database,
        ri: RequestIssuer,
        events: ClientMailbox,
        begun: Instant,
        restarts: u32,
        lane: usize,
        timings: SpanTimings,
    ) -> Self {
        let reads = ri
            .read_results()
            .iter()
            .map(|(item, &value)| (item.logical, value))
            .collect();
        ActiveTxn {
            db,
            ri,
            events: Some(events),
            reads,
            staged: BTreeMap::new(),
            begun,
            restarts,
            finished: false,
            snapshot: false,
            lane,
            timings,
        }
    }

    fn new_snapshot(
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
            staged: BTreeMap::new(),
            begun: Instant::now(),
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

    /// Stage the value this transaction writes to `item` at commit.
    pub fn write(&mut self, item: LogicalItemId, value: Value) -> Result<(), TxnError> {
        if self.ri.txn().mode_for(item) != Some(AccessMode::Write) {
            return Err(TxnError::NotInWriteSet(item));
        }
        self.staged.insert(item, value);
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
        let t_commit_start = plane.now();
        plane.record_at(
            self.lane,
            t_commit_start,
            self.ri.txn_id().0,
            Phase::CommitStart,
            0,
        );
        for (&item, &value) in &self.staged {
            self.ri.set_write_value(item, value);
        }
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
        // never a partial commit.
        let deadline = Instant::now() + self.db.inner.config.commit_timeout;
        let poll = SHUTDOWN_POLL.min(self.db.inner.config.commit_timeout);
        while !released {
            if Instant::now() >= deadline {
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
            let events = self
                .events
                .as_mut()
                .expect("coordinated transaction has a reply mailbox");
            let event = match events.recv_timeout(self.ri.txn_id(), poll) {
                Ok(ev) => ev,
                Err(ClientRecvError::Timeout) => {
                    if self.db.inner.stopped.load(Ordering::Relaxed) {
                        break;
                    }
                    continue;
                }
                Err(ClientRecvError::Disconnected) => break,
            };
            let replies = match event {
                ClientEvent::Replies(replies) => replies,
                // Executing or releasing transactions cannot be victims.
                ClientEvent::DeadlockVictim => continue,
            };
            let mut sends: Vec<RequestMsg> = Vec::new();
            for reply in replies.iter() {
                let out: RiOutput = self.ri.on_reply(reply);
                released = released || out.actions.contains(&RiAction::FullyReleased);
                sends.extend(out.sends);
            }
            self.db.route_all(origin, sends)?;
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
        {
            // Recorded into the calling thread's own metric stripe — the
            // commit path takes no lock shared with admission or the
            // epoch re-fit.
            let latency = simkit::time::Duration::from_secs_f64(self.begun.elapsed().as_secs_f64());
            self.db.inner.metrics.with_local(|m| {
                m.record_commit(method, latency);
                m.record_lock_hold(method, latency, false);
            });
        }
        let t_committed = plane.now();
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
mod tests {
    use super::*;
    use dbmodel::ReplicationPolicy;

    fn li(i: u64) -> LogicalItemId {
        LogicalItemId(i)
    }

    fn config(shards: u32, items: u64) -> RuntimeConfig {
        RuntimeConfig {
            num_shards: shards,
            num_items: items,
            deadlock_scan_interval: Duration::from_millis(2),
            ..RuntimeConfig::default()
        }
    }

    #[test]
    fn single_txn_reads_initial_value_and_installs_write() {
        let db = Database::open(config(2, 8)).unwrap();
        let spec = TxnSpec::new().read(li(0)).write(li(1));
        let receipt = db
            .run_transaction(&spec, |reads| {
                assert_eq!(reads[&li(0)], 0);
                vec![(li(1), 41)]
            })
            .unwrap();
        assert_eq!(receipt.restarts, 0);
        // A second transaction observes the installed value.
        let spec = TxnSpec::new().read(li(1));
        let receipt = db.run_transaction(&spec, |_| vec![]).unwrap();
        assert_eq!(receipt.reads[&li(1)], 41);
        let report = db.shutdown().unwrap();
        assert_eq!(report.stats.committed, 2);
        assert!(report.serializable().is_ok());
        assert!(db.shutdown().is_none(), "second shutdown is a no-op");
    }

    #[test]
    fn write_outside_write_set_is_rejected() {
        let db = Database::open(config(1, 4)).unwrap();
        let mut txn = db.begin(&TxnSpec::new().write(li(0))).unwrap();
        assert_eq!(txn.write(li(1), 9), Err(TxnError::NotInWriteSet(li(1))));
        txn.write(li(0), 7).unwrap();
        txn.commit().unwrap();
        let report = db.shutdown().unwrap();
        assert_eq!(report.stats.committed, 1);
    }

    #[test]
    fn user_abort_implements_nothing() {
        let db = Database::open(config(1, 4)).unwrap();
        let mut txn = db.begin(&TxnSpec::new().write(li(0))).unwrap();
        txn.write(li(0), 123).unwrap();
        txn.abort();
        // A dropped (not committed) transaction also aborts.
        let _ = db.begin(&TxnSpec::new().write(li(1))).unwrap();
        let spec = TxnSpec::new().read(li(0));
        let receipt = db.run_transaction(&spec, |_| vec![]).unwrap();
        assert_eq!(receipt.reads[&li(0)], 0, "aborted write must not land");
        let report = db.shutdown().unwrap();
        assert_eq!(report.stats.user_aborts, 2);
        assert_eq!(report.stats.committed, 1);
        assert!(report.serializable().is_ok());
    }

    #[test]
    fn unknown_item_is_reported() {
        let db = Database::open(config(1, 2)).unwrap();
        let err = db.begin(&TxnSpec::new().read(li(99))).unwrap_err();
        assert!(matches!(err, TxnError::UnknownItem(_)));
        db.shutdown();
    }

    #[test]
    fn to_conflict_restarts_and_still_commits() {
        let db = Database::open(config(1, 1)).unwrap();
        // A hot single item written by T/O transactions from several
        // threads: rejections are expected, every transaction must still
        // commit within the restart budget.
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let db = db.clone();
                std::thread::spawn(move || {
                    for _ in 0..25 {
                        let spec = TxnSpec::new()
                            .write(li(0))
                            .method(CcMethod::TimestampOrdering);
                        db.run_transaction(&spec, |_| vec![(li(0), 1)]).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let report = db.shutdown().unwrap();
        assert_eq!(report.stats.committed, 100);
        assert!(report.serializable().is_ok());
    }

    #[test]
    fn deadlock_between_2pl_writers_is_broken() {
        let db = Database::open(config(2, 2)).unwrap();
        // Two 2PL transactions locking {0,1} in opposite orders cannot
        // deadlock here because requests are issued up front, but a crowd of
        // multi-item writers still produces genuine wait cycles under 2PL.
        let threads: Vec<_> = (0..6)
            .map(|k| {
                let db = db.clone();
                std::thread::spawn(move || {
                    for i in 0..20 {
                        let spec = TxnSpec::new()
                            .write(li((k + i) % 2))
                            .write(li((k + i + 1) % 2))
                            .method(CcMethod::TwoPhaseLocking);
                        db.run_transaction(&spec, |_| vec![]).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let report = db.shutdown().unwrap();
        assert_eq!(report.stats.committed, 120);
        assert!(report.serializable().is_ok());
    }

    /// The baseline reply plane (per-incarnation mpsc channels behind the
    /// global map) still serves concurrent traffic — it is the A/B
    /// comparison the exp9 `reply=mpsc` rows measure.
    #[test]
    fn mpsc_reply_plane_still_serves_concurrent_traffic() {
        let db = Database::open(RuntimeConfig {
            reply_plane: crate::config::ReplyPlaneKind::Mpsc,
            ..config(2, 8)
        })
        .unwrap();
        let threads: Vec<_> = (0..4)
            .map(|k| {
                let db = db.clone();
                std::thread::spawn(move || {
                    for i in 0..20 {
                        let spec = TxnSpec::new()
                            .write(li((k + i) % 8))
                            .read(li((k + i + 1) % 8));
                        db.run_transaction(&spec, |_| vec![(li((k + i) % 8), i as Value)])
                            .unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let report = db.shutdown().unwrap();
        assert_eq!(report.stats.committed, 80);
        assert!(report.serializable().is_ok());
    }

    /// Restart churn on the mailbox plane: the same reusable mailbox
    /// serves every incarnation, and the replies still in flight when an
    /// incarnation aborts surface as counted stale events, never as
    /// grants to the wrong incarnation (the run stays serializable).
    #[test]
    fn restart_churn_reuses_mailboxes_and_counts_stale_replies() {
        let db = Database::open(config(1, 1)).unwrap();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let db = db.clone();
                std::thread::spawn(move || {
                    for _ in 0..25 {
                        let spec = TxnSpec::new()
                            .write(li(0))
                            .method(CcMethod::TimestampOrdering);
                        db.run_transaction(&spec, |_| vec![(li(0), 1)]).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let report = db.shutdown().unwrap();
        assert_eq!(report.stats.committed, 100);
        // The oracle is the real check here: a reply leaked across a
        // restart boundary would grant the wrong incarnation and produce
        // a non-serializable history. (Stale replies themselves are
        // scheduling-dependent, so their count cannot be asserted
        // strictly positive — the registry race suite covers that
        // deterministically.)
        assert!(report.serializable().is_ok());
    }

    #[test]
    fn mpsc_plane_still_serves_concurrent_traffic() {
        let db = Database::open(RuntimeConfig {
            transport: crate::config::TransportKind::Mpsc,
            ..config(2, 8)
        })
        .unwrap();
        let threads: Vec<_> = (0..4)
            .map(|k| {
                let db = db.clone();
                std::thread::spawn(move || {
                    for i in 0..20 {
                        let spec = TxnSpec::new()
                            .write(li((k + i) % 8))
                            .read(li((k + i + 1) % 8));
                        db.run_transaction(&spec, |_| vec![(li((k + i) % 8), i as Value)])
                            .unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let report = db.shutdown().unwrap();
        assert_eq!(report.stats.committed, 80);
        assert!(report.serializable().is_ok());
    }

    /// Acceptance check: the epoch re-fit holds no lock the commit path
    /// needs. Client threads commit continuously while the main thread
    /// hammers forced re-fits (each of which merges every metric stripe);
    /// every transaction must commit and the refits must be visible in
    /// the (atomics-only) stats snapshot.
    #[test]
    fn commits_proceed_concurrently_with_forced_refits() {
        let db = Database::open(RuntimeConfig {
            policy: CcPolicy::DynamicStl,
            ..config(2, 16)
        })
        .unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let workers: Vec<_> = (0..3)
            .map(|k| {
                let db = db.clone();
                std::thread::spawn(move || {
                    for i in 0..60u64 {
                        let spec = TxnSpec::new()
                            .read(li((k + i) % 16))
                            .write(li((k + i + 3) % 16));
                        db.run_transaction(&spec, |_| vec![(li((k + i + 3) % 16), i as Value)])
                            .unwrap();
                    }
                })
            })
            .collect();
        let mut forced = 0u64;
        while !workers.iter().all(|w| w.is_finished()) {
            assert!(db.force_refit(), "dynamic cached policy must refit");
            forced += 1;
            // Poll stats mid-refit-storm: reads only atomics, so it can
            // never block on (or be blocked by) admission.
            let _ = db.stats();
        }
        for w in workers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        assert!(forced > 0);
        let stats = db.stats();
        assert!(
            stats.cache.refits >= forced,
            "forced refits must be counted: {} < {forced}",
            stats.cache.refits
        );
        let report = db.shutdown().unwrap();
        assert_eq!(report.stats.committed, 180);
        assert!(report.serializable().is_ok());
    }

    #[test]
    fn stats_reports_cache_counters_without_selector_lock() {
        let db = Database::open(RuntimeConfig {
            policy: CcPolicy::DynamicStl,
            selection_cache: Some(selection::CacheSettings {
                warmup_commits: 3,
                explore_every: 0,
                ..selection::CacheSettings::default()
            }),
            ..config(1, 8)
        })
        .unwrap();
        for i in 0..50 {
            let spec = TxnSpec::new().read(li(i % 8)).write(li((i + 1) % 8));
            db.run_transaction(&spec, |_| vec![]).unwrap();
        }
        let stats = db.stats();
        assert_eq!(stats.selections, 50);
        assert!(
            stats.cache.hits + stats.cache.misses > 0,
            "cost-based selections must flow into the atomic mirror: {:?}",
            stats.cache
        );
        assert!(stats.cache.epoch >= 1);
        db.shutdown();
    }

    #[test]
    fn mix_policy_spreads_methods_and_log_tap_grows() {
        let db = Database::open(RuntimeConfig {
            num_shards: 2,
            num_items: 16,
            replication: ReplicationPolicy::KCopies(2),
            policy: CcPolicy::Mix {
                p_2pl: 0.34,
                p_to: 0.33,
            },
            ..RuntimeConfig::default()
        })
        .unwrap();
        for i in 0..60 {
            let spec = TxnSpec::new().read(li(i % 16)).write(li((i + 1) % 16));
            db.run_transaction(&spec, |_| vec![(li((i + 1) % 16), i as Value)])
                .unwrap();
        }
        assert!(db.log_snapshot().total_ops() > 0, "live log tap works");
        let report = db.shutdown().unwrap();
        assert_eq!(report.stats.committed, 60);
        assert!(
            report.selection_counts.len() >= 2,
            "mix uses several methods: {:?}",
            report.selection_counts
        );
        assert!(report.serializable().is_ok());
    }

    /// Files currently in `dir` whose names mention the given reason slug.
    fn postmortems_in(dir: &std::path::Path, slug: &str) -> usize {
        std::fs::read_dir(dir)
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok())
                    .filter(|e| e.file_name().to_string_lossy().contains(slug))
                    .count()
            })
            .unwrap_or(0)
    }

    /// Satellite regression (PR 7): the mailbox-overflow postmortem fires
    /// on the *registration* that transitions the reply plane onto the
    /// overflow map — before anyone polls stats — and `stats()` itself
    /// never writes anything.
    #[test]
    fn overflow_postmortem_fires_at_registration_not_in_stats() {
        let dir = std::env::temp_dir().join(format!(
            "db_overflow_postmortem_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let db = Database::open(RuntimeConfig {
            num_shards: 2,
            num_items: 128,
            // Pin the resizable index at a 64-bucket ceiling so holding
            // 65+ open transactions forces a collision onto the overflow
            // map (pigeonhole), exercising the degraded path on purpose.
            reply_index_capacity: 64,
            reply_index_max_capacity: 64,
            reply_max_clients: 128,
            trace: trace::TraceConfig {
                postmortem_dir: Some(dir.clone()),
                ..trace::TraceConfig::default()
            },
            ..RuntimeConfig::default()
        })
        .unwrap();
        let mut open = Vec::new();
        for i in 0..80u64 {
            open.push(db.begin(&TxnSpec::new().write(li(i))).unwrap());
        }
        assert!(
            postmortems_in(&dir, "mailbox-overflow") > 0,
            "the overflow transition must dump a postmortem with no stats() call"
        );
        // stats() reports the degraded state but is side-effect-free:
        // repeated polling writes nothing new.
        let before = postmortems_in(&dir, "mailbox-overflow");
        for _ in 0..5 {
            let stats = db.stats();
            assert!(stats.mailbox_overflow_entries > 0);
            assert_eq!(stats.mailbox_index_capacity, 64);
        }
        assert_eq!(postmortems_in(&dir, "mailbox-overflow"), before);
        for txn in open {
            txn.abort();
        }
        db.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The no-overflow half: a healthy reply plane never dumps, no matter
    /// how often stats is polled, and the new index counters surface.
    #[test]
    fn stats_polling_is_side_effect_free_on_a_healthy_plane() {
        let dir = std::env::temp_dir().join(format!(
            "db_healthy_postmortem_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let db = Database::open(RuntimeConfig {
            num_shards: 1,
            num_items: 8,
            trace: trace::TraceConfig {
                postmortem_dir: Some(dir.clone()),
                ..trace::TraceConfig::default()
            },
            ..RuntimeConfig::default()
        })
        .unwrap();
        for i in 0..10 {
            let spec = TxnSpec::new().write(li(i % 8));
            db.run_transaction(&spec, |_| vec![(li(i % 8), 1)]).unwrap();
            let stats = db.stats();
            assert_eq!(stats.mailbox_overflow_entries, 0);
            assert_eq!(stats.mailbox_full_drops, 0);
            assert!(stats.mailbox_index_capacity >= 1024);
        }
        assert_eq!(
            postmortems_in(&dir, "mailbox-overflow"),
            0,
            "a healthy plane polled for stats must never dump"
        );
        db.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Sequential fast-path correctness: every increment applies through
    /// the bypass (no grants anywhere), the final value is exact, and the
    /// flight recorder saw the `FastPathApplied` phase.
    #[test]
    fn fast_adds_apply_through_the_bypass() {
        let db = Database::open(config(1, 4)).unwrap();
        const N: u64 = 50;
        for _ in 0..N {
            let receipt = db.execute(&TxnSpec::new().add(li(0), 2)).unwrap();
            assert!(receipt.fastpath);
            assert_eq!(receipt.restarts, 0);
        }
        let receipt = db.execute(&TxnSpec::new().read(li(0))).unwrap();
        assert!(receipt.snapshot, "a pure read takes the snapshot plane");
        assert_eq!(receipt.reads[&li(0)], 2 * N as Value);
        let stats = db.stats();
        assert_eq!(stats.fastpath_applied, N);
        assert_eq!(stats.snapshot_reads, 1);
        assert_eq!(stats.fastpath_refused, 0);
        assert_eq!(stats.committed, N + 1);
        assert_eq!(stats.grants, 0, "the bypass issues no grants");
        assert!(db
            .trace_snapshot()
            .iter()
            .any(|e| e.phase == Phase::FastPathApplied));
        let report = db.shutdown().unwrap();
        assert!(report.serializable().is_ok());
    }

    /// A non-confluent shape (declared rmw write) never takes the bypass,
    /// and puts land last-writer-wins through it.
    #[test]
    fn rmw_shapes_stay_coordinated_and_puts_apply() {
        let db = Database::open(config(1, 4)).unwrap();
        let receipt = db.execute(&TxnSpec::new().put(li(1), 77)).unwrap();
        assert!(receipt.fastpath);
        let receipt = db
            .execute(&TxnSpec::new().read(li(1)).write(li(2)))
            .unwrap();
        assert!(!receipt.fastpath, "an rmw write forces coordination");
        assert_eq!(receipt.reads[&li(1)], 77);
        let stats = db.stats();
        assert_eq!(stats.fastpath_applied, 1);
        let report = db.shutdown().unwrap();
        assert!(report.serializable().is_ok());
    }

    /// The queue manager refuses the bypass while a coordinated writer
    /// holds the item, and the transparent fallback commits the increment
    /// on top of the writer's value.
    #[test]
    fn bypass_refusal_falls_back_to_coordination() {
        let db = Database::open(config(1, 2)).unwrap();
        let mut holder = db.begin(&TxnSpec::new().write(li(0))).unwrap();
        holder.write(li(0), 7).unwrap();
        let worker = {
            let db = db.clone();
            std::thread::spawn(move || db.execute(&TxnSpec::new().add(li(0), 1)).unwrap())
        };
        // The fast attempt is refused (the holder's lock is live), then
        // the fallback queues behind the lock until the holder commits.
        while db.stats().fastpath_refused == 0 {
            std::thread::yield_now();
        }
        holder.commit().unwrap();
        let receipt = worker.join().unwrap();
        assert!(!receipt.fastpath, "the refused txn re-ran coordinated");
        let check = db.execute(&TxnSpec::new().read(li(0))).unwrap();
        assert_eq!(
            check.reads[&li(0)],
            8,
            "the fallback added on top of the committed write"
        );
        assert!(db.stats().fastpath_refused >= 1);
        let report = db.shutdown().unwrap();
        assert!(report.serializable().is_ok());
    }

    /// The mixed-plane certification the tentpole demands: fast-path
    /// increments and coordinated read-modify-writes hammer the same hot
    /// items from concurrent threads, and the serializability oracle
    /// certifies the merged history.
    #[test]
    fn mixed_fastpath_and_coordinated_traffic_stays_serializable() {
        let db = Database::open(config(2, 8)).unwrap();
        let fast: Vec<_> = (0..3u64)
            .map(|k| {
                let db = db.clone();
                std::thread::spawn(move || {
                    for i in 0..40u64 {
                        db.execute(&TxnSpec::new().add(li((k + i) % 8), 1)).unwrap();
                    }
                })
            })
            .collect();
        let coordinated: Vec<_> = (0..3u64)
            .map(|k| {
                let db = db.clone();
                std::thread::spawn(move || {
                    for i in 0..40u64 {
                        let item = li((k + i) % 8);
                        let spec = TxnSpec::new().write(item).read(li((k + i + 1) % 8));
                        db.run_transaction(&spec, |reads| {
                            vec![(item, reads[&li((k + i + 1) % 8)].wrapping_add(3))]
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        for t in fast.into_iter().chain(coordinated) {
            t.join().unwrap();
        }
        let stats = db.stats();
        assert_eq!(stats.committed, 240);
        assert_eq!(
            stats.fastpath_applied + stats.fastpath_refused,
            120,
            "every fast txn either applied or was refused exactly once"
        );
        let report = db.shutdown().unwrap();
        assert_eq!(report.stats.committed, 240);
        assert!(report.serializable().is_ok());
    }

    /// Satellite regression (PR 9): a dead shard must not hang `begin`.
    /// The only shard is taken down for far longer than the whole retry
    /// budget; the client's bounded request wait aborts each incarnation
    /// at `request_timeout`, exhausts `max_restarts`, and surfaces a
    /// clean `ShardUnavailable` well before the outage ends.
    #[test]
    fn dead_shard_request_wait_is_bounded() {
        let db = Database::open(RuntimeConfig {
            request_timeout: Duration::from_millis(40),
            max_restarts: 1,
            ..config(1, 4)
        })
        .unwrap();
        db.inner.shard_txs[0]
            .send(ShardCmd::Crash {
                outage: Duration::from_millis(400),
            })
            .map_err(|_| ())
            .unwrap();
        let begun = Instant::now();
        let err = db.begin(&TxnSpec::new().write(li(0))).unwrap_err();
        assert_eq!(err, TxnError::ShardUnavailable);
        assert!(
            begun.elapsed() < Duration::from_millis(350),
            "the bounded wait must give up before the outage ends, took {:?}",
            begun.elapsed()
        );
        let stats = db.stats();
        assert!(stats.timeout_restarts >= 1, "each expiry is counted");
        assert_eq!(stats.shard_unavailable, 1);
        assert_eq!(stats.committed, 0, "nothing was implemented");
        db.shutdown();
    }

    /// Satellite regression (PR 9): the diagnostic taps
    /// (`waiting_transactions`, `log_snapshot`) skip an unresponsive
    /// shard within `diagnostic_timeout` instead of blocking forever.
    #[test]
    fn diagnostics_skip_an_unresponsive_shard() {
        let db = Database::open(RuntimeConfig {
            diagnostic_timeout: Duration::from_millis(30),
            ..config(2, 8)
        })
        .unwrap();
        for i in 0..8 {
            db.run_transaction(&TxnSpec::new().write(li(i)), |_| vec![(li(i), 1)])
                .unwrap();
        }
        db.inner.shard_txs[0]
            .send(ShardCmd::Crash {
                outage: Duration::from_millis(300),
            })
            .map_err(|_| ())
            .unwrap();
        let begun = Instant::now();
        let waiting = db.waiting_transactions();
        let snapshot = db.log_snapshot();
        assert!(
            begun.elapsed() < Duration::from_millis(200),
            "diagnostics must return within the bound, took {:?}",
            begun.elapsed()
        );
        assert!(waiting.is_empty());
        assert!(
            snapshot.total_ops() > 0,
            "the responsive shard's slice is still served"
        );
        db.shutdown();
    }

    /// Satellite regression (PR 9): a commit wait parked on a trailing
    /// normal-grant upgrade gives up at `commit_timeout` with
    /// `ShardUnavailable` — decided but unacknowledged, never a hang. A
    /// T/O reader holds a share lock; a later T/O writer executes on its
    /// pre-scheduled lock and demotes at commit, which implements the
    /// write but cannot fully release until the reader leaves.
    #[test]
    fn commit_wait_on_a_parked_upgrade_is_bounded() {
        let db = Database::open(RuntimeConfig {
            commit_timeout: Duration::from_millis(60),
            ..config(1, 2)
        })
        .unwrap();
        let reader = db
            .begin(
                &TxnSpec::new()
                    .read(li(0))
                    .method(CcMethod::TimestampOrdering),
            )
            .unwrap();
        let mut writer = db
            .begin(
                &TxnSpec::new()
                    .write(li(0))
                    .method(CcMethod::TimestampOrdering),
            )
            .unwrap();
        writer.write(li(0), 9).unwrap();
        let begun = Instant::now();
        let err = writer.commit().unwrap_err();
        assert_eq!(err, TxnError::ShardUnavailable);
        assert!(
            begun.elapsed() < Duration::from_millis(300),
            "commit wait must be bounded, took {:?}",
            begun.elapsed()
        );
        assert_eq!(db.stats().shard_unavailable, 1);
        // The write was implemented when the lock demoted: the decision
        // stands even though the acknowledgement never came. The check
        // read pins a coordinated method: the unacknowledged commit stamp
        // is never retired, so the watermark stalls below it and a
        // snapshot read would (correctly) serve the pre-write version.
        reader.commit().unwrap();
        let check = db
            .run_transaction(
                &TxnSpec::new().read(li(0)).method(CcMethod::TwoPhaseLocking),
                |_| vec![],
            )
            .unwrap();
        assert_eq!(check.reads[&li(0)], 9);
        let report = db.shutdown().unwrap();
        assert!(report.serializable().is_ok());
    }

    /// Satellite 4 (PR 9): a victim storm — the same logical transaction
    /// repeatedly victimised while queued behind a holder — stays
    /// bounded: every restart is counted, the storm cannot exceed the
    /// `max_restarts` budget, and the survivor either commits or fails
    /// with a clean error. The history stays oracle-certified.
    #[test]
    fn victim_storm_is_bounded_and_oracle_certified() {
        let db = Database::open(RuntimeConfig {
            max_restarts: 6,
            ..config(1, 2)
        })
        .unwrap();
        let holder = db
            .begin(
                &TxnSpec::new()
                    .write(li(0))
                    .method(CcMethod::TwoPhaseLocking),
            )
            .unwrap();
        let worker = {
            let db = db.clone();
            std::thread::spawn(move || {
                let spec = TxnSpec::new()
                    .write(li(0))
                    .method(CcMethod::TwoPhaseLocking);
                db.run_transaction(&spec, |_| vec![(li(0), 7)])
            })
        };
        // Storm: blanket-victimise every plausible incarnation id until
        // the worker has been through several deadlock restarts.
        while db.stats().deadlock_restarts < 3 && !worker.is_finished() {
            for i in 1..=64 {
                let _ = db.inner.registry.signal_deadlock(TxnId(i));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        holder.commit().unwrap();
        match worker.join().unwrap() {
            Ok(receipt) => {
                assert!(
                    (3..=6).contains(&receipt.restarts),
                    "storm restarts must be counted and bounded: {}",
                    receipt.restarts
                );
            }
            Err(TxnError::TooManyRestarts { attempts }) => {
                assert_eq!(attempts, 7, "the budget is exact");
            }
            Err(other) => panic!("victim storm must end cleanly, got {other:?}"),
        }
        let stats = db.stats();
        assert!(stats.deadlock_restarts >= 3);
        assert!(stats.deadlock_restarts <= 7);
        let report = db.shutdown().unwrap();
        assert!(report.serializable().is_ok());
    }

    /// The mutation gate: with `confluence_check = false` the bypass
    /// ignores in-flight coordinated work, and a deliberately interleaved
    /// fast transaction closes a precedence cycle the oracle must reject.
    /// (This is the proof that the at-apply refusal check is what keeps
    /// the fast path serializable.)
    #[test]
    fn disabling_the_confluence_check_admits_a_non_serializable_history() {
        let db = Database::open(RuntimeConfig {
            confluence_check: false,
            ..config(2, 2)
        })
        .unwrap();
        // T holds write locks on both items across both shards.
        let mut t = db.begin(&TxnSpec::new().write(li(0)).write(li(1))).unwrap();
        t.write(li(0), 10).unwrap();
        t.write(li(1), 20).unwrap();
        let phys0 = db.catalog().physical_copies(li(0)).unwrap()[0];
        let phys1 = db.catalog().physical_copies(li(1)).unwrap()[0];
        let f = TxnId(1_000_000);
        let send = |ops: Vec<ConfluentOp>| {
            let site = ops[0].item().site;
            let idx = db.inner.site_index[&site];
            let (tx, rx) = transport::oneshot::channel();
            db.inner.shard_txs[idx]
                .send(ShardCmd::ApplyConfluent {
                    origin: SiteId(0),
                    txn: f,
                    ops,
                    check: false,
                    reply: tx,
                })
                .map_err(|_| ())
                .unwrap();
            rx.recv().unwrap()
        };
        // F reads item 0 *before* T implements its write there (F → T)...
        assert!(send(vec![ConfluentOp::Read(phys0)]).is_some());
        t.commit().unwrap();
        // ...and writes item 1 *after* T implemented (T → F): a cycle.
        assert!(send(vec![ConfluentOp::Add(phys1, 1)]).is_some());
        let report = db.shutdown().unwrap();
        assert!(
            report.serializable().is_err(),
            "the unchecked bypass must admit a non-serializable history"
        );
    }

    /// Tentpole routing (PR 10): a pure read rides the snapshot plane —
    /// no grants, no restarts — `begin` hands back a snapshot handle
    /// whose reads are already served, and writes outside the (empty)
    /// write set stay rejected. A pinned method opts out.
    #[test]
    fn snapshot_reads_route_around_coordination() {
        let db = Database::open(config(2, 8)).unwrap();
        db.run_transaction(&TxnSpec::new().write(li(3)), |_| vec![(li(3), 42)])
            .unwrap();
        let grants_before = db.stats().grants;
        let receipt = db.execute(&TxnSpec::new().read(li(3)).read(li(4))).unwrap();
        assert!(receipt.snapshot);
        assert_eq!(receipt.restarts, 0);
        assert_eq!(receipt.reads[&li(3)], 42);
        assert_eq!(receipt.reads[&li(4)], 0);
        let mut txn = db.begin(&TxnSpec::new().read(li(3))).unwrap();
        assert!(txn.is_snapshot());
        assert_eq!(txn.read(li(3)), Some(42));
        assert_eq!(txn.write(li(3), 1), Err(TxnError::NotInWriteSet(li(3))));
        let receipt = txn.commit().unwrap();
        assert!(receipt.snapshot);
        // An aborted snapshot handle counts as a user abort and leaves
        // no residue to clean up.
        db.begin(&TxnSpec::new().read(li(4))).unwrap().abort();
        // Pinning a method forces the coordinated plane.
        let receipt = db
            .execute(
                &TxnSpec::new()
                    .read(li(3))
                    .method(CcMethod::TimestampOrdering),
            )
            .unwrap();
        assert!(!receipt.snapshot);
        let stats = db.stats();
        assert_eq!(stats.snapshot_reads, 3);
        assert_eq!(stats.snapshot_refused, 0);
        assert_eq!(
            stats.grants,
            grants_before + 1,
            "only the pinned-method read took a grant"
        );
        assert_eq!(stats.user_aborts, 1);
        assert_eq!(stats.committed, 4);
        assert_eq!(db.live_transactions(), 0);
        let report = db.shutdown().unwrap();
        assert!(report.serializable().is_ok());
    }

    /// Tentpole certification (PR 10): snapshot readers race coordinated
    /// read-modify-writes and fast-path increments on the same hot items,
    /// and the merged history — snapshot reads ordered by served stamp,
    /// not log position — is oracle-certified.
    #[test]
    fn mixed_snapshot_and_writer_traffic_stays_serializable() {
        let db = Database::open(config(2, 8)).unwrap();
        let writers: Vec<_> = (0..2u64)
            .map(|k| {
                let db = db.clone();
                std::thread::spawn(move || {
                    for i in 0..40u64 {
                        let item = li((k + i) % 8);
                        db.run_transaction(
                            &TxnSpec::new().write(item).read(li((k + i + 1) % 8)),
                            |reads| vec![(item, reads[&li((k + i + 1) % 8)].wrapping_add(3))],
                        )
                        .unwrap();
                        db.execute(&TxnSpec::new().add(li((k + i + 3) % 8), 1))
                            .unwrap();
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..2u64)
            .map(|k| {
                let db = db.clone();
                std::thread::spawn(move || {
                    for i in 0..40u64 {
                        let receipt = db
                            .execute(
                                &TxnSpec::new()
                                    .read(li((k + i) % 8))
                                    .read(li((k + i + 4) % 8)),
                            )
                            .unwrap();
                        assert!(receipt.snapshot, "a pure read must never coordinate");
                    }
                })
            })
            .collect();
        for t in writers.into_iter().chain(readers) {
            t.join().unwrap();
        }
        let stats = db.stats();
        assert_eq!(stats.committed, 240);
        assert_eq!(stats.snapshot_reads, 80);
        assert_eq!(stats.snapshot_refused, 0);
        let report = db.shutdown().unwrap();
        assert_eq!(report.stats.committed, 240);
        assert!(report.serializable().is_ok());
    }

    /// Chaos regression (PR 10): a snapshot read against a crashed shard
    /// surfaces a bounded `ShardUnavailable` — never a hang, never a
    /// silent fall-through to a torn answer.
    #[test]
    fn snapshot_read_on_a_dead_shard_is_bounded() {
        let db = Database::open(RuntimeConfig {
            diagnostic_timeout: Duration::from_millis(40),
            ..config(1, 4)
        })
        .unwrap();
        db.inner.shard_txs[0]
            .send(ShardCmd::Crash {
                outage: Duration::from_millis(400),
            })
            .map_err(|_| ())
            .unwrap();
        let begun = Instant::now();
        let err = db.execute(&TxnSpec::new().read(li(0))).unwrap_err();
        assert_eq!(err, TxnError::ShardUnavailable);
        assert!(
            begun.elapsed() < Duration::from_millis(350),
            "the snapshot wait must give up before the outage ends, took {:?}",
            begun.elapsed()
        );
        let stats = db.stats();
        assert_eq!(stats.shard_unavailable, 1);
        assert_eq!(stats.committed, 0);
        db.shutdown();
    }

    /// Satellite 3 (PR 10): when the hard cap has pruned the chain past
    /// the (stalled) watermark, the snapshot plane refuses rather than
    /// serving a wrong version, and the transparent fallback still
    /// commits the read coordinated — correct answer, counted refusal.
    #[test]
    fn pruned_chain_refuses_and_falls_back() {
        let db = Database::open(RuntimeConfig {
            commit_timeout: Duration::from_millis(40),
            version_retain: 1,
            ..config(1, 4)
        })
        .unwrap();
        // Stall the watermark at zero: a T/O writer parked behind a
        // share-holding reader draws the first commit stamp and times
        // out, so the stamp is never retired.
        let reader = db
            .begin(
                &TxnSpec::new()
                    .read(li(1))
                    .method(CcMethod::TimestampOrdering),
            )
            .unwrap();
        let mut writer = db
            .begin(
                &TxnSpec::new()
                    .write(li(1))
                    .method(CcMethod::TimestampOrdering),
            )
            .unwrap();
        writer.write(li(1), 9).unwrap();
        assert_eq!(writer.commit().unwrap_err(), TxnError::ShardUnavailable);
        reader.commit().unwrap();
        // Six stamped writes against retain=1 (hard cap 4) prune li(0)'s
        // seed version out of the chain.
        for v in 1..=6 {
            db.run_transaction(&TxnSpec::new().write(li(0)), |_| vec![(li(0), v)])
                .unwrap();
        }
        let receipt = db.execute(&TxnSpec::new().read(li(0))).unwrap();
        assert!(
            !receipt.snapshot,
            "a chain pruned past the watermark must not serve a snapshot"
        );
        assert_eq!(receipt.reads[&li(0)], 6);
        assert!(db.stats().snapshot_refused >= 1);
        let report = db.shutdown().unwrap();
        assert!(report.serializable().is_ok());
    }

    /// The mutation gate (PR 10): with `snapshot_validation = false` the
    /// plane serves raw heads, and a snapshot transaction whose two reads
    /// straddle a writer's commit observes a torn state — the oracle must
    /// reject the cycle. (This is the proof that the watermark visibility
    /// check is what keeps snapshot reads serializable.)
    #[test]
    fn disabling_snapshot_validation_admits_a_non_serializable_history() {
        let db = Database::open(RuntimeConfig {
            snapshot_validation: false,
            ..config(1, 2)
        })
        .unwrap();
        let mut t = db.begin(&TxnSpec::new().write(li(0)).write(li(1))).unwrap();
        t.write(li(0), 10).unwrap();
        t.write(li(1), 20).unwrap();
        let phys0 = db.catalog().physical_copies(li(0)).unwrap()[0];
        let phys1 = db.catalog().physical_copies(li(1)).unwrap()[0];
        let f = TxnId(1_000_000);
        let send = |items: Vec<dbmodel::PhysicalItemId>| {
            let (tx, rx) = transport::oneshot::channel();
            db.inner.shard_txs[0]
                .send(ShardCmd::SnapshotRead {
                    txn: f,
                    ts: Timestamp::ZERO,
                    items,
                    reply: tx,
                })
                .map_err(|_| ())
                .unwrap();
            rx.recv().unwrap()
        };
        // F reads item 0 *before* T installs (seed version: F → T)...
        assert_eq!(send(vec![phys0]), Some(vec![(phys0, 0)]));
        t.commit().unwrap();
        // ...and item 1 *after*: the unvalidated head is T's stamped
        // write, far above F's snapshot timestamp (T → F): a cycle.
        assert_eq!(send(vec![phys1]), Some(vec![(phys1, 20)]));
        let report = db.shutdown().unwrap();
        assert!(
            report.serializable().is_err(),
            "the unvalidated snapshot plane must admit a torn read"
        );
    }
}
