//! Routing: which way a transaction runs, decided once per call.
//!
//! [`selection::route`] lists the routes a spec's shape is eligible for
//! in fallback order — snapshot, bypass, coordinated. [`Database::routes`]
//! is the one place the runtime asks it; [`Database::execute`] walks the
//! list until a route serves, and [`Database::begin`] consults its head.
//! The two one-shot routes live here: each scatters one command per
//! owning shard, gathers the answers under a bounded wait, and refuses
//! all-or-nothing.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;

use dbmodel::{CcMethod, LogicalItemId, PhysicalItemId, Timestamp, TxnId, Value};
use selection::Route;
use trace::Phase;
use transport::batch::SmallBatch;
use transport::oneshot::OneshotSender;
use unified_cc::ConfluentOp;

use crate::db::Database;
use crate::shard::ShardCmd;
use crate::spec::{TxnError, TxnReceipt, TxnSpec};

/// A served snapshot read: the assigned transaction id and the values
/// observed at one watermark cut. `None` means some shard refused and the
/// caller should take the next route.
pub(crate) type SnapshotAnswer = Option<(TxnId, BTreeMap<LogicalItemId, Value>)>;

#[cfg(test)]
thread_local! {
    /// Runs once between a snapshot read's watermark load and its
    /// scatter on this thread: a test commits there what a reader
    /// descheduled at that point would miss.
    pub(crate) static AFTER_WATERMARK_LOAD: std::cell::Cell<Option<Box<dyn FnOnce()>>> =
        const { std::cell::Cell::new(None) };
}

/// What a shard answers a one-shot command with: the values it served, or
/// `None` for a refusal.
type ShardAnswer = Option<Vec<(PhysicalItemId, Value)>>;

/// Work grouped by owning shard: one batch per shard (a bypass is atomic
/// only inside one shard command, and a coordinated send costs each shard
/// one tenure), shards in order of first appearance, each batch in the
/// order pushed. Up to four shards of up to four ops each live inline, so
/// the common transaction allocates nothing to be grouped; there is no
/// size limit past which grouping changes.
pub(crate) struct PerShard<T>(pub(crate) SmallBatch<(usize, SmallBatch<T>)>);

impl<T> PerShard<T> {
    pub(crate) fn new() -> Self {
        PerShard(SmallBatch::new())
    }

    /// Append `op` to shard `idx`'s batch.
    pub(crate) fn push(&mut self, idx: usize, op: T) {
        if let Some((_, batch)) = self.0.iter_mut().find(|(shard, _)| *shard == idx) {
            return batch.push(op);
        }
        self.0.push((idx, std::iter::once(op).collect()));
    }

    /// Ops across every shard.
    fn ops(&self) -> usize {
        self.0.iter().map(|(_, batch)| batch.len()).sum()
    }
}

impl Database {
    /// The routes `spec` may take, in the order to try them: the routes
    /// its shape is eligible for (see [`selection::route`]) minus the ones
    /// the configuration switches off; a pinned method opts out of both
    /// coordination-free routes. Always ends in [`Route::Coordinated`].
    pub(crate) fn routes(&self, spec: &TxnSpec) -> impl Iterator<Item = Route> + '_ {
        let config = &self.inner.config;
        let pinned = spec.method.is_some();
        let (profile, reads, writes) = spec.profile();
        selection::route(profile, reads, writes).filter(move |route| match route {
            Route::Snapshot => config.snapshot_reads && !pinned,
            Route::Bypass => config.confluence_fastpath && !pinned,
            Route::Coordinated => true,
        })
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
    /// [`crate::StatsSnapshot::snapshot_refused`], and the transaction falls
    /// through to the paths below.
    ///
    /// Shapes built only from reads, [`TxnSpec::add`]s and
    /// [`TxnSpec::put`]s classify as [`selection::Confluence::ConfluentFastPath`]
    /// (see [`selection::classify`]) and are applied by the owning shard
    /// in one direct command — no grants, no precedence entries, no
    /// deadlock exposure. The owning queue manager still *refuses* the
    /// bypass whenever a touched slot has queued or granted coordinated
    /// work; on refusal — and for every non-confluent, pinned-method,
    /// replicated-item or (with the safety check on) multi-site shape —
    /// the transaction transparently runs the coordinated
    /// `begin`/stage/`commit` path instead. Fast-path commits and
    /// refusals surface in [`crate::StatsSnapshot::fastpath_applied`] /
    /// [`crate::StatsSnapshot::fastpath_refused`].
    pub fn execute(&self, spec: &TxnSpec) -> Result<TxnReceipt, TxnError> {
        for route in self.routes(spec) {
            let served = match route {
                // Read-only shapes try the MVCC snapshot plane first — even
                // less coordination than the confluent bypass (no at-apply
                // refusal window to lose: a watermark read conflicts with
                // nothing).
                Route::Snapshot => self
                    .snapshot_read_values(spec)?
                    .map(|(txn_id, reads)| self.commit_snapshot(txn_id, reads)),
                Route::Bypass => self.try_fastpath(spec)?,
                // The end of every list, and the one route that never
                // refuses.
                Route::Coordinated => break,
            };
            if let Some(receipt) = served {
                return Ok(receipt);
            }
        }
        self.execute_coordinated(spec)
    }

    /// Commit a served snapshot read: nothing is held anywhere and its
    /// reads were logged where they were served, so committing is pure
    /// local accounting. Both ends of the snapshot route come here —
    /// [`Database::execute`] and a snapshot [`crate::ActiveTxn::commit`].
    pub(crate) fn commit_snapshot(
        &self,
        txn_id: TxnId,
        reads: BTreeMap<LogicalItemId, Value>,
    ) -> TxnReceipt {
        let inner = &self.inner;
        inner.stats.committed.fetch_add(1, Ordering::Relaxed);
        let plane = &inner.trace;
        plane.record(plane.client_lane(), txn_id.0, Phase::Committed, 0);
        TxnReceipt {
            id: txn_id,
            method: CcMethod::TwoPhaseLocking,
            restarts: 0,
            reads,
            fastpath: false,
            snapshot: true,
        }
    }

    /// The coordinated route of [`Database::execute`]: a normal
    /// begin/stage/`commit` incarnation, entered below the routing
    /// decision so a fallback never re-asks it. `add` ops stage the
    /// predecessor value the write grant carried plus their (per-item
    /// accumulated) delta; `put` ops stage their value directly.
    fn execute_coordinated(&self, spec: &TxnSpec) -> Result<TxnReceipt, TxnError> {
        let mut txn = self.begin_coordinated(spec)?;
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

    /// Attempt the coordination-avoidance bypass for a spec routed to
    /// [`Route::Bypass`]. `Ok(None)` means "take the next route": a
    /// written item is replicated, the footprint spans several sites
    /// while the safety check is on (the bypass is atomic only within
    /// one shard's command order), or the owning queue manager refused.
    fn try_fastpath(&self, spec: &TxnSpec) -> Result<Option<TxnReceipt>, TxnError> {
        let inner = &self.inner;
        let plane = &inner.trace;
        let lane = plane.client_lane();
        let t_begin = plane.now();
        let txn_id = inner.mint_txn_id(0);
        let origin = inner.origin_of(spec, txn_id);
        // Translate: reads go to the preferred copy, adds/puts to the
        // single physical copy. Replicated written items fall back to the
        // coordinated path, which knows how to fan a write out.
        let mut per_shard = PerShard::new();
        for &item in &spec.reads {
            let copy = inner
                .catalog
                .read_copy(item, origin)
                .map_err(TxnError::UnknownItem)?;
            per_shard.push(inner.shard_of(copy.site), ConfluentOp::Read(copy));
        }
        for &(item, delta) in &spec.adds {
            let copies = inner
                .catalog
                .physical_copies(item)
                .map_err(TxnError::UnknownItem)?;
            if copies.len() != 1 {
                return Ok(None);
            }
            per_shard.push(
                inner.shard_of(copies[0].site),
                ConfluentOp::Add(copies[0], delta),
            );
        }
        for &(item, value) in &spec.puts {
            let copies = inner
                .catalog
                .physical_copies(item)
                .map_err(TxnError::UnknownItem)?;
            if copies.len() != 1 {
                return Ok(None);
            }
            per_shard.push(
                inner.shard_of(copies[0].site),
                ConfluentOp::Put(copies[0], value),
            );
        }
        let check = inner.config.confluence_check;
        if check && per_shard.0.len() != 1 {
            return Ok(None);
        }
        let n_ops = per_shard.ops() as u32;
        let answer = self.scatter_gather(per_shard, |ops, reply| ShardCmd::ApplyConfluent {
            origin,
            txn: txn_id,
            ops,
            check,
            reply,
        })?;
        let Some(reads) = answer else {
            inner.stats.fastpath_refused.fetch_add(1, Ordering::Relaxed);
            // Nothing is recorded for the refused incarnation: it never
            // entered any log and its id is simply abandoned.
            return Ok(None);
        };
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

    /// Serve a spec routed to [`Route::Snapshot`] from the MVCC snapshot
    /// plane. `Ok(None)` means "take the next route": some shard could
    /// not serve the watermark (its chain was pruned past it — counted as
    /// a refusal). On success the reads are final: every shard answered
    /// from the version chains at one watermark load, each served read
    /// already entered that shard's execution log stamped with the
    /// version it observed, and the caller only has to account the
    /// commit.
    ///
    /// A shard prunes against the watermark of its own tenure, so a
    /// reader delayed between its load and its command can find the
    /// version its older stamp needs already gone. When a refusal finds
    /// the watermark moved past the one loaded, the read is retried once
    /// at the fresh watermark under a fresh id (counted in
    /// [`crate::StatsSnapshot::snapshot_retries`]); only a refusal that
    /// stands is counted as refused and sent down the fallback.
    ///
    /// Consistency rests on the commit clock's draw/retire protocol: a
    /// write's stamp is retired only after its installs are enqueued at
    /// every owning shard, so by the time a watermark load observes the
    /// stamp, per-shard FIFO order puts every install ahead of any
    /// snapshot command sent afterwards. One watermark therefore cuts the
    /// history at a transaction-consistent prefix across all shards.
    pub(crate) fn snapshot_read_values(&self, spec: &TxnSpec) -> Result<SnapshotAnswer, TxnError> {
        let inner = &self.inner;
        // The watermark load that defines the snapshot: every shard serves
        // at this timestamp (or, on the retry, at the fresh one).
        let ts = inner.clock.watermark();
        #[cfg(test)]
        if let Some(hook) = AFTER_WATERMARK_LOAD.take() {
            hook();
        }
        let mut answer = self.snapshot_read_at(spec, ts)?;
        if answer.is_none() {
            let fresh = inner.clock.watermark();
            if fresh > ts {
                inner.stats.snapshot_retries.fetch_add(1, Ordering::Relaxed);
                answer = self.snapshot_read_at(spec, fresh)?;
            }
        }
        let counter = match answer {
            Some(_) => &inner.stats.snapshot_reads,
            None => &inner.stats.snapshot_refused,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        Ok(answer)
    }

    /// One attempt of [`Database::snapshot_read_values`]: every shard
    /// serves at `ts` under one fresh id. A shard already serving the
    /// watermark of a refused attempt logged its reads — harmless (they
    /// observed committed state); the abandoned id simply never commits.
    fn snapshot_read_at(&self, spec: &TxnSpec, ts: Timestamp) -> Result<SnapshotAnswer, TxnError> {
        let inner = &self.inner;
        let plane = &inner.trace;
        let lane = plane.client_lane();
        let t_begin = plane.now();
        let txn_id = inner.mint_txn_id(0);
        let origin = inner.origin_of(spec, txn_id);
        let mut per_shard = PerShard::new();
        for &item in &spec.reads {
            let copy = inner
                .catalog
                .read_copy(item, origin)
                .map_err(TxnError::UnknownItem)?;
            per_shard.push(inner.shard_of(copy.site), copy);
        }
        let n_items = per_shard.ops() as u32;
        let answer = self.scatter_gather(per_shard, |items, reply| ShardCmd::SnapshotRead {
            txn: txn_id,
            ts,
            items,
            reply,
        })?;
        let Some(reads) = answer else {
            return Ok(None);
        };
        let t_served = plane.now();
        plane.record_at(lane, t_begin, txn_id.0, Phase::Begin, 0);
        plane.record_at(lane, t_served, txn_id.0, Phase::SnapshotRead, n_items);
        Ok(Some((txn_id, reads)))
    }

    /// The scatter/gather both one-shot routes share: submit each shard
    /// its slice of the work as one command — `cmd` builds it around the
    /// reply sender; a shard whose core is free (or frees within the core
    /// wait, which every one-shot asks for: each shard's answer comes out
    /// of one tenure) runs it on this thread and the answer is already
    /// there — then gather every answer under `diagnostic_timeout`.
    /// `Ok(Some(reads))` when every shard served, `Ok(None)` when any
    /// refused.
    fn scatter_gather<T>(
        &self,
        per_shard: PerShard<T>,
        cmd: impl Fn(SmallBatch<T>, OneshotSender<ShardAnswer>) -> ShardCmd,
    ) -> Result<Option<BTreeMap<LogicalItemId, Value>>, TxnError> {
        let inner = &self.inner;
        let mut pending = SmallBatch::new();
        for (idx, work) in per_shard.0 {
            let (tx, rx) = transport::oneshot::channel();
            if inner.shard_txs[idx].submit(cmd(work, tx), true).is_err() {
                return Err(TxnError::ShuttingDown);
            }
            pending.push(rx);
        }
        let mut reads = BTreeMap::new();
        let mut refused = false;
        for rx in pending {
            // Bounded: a shard mid-outage must not hang a one-shot route.
            // The timeout is NOT a refusal. A bypass command may still
            // apply when the shard recovers, so falling back to the
            // coordinated path could double-apply. A snapshot fallback
            // would be correct (reads apply nothing), but the caller asked
            // for data a shard could not produce within its deadline, and
            // the chaos harness asserts exactly this bounded failure
            // instead of a torn answer. The whole transaction fails.
            let (answer, spun) = rx.recv_timeout_spun(inner.config.diagnostic_timeout);
            if spun {
                inner
                    .stats
                    .oneshot_spin_hits
                    .fetch_add(1, Ordering::Relaxed);
            }
            match answer {
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
        Ok((!refused).then_some(reads))
    }
}
