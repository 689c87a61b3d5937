//! The data-queue manager: one per site, owning the [`ItemState`] of every
//! physical item stored at that site.
//!
//! The queue manager is a pure message processor: it consumes
//! [`RequestMsg`]s addressed to its items and produces [`ReplyMsg`]s for the
//! issuing transactions plus [`QmEvent`]s (grants and implemented operations)
//! that the driver uses to update metrics and the execution logs.
//!
//! ## The dense item table
//!
//! Item states live in a dense `Vec<ItemState>` sorted by item id; the
//! `PhysicalItemId → slot` resolution is a direct-mapped table indexed by
//! the logical item id (catalog-generated ids are small and contiguous),
//! with a sorted spill vector as the correctness net for ids past the
//! direct-map bound. Resolving a message's item is an array load instead
//! of the seed's `BTreeMap` pointer chase (PR 5 measured the two, with
//! the sink refactor, at ~2.1×; `core.qm_ns_per_msg` in the repo
//! benchmark is today's figure).
//!
//! ## Batched, allocation-free processing
//!
//! The hot path is [`QueueManager::handle_batch`]: a whole drained batch
//! of messages flows into one caller-owned [`QmSink`], and the item
//! handlers push replies/events straight into it — zero heap allocations
//! per steady-state batch. [`QueueManager::handle`] survives as a thin
//! per-message wrapper returning an owned [`QmOutput`] for the simulator,
//! examples and tests.

use dbmodel::{Catalog, PhysicalItemId, SiteId, Timestamp, TxnId, Value};
use pam::{GrantClass, LockMode, RequestMsg};

pub use crate::sink::QmSink;

use crate::item::{EnforcementMode, ItemState};
use dbmodel::AccessMode;

/// Side-band events for metrics and logging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QmEvent {
    /// A lock was granted on an item.
    GrantIssued {
        /// Item the lock was granted on.
        item: PhysicalItemId,
        /// Transaction granted.
        txn: TxnId,
        /// The access mode of the request.
        access: AccessMode,
        /// The lock mode granted.
        lock: LockMode,
        /// Normal or pre-scheduled.
        class: GrantClass,
    },
    /// An operation was implemented on an item (it enters the item's log at
    /// this point).
    Implemented {
        /// Item the operation was implemented on.
        item: PhysicalItemId,
        /// Transaction whose operation was implemented.
        txn: TxnId,
        /// Read or write.
        access: AccessMode,
        /// For stamped writes: the global commit timestamp the value was
        /// installed at (`None` for reads and on the unstamped simulator
        /// path). Flows into the execution log so the serializability
        /// oracle can order snapshot reads against writers.
        commit_ts: Option<Timestamp>,
    },
    /// A wait-for edge the message just processed created: `waiter` now
    /// waits for `holder` at some item of this site and did not before the
    /// message. Every edge [`QueueManager::wait_edges_into`] reports was
    /// announced this way when it first appeared, so a deadlock detector
    /// can act when a cycle closes instead of polling for it; a message
    /// that blocks nobody announces nothing. Nothing is said when an edge
    /// disappears.
    WaitEdge {
        /// The transaction that waits.
        waiter: TxnId,
        /// The transaction it waits for.
        holder: TxnId,
    },
}

/// The owned output of processing one message through the compatibility
/// wrapper [`QueueManager::handle`]. The batched hot path accumulates into
/// a reusable [`QmSink`] instead.
#[derive(Debug, Clone, Default)]
pub struct QmOutput {
    /// Replies to send back to request issuers.
    pub replies: Vec<pam::ReplyMsg>,
    /// Metric / log events.
    pub events: Vec<QmEvent>,
}

/// Logical item ids below this bound resolve through the direct-mapped
/// table; ids at or above it fall back to the sorted spill vector. The
/// bound caps the direct map at 4 MiB per shard even for adversarial id
/// spaces; catalog-generated ids are contiguous from zero and never spill.
const DENSE_LIMIT: u64 = 1 << 20;

/// One operation of an invariant-confluent fast-path transaction,
/// applied directly through the dense slot table by
/// [`QueueManager::apply_confluent`] — no grants, no precedence entries,
/// no queue transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfluentOp {
    /// Read the item's current committed value.
    Read(PhysicalItemId),
    /// Commutative increment/decrement: `value += delta` (wrapping).
    Add(PhysicalItemId, Value),
    /// Blind absolute write: `value = v` (last-writer-wins).
    Put(PhysicalItemId, Value),
}

impl ConfluentOp {
    /// The physical item this op touches.
    pub fn item(&self) -> PhysicalItemId {
        match *self {
            ConfluentOp::Read(item) | ConfluentOp::Add(item, _) | ConfluentOp::Put(item, _) => item,
        }
    }
}

/// The queue manager of one site.
#[derive(Debug, Clone)]
pub struct QueueManager {
    site: SiteId,
    /// Item states, sorted by `PhysicalItemId` (so iteration order matches
    /// the seed's `BTreeMap` exactly).
    items: Vec<ItemState>,
    /// Direct map: `logical id → slot + 1` (`0` = no such item here).
    dense: Vec<u32>,
    /// Sorted `(logical id, slot)` pairs for ids `>= DENSE_LIMIT`.
    spill: Vec<(u64, u32)>,
    /// Suppress a second `Access` from an incarnation already queued at
    /// the item (transport-level duplicate delivery). See
    /// [`QueueManager::set_dedup_access`].
    dedup_access: bool,
    /// Duplicate `Access` messages suppressed so far (drained by
    /// [`QueueManager::take_dup_suppressed`]).
    dup_suppressed: u64,
    /// The global read watermark as last published by the owning shard
    /// (see [`QueueManager::set_watermark`]): version-chain pruning never
    /// drops the newest version at or below it.
    watermark: Timestamp,
    /// Versions retained per item above the watermark; forwarded to items
    /// on [`QueueManager::set_version_retain`] and applied to items added
    /// later.
    version_retain: usize,
    /// When false (the mutation switch), snapshot reads serve the raw
    /// chain head instead of the newest version at or below the requested
    /// timestamp — torn reads, demonstrably non-serializable.
    snapshot_validation: bool,
}

impl QueueManager {
    /// Create an empty queue manager for `site`.
    pub fn new(site: SiteId) -> Self {
        QueueManager {
            site,
            items: Vec::new(),
            dense: Vec::new(),
            spill: Vec::new(),
            dedup_access: true,
            dup_suppressed: 0,
            watermark: Timestamp::ZERO,
            version_retain: crate::item::DEFAULT_VERSION_RETAIN,
            snapshot_validation: true,
        }
    }

    /// Create a queue manager for `site` holding every physical copy the
    /// catalog places there, each initialised to `initial_value`.
    pub fn from_catalog(
        site: SiteId,
        catalog: &Catalog,
        initial_value: Value,
        enforcement: EnforcementMode,
    ) -> Self {
        let mut qm = QueueManager::new(site);
        for item in catalog.all_physical_items() {
            if item.site == site {
                qm.add_item(item, initial_value, enforcement);
            }
        }
        qm
    }

    /// The site this queue manager serves.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// Register a physical item managed by this site. Re-adding an item
    /// replaces its state (matching the seed's map-insert semantics).
    pub fn add_item(
        &mut self,
        item: PhysicalItemId,
        initial_value: Value,
        enforcement: EnforcementMode,
    ) {
        assert_eq!(item.site, self.site, "item must belong to this site");
        let mut state = ItemState::new(item, initial_value, enforcement);
        state.set_version_retain(self.version_retain);
        if let Some(slot) = self.slot_of(item) {
            self.items[slot] = state;
            return;
        }
        let pos = self.items.partition_point(|i| i.item() < item);
        self.items.insert(pos, state);
        assert!(
            self.items.len() < u32::MAX as usize,
            "item table exceeds slot-index range"
        );
        // Re-point the index entries of the new item and everything it
        // shifted right (catalog construction appends in sorted order, so
        // this is the new entry alone in the common case).
        for slot in pos..self.items.len() {
            let logical = self.items[slot].item().logical.0;
            self.set_slot(logical, slot as u32);
        }
        debug_assert!(self.spill.windows(2).all(|w| w[0].0 < w[1].0));
    }

    /// Point the id → slot resolution of `logical` at `slot`
    /// (construction-time only; the hot path never calls this).
    fn set_slot(&mut self, logical: u64, slot: u32) {
        if logical < DENSE_LIMIT {
            let idx = logical as usize;
            if idx >= self.dense.len() {
                self.dense.resize(idx + 1, 0);
            }
            self.dense[idx] = slot + 1;
        } else {
            match self.spill.binary_search_by_key(&logical, |&(l, _)| l) {
                Ok(i) => self.spill[i].1 = slot,
                Err(i) => self.spill.insert(i, (logical, slot)),
            }
        }
    }

    /// Resolve an item id to its slot in the dense table.
    #[inline]
    fn slot_of(&self, item: PhysicalItemId) -> Option<usize> {
        if item.site != self.site {
            return None;
        }
        let logical = item.logical.0;
        if logical < DENSE_LIMIT {
            match self.dense.get(logical as usize) {
                Some(&slot) if slot != 0 => Some(slot as usize - 1),
                _ => None,
            }
        } else {
            self.spill
                .binary_search_by_key(&logical, |&(l, _)| l)
                .ok()
                .map(|i| self.spill[i].1 as usize)
        }
    }

    /// Number of items managed.
    pub fn num_items(&self) -> usize {
        self.items.len()
    }

    /// Inspect one item's state (for tests, examples and the deadlock
    /// detector).
    pub fn item(&self, item: PhysicalItemId) -> Option<&ItemState> {
        self.slot_of(item).map(|slot| &self.items[slot])
    }

    /// Iterate over all item states, in item-id order.
    pub fn items(&self) -> impl Iterator<Item = &ItemState> + '_ {
        self.items.iter()
    }

    /// Append the wait-for edges contributed by every item at this site to
    /// `edges` (the detector's allocation-lean entry point).
    pub fn wait_edges_into(&self, edges: &mut Vec<(TxnId, TxnId)>) {
        for item in &self.items {
            item.wait_edges_into(edges);
        }
    }

    /// The wait-for edges contributed by every item at this site, as a
    /// fresh vector.
    pub fn wait_edges(&self) -> Vec<(TxnId, TxnId)> {
        let mut edges = Vec::new();
        self.wait_edges_into(&mut edges);
        edges
    }

    /// Append every transaction queued at some item of this site without a
    /// grant yet, then sort and deduplicate the whole buffer. Callers pass
    /// an empty (capacity-retaining) buffer.
    pub fn waiting_txns_into(&self, out: &mut Vec<TxnId>) {
        for item in &self.items {
            item.waiting_txns_into(out);
        }
        out.sort_unstable();
        out.dedup();
    }

    /// Every transaction queued at some item of this site without a grant
    /// yet (sorted, deduplicated). Used by the runtime's diagnostics and
    /// blocked-transaction accounting.
    pub fn waiting_txns(&self) -> Vec<TxnId> {
        let mut waiting = Vec::new();
        self.waiting_txns_into(&mut waiting);
        waiting
    }

    /// Current committed value of an item (for examples and tests).
    pub fn value_of(&self, item: PhysicalItemId) -> Option<Value> {
        self.item(item).map(|i| i.value())
    }

    /// Toggle duplicate-`Access` suppression. On by default; turning it
    /// off exists only as the mutation switch demonstrating that the
    /// guard is load-bearing under duplicate injection (a re-admitted
    /// `Access` double-queues its entry).
    pub fn set_dedup_access(&mut self, dedup: bool) {
        self.dedup_access = dedup;
    }

    /// Publish the current global read watermark. The owning shard calls
    /// this before processing a batch; version-chain pruning keeps the
    /// newest version at or below it answerable.
    pub fn set_watermark(&mut self, watermark: Timestamp) {
        self.watermark = watermark;
    }

    /// Set how many versions each item retains above the watermark
    /// (clamped to at least one); applies to current and future items.
    pub fn set_version_retain(&mut self, retain: usize) {
        self.version_retain = retain.max(1);
        for item in &mut self.items {
            item.set_version_retain(retain);
        }
    }

    /// Reserve every item's lazily allocated state (queue entry buffer,
    /// lock list) now. An engine driven by one thread never needs this —
    /// the allocations happen once per item either way; the live runtime
    /// calls it at open because its commands run on whichever thread
    /// holds the shard, and per-item buffers first touched there would be
    /// long-lived allocations scattered over every client's malloc arena.
    pub fn prewarm(&mut self) {
        for item in &mut self.items {
            item.prewarm();
        }
    }

    /// Toggle the snapshot watermark check. On by default; turning it off
    /// exists only as the mutation switch demonstrating the check is
    /// load-bearing: unvalidated snapshot reads serve each item's raw
    /// chain head, which tears across a multi-item commit.
    pub fn set_snapshot_validation(&mut self, validate: bool) {
        self.snapshot_validation = validate;
    }

    /// Serve a snapshot read at `ts`: for every item, the newest committed
    /// version with stamp at or below `ts`, appended to `out` as
    /// `(item, value, served_ts)` — `served_ts` is the stamp of the version
    /// actually served, which is what enters the execution log (the oracle
    /// orders the read against writers by it). Touches no queue, no locks,
    /// no timestamps: this is the coordination-free read plane.
    ///
    /// All-or-nothing: returns `false` and rolls `out` back to its length
    /// on entry when any item is unknown at this site or its chain has
    /// been pruned past `ts` — the caller falls back to the coordinated
    /// path. With validation off (the mutation switch) each item serves
    /// its raw head instead, whatever the head's stamp.
    pub fn snapshot_read_into<'a>(
        &self,
        ts: Timestamp,
        items: impl IntoIterator<Item = &'a PhysicalItemId>,
        out: &mut Vec<(PhysicalItemId, Value, Timestamp)>,
    ) -> bool {
        let mark = out.len();
        for &id in items {
            let Some(slot) = self.slot_of(id) else {
                out.truncate(mark);
                return false;
            };
            let item = &self.items[slot];
            let version = if self.snapshot_validation {
                match item.snapshot_value_at(ts) {
                    Some(v) => v,
                    None => {
                        out.truncate(mark);
                        return false;
                    }
                }
            } else {
                item.head_version()
            };
            out.push((id, version.value, version.ts));
        }
        true
    }

    /// Duplicate `Access` messages suppressed since the last call, and
    /// reset the counter (drained into the runtime's stats per batch).
    pub fn take_dup_suppressed(&mut self) -> u64 {
        std::mem::take(&mut self.dup_suppressed)
    }

    /// Duplicate `Access` messages suppressed since the last drain.
    pub fn dup_suppressed(&self) -> u64 {
        self.dup_suppressed
    }

    /// Crash this site with partial amnesia: every item drops its
    /// *ungranted* queue entries while keeping granted entries, held
    /// locks, values and timestamp thresholds (the durable half of the
    /// state — see [`ItemState::crash_recover`]). Returns how many
    /// entries were wiped across all items.
    pub fn crash_recover(&mut self, sink: &mut QmSink) -> u64 {
        let mut wiped = 0;
        for item in &mut self.items {
            item.note_edges(sink);
            wiped += item.crash_recover(sink) as u64;
            item.announce_new_edges(sink);
        }
        wiped
    }

    /// Append every transaction holding any state at this site (queue
    /// entries or locks at any item), then sort and deduplicate the whole
    /// buffer. The detector diffs this against the registry to find
    /// transactions stranded by crashes or lost messages.
    pub fn present_txns_into(&self, out: &mut Vec<TxnId>) {
        for item in &self.items {
            item.present_txns_into(out);
        }
        out.sort_unstable();
        out.dedup();
    }

    /// Abort `txn` at every item it still touches — the detector-driven
    /// cleanup for transactions whose client is gone (deregistered) but
    /// whose shard-side state was stranded by a crash, a lost `Abort` or
    /// a late-delivered `Access`. Semantically identical to the client's
    /// own abort: nothing is implemented, waiters are re-granted through
    /// `sink`. Returns how many items were cleaned.
    pub fn cleanup_txn(&mut self, txn: TxnId, sink: &mut QmSink) -> u64 {
        let mut cleaned = 0;
        for item in &mut self.items {
            if item.involves(txn) {
                item.note_edges(sink);
                item.handle_abort(txn, sink);
                item.announce_new_edges(sink);
                cleaned += 1;
            }
        }
        cleaned
    }

    /// Process one request message into the caller's reusable sink. The
    /// issuing site is needed only for precedence tie-breaking of
    /// timestamped requests.
    pub fn handle_into(&mut self, origin_site: SiteId, msg: &RequestMsg, sink: &mut QmSink) {
        let item_id = msg.item();
        let Some(slot) = self.slot_of(item_id) else {
            // Message addressed to an item this site does not hold; in the
            // simulator this indicates a routing bug, so fail loudly in debug
            // builds and ignore in release.
            debug_assert!(
                false,
                "message for unknown item {item_id} at site {}",
                self.site
            );
            return;
        };
        // Idempotent re-delivery: a transaction issues at most one `Access`
        // per item per incarnation and TxnIds are never reused, so a second
        // `Access` from an incarnation already queued at the item is always
        // a transport-level duplicate — re-admitting it would double-queue
        // the entry (the insert below asserts exactly that in debug
        // builds). All other message classes are naturally idempotent.
        if self.dedup_access {
            if let RequestMsg::Access { txn, .. } = msg {
                if self.items[slot].has_queued(*txn) {
                    self.dup_suppressed += 1;
                    return;
                }
            }
        }
        let watermark = self.watermark;
        let item = &mut self.items[slot];
        item.note_edges(sink);
        match msg {
            RequestMsg::Access {
                txn,
                mode,
                method,
                ts,
                ..
            } => item.handle_access(*txn, origin_site, *mode, *method, *ts, sink),
            RequestMsg::UpdatedTs { txn, new_ts, .. } => {
                item.handle_updated_ts(*txn, *new_ts, sink)
            }
            RequestMsg::Release {
                txn,
                write_value,
                commit_ts,
                ..
            } => item.handle_release(*txn, *write_value, *commit_ts, watermark, sink),
            RequestMsg::Demote {
                txn,
                write_value,
                commit_ts,
                ..
            } => item.handle_demote(*txn, *write_value, *commit_ts, watermark, sink),
            RequestMsg::Abort { txn, .. } => item.handle_abort(*txn, sink),
        }
        item.announce_new_edges(sink);
    }

    /// Process a whole batch of messages in order, accumulating every reply
    /// and event into `sink`. This is the runtime's hot path: one drained
    /// inbox batch → one `handle_batch` call → one reply flush straight
    /// from the sink, with zero heap allocations in steady state.
    pub fn handle_batch<'a, I>(&mut self, origin_site: SiteId, msgs: I, sink: &mut QmSink)
    where
        I: IntoIterator<Item = &'a RequestMsg>,
    {
        for msg in msgs {
            self.handle_into(origin_site, msg, sink);
        }
    }

    /// Apply an invariant-confluent transaction directly through the dense
    /// slot table — the coordination-avoidance bypass. No grants, no
    /// precedence entries, no queue transitions; only [`QmEvent::Implemented`]
    /// events flow into `sink` so the execution logs stay complete for the
    /// serializability oracle.
    ///
    /// Safety rests on an all-or-nothing refusal check performed *before*
    /// any mutation (when `check` is true):
    ///
    /// * `Add`/`Put` refuse unless the touched slot is fully idle (no held
    ///   locks, no queued work) — a bypass write racing granted or queued
    ///   coordinated work could be serialized on neither side of it;
    /// * `Read` refuses if any held lock is write-kind **or any queued
    ///   entry requests write access** — reading past a queued writer
    ///   orders the bypass before it, but the writer's later implement
    ///   would need to order before any coordinated work the bypass
    ///   already observed, closing a precedence cycle.
    ///
    /// Returns `Some(reads)` (the `(item, value)` pairs observed by `Read`
    /// ops, in op order) when applied, `None` when refused — the caller
    /// falls back to the coordinated path. Ops addressing items this site
    /// does not hold always refuse (routing bug or replicated copy; both
    /// belong on the coordinated path). With `check == false` the refusal
    /// rules are skipped — the mutation switch used to demonstrate that an
    /// unchecked bypass admits non-serializable histories.
    ///
    /// Timestamps (`r_ts`/`w_ts`) are deliberately untouched: the bypass
    /// only applies to slots with no coordinated work in flight, and a
    /// later T/O or PA request conflicting with a *committed* bypass write
    /// sees the item's value exactly as it would after an idle-site
    /// restart.
    ///
    /// `ops` is walked twice (check, then apply), so its iterator must be
    /// `Clone` — a slice's is, and so is a `SmallBatch`'s.
    pub fn apply_confluent<'a, I>(
        &mut self,
        _origin: SiteId,
        txn: TxnId,
        ops: I,
        check: bool,
        commit_ts: Timestamp,
        sink: &mut QmSink,
    ) -> Option<Vec<(PhysicalItemId, Value)>>
    where
        I: IntoIterator<Item = &'a ConfluentOp>,
        I::IntoIter: Clone,
    {
        let ops = ops.into_iter();
        // Pass 1: resolve every slot and test blockedness before touching
        // anything — refusal must leave the site exactly as it was.
        for op in ops.clone() {
            let slot = self.slot_of(op.item())?;
            if check {
                let item = &self.items[slot];
                let blocked = match op {
                    ConfluentOp::Read(_) => item.confluent_read_blocked(),
                    ConfluentOp::Add(..) | ConfluentOp::Put(..) => !item.is_idle(),
                };
                if blocked {
                    return None;
                }
            }
        }
        // Pass 2: apply. Every op emits `Implemented` so the shard folds it
        // into the execution logs. Writes install into the version chain at
        // `commit_ts` — drawn by the owning shard at apply time, so chain
        // stamps stay monotone even across fast-path/coordinated interleave.
        let watermark = self.watermark;
        let write_stamp = (commit_ts != Timestamp::ZERO).then_some(commit_ts);
        let mut reads = Vec::new();
        for op in ops {
            let slot = self
                .slot_of(op.item())
                .expect("slot resolved in the check pass");
            let item = &mut self.items[slot];
            let (access, stamp) = match *op {
                ConfluentOp::Read(id) => {
                    reads.push((id, item.value()));
                    (AccessMode::Read, None)
                }
                ConfluentOp::Add(_, delta) => {
                    item.apply_confluent_write(
                        item.value().wrapping_add(delta),
                        commit_ts,
                        watermark,
                    );
                    (AccessMode::Write, write_stamp)
                }
                ConfluentOp::Put(_, value) => {
                    item.apply_confluent_write(value, commit_ts, watermark);
                    (AccessMode::Write, write_stamp)
                }
            };
            sink.events.push(QmEvent::Implemented {
                item: op.item(),
                txn,
                access,
                commit_ts: stamp,
            });
        }
        Some(reads)
    }

    /// Process one request message into an owned [`QmOutput`] — the thin
    /// compatibility wrapper over [`QueueManager::handle_into`] the sim
    /// driver, examples and tests keep using.
    pub fn handle(&mut self, origin_site: SiteId, msg: &RequestMsg) -> QmOutput {
        let mut sink = QmSink::new();
        self.handle_into(origin_site, msg, &mut sink);
        QmOutput {
            replies: sink.replies,
            events: sink.events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbmodel::{CcMethod, LogicalItemId, ReplicationPolicy, Timestamp, TsTuple};
    use pam::ReplyMsg;

    fn pi(i: u64, s: u32) -> PhysicalItemId {
        PhysicalItemId::new(LogicalItemId(i), SiteId(s))
    }

    fn access(
        txn: u64,
        item: PhysicalItemId,
        mode: AccessMode,
        method: CcMethod,
        ts: u64,
    ) -> RequestMsg {
        RequestMsg::Access {
            txn: TxnId(txn),
            item,
            mode,
            method,
            ts: TsTuple::new(Timestamp(ts), 10),
        }
    }

    /// Grant a write lock and release it with a stamped value.
    fn stamped_write(qm: &mut QueueManager, txn: u64, item: PhysicalItemId, value: Value, ts: u64) {
        qm.handle(
            SiteId(0),
            &access(txn, item, AccessMode::Write, CcMethod::TwoPhaseLocking, 0),
        );
        qm.handle(
            SiteId(0),
            &RequestMsg::Release {
                txn: TxnId(txn),
                item,
                write_value: Some(value),
                commit_ts: Timestamp(ts),
            },
        );
    }

    #[test]
    fn stamped_release_builds_a_version_chain() {
        let mut qm = QueueManager::new(SiteId(0));
        qm.add_item(pi(1, 0), 100, EnforcementMode::SemiLock);
        stamped_write(&mut qm, 1, pi(1, 0), 111, 3);
        stamped_write(&mut qm, 2, pi(1, 0), 222, 7);
        let item = qm.item(pi(1, 0)).unwrap();
        let chain: Vec<(u64, Value)> = item.versions().map(|v| (v.ts.0, v.value)).collect();
        assert_eq!(chain, vec![(0, 100), (3, 111), (7, 222)]);
        // Snapshot reads serve the newest version at or below the asked ts.
        let mut out = Vec::new();
        assert!(qm.snapshot_read_into(Timestamp(5), &[pi(1, 0)], &mut out));
        assert_eq!(out, vec![(pi(1, 0), 111, Timestamp(3))]);
        out.clear();
        assert!(qm.snapshot_read_into(Timestamp(7), &[pi(1, 0)], &mut out));
        assert_eq!(out, vec![(pi(1, 0), 222, Timestamp(7))]);
        out.clear();
        assert!(qm.snapshot_read_into(Timestamp(1), &[pi(1, 0)], &mut out));
        assert_eq!(out, vec![(pi(1, 0), 100, Timestamp(0))], "seed version");
    }

    #[test]
    fn snapshot_read_is_all_or_nothing() {
        let mut qm = QueueManager::new(SiteId(0));
        qm.add_item(pi(1, 0), 10, EnforcementMode::SemiLock);
        let mut out = vec![(pi(9, 0), 0, Timestamp::ZERO)];
        // Unknown item refuses and rolls back to the entry length.
        assert!(!qm.snapshot_read_into(Timestamp(5), &[pi(1, 0), pi(2, 0)], &mut out));
        assert_eq!(out.len(), 1, "refusal truncates back to the entry mark");
    }

    #[test]
    fn version_chain_is_pruned_to_retain_above_watermark() {
        let mut qm = QueueManager::new(SiteId(0));
        qm.add_item(pi(1, 0), 0, EnforcementMode::SemiLock);
        qm.set_version_retain(2);
        // Watermark advances with the writes: shadowed versions are pruned
        // down to the retain bound.
        for ts in 1..=10u64 {
            qm.set_watermark(Timestamp(ts.saturating_sub(1)));
            stamped_write(&mut qm, ts, pi(1, 0), ts as Value * 10, ts);
        }
        let item = qm.item(pi(1, 0)).unwrap();
        let len = item.versions().count();
        assert!(len <= 3, "retain 2 (+ the in-flight head), got {len}");
        // The newest version at the watermark is still answerable…
        let mut out = Vec::new();
        assert!(qm.snapshot_read_into(Timestamp(9), &[pi(1, 0)], &mut out));
        assert_eq!(out, vec![(pi(1, 0), 90, Timestamp(9))]);
        // …but a read far below the pruned range refuses (fallback).
        out.clear();
        assert!(!qm.snapshot_read_into(Timestamp(1), &[pi(1, 0)], &mut out));
    }

    #[test]
    fn version_chain_hard_cap_bounds_a_stalled_watermark() {
        let mut qm = QueueManager::new(SiteId(0));
        qm.add_item(pi(1, 0), 0, EnforcementMode::SemiLock);
        qm.set_version_retain(2);
        // Watermark never advances (e.g. a decided-but-unacknowledged commit
        // pins it): the chain still cannot grow past the hard cap.
        for ts in 1..=100u64 {
            stamped_write(&mut qm, ts, pi(1, 0), ts as Value, ts);
        }
        let len = qm.item(pi(1, 0)).unwrap().versions().count();
        assert!(
            len <= 2 * crate::item::VERSION_HARD_CAP_FACTOR,
            "hard cap must bound a stalled watermark, got {len}"
        );
        // Reads at the stalled watermark refuse rather than serve a wrong
        // value — the caller falls back to the coordinated path.
        let mut out = Vec::new();
        assert!(!qm.snapshot_read_into(Timestamp(0), &[pi(1, 0)], &mut out));
    }

    #[test]
    fn snapshot_validation_off_serves_the_raw_head() {
        let mut qm = QueueManager::new(SiteId(0));
        qm.add_item(pi(1, 0), 10, EnforcementMode::SemiLock);
        stamped_write(&mut qm, 1, pi(1, 0), 55, 8);
        let mut out = Vec::new();
        // Validated: a read at ts 3 sees the seed value.
        assert!(qm.snapshot_read_into(Timestamp(3), &[pi(1, 0)], &mut out));
        assert_eq!(out, vec![(pi(1, 0), 10, Timestamp(0))]);
        // Mutation switch off: the same read serves the head — a value from
        // the future of its snapshot. The served ts exposes the tear to the
        // oracle.
        qm.set_snapshot_validation(false);
        out.clear();
        assert!(qm.snapshot_read_into(Timestamp(3), &[pi(1, 0)], &mut out));
        assert_eq!(out, vec![(pi(1, 0), 55, Timestamp(8))]);
    }

    #[test]
    fn confluent_writes_stamp_versions_at_the_shard() {
        let mut qm = QueueManager::new(SiteId(0));
        qm.add_item(pi(1, 0), 10, EnforcementMode::SemiLock);
        let mut sink = QmSink::new();
        let ops = [ConfluentOp::Add(pi(1, 0), 5)];
        qm.apply_confluent(SiteId(0), TxnId(7), &ops, true, Timestamp(4), &mut sink)
            .expect("idle item accepts the bypass");
        assert!(sink.events.iter().any(|e| matches!(
            e,
            QmEvent::Implemented {
                commit_ts: Some(Timestamp(4)),
                ..
            }
        )));
        let mut out = Vec::new();
        assert!(qm.snapshot_read_into(Timestamp(4), &[pi(1, 0)], &mut out));
        assert_eq!(out, vec![(pi(1, 0), 15, Timestamp(4))]);
        out.clear();
        assert!(qm.snapshot_read_into(Timestamp(3), &[pi(1, 0)], &mut out));
        assert_eq!(out, vec![(pi(1, 0), 10, Timestamp(0))]);
    }

    #[test]
    fn from_catalog_holds_only_local_items() {
        let catalog = Catalog::generate(3, 9, ReplicationPolicy::SingleCopy);
        let qm = QueueManager::from_catalog(SiteId(1), &catalog, 0, EnforcementMode::SemiLock);
        assert_eq!(qm.site(), SiteId(1));
        assert_eq!(qm.num_items(), 3);
        assert!(qm.items().all(|i| i.item().site == SiteId(1)));
    }

    #[test]
    fn handle_translates_grants_and_implementations() {
        let mut qm = QueueManager::new(SiteId(0));
        qm.add_item(pi(1, 0), 5, EnforcementMode::SemiLock);
        let out = qm.handle(
            SiteId(0),
            &access(1, pi(1, 0), AccessMode::Read, CcMethod::TwoPhaseLocking, 0),
        );
        assert_eq!(out.replies.len(), 1);
        assert!(matches!(
            out.replies[0],
            ReplyMsg::Grant {
                txn: TxnId(1),
                value: Some(5),
                ..
            }
        ));
        assert_eq!(out.events.len(), 1);
        let out = qm.handle(
            SiteId(0),
            &RequestMsg::Release {
                txn: TxnId(1),
                item: pi(1, 0),
                write_value: None,
                commit_ts: Timestamp::ZERO,
            },
        );
        assert!(out
            .events
            .iter()
            .any(|e| matches!(e, QmEvent::Implemented { txn: TxnId(1), .. })));
    }

    #[test]
    fn handle_batch_accumulates_into_one_sink() {
        let mut qm = QueueManager::new(SiteId(0));
        qm.add_item(pi(1, 0), 5, EnforcementMode::SemiLock);
        qm.add_item(pi(2, 0), 7, EnforcementMode::SemiLock);
        let msgs = [
            access(1, pi(1, 0), AccessMode::Write, CcMethod::TwoPhaseLocking, 0),
            access(1, pi(2, 0), AccessMode::Write, CcMethod::TwoPhaseLocking, 0),
            RequestMsg::Release {
                txn: TxnId(1),
                item: pi(1, 0),
                write_value: Some(50),
                commit_ts: Timestamp::ZERO,
            },
            RequestMsg::Release {
                txn: TxnId(1),
                item: pi(2, 0),
                write_value: Some(70),
                commit_ts: Timestamp::ZERO,
            },
        ];
        let mut sink = QmSink::new();
        qm.handle_batch(SiteId(0), msgs.iter(), &mut sink);
        assert_eq!(sink.replies.len(), 2, "two grants");
        assert_eq!(sink.events.len(), 4, "two grants + two implementations");
        assert_eq!(qm.value_of(pi(1, 0)), Some(50));
        assert_eq!(qm.value_of(pi(2, 0)), Some(70));
        // The sink is reusable: clearing keeps capacity and the next batch
        // appends from the start.
        sink.clear();
        qm.handle_batch(
            SiteId(0),
            [access(
                2,
                pi(1, 0),
                AccessMode::Read,
                CcMethod::TwoPhaseLocking,
                0,
            )]
            .iter(),
            &mut sink,
        );
        assert_eq!(sink.replies.len(), 1);
    }

    #[test]
    fn dense_table_resolves_sparse_and_spilled_ids() {
        let mut qm = QueueManager::new(SiteId(0));
        // Sparse dense-range ids, inserted out of order.
        qm.add_item(pi(512, 0), 1, EnforcementMode::SemiLock);
        qm.add_item(pi(3, 0), 2, EnforcementMode::SemiLock);
        // An id past the direct-map bound exercises the spill path.
        let big = DENSE_LIMIT + 17;
        qm.add_item(pi(big, 0), 3, EnforcementMode::SemiLock);
        assert_eq!(qm.num_items(), 3);
        assert_eq!(qm.value_of(pi(3, 0)), Some(2));
        assert_eq!(qm.value_of(pi(512, 0)), Some(1));
        assert_eq!(qm.value_of(pi(big, 0)), Some(3));
        assert_eq!(qm.value_of(pi(4, 0)), None);
        assert_eq!(qm.value_of(pi(big + 1, 0)), None);
        assert_eq!(qm.value_of(pi(3, 1)), None, "wrong site never resolves");
        // Iteration stays in item-id order regardless of insertion order.
        let order: Vec<u64> = qm.items().map(|i| i.item().logical.0).collect();
        assert_eq!(order, vec![3, 512, big]);
        // Messages route through both paths.
        let out = qm.handle(
            SiteId(0),
            &access(
                1,
                pi(big, 0),
                AccessMode::Write,
                CcMethod::TwoPhaseLocking,
                0,
            ),
        );
        assert_eq!(out.replies.len(), 1);
        // Re-adding replaces the state (map-insert semantics).
        qm.add_item(pi(3, 0), 99, EnforcementMode::SemiLock);
        assert_eq!(qm.value_of(pi(3, 0)), Some(99));
        assert_eq!(qm.num_items(), 3);
    }

    #[test]
    fn reject_and_backoff_become_replies() {
        let mut qm = QueueManager::new(SiteId(0));
        qm.add_item(pi(1, 0), 0, EnforcementMode::SemiLock);
        // Raise W-TS to 100 via a granted+released T/O write.
        qm.handle(
            SiteId(0),
            &access(
                1,
                pi(1, 0),
                AccessMode::Write,
                CcMethod::TimestampOrdering,
                100,
            ),
        );
        qm.handle(
            SiteId(0),
            &RequestMsg::Release {
                txn: TxnId(1),
                item: pi(1, 0),
                write_value: Some(3),
                commit_ts: Timestamp::ZERO,
            },
        );
        let out = qm.handle(
            SiteId(1),
            &access(
                2,
                pi(1, 0),
                AccessMode::Read,
                CcMethod::TimestampOrdering,
                50,
            ),
        );
        assert!(matches!(
            out.replies[0],
            ReplyMsg::Reject { txn: TxnId(2), .. }
        ));
        let out = qm.handle(
            SiteId(1),
            &access(
                3,
                pi(1, 0),
                AccessMode::Read,
                CcMethod::PrecedenceAgreement,
                50,
            ),
        );
        assert!(matches!(
            out.replies[0],
            ReplyMsg::Backoff {
                txn: TxnId(3),
                new_ts: Timestamp(110),
                ..
            }
        ));
    }

    #[test]
    fn wait_edges_aggregate_across_items() {
        let mut qm = QueueManager::new(SiteId(0));
        qm.add_item(pi(1, 0), 0, EnforcementMode::SemiLock);
        qm.add_item(pi(2, 0), 0, EnforcementMode::SemiLock);
        qm.handle(
            SiteId(0),
            &access(1, pi(1, 0), AccessMode::Write, CcMethod::TwoPhaseLocking, 0),
        );
        qm.handle(
            SiteId(0),
            &access(2, pi(2, 0), AccessMode::Write, CcMethod::TwoPhaseLocking, 0),
        );
        qm.handle(
            SiteId(0),
            &access(2, pi(1, 0), AccessMode::Write, CcMethod::TwoPhaseLocking, 0),
        );
        qm.handle(
            SiteId(0),
            &access(1, pi(2, 0), AccessMode::Write, CcMethod::TwoPhaseLocking, 0),
        );
        let edges = qm.wait_edges();
        assert!(edges.contains(&(TxnId(2), TxnId(1))));
        assert!(edges.contains(&(TxnId(1), TxnId(2))));
        let mut buf = Vec::new();
        qm.wait_edges_into(&mut buf);
        assert_eq!(buf, edges, "the `_into` variant appends the same edges");
    }

    #[test]
    fn apply_confluent_applies_on_idle_items() {
        let mut qm = QueueManager::new(SiteId(0));
        qm.add_item(pi(1, 0), 10, EnforcementMode::SemiLock);
        qm.add_item(pi(2, 0), 20, EnforcementMode::SemiLock);
        let mut sink = QmSink::new();
        let ops = [
            ConfluentOp::Add(pi(1, 0), 5),
            ConfluentOp::Put(pi(2, 0), 99),
            ConfluentOp::Read(pi(1, 0)),
        ];
        let reads = qm
            .apply_confluent(SiteId(0), TxnId(7), &ops, true, Timestamp::ZERO, &mut sink)
            .expect("idle items must accept the bypass");
        assert_eq!(reads, vec![(pi(1, 0), 15)], "read sees the applied add");
        assert_eq!(qm.value_of(pi(1, 0)), Some(15));
        assert_eq!(qm.value_of(pi(2, 0)), Some(99));
        assert!(sink.replies.is_empty(), "the bypass never replies via PAM");
        assert_eq!(sink.events.len(), 3, "one Implemented per op");
        assert!(sink
            .events
            .iter()
            .all(|e| matches!(e, QmEvent::Implemented { txn: TxnId(7), .. })));
    }

    #[test]
    fn apply_confluent_write_refuses_any_coordination() {
        let mut qm = QueueManager::new(SiteId(0));
        qm.add_item(pi(1, 0), 10, EnforcementMode::SemiLock);
        // A granted read lock is enough to block a bypass write.
        qm.handle(
            SiteId(0),
            &access(1, pi(1, 0), AccessMode::Read, CcMethod::TwoPhaseLocking, 0),
        );
        let mut sink = QmSink::new();
        for op in [ConfluentOp::Add(pi(1, 0), 1), ConfluentOp::Put(pi(1, 0), 0)] {
            assert!(
                qm.apply_confluent(SiteId(0), TxnId(9), &[op], true, Timestamp::ZERO, &mut sink)
                    .is_none(),
                "{op:?} must refuse on a locked item"
            );
        }
        assert_eq!(qm.value_of(pi(1, 0)), Some(10), "refusal mutates nothing");
        assert!(sink.events.is_empty());
    }

    #[test]
    fn apply_confluent_read_refuses_writers_but_not_readers() {
        let mut qm = QueueManager::new(SiteId(0));
        qm.add_item(pi(1, 0), 10, EnforcementMode::SemiLock);
        qm.add_item(pi(2, 0), 20, EnforcementMode::SemiLock);
        // Item 1: held read lock — a bypass read is fine.
        qm.handle(
            SiteId(0),
            &access(1, pi(1, 0), AccessMode::Read, CcMethod::TwoPhaseLocking, 0),
        );
        let mut sink = QmSink::new();
        let reads = qm
            .apply_confluent(
                SiteId(0),
                TxnId(9),
                &[ConfluentOp::Read(pi(1, 0))],
                true,
                Timestamp::ZERO,
                &mut sink,
            )
            .expect("held read locks do not block a bypass read");
        assert_eq!(reads, vec![(pi(1, 0), 10)]);
        // Item 2: held write lock — refuse.
        qm.handle(
            SiteId(0),
            &access(2, pi(2, 0), AccessMode::Write, CcMethod::TwoPhaseLocking, 0),
        );
        assert!(qm
            .apply_confluent(
                SiteId(0),
                TxnId(9),
                &[ConfluentOp::Read(pi(2, 0))],
                true,
                Timestamp::ZERO,
                &mut sink,
            )
            .is_none());
        // Item 1 again, now with a *queued* writer behind the read lock:
        // reading past it would close a precedence cycle — refuse.
        qm.handle(
            SiteId(0),
            &access(3, pi(1, 0), AccessMode::Write, CcMethod::TwoPhaseLocking, 0),
        );
        assert!(qm
            .apply_confluent(
                SiteId(0),
                TxnId(9),
                &[ConfluentOp::Read(pi(1, 0))],
                true,
                Timestamp::ZERO,
                &mut sink,
            )
            .is_none());
    }

    #[test]
    fn apply_confluent_is_all_or_nothing() {
        let mut qm = QueueManager::new(SiteId(0));
        qm.add_item(pi(1, 0), 10, EnforcementMode::SemiLock);
        qm.add_item(pi(2, 0), 20, EnforcementMode::SemiLock);
        qm.handle(
            SiteId(0),
            &access(1, pi(2, 0), AccessMode::Write, CcMethod::TwoPhaseLocking, 0),
        );
        let mut sink = QmSink::new();
        // First op targets an idle item, second a locked one: nothing may
        // be applied.
        let ops = [ConfluentOp::Add(pi(1, 0), 5), ConfluentOp::Add(pi(2, 0), 5)];
        assert!(qm
            .apply_confluent(SiteId(0), TxnId(9), &ops, true, Timestamp::ZERO, &mut sink)
            .is_none());
        assert_eq!(qm.value_of(pi(1, 0)), Some(10));
        assert!(sink.events.is_empty());
        // Unknown items refuse too, before any mutation.
        let ops = [
            ConfluentOp::Add(pi(1, 0), 5),
            ConfluentOp::Add(pi(77, 0), 5),
        ];
        assert!(qm
            .apply_confluent(SiteId(0), TxnId(9), &ops, true, Timestamp::ZERO, &mut sink)
            .is_none());
        assert_eq!(qm.value_of(pi(1, 0)), Some(10));
    }

    #[test]
    fn apply_confluent_unchecked_ignores_coordination() {
        let mut qm = QueueManager::new(SiteId(0));
        qm.add_item(pi(1, 0), 10, EnforcementMode::SemiLock);
        qm.handle(
            SiteId(0),
            &access(1, pi(1, 0), AccessMode::Write, CcMethod::TwoPhaseLocking, 0),
        );
        let mut sink = QmSink::new();
        // check = false: the mutation switch writes straight through the
        // held write lock (this is what the non-serializable-history test
        // in the runtime exploits).
        let reads = qm
            .apply_confluent(
                SiteId(0),
                TxnId(9),
                &[ConfluentOp::Add(pi(1, 0), 5)],
                false,
                Timestamp::ZERO,
                &mut sink,
            )
            .expect("unchecked bypass never refuses on blockedness");
        assert!(reads.is_empty());
        assert_eq!(qm.value_of(pi(1, 0)), Some(15));
        // Unknown items still refuse even unchecked.
        assert!(qm
            .apply_confluent(
                SiteId(0),
                TxnId(9),
                &[ConfluentOp::Read(pi(88, 0))],
                false,
                Timestamp::ZERO,
                &mut sink,
            )
            .is_none());
    }

    #[test]
    fn value_of_reflects_releases() {
        let mut qm = QueueManager::new(SiteId(0));
        qm.add_item(pi(7, 0), 1, EnforcementMode::SemiLock);
        assert_eq!(qm.value_of(pi(7, 0)), Some(1));
        assert_eq!(qm.value_of(pi(8, 0)), None);
        qm.handle(
            SiteId(0),
            &access(1, pi(7, 0), AccessMode::Write, CcMethod::TwoPhaseLocking, 0),
        );
        qm.handle(
            SiteId(0),
            &RequestMsg::Release {
                txn: TxnId(1),
                item: pi(7, 0),
                write_value: Some(99),
                commit_ts: Timestamp::ZERO,
            },
        );
        assert_eq!(qm.value_of(pi(7, 0)), Some(99));
    }

    #[test]
    fn duplicate_access_is_suppressed_when_dedup_is_on() {
        let mut qm = QueueManager::new(SiteId(0));
        qm.add_item(pi(1, 0), 5, EnforcementMode::SemiLock);
        let msg = access(1, pi(1, 0), AccessMode::Write, CcMethod::TwoPhaseLocking, 0);
        let out = qm.handle(SiteId(0), &msg);
        assert_eq!(out.replies.len(), 1, "first delivery grants");
        // A duplicated delivery of the very same Access must vanish without
        // a second queue entry or a second reply.
        let out = qm.handle(SiteId(0), &msg);
        assert!(out.replies.is_empty(), "duplicate produces no reply");
        assert_eq!(qm.dup_suppressed(), 1);
        assert_eq!(qm.take_dup_suppressed(), 1);
        assert_eq!(qm.dup_suppressed(), 0, "take drains the counter");
        // The queue still holds exactly one entry for the transaction.
        let item = qm.items().next().unwrap();
        assert_eq!(item.queue_len(), 1);
    }

    #[test]
    fn dedup_mutation_double_entry_is_demonstrable() {
        // Mutation check with teeth: switching duplicate suppression OFF
        // must produce an observably broken queue manager under the same
        // duplicated delivery. In debug builds the engine's internal
        // "already queued" assertion fires (a panic); in release builds the
        // duplicate lands as a second queue entry (and is granted a second
        // lock — the grant loop marks the head by position, so it
        // terminates even on this corrupted queue). Either outcome is a
        // demonstrable failure that the dedup guard prevents.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut qm = QueueManager::new(SiteId(0));
            qm.add_item(pi(1, 0), 5, EnforcementMode::SemiLock);
            qm.set_dedup_access(false);
            let msg = access(1, pi(1, 0), AccessMode::Write, CcMethod::TwoPhaseLocking, 0);
            qm.handle(SiteId(0), &msg);
            qm.handle(SiteId(0), &msg);
            let len = qm.items().next().unwrap().queue_len();
            len
        }));
        match outcome {
            Err(_) => {} // debug_assert tripped: duplicate corrupted the queue
            Ok(len) => assert!(
                len > 1,
                "with dedup disabled the duplicate must double-queue, got len {len}"
            ),
        }
    }

    #[test]
    fn crash_recover_wipes_waiters_across_items() {
        let mut qm = QueueManager::new(SiteId(0));
        qm.add_item(pi(1, 0), 5, EnforcementMode::SemiLock);
        qm.add_item(pi(2, 0), 7, EnforcementMode::SemiLock);
        // Txn 1 holds write locks on both items; txns 2 and 3 wait.
        for item in [pi(1, 0), pi(2, 0)] {
            qm.handle(
                SiteId(0),
                &access(1, item, AccessMode::Write, CcMethod::TwoPhaseLocking, 0),
            );
            qm.handle(
                SiteId(0),
                &access(2, item, AccessMode::Write, CcMethod::TwoPhaseLocking, 0),
            );
        }
        qm.handle(
            SiteId(0),
            &access(3, pi(1, 0), AccessMode::Write, CcMethod::TwoPhaseLocking, 0),
        );
        let mut sink = QmSink::new();
        let wiped = qm.crash_recover(&mut sink);
        assert_eq!(wiped, 3, "two waiters on item 1, one on item 2");
        // The granted holder survives with its locks and can still commit.
        let out = qm.handle(
            SiteId(0),
            &RequestMsg::Release {
                txn: TxnId(1),
                item: pi(1, 0),
                write_value: Some(50),
                commit_ts: Timestamp::ZERO,
            },
        );
        assert!(out
            .events
            .iter()
            .any(|e| matches!(e, QmEvent::Implemented { txn: TxnId(1), .. })));
        assert_eq!(qm.value_of(pi(1, 0)), Some(50));
    }

    #[test]
    fn present_txns_and_cleanup_remove_stranded_state() {
        let mut qm = QueueManager::new(SiteId(0));
        qm.add_item(pi(1, 0), 5, EnforcementMode::SemiLock);
        qm.add_item(pi(2, 0), 7, EnforcementMode::SemiLock);
        qm.handle(
            SiteId(0),
            &access(1, pi(1, 0), AccessMode::Write, CcMethod::TwoPhaseLocking, 0),
        );
        qm.handle(
            SiteId(0),
            &access(1, pi(2, 0), AccessMode::Write, CcMethod::TwoPhaseLocking, 0),
        );
        qm.handle(
            SiteId(0),
            &access(2, pi(1, 0), AccessMode::Write, CcMethod::TwoPhaseLocking, 0),
        );
        let mut present = Vec::new();
        qm.present_txns_into(&mut present);
        assert_eq!(present, vec![TxnId(1), TxnId(2)], "sorted and deduped");
        // Cleaning up the stranded holder frees both items and grants the
        // waiter that was stuck behind it.
        let mut sink = QmSink::new();
        let touched = qm.cleanup_txn(TxnId(1), &mut sink);
        assert_eq!(touched, 2, "txn 1 involved both items");
        assert!(
            sink.replies
                .iter()
                .any(|r| matches!(r, ReplyMsg::Grant { txn: TxnId(2), .. })),
            "cleanup unblocks the waiter"
        );
        present.clear();
        qm.present_txns_into(&mut present);
        assert_eq!(present, vec![TxnId(2)]);
        assert_eq!(
            qm.cleanup_txn(TxnId(1), &mut sink),
            0,
            "cleanup is idempotent"
        );
        assert_eq!(qm.value_of(pi(1, 0)), Some(5), "abort implements nothing");
    }

    /// The announce rule — what an event-driven deadlock detector rests on
    /// — over random message sequences on two items, all three methods and
    /// both enforcement modes: every `(waiter, holder)` that
    /// `wait_edges()` reports after a message and did not report before it
    /// was announced as a `WaitEdge` (no silent edge); nothing is announced
    /// that is not an edge; and a message that leaves its item with no
    /// waiter announces nothing.
    #[test]
    fn every_new_wait_edge_is_announced_and_an_unblocked_message_is_silent() {
        use simkit::rng::SimRng;
        use std::collections::BTreeSet;

        let items = [pi(1, 0), pi(2, 0)];
        let (mut announced_total, mut silent_messages) = (0usize, 0usize);
        for seed in 0..300u64 {
            let mut rng = SimRng::new(seed);
            let enforcement = if seed % 4 == 3 {
                EnforcementMode::LockAll
            } else {
                EnforcementMode::SemiLock
            };
            let mut qm = QueueManager::new(SiteId(0));
            for item in items {
                qm.add_item(item, 0, enforcement);
            }
            let mut sink = QmSink::new();
            for step in 0..150 {
                let txn = TxnId(1 + rng.next_below(8));
                let item = items[rng.next_index(2)];
                let msg = match rng.next_below(11) {
                    0..=5 => RequestMsg::Access {
                        txn,
                        item,
                        mode: if rng.next_bool(0.5) {
                            AccessMode::Read
                        } else {
                            AccessMode::Write
                        },
                        // One method per transaction, as in the runtime.
                        method: CcMethod::ALL[(txn.0 % 3) as usize],
                        ts: TsTuple::new(Timestamp(1 + rng.next_below(60)), 10),
                    },
                    6 => RequestMsg::UpdatedTs {
                        txn,
                        item,
                        new_ts: Timestamp(1 + rng.next_below(120)),
                    },
                    7 | 8 => RequestMsg::Release {
                        txn,
                        item,
                        write_value: Some(step),
                        commit_ts: Timestamp::ZERO,
                    },
                    9 => RequestMsg::Demote {
                        txn,
                        item,
                        write_value: Some(step),
                        commit_ts: Timestamp::ZERO,
                    },
                    _ => RequestMsg::Abort { txn, item },
                };
                let before: BTreeSet<_> = qm.wait_edges().into_iter().collect();
                sink.clear();
                // Now and then the site-wide transitions instead of a
                // message: they move queue entries too.
                let touched = match rng.next_below(25) {
                    0 => {
                        qm.crash_recover(&mut sink);
                        None
                    }
                    1 => {
                        qm.cleanup_txn(txn, &mut sink);
                        None
                    }
                    _ => {
                        qm.handle_into(SiteId(0), &msg, &mut sink);
                        Some(item)
                    }
                };
                let after: BTreeSet<_> = qm.wait_edges().into_iter().collect();
                let announced: BTreeSet<_> = sink
                    .events
                    .iter()
                    .filter_map(|e| match *e {
                        QmEvent::WaitEdge { waiter, holder } => Some((waiter, holder)),
                        _ => None,
                    })
                    .collect();
                let context = || format!("seed {seed} step {step}: {msg:?} ({touched:?})");
                for edge in after.difference(&before) {
                    assert!(
                        announced.contains(edge),
                        "silent edge {edge:?}; {}",
                        context()
                    );
                }
                for edge in &announced {
                    assert!(after.contains(edge), "{edge:?} is no edge; {}", context());
                }
                if let Some(item) = touched {
                    if !qm.item(item).expect("known item").has_waiters() {
                        assert!(announced.is_empty(), "unblocked, not silent; {}", context());
                        silent_messages += 1;
                    }
                }
                announced_total += announced.len();
            }
        }
        // Both halves of the property were exercised, not vacuously true.
        assert!(announced_total > 3_000, "{announced_total} edges announced");
        assert!(
            silent_messages > 3_000,
            "{silent_messages} unblocked messages"
        );
    }
}
