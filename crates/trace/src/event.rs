//! The fixed-size record every traced thread writes: one lifecycle phase
//! of one transaction incarnation, stamped with the process-wide
//! monotonic clock ([`transport::stamp::now_nanos`]).
//!
//! Inside a [`crate::FlightRing`] slot an event is three data words —
//! timestamp, transaction id, and a packed `phase | arg` meta word — so a
//! write is a handful of relaxed stores and never allocates. The `arg`
//! carries phase-specific detail: the incarnation's attempt number on
//! [`Phase::Begin`], the chosen method (plus the selection-cache hit
//! flag) on [`Phase::SelectionDone`], batch or grant counts on the shard
//! phases.

/// Number of distinct lifecycle phases (the length of [`Phase::ALL`]).
pub const NUM_PHASES: usize = 15;

/// A lifecycle phase tag. The first group marks the client-side phase
/// *boundaries* whose consecutive differences telescope exactly over an
/// incarnation's begin→commit interval; the second group is shard- and
/// detector-side context (batch receipt, grants, victims) that fills in
/// the span tree without affecting the client-side sums.
#[repr(u8)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Client: an incarnation was admitted (`arg` = attempt number).
    Begin = 0,
    /// Client: the CC method is chosen (`arg` = method code, bit 8 set on
    /// a selection-cache hit).
    SelectionDone = 1,
    /// Client: the access fan-out is enqueued on the shard rings
    /// (`arg` = number of request messages sent).
    TransportEnqueued = 2,
    /// Client: every first grant arrived; execution begins.
    ExecutionStart = 3,
    /// Client: a PA backoff round was absorbed while waiting.
    BackoffRound = 4,
    /// Client: commit entered (releases about to be enqueued).
    CommitStart = 5,
    /// Client: all locks released, the incarnation is durable.
    Committed = 6,
    /// Client: the incarnation restarts after a T/O rejection.
    RestartRejected = 7,
    /// Client: the incarnation restarts as a deadlock victim.
    RestartDeadlock = 8,
    /// Client: the transaction aborted for good (`arg` = 0 for a user
    /// abort or a handle dropped before `commit`, 1 for a commit that
    /// failed after its decision point: decided, never acknowledged).
    Aborted = 9,
    /// Shard: a drained command batch was received (`arg` = messages in
    /// the batch, `txn` = the first message's transaction).
    ShardRecv = 10,
    /// Shard: grants issued while folding a batch (`arg` = grant count,
    /// `txn` = the last granted transaction).
    Granted = 11,
    /// Detector: a deadlock victim was signalled (`txn` = the victim;
    /// `arg` = 0 when a scan a shard asked for found the cycle, 1 when only
    /// the periodic backstop scan did).
    Victim = 12,
    /// Client: an invariant-confluent transaction was applied through the
    /// coordination-avoidance bypass — no grants, no queue time
    /// (`arg` = number of ops applied).
    FastPathApplied = 13,
    /// Client: a read-only transaction was served from the item version
    /// chains at the global read watermark — no grants, no wait edges, no
    /// restart exposure (`arg` = number of items read).
    SnapshotRead = 14,
}

impl Phase {
    /// Every phase, in discriminant order.
    pub const ALL: [Phase; NUM_PHASES] = [
        Phase::Begin,
        Phase::SelectionDone,
        Phase::TransportEnqueued,
        Phase::ExecutionStart,
        Phase::BackoffRound,
        Phase::CommitStart,
        Phase::Committed,
        Phase::RestartRejected,
        Phase::RestartDeadlock,
        Phase::Aborted,
        Phase::ShardRecv,
        Phase::Granted,
        Phase::Victim,
        Phase::FastPathApplied,
        Phase::SnapshotRead,
    ];

    /// Decode a raw discriminant (a torn ring slot yields `None`).
    pub fn from_u8(raw: u8) -> Option<Phase> {
        Phase::ALL.get(raw as usize).copied()
    }

    /// Stable lower-case name (used in postmortem JSONL and tables).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Begin => "begin",
            Phase::SelectionDone => "selection-done",
            Phase::TransportEnqueued => "transport-enqueued",
            Phase::ExecutionStart => "execution-start",
            Phase::BackoffRound => "backoff-round",
            Phase::CommitStart => "commit-start",
            Phase::Committed => "committed",
            Phase::RestartRejected => "restart-rejected",
            Phase::RestartDeadlock => "restart-deadlock",
            Phase::Aborted => "aborted",
            Phase::ShardRecv => "shard-recv",
            Phase::Granted => "granted",
            Phase::Victim => "victim",
            Phase::FastPathApplied => "fastpath-applied",
            Phase::SnapshotRead => "snapshot-read",
        }
    }

    /// True for phases the *client* thread records for its own
    /// transaction — the ones whose per-transaction order is guaranteed
    /// by program order on one thread.
    pub fn is_client_side(self) -> bool {
        !matches!(self, Phase::ShardRecv | Phase::Granted | Phase::Victim)
    }

    /// True for the three ways an incarnation stops producing client-side
    /// events (commit, abort, restart into a *new* incarnation id).
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            Phase::Committed | Phase::Aborted | Phase::RestartRejected | Phase::RestartDeadlock
        )
    }
}

/// Bit set in [`Phase::SelectionDone`]'s `arg` when the dynamic selector
/// answered from its cache (the low byte is the method code).
pub const SELECTION_CACHE_HIT: u32 = 1 << 8;

/// One decoded flight-recorder record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// The lane (ring) the event was written to: shard lanes first, then
    /// client lanes.
    pub lane: u32,
    /// Nanoseconds on the process-wide monotonic clock.
    pub ts_nanos: u64,
    /// The transaction incarnation (incarnation ids are never reused, so
    /// the id is its own incarnation tag).
    pub txn: u64,
    /// Lifecycle phase.
    pub phase: Phase,
    /// Phase-specific detail (see [`Phase`]).
    pub arg: u32,
}

/// Pack `phase` and `arg` into the single meta word a ring slot stores.
#[inline]
pub(crate) fn pack_meta(phase: Phase, arg: u32) -> u64 {
    (phase as u64) | ((arg as u64) << 32)
}

/// Inverse of [`pack_meta`]; `None` when the phase byte is torn garbage.
pub(crate) fn unpack_meta(meta: u64) -> Option<(Phase, u32)> {
    Phase::from_u8((meta & 0xff) as u8).map(|phase| (phase, (meta >> 32) as u32))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_packing_round_trips_every_phase() {
        for (i, phase) in Phase::ALL.iter().enumerate() {
            assert_eq!(*phase as usize, i, "ALL is in discriminant order");
            let meta = pack_meta(*phase, 0xdead_beef);
            assert_eq!(unpack_meta(meta), Some((*phase, 0xdead_beef)));
        }
        assert_eq!(unpack_meta(0xff), None, "garbage phase byte is rejected");
    }
}
