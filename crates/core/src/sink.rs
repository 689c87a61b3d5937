//! The reusable output sink of the engine hot path.
//!
//! The seed engine returned a fresh `Vec<ItemEvent>` from every
//! `ItemState::handle_*` call and translated it into a freshly allocated
//! `QmOutput { Vec<ReplyMsg>, Vec<QmEvent> }` per message — three heap
//! allocations per protocol message, ~16 messages per wide transaction.
//! [`QmSink`] replaces all of that with one pair of accumulators the
//! caller owns and reuses: item states push their replies and events
//! straight into the sink, a whole drained command batch flows through
//! [`crate::qm::QueueManager::handle_batch`] into the same sink, and the
//! shard flushes replies directly from it. After warm-up the capacities
//! stabilise and a steady-state batch performs **zero** heap allocations
//! (asserted by the counting-allocator test in `integration-tests`).

use dbmodel::TxnId;
use pam::ReplyMsg;

use crate::qm::QmEvent;

/// Reply/event accumulators for the engine hot path, reused across
/// batches. `clear()` between batches retains every buffer's capacity.
#[derive(Debug, Clone, Default)]
pub struct QmSink {
    /// Replies to send back to request issuers, in processing order.
    pub replies: Vec<ReplyMsg>,
    /// Metric / log events, in processing order.
    pub events: Vec<QmEvent>,
    /// Scratch for `ItemState::after_lock_removal`'s pre-scheduled → normal
    /// upgrade pass (replaces the seed's full `locks.clone()` snapshot).
    pub(crate) upgrade_scratch: Vec<TxnId>,
    /// Scratch for `ItemState::note_edges`: the wait-for edges an item
    /// reported before the message being processed.
    pub(crate) edge_scratch: Vec<(TxnId, TxnId)>,
}

impl QmSink {
    /// An empty sink. Buffers are grown on first use and retained from
    /// then on.
    pub fn new() -> Self {
        QmSink::default()
    }

    /// A sink with pre-reserved reply/event capacity (skips the warm-up
    /// growth for callers that know their batch shape).
    pub fn with_capacity(replies: usize, events: usize) -> Self {
        QmSink {
            replies: Vec::with_capacity(replies),
            events: Vec::with_capacity(events),
            upgrade_scratch: Vec::new(),
            edge_scratch: Vec::new(),
        }
    }

    /// Drop accumulated replies and events, keeping all capacity.
    pub fn clear(&mut self) {
        self.replies.clear();
        self.events.clear();
    }

    /// True when no replies and no events are pending.
    pub fn is_empty(&self) -> bool {
        self.replies.is_empty() && self.events.is_empty()
    }

    /// Current reply capacity (allocation-stability tests).
    pub fn reply_capacity(&self) -> usize {
        self.replies.capacity()
    }

    /// Current event capacity (allocation-stability tests).
    pub fn event_capacity(&self) -> usize {
        self.events.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_retains_capacity() {
        let mut sink = QmSink::with_capacity(8, 4);
        let (r, e) = (sink.reply_capacity(), sink.event_capacity());
        assert!(r >= 8 && e >= 4);
        sink.clear();
        assert!(sink.is_empty());
        assert_eq!(sink.reply_capacity(), r);
        assert_eq!(sink.event_capacity(), e);
    }
}
