//! The live-transaction registry: the runtime's reply router.
//!
//! Shards and the deadlock detector address transactions by [`TxnId`];
//! the registry routes each event to the client thread driving that
//! incarnation. Entries are registered when an incarnation starts and
//! removed when it commits, aborts or restarts; events addressed to an
//! unknown — or no-longer-current — transaction are dropped, which is
//! exactly the "stale reply for an aborted incarnation" rule the
//! simulator implements.
//!
//! Every client holds a reusable [`transport::mailbox::Mailbox`] acquired
//! once per transaction from the shared slab and re-registered across
//! restart incarnations. The id of each incarnation *is* its reply
//! address: [`Registry::txn_id`] mints `seq << slot_bits | slot` from the
//! begin-order counter and the mailbox's slab slot, so delivery reads the
//! slot out of the id and checks, under that slot's binding lock, that
//! the slot is still bound to it — no index, no registry mutex, no
//! channel allocation; the only locks on the reply path are the addressed
//! slot's binding and its ring. Because `seq` sits in the high bits, ids
//! keep begin order ("youngest" is still "largest id"), and whatever the
//! runtime derives from an id's value (origin site, restart jitter) it
//! derives from [`Registry::seq`]. Ids are never reused, and a delivery
//! pushes under the binding lock a deregister takes, so a delivery racing
//! a restart can never leak a stale grant into the next incarnation.
//! Shards deliver and mark waits under their core lock, so locks are
//! taken core → binding → ring; nothing done under a binding lock takes
//! a core lock.
//!
//! [`Registry::deliver_all_with`] groups **all** of a transaction's
//! replies in one flush into a single [`ClientEvent`] — not merely
//! consecutive runs. A shard's drained batch can interleave several
//! transactions' replies (two clients' `HandleBatch` commands alternating
//! in one drain); grouping by transaction guarantees *one wakeup per
//! transaction per flush*, with the transaction's replies in processing
//! order.
//!
//! ## Waited-on marks and the scan request
//!
//! A registration also carries two flags, next to the method, in the
//! mailbox slab's per-slot metadata word (`method | waited_on |
//! signalled`). The word is read and changed only under the slot's
//! binding lock, while the slot is bound to the incarnation's own id, and
//! every registration writes it afresh — so the flags are born clear with
//! every incarnation and can never land on a later one:
//!
//! * **waited-on** — some shard announced a wait-for edge *into* this
//!   incarnation ([`Registry::note_wait`]). A shard that announces an edge
//!   marks the holder and then looks at the *waiter's* mark: an edge that
//!   closes a cycle is always queued by a transaction that already has
//!   someone behind it, so a marked waiter is the cue to scan now. The
//!   mark is a critical section on the holder's slot lock, the look one on
//!   the waiter's, each shard does them in that order, and a mark is never
//!   cleared while its incarnation lives. In a cycle the waiter of each
//!   edge is the holder of the one before it, so each look and that
//!   predecessor's mark lock the same slot, and the critical sections on
//!   one mutex are totally ordered. If every look came before its
//!   predecessor's mark, then mark → look (program order) → predecessor's
//!   mark → its look → … would run all the way round the cycle back to
//!   the first mark, which cannot precede itself. So of the edges of one
//!   cycle, announced on whatever threads in whatever interleaving, at
//!   least one looks after its predecessor's mark is up and raises the
//!   request.
//! * **signalled** — the detector already told this incarnation it is a
//!   victim ([`Registry::signal_deadlock`] refuses a second time), so
//!   back-to-back scans of a cycle whose victim has not reacted yet count,
//!   and deliver, one signal.
//!
//! The scan request itself is a flag, raised under the announcing shard's
//! core lock (a scan that can see the edge can see the request). The keeper,
//! which runs the detector (`shard.rs`), is woken through that shard's inbox
//! once the lock is dropped, and looks at the flag before it parks.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use dbmodel::{CcMethod, TxnId};
use pam::ReplyMsg;
use transport::batch::SmallBatch;
use transport::mailbox::{Mailbox, MailboxOptions, MailboxRegistry, SlabExhausted};

/// An event delivered to the client thread driving one incarnation.
// The variant size gap is deliberate: reply batches travel inline so no
// heap allocation crosses the shard→client boundary, and the victim
// signal is rare enough that padding it costs nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub(crate) enum ClientEvent {
    /// One or more queue-manager replies for this incarnation, in
    /// processing order. A shard's batch flush groups every reply a
    /// transaction earned in one drained batch (e.g. all grants of a
    /// multi-item access phase at that shard) into a single event, so
    /// the waiting client is woken once per shard per flush, not once
    /// per item.
    Replies(SmallBatch<ReplyMsg>),
    /// The deadlock detector chose this incarnation as a victim.
    DeadlockVictim,
}

/// The per-client reply endpoint: a reusable slab mailbox, acquired once
/// per transaction and reused across its restart incarnations
/// ([`Registry::register`] re-arms it for each, sweeping what an earlier
/// incarnation left queued). An event reaches it only while its id is
/// registered, so it holds the current incarnation's events alone.
pub(crate) type ClientMailbox = Mailbox<ClientEvent>;

/// Shared router of live incarnations (see the module docs).
pub(crate) struct Registry {
    slab: MailboxRegistry<ClientEvent>,
    /// Events dropped at delivery time because no live incarnation
    /// matched — the producer half of the stale-reply rule.
    dropped: AtomicU64,
    /// A shard announced an edge whose waiter is itself waited on: the
    /// detector should scan now, not at its next tick.
    scan_requested: AtomicBool,
    /// Test switch: shards' announcements fall on deaf ears, leaving the
    /// periodic scan as the only way a deadlock is found.
    #[cfg(test)]
    pub(crate) mute_announcements: AtomicBool,
}

/// Registration metadata: `method | waited_on | signalled`.
const META_METHOD: u64 = 0b11;
const META_WAITED_ON: u64 = 1 << 2;
const META_SIGNALLED: u64 = 1 << 3;

/// The metadata a fresh incarnation registers with: its method, no flag
/// — so the deadlock detector's `method_of` resolves without any map.
fn fresh_meta(method: CcMethod) -> u64 {
    match method {
        CcMethod::TwoPhaseLocking => 1,
        CcMethod::TimestampOrdering => 2,
        CcMethod::PrecedenceAgreement => 3,
    }
}

fn meta_method(meta: u64) -> Option<CcMethod> {
    match meta & META_METHOD {
        1 => Some(CcMethod::TwoPhaseLocking),
        2 => Some(CcMethod::TimestampOrdering),
        3 => Some(CcMethod::PrecedenceAgreement),
        _ => None,
    }
}

impl Registry {
    /// A registry with default sizing except `mailbox_capacity` — the
    /// shape the tests use. The runtime builds its registry through
    /// [`Registry::with_options`] from [`crate::RuntimeConfig`].
    #[cfg(test)]
    pub(crate) fn new(mailbox_capacity: usize) -> Self {
        Registry::with_options(MailboxOptions {
            mailbox_capacity,
            ..MailboxOptions::default()
        })
    }

    /// A registry whose mailbox slab (and so the ids' slot field) is
    /// sized by `opts`: `mailbox_capacity` must exceed the replies one
    /// incarnation can have outstanding while its client is between
    /// drains, or delivering shards briefly yield.
    pub(crate) fn with_options(opts: MailboxOptions) -> Self {
        Registry {
            slab: MailboxRegistry::with_options(opts),
            dropped: AtomicU64::new(0),
            scan_requested: AtomicBool::new(false),
            #[cfg(test)]
            mute_announcements: AtomicBool::new(false),
        }
    }

    /// Hand out the reply endpoint a client thread drives one
    /// transaction (all its incarnations) through: pops a reusable slab
    /// slot, and fails with [`SlabExhausted`] when all `max_clients`
    /// mailboxes stay held past the acquire timeout.
    pub(crate) fn client_mailbox(&self) -> Result<ClientMailbox, SlabExhausted> {
        self.slab.acquire()
    }

    /// The id of the `seq`-th incarnation, addressed to mailbox `slot`
    /// (one-shot routes, which have no mailbox, pass 0).
    ///
    /// # Panics
    ///
    /// When `seq` no longer fits the id beside the slot field (2^48
    /// incarnations at the default `reply_max_clients`): ids never wrap.
    pub(crate) fn txn_id(&self, seq: u64, slot: u32) -> TxnId {
        let key = self.slab.key(seq, slot).unwrap_or_else(|| {
            let max = self.slab.max_seq();
            panic!("transaction id space exhausted: seq {seq} exceeds {max}")
        });
        TxnId(key)
    }

    /// The begin-order sequence number `txn` was minted from.
    pub(crate) fn seq(&self, txn: TxnId) -> u64 {
        self.slab.seq_of(txn.0)
    }

    /// Register a new incarnation on `mailbox`, which `txn` must be
    /// addressed to ([`Registry::txn_id`] with `mailbox.slot()`). Must
    /// complete before the incarnation's first request message is routed
    /// (the callers do: register, then `RequestIssuer::start`, then
    /// route).
    pub(crate) fn register(&self, txn: TxnId, method: CcMethod, mailbox: &mut ClientMailbox) {
        debug_assert_eq!(
            txn,
            self.txn_id(self.seq(txn), mailbox.slot()),
            "id not addressed to its mailbox"
        );
        self.slab.register(txn.0, fresh_meta(method), mailbox)
    }

    /// Remove an incarnation (commit, abort or restart).
    pub(crate) fn deregister(&self, txn: TxnId) {
        self.slab.deregister(txn.0)
    }

    /// Number of live incarnations.
    pub(crate) fn len(&self) -> usize {
        self.slab.len()
    }

    /// [`Registry::deliver_all_with`] with a freshly allocated scratch
    /// buffer.
    #[cfg(test)]
    pub(crate) fn deliver_all<I: IntoIterator<Item = ReplyMsg>>(&self, replies: I) {
        self.deliver_all_with(replies, &mut Vec::new(), None);
    }

    /// Deliver a batch of replies — a shard core flushes all replies
    /// produced by one lock tenure this way. Every reply a
    /// transaction earned in the flush is grouped into one
    /// [`ClientEvent::Replies`] (one wakeup per transaction per flush,
    /// even when different transactions' replies interleave), with the
    /// transaction's replies kept in processing order. The only locks
    /// taken are each addressed mailbox slot's binding and its ring.
    ///
    /// `scratch` is the caller-retained buffer for the per-transaction
    /// groups, so a hot flush path pays no heap allocation for the
    /// grouping (the inline `SmallBatch` runs already cross for free); it
    /// is left empty with its capacity intact.
    ///
    /// `own` names the transaction whose client is the delivering thread
    /// (a caller running its command inline): that thread is the only one
    /// that can drain the mailbox, so waiting on it full would deadlock
    /// until the deliver timeout — its event is dropped and counted as a
    /// full drop at once instead.
    pub(crate) fn deliver_all_with<I: IntoIterator<Item = ReplyMsg>>(
        &self,
        replies: I,
        scratch: &mut Vec<(TxnId, SmallBatch<ReplyMsg>)>,
        own: Option<TxnId>,
    ) {
        // Group by transaction, preserving first-appearance order across
        // transactions and processing order within one. Flushes touch a
        // handful of transactions, so a linear scan beats hashing.
        debug_assert!(scratch.is_empty());
        for reply in replies {
            let txn = reply.txn();
            match scratch.iter_mut().find(|(t, _)| *t == txn) {
                Some((_, run)) => run.push(reply),
                None => {
                    let mut run = SmallBatch::new();
                    run.push(reply);
                    scratch.push((txn, run));
                }
            }
        }
        for (txn, run) in scratch.drain(..) {
            let event = ClientEvent::Replies(run);
            let delivered = if own == Some(txn) {
                self.slab.try_deliver(txn.0, event)
            } else {
                self.slab.deliver(txn.0, event)
            };
            if !delivered {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The method a live incarnation runs under.
    pub(crate) fn method_of(&self, txn: TxnId) -> Option<CcMethod> {
        self.slab.resolve_meta(txn.0).and_then(meta_method)
    }

    /// Raise `flag` on live incarnation `txn`: `Some(true)` if this call
    /// raised it, `Some(false)` if it was up already, `None` if `txn` is
    /// not live.
    fn raise(&self, txn: TxnId, flag: u64) -> Option<bool> {
        self.slab
            .update_meta(txn.0, |meta| (meta & flag == 0).then_some(meta | flag))
            .map(|found| found & flag == 0)
    }

    /// A shard queued the wait-for edge `waiter → holder`: mark `holder`
    /// waited-on, then look at `waiter`'s mark. A marked waiter means the
    /// edge may have closed a cycle — the scan request is raised (here,
    /// under the caller's core lock) and `true` tells the caller to
    /// wake the keeper once it has dropped the lock. See the
    /// module docs for why the closing edge of a cycle always gets `true`.
    pub(crate) fn note_wait(&self, waiter: TxnId, holder: TxnId) -> bool {
        #[cfg(test)]
        if self.mute_announcements.load(Ordering::Relaxed) {
            return false;
        }
        self.raise(holder, META_WAITED_ON);
        let closes = self
            .slab
            .resolve_meta(waiter.0)
            .is_some_and(|meta| meta & META_WAITED_ON != 0);
        if closes {
            self.scan_requested.store(true, Ordering::SeqCst);
        }
        closes
    }

    /// Take the pending scan request, if any (the detector, before a scan:
    /// requests raised while it runs re-arm the next one).
    pub(crate) fn take_scan_request(&self) -> bool {
        self.scan_requested.swap(false, Ordering::SeqCst)
    }

    /// Is a scan request pending?
    pub(crate) fn scan_requested(&self) -> bool {
        self.scan_requested.load(Ordering::SeqCst)
    }

    /// Signal a deadlock victim — once per incarnation: returns true if
    /// the incarnation was live, had not been signalled before, and the
    /// signal was queued.
    pub(crate) fn signal_deadlock(&self, txn: TxnId) -> bool {
        self.raise(txn, META_SIGNALLED) == Some(true)
            && self.slab.deliver(txn.0, ClientEvent::DeadlockVictim)
    }

    /// Reply deliveries dropped because a live mailbox stayed full past
    /// the deliver timeout (a stalled client; its incarnation recovers
    /// through the normal restart machinery).
    pub(crate) fn full_drops(&self) -> u64 {
        self.slab.full_dropped()
    }

    /// Mailbox receives the bounded reply spin served without parking.
    pub(crate) fn spin_hits(&self) -> u64 {
        self.slab.spin_hits()
    }

    /// Stale reply events suppressed so far: deliveries dropped because
    /// no live incarnation matched, plus events an earlier incarnation
    /// left queued and a register-time sweep discarded.
    pub(crate) fn stale_reply_events(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed) + self.slab.stale_dropped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbmodel::{LogicalItemId, PhysicalItemId, SiteId};
    use std::time::Duration;

    /// A fresh mailbox and the id of its `seq`-th incarnation.
    fn client(registry: &Registry, seq: u64) -> (ClientMailbox, TxnId) {
        let mb = registry.client_mailbox().expect("mailbox");
        let txn = registry.txn_id(seq, mb.slot());
        (mb, txn)
    }

    fn reply(txn: TxnId) -> ReplyMsg {
        reply_on(txn, 1)
    }

    fn reply_on(txn: TxnId, item: u64) -> ReplyMsg {
        ReplyMsg::Ack {
            txn,
            item: PhysicalItemId::new(LogicalItemId(item), SiteId(0)),
        }
    }

    fn recv_now(mb: &mut ClientMailbox, txn: TxnId) -> Option<ClientEvent> {
        mb.recv_timeout(txn.0, Duration::from_millis(200))
    }

    /// Drain every event currently queued for `txn` (bounded wait).
    fn drain_events(mb: &mut ClientMailbox, txn: TxnId) -> Vec<ClientEvent> {
        let mut events = Vec::new();
        while let Some(ev) = mb.recv_timeout(txn.0, Duration::from_millis(50)) {
            events.push(ev);
        }
        events
    }

    #[test]
    fn delivers_to_registered_and_drops_unknown() {
        let registry = Registry::new(64);
        let (mut mb, t1) = client(&registry, 1);
        let unknown = registry.txn_id(2, mb.slot());
        registry.register(t1, CcMethod::TwoPhaseLocking, &mut mb);
        assert_eq!(registry.len(), 1);
        // One flush delivers the known reply and drops the unknown.
        registry.deliver_all([reply(t1), reply(unknown)]);
        assert!(matches!(
            recv_now(&mut mb, t1),
            Some(ClientEvent::Replies(_))
        ));
        assert!(recv_now(&mut mb, t1).is_none());
        registry.deregister(t1);
        assert_eq!(registry.len(), 0);
        registry.deliver_all([reply(t1)]); // now stale: dropped
        assert!(recv_now(&mut mb, t1).is_none());
        assert!(
            registry.stale_reply_events() >= 2,
            "both stale replies counted"
        );
    }

    /// An id whose `seq` is at the top of its range loses no bit anywhere:
    /// it registers, resolves its method, is marked and signalled once.
    #[test]
    fn an_id_at_the_top_of_the_seq_range_keeps_every_bit() {
        let registry = Registry::new(64);
        let top = u64::MAX >> 16;
        let (mut mb, old) = client(&registry, top);
        let (mut other, waiter) = client(&registry, top - 1);
        assert_eq!(registry.seq(old), top);
        registry.register(old, CcMethod::PrecedenceAgreement, &mut mb);
        registry.register(waiter, CcMethod::TwoPhaseLocking, &mut other);
        assert_eq!(registry.method_of(old), Some(CcMethod::PrecedenceAgreement));
        assert!(!registry.note_wait(old, waiter), "nobody behind `old` yet");
        assert!(registry.note_wait(waiter, old), "`old` marked `waiter`");
        assert!(registry.signal_deadlock(old));
        assert!(!registry.signal_deadlock(old), "signalled once");
        assert!(matches!(
            recv_now(&mut mb, old),
            Some(ClientEvent::DeadlockVictim)
        ));
        registry.deregister(old);
        registry.deregister(waiter);
    }

    #[test]
    fn deadlock_signal_reaches_live_victims_only() {
        let registry = Registry::new(64);
        let (mut mb, t7) = client(&registry, 7);
        let t8 = registry.txn_id(8, mb.slot());
        registry.register(t7, CcMethod::TwoPhaseLocking, &mut mb);
        assert_eq!(registry.method_of(t7), Some(CcMethod::TwoPhaseLocking));
        assert_eq!(registry.method_of(t8), None);
        assert!(registry.signal_deadlock(t7));
        assert!(!registry.signal_deadlock(t8));
        assert!(
            !registry.signal_deadlock(t7),
            "an incarnation is signalled once"
        );
        assert!(matches!(
            recv_now(&mut mb, t7),
            Some(ClientEvent::DeadlockVictim)
        ));
        assert!(recv_now(&mut mb, t7).is_none());
        assert_eq!(
            registry.method_of(t7),
            Some(CcMethod::TwoPhaseLocking),
            "the flag shares a word with the method and leaves it alone"
        );
        registry.deregister(t7);
    }

    /// The waited-on marks: an announced edge marks its holder and asks
    /// for a scan exactly when its waiter is already marked; marks and the
    /// signalled flag are born clear with the next incarnation on the same
    /// mailbox.
    #[test]
    fn a_marked_waiter_raises_the_scan_request() {
        let registry = Registry::new(64);
        let (mut mb1, t1) = client(&registry, 1);
        let (mut mb2, t2) = client(&registry, 2);
        let (t8, t9) = (registry.txn_id(8, 7), registry.txn_id(9, 8));
        registry.register(t1, CcMethod::TwoPhaseLocking, &mut mb1);
        registry.register(t2, CcMethod::PrecedenceAgreement, &mut mb2);
        assert!(!registry.note_wait(t1, t2), "T1 has nobody behind");
        assert!(!registry.scan_requested());
        assert!(registry.note_wait(t2, t1), "T2 has: T1");
        assert!(registry.take_scan_request());
        assert!(!registry.take_scan_request(), "taken is taken");
        assert!(registry.note_wait(t2, t9), "whoever T2 waits for");
        assert!(!registry.note_wait(t9, t8), "strangers carry no mark");
        assert_eq!(registry.method_of(t2), Some(CcMethod::PrecedenceAgreement));

        assert!(registry.signal_deadlock(t1));
        registry.deregister(t1);
        let t3 = registry.txn_id(3, mb1.slot());
        registry.register(t3, CcMethod::TwoPhaseLocking, &mut mb1);
        assert!(
            !registry.note_wait(t3, t2),
            "T3 inherits T1's mailbox, not its mark"
        );
        assert!(registry.signal_deadlock(t3), "nor its signalled flag");
        registry.deregister(t2);
        registry.deregister(t3);
    }

    /// The coalescing guarantee: one flush interleaving two transactions'
    /// replies — A,B,A,B,A,B — wakes each client exactly once, with its
    /// three replies grouped in order. Coalescing only consecutive runs
    /// would produce three events (three wakeups) per client for the same
    /// flush.
    #[test]
    fn interleaved_flush_coalesces_to_one_event_per_txn() {
        let registry = Registry::new(64);
        let (mut mb_a, a) = client(&registry, 1);
        let (mut mb_b, b) = client(&registry, 2);
        registry.register(a, CcMethod::TwoPhaseLocking, &mut mb_a);
        registry.register(b, CcMethod::TwoPhaseLocking, &mut mb_b);
        registry.deliver_all([
            reply_on(a, 10),
            reply_on(b, 20),
            reply_on(a, 11),
            reply_on(b, 21),
            reply_on(a, 12),
            reply_on(b, 22),
        ]);
        for (mb, txn, items) in [
            (&mut mb_a, a, [10u64, 11, 12]),
            (&mut mb_b, b, [20, 21, 22]),
        ] {
            let events = drain_events(mb, txn);
            assert_eq!(
                events.len(),
                1,
                "exactly one wakeup event per transaction per flush"
            );
            let ClientEvent::Replies(batch) = &events[0] else {
                panic!("expected replies");
            };
            let seen: Vec<u64> = batch.iter().map(|r| r.item().logical.0).collect();
            assert_eq!(seen, items, "replies grouped in order");
        }
        registry.deregister(a);
        registry.deregister(b);
    }

    /// A `DeadlockVictim` signal arriving between two reply flushes is
    /// neither lost nor reordered around them — the client observes
    /// replies, then the victim, then the later replies.
    #[test]
    fn victim_signal_keeps_its_place_between_reply_flushes() {
        let registry = Registry::new(64);
        let (mut mb, t5) = client(&registry, 5);
        registry.register(t5, CcMethod::TwoPhaseLocking, &mut mb);
        registry.deliver_all([reply_on(t5, 1), reply_on(t5, 2)]);
        assert!(registry.signal_deadlock(t5));
        registry.deliver_all([reply_on(t5, 3)]);
        let events = drain_events(&mut mb, t5);
        let shape: Vec<&'static str> = events
            .iter()
            .map(|e| match e {
                ClientEvent::Replies(_) => "replies",
                ClientEvent::DeadlockVictim => "victim",
            })
            .collect();
        assert_eq!(
            shape,
            ["replies", "victim", "replies"],
            "the victim signal must keep its place"
        );
        registry.deregister(t5);
    }

    /// A victim signal for an incarnation that restarted before the
    /// client consumed it must not leak into the next incarnation.
    #[test]
    fn stale_victim_signal_never_reaches_the_next_incarnation() {
        let registry = Registry::new(64);
        let (mut mb, t1) = client(&registry, 1);
        registry.register(t1, CcMethod::TwoPhaseLocking, &mut mb);
        assert!(registry.signal_deadlock(t1));
        // The incarnation restarts without consuming the signal; the
        // same mailbox serves the next incarnation.
        registry.deregister(t1);
        let t2 = registry.txn_id(2, mb.slot());
        registry.register(t2, CcMethod::TwoPhaseLocking, &mut mb);
        registry.deliver_all([reply(t2)]);
        let events = drain_events(&mut mb, t2);
        assert_eq!(events.len(), 1);
        assert!(
            matches!(events[0], ClientEvent::Replies(_)),
            "the stale victim must have been discarded, not delivered"
        );
        registry.deregister(t2);
    }
}
