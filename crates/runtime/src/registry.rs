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
//! The reply plane is lock-free. Every client holds a reusable
//! [`transport::mailbox::Mailbox`] acquired once per transaction from the
//! shared slab and re-registered across restart incarnations; delivery
//! resolves `TxnId → (mailbox slot, tag)` through the slab's packed atomic
//! index — no registry mutex, no channel allocation, no reply-path lock at
//! all. The incarnation tag is the transaction id itself (ids are a
//! monotone counter, never reused), carried inside every event and checked
//! by the consumer, so a delivery racing a restart can never leak a stale
//! grant into the next incarnation.
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
//! mailbox slab's per-slot metadata word — set by compare-and-swap, keyed by
//! the transaction id packed into the same word, so they are born clear
//! with every incarnation and can never land on a later one:
//!
//! * **waited-on** — some shard announced a wait-for edge *into* this
//!   incarnation ([`Registry::note_wait`]). A shard that announces an edge
//!   marks the holder and then looks at the *waiter's* mark: an edge that
//!   closes a cycle is always queued by a transaction that already has
//!   someone behind it, so a marked waiter is the cue to scan now. Mark and
//!   look are both `SeqCst`, each shard does them in that order, and a mark
//!   is never cleared while its incarnation lives — so of the edges of one
//!   cycle, announced on whatever threads in whatever interleaving, the one
//!   whose mark comes last in the total order looks after its
//!   predecessor's mark is up and raises the request.
//! * **signalled** — the detector already told this incarnation it is a
//!   victim ([`Registry::signal_deadlock`] refuses a second time), so
//!   back-to-back scans of a cycle whose victim has not reacted yet count,
//!   and deliver, one signal.
//!
//! The scan request itself is a flag plus the detector's `Thread` handle:
//! raised under the announcing shard's core lock (a scan that can see the
//! edge can see the request), the unpark sent once the lock is dropped.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::thread::Thread;

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
/// ([`Registry::register`] re-arms it for each). Its `recv_timeout(txn,
/// ..)` discards events tagged for earlier incarnations of the slot — the
/// consumer half of the stale-reply rule.
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
    /// The detector thread, to unpark for a requested scan.
    detector: OnceLock<Thread>,
    /// Test switch: shards' announcements fall on deaf ears, leaving the
    /// periodic scan as the only way a deadlock is found.
    #[cfg(test)]
    pub(crate) mute_announcements: AtomicBool,
}

/// Registration metadata: `txn id << META_FLAG_BITS | flags | method`.
const META_METHOD: u64 = 0b11;
const META_WAITED_ON: u64 = 1 << 2;
const META_SIGNALLED: u64 = 1 << 3;
const META_FLAG_BITS: u32 = 4;

/// The metadata a fresh incarnation registers with: its id and method, no
/// flag — so the deadlock detector's `method_of` resolves without any map.
fn fresh_meta(txn: TxnId, method: CcMethod) -> u64 {
    let code = match method {
        CcMethod::TwoPhaseLocking => 1,
        CcMethod::TimestampOrdering => 2,
        CcMethod::PrecedenceAgreement => 3,
    };
    txn.0 << META_FLAG_BITS | code
}

fn meta_is_of(meta: u64, txn: TxnId) -> bool {
    meta >> META_FLAG_BITS == txn.0
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

    /// A registry whose mailbox slab and resizable index are sized by
    /// `opts`: `mailbox_capacity` must exceed the replies one incarnation
    /// can have outstanding while its client is between drains, or
    /// delivering shards briefly yield.
    pub(crate) fn with_options(opts: MailboxOptions) -> Self {
        Registry {
            slab: MailboxRegistry::with_options(opts),
            dropped: AtomicU64::new(0),
            scan_requested: AtomicBool::new(false),
            detector: OnceLock::new(),
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

    /// Register a new incarnation on `mailbox`. Must complete before the
    /// incarnation's first request message is routed (the callers do:
    /// register, then `RequestIssuer::start`, then route).
    ///
    /// Returns `true` when the registration fell off the lock-free path
    /// onto the mailbox slab's overflow map (index at its growth ceiling
    /// with a live bucket collision) — the transition the caller reports
    /// via the trace plane.
    pub(crate) fn register(
        &self,
        txn: TxnId,
        method: CcMethod,
        mailbox: &mut ClientMailbox,
    ) -> bool {
        self.slab.register(txn.0, fresh_meta(txn, method), mailbox)
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
    /// transaction's replies kept in processing order. No lock is taken.
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
        self.live_meta(txn).and_then(meta_method)
    }

    /// The metadata of `txn` if that very incarnation is live.
    fn live_meta(&self, txn: TxnId) -> Option<u64> {
        self.slab
            .resolve_meta(txn.0)
            .filter(|&meta| meta_is_of(meta, txn))
    }

    /// Raise `flag` on live incarnation `txn`: `Some(true)` if this call
    /// raised it, `Some(false)` if it was up already, `None` if `txn` is
    /// not live.
    fn raise(&self, txn: TxnId, flag: u64) -> Option<bool> {
        self.slab
            .update_meta(txn.0, |meta| {
                (meta_is_of(meta, txn) && meta & flag == 0).then_some(meta | flag)
            })
            .filter(|&found| meta_is_of(found, txn))
            .map(|found| found & flag == 0)
    }

    /// A shard queued the wait-for edge `waiter → holder`: mark `holder`
    /// waited-on, then look at `waiter`'s mark. A marked waiter means the
    /// edge may have closed a cycle — the scan request is raised (here,
    /// under the caller's core lock) and `true` tells the caller to
    /// [`Registry::wake_detector`] once it has dropped the lock. See the
    /// module docs for why the closing edge of a cycle always gets `true`.
    pub(crate) fn note_wait(&self, waiter: TxnId, holder: TxnId) -> bool {
        #[cfg(test)]
        if self.mute_announcements.load(Ordering::Relaxed) {
            return false;
        }
        self.raise(holder, META_WAITED_ON);
        let closes = self
            .live_meta(waiter)
            .is_some_and(|meta| meta & META_WAITED_ON != 0);
        if closes {
            self.scan_requested.store(true, Ordering::SeqCst);
        }
        closes
    }

    /// The detector thread introduces itself (once, as it starts).
    pub(crate) fn attach_detector(&self, detector: Thread) {
        let _ = self.detector.set(detector);
    }

    /// Unpark the detector to look at the scan request and its stop flag.
    /// A wake-up that precedes [`Registry::attach_detector`] is not lost:
    /// the detector looks at both before it first parks.
    pub(crate) fn wake_detector(&self) {
        if let Some(detector) = self.detector.get() {
            detector.unpark();
        }
    }

    /// Take the pending scan request, if any (the detector, before a scan:
    /// requests raised while it runs re-arm the next one).
    pub(crate) fn take_scan_request(&self) -> bool {
        self.scan_requested.swap(false, Ordering::SeqCst)
    }

    /// Raise the scan request from the detector itself: a pushed scan that
    /// had to skip a shard's report asks for one more (see `detector.rs`).
    pub(crate) fn request_scan(&self) {
        self.scan_requested.store(true, Ordering::SeqCst);
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

    /// Registrations currently parked on the mailbox slab's overflow map
    /// (live bucket collisions with the resizable index at its growth
    /// ceiling). Nonzero values are correct but mean
    /// `reply_index_max_capacity` is undersized for the live-transaction
    /// spread.
    pub(crate) fn overflow_entries(&self) -> usize {
        self.slab.overflow_entries()
    }

    /// Buckets in the newest generation of the mailbox slab's resizable
    /// index.
    pub(crate) fn index_capacity(&self) -> usize {
        self.slab.index_capacity()
    }

    /// Completed growths of the mailbox slab's index.
    pub(crate) fn index_resizes(&self) -> u64 {
        self.slab.index_resizes()
    }

    /// Reply deliveries dropped because a live mailbox stayed full past
    /// the deliver timeout (a stalled client; its incarnation recovers
    /// through the normal restart machinery).
    pub(crate) fn full_drops(&self) -> u64 {
        self.slab.full_dropped()
    }

    /// Stale reply events suppressed so far: deliveries dropped because
    /// no live incarnation matched, plus events discarded consumer-side
    /// by the incarnation tag.
    pub(crate) fn stale_reply_events(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed) + self.slab.stale_dropped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbmodel::{LogicalItemId, PhysicalItemId, SiteId};
    use std::time::Duration;

    fn reply(txn: u64) -> ReplyMsg {
        reply_on(txn, 1)
    }

    fn reply_on(txn: u64, item: u64) -> ReplyMsg {
        ReplyMsg::Ack {
            txn: TxnId(txn),
            item: PhysicalItemId::new(LogicalItemId(item), SiteId(0)),
        }
    }

    fn recv_now(mb: &mut ClientMailbox, txn: u64) -> Option<ClientEvent> {
        mb.recv_timeout(txn, Duration::from_millis(200))
    }

    /// Drain every event currently queued for `txn` (bounded wait).
    fn drain_events(mb: &mut ClientMailbox, txn: u64) -> Vec<ClientEvent> {
        let mut events = Vec::new();
        while let Some(ev) = mb.recv_timeout(txn, Duration::from_millis(50)) {
            events.push(ev);
        }
        events
    }

    #[test]
    fn delivers_to_registered_and_drops_unknown() {
        let registry = Registry::new(64);
        let mut mb = registry.client_mailbox().expect("mailbox");
        registry.register(TxnId(1), CcMethod::TwoPhaseLocking, &mut mb);
        assert_eq!(registry.len(), 1);
        // One flush delivers the known reply and drops the unknown.
        registry.deliver_all([reply(1), reply(2)]);
        assert!(matches!(
            recv_now(&mut mb, 1),
            Some(ClientEvent::Replies(_))
        ));
        assert!(recv_now(&mut mb, 1).is_none());
        registry.deregister(TxnId(1));
        assert_eq!(registry.len(), 0);
        registry.deliver_all([reply(1)]); // now stale: dropped
        assert!(recv_now(&mut mb, 1).is_none());
        assert!(
            registry.stale_reply_events() >= 2,
            "both stale replies counted"
        );
    }

    #[test]
    fn deadlock_signal_reaches_live_victims_only() {
        let registry = Registry::new(64);
        let mut mb = registry.client_mailbox().expect("mailbox");
        registry.register(TxnId(7), CcMethod::TwoPhaseLocking, &mut mb);
        assert_eq!(
            registry.method_of(TxnId(7)),
            Some(CcMethod::TwoPhaseLocking)
        );
        assert_eq!(registry.method_of(TxnId(8)), None);
        assert!(registry.signal_deadlock(TxnId(7)));
        assert!(!registry.signal_deadlock(TxnId(8)));
        assert!(
            !registry.signal_deadlock(TxnId(7)),
            "an incarnation is signalled once"
        );
        assert!(matches!(
            recv_now(&mut mb, 7),
            Some(ClientEvent::DeadlockVictim)
        ));
        assert!(recv_now(&mut mb, 7).is_none());
        assert_eq!(
            registry.method_of(TxnId(7)),
            Some(CcMethod::TwoPhaseLocking),
            "the flag shares a word with the method and leaves it alone"
        );
        registry.deregister(TxnId(7));
    }

    /// The waited-on marks: an announced edge marks its holder and asks
    /// for a scan exactly when its waiter is already marked; marks and the
    /// signalled flag are born clear with the next incarnation on the same
    /// mailbox.
    #[test]
    fn a_marked_waiter_raises_the_scan_request() {
        let registry = Registry::new(64);
        let mut mb1 = registry.client_mailbox().expect("mailbox");
        let mut mb2 = registry.client_mailbox().expect("mailbox");
        registry.register(TxnId(1), CcMethod::TwoPhaseLocking, &mut mb1);
        registry.register(TxnId(2), CcMethod::PrecedenceAgreement, &mut mb2);
        assert!(
            !registry.note_wait(TxnId(1), TxnId(2)),
            "T1 has nobody behind"
        );
        assert!(!registry.scan_requested());
        assert!(registry.note_wait(TxnId(2), TxnId(1)), "T2 has: T1");
        assert!(registry.take_scan_request());
        assert!(!registry.take_scan_request(), "taken is taken");
        assert!(
            registry.note_wait(TxnId(2), TxnId(9)),
            "whoever T2 waits for"
        );
        assert!(
            !registry.note_wait(TxnId(9), TxnId(8)),
            "strangers carry no mark"
        );
        assert_eq!(
            registry.method_of(TxnId(2)),
            Some(CcMethod::PrecedenceAgreement)
        );

        assert!(registry.signal_deadlock(TxnId(1)));
        registry.deregister(TxnId(1));
        registry.register(TxnId(3), CcMethod::TwoPhaseLocking, &mut mb1);
        assert!(
            !registry.note_wait(TxnId(3), TxnId(2)),
            "T3 inherits T1's mailbox, not its mark"
        );
        assert!(registry.signal_deadlock(TxnId(3)), "nor its signalled flag");
        registry.deregister(TxnId(2));
        registry.deregister(TxnId(3));
    }

    /// The coalescing guarantee: one flush interleaving two transactions'
    /// replies — A,B,A,B,A,B — wakes each client exactly once, with its
    /// three replies grouped in order. Coalescing only consecutive runs
    /// would produce three events (three wakeups) per client for the same
    /// flush.
    #[test]
    fn interleaved_flush_coalesces_to_one_event_per_txn() {
        let registry = Registry::new(64);
        let mut mb_a = registry.client_mailbox().expect("mailbox");
        let mut mb_b = registry.client_mailbox().expect("mailbox");
        registry.register(TxnId(1), CcMethod::TwoPhaseLocking, &mut mb_a);
        registry.register(TxnId(2), CcMethod::TwoPhaseLocking, &mut mb_b);
        registry.deliver_all([
            reply_on(1, 10),
            reply_on(2, 20),
            reply_on(1, 11),
            reply_on(2, 21),
            reply_on(1, 12),
            reply_on(2, 22),
        ]);
        for (mb, txn, items) in [
            (&mut mb_a, 1u64, [10u64, 11, 12]),
            (&mut mb_b, 2, [20, 21, 22]),
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
        registry.deregister(TxnId(1));
        registry.deregister(TxnId(2));
    }

    /// A `DeadlockVictim` signal arriving between two reply flushes is
    /// neither lost nor reordered around them — the client observes
    /// replies, then the victim, then the later replies.
    #[test]
    fn victim_signal_keeps_its_place_between_reply_flushes() {
        let registry = Registry::new(64);
        let mut mb = registry.client_mailbox().expect("mailbox");
        registry.register(TxnId(5), CcMethod::TwoPhaseLocking, &mut mb);
        registry.deliver_all([reply_on(5, 1), reply_on(5, 2)]);
        assert!(registry.signal_deadlock(TxnId(5)));
        registry.deliver_all([reply_on(5, 3)]);
        let events = drain_events(&mut mb, 5);
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
        registry.deregister(TxnId(5));
    }

    /// A victim signal for an incarnation that restarted before the
    /// client consumed it must not leak into the next incarnation.
    #[test]
    fn stale_victim_signal_never_reaches_the_next_incarnation() {
        let registry = Registry::new(64);
        let mut mb = registry.client_mailbox().expect("mailbox");
        registry.register(TxnId(1), CcMethod::TwoPhaseLocking, &mut mb);
        assert!(registry.signal_deadlock(TxnId(1)));
        // The incarnation restarts without consuming the signal; the
        // same mailbox serves the next incarnation.
        registry.deregister(TxnId(1));
        registry.register(TxnId(2), CcMethod::TwoPhaseLocking, &mut mb);
        registry.deliver_all([reply(2)]);
        let events = drain_events(&mut mb, 2);
        assert_eq!(events.len(), 1);
        assert!(
            matches!(events[0], ClientEvent::Replies(_)),
            "the stale victim must have been discarded, not delivered"
        );
        registry.deregister(TxnId(2));
    }
}
