//! Reusable reply mailboxes and the generation-tagged slab registry.
//!
//! The reply half of the message plane. Where [`crate::ring`] carries
//! commands *towards* a single consumer (a shard), this module carries
//! events *back* to many waiting clients — and does it without the two
//! costs the naive design pays per transaction: allocating a fresh
//! channel for every incarnation, and resolving the recipient under a
//! global registry mutex.
//!
//! Three pieces:
//!
//! * **Mailboxes** — each [`Mailbox`] wraps one bounded MPSC ring
//!   (the same Vyukov sequence-stamped slots and park/unpark handshake
//!   as [`crate::ring`]) owned by one consumer thread at a time.
//!   Mailboxes live in a slab and are *reused*: acquiring one pops a
//!   free slot off a lock-free freelist (or lazily grows the slab by a
//!   chunk), dropping it pushes the slot back. No channel is ever
//!   allocated per registration.
//! * **Addressing** — a `u64` key *carries* its mailbox's slot:
//!   [`MailboxRegistry::key`] mints `seq << slot_bits | slot`, where
//!   `slot_bits` is the width [`MailboxOptions::max_clients`] needs (16
//!   at the default 65,536) and `seq` is the caller's never-reused
//!   sequence number (the runtime's begin counter). Resolving a key is a
//!   bounds check of its slot field, a load of that slot's initialised
//!   chunk and a compare with the key the slot is bound to; register is
//!   two stores, deregister one CAS. There is no index and no lock on
//!   any of them. A key that does not carry its mailbox's slot (a caller
//!   that brings its own numbering) still registers: it is found by
//!   scanning the slab's allocated slots, a scan skipped with one atomic
//!   load while no such registration is live.
//! * **The generation tag** — slots are reused by later transactions,
//!   and a delivery can race the slot's rebinding: the producer checks
//!   that the slot is bound to its key, the old registration is torn
//!   down, a new one binds the same slot, and only then does the
//!   producer's push land. To keep the simulator's "a stale reply for an
//!   aborted incarnation is dropped" rule under that race, every event
//!   travels through the mailbox *tagged with the key it was addressed
//!   to*, and the consumer discards any event whose tag is not the key
//!   it is currently waiting on. Keys must never be reused (their `seq`
//!   is a monotone counter), which makes the key its own perfect
//!   incarnation tag. Registering a new key also sweeps the mailbox of
//!   leftovers from the previous incarnation, bounding occupancy to one
//!   incarnation's traffic plus in-flight races.
//!
//! Producers never wait unboundedly: a full mailbox whose binding is
//! live is spun on briefly, then parked in short naps until
//! [`MailboxOptions::deliver_timeout`] expires, at which point the
//! event is dropped and counted ([`MailboxRegistry::full_dropped`]) —
//! a stalled consumer can delay a shard thread, never wedge it. The
//! same bound applies to [`MailboxRegistry::acquire`]: once
//! `max_clients` mailboxes are simultaneously held, waiting past
//! [`MailboxOptions::acquire_timeout`] returns [`SlabExhausted`]
//! instead of blocking forever.
//!
//! [`MailboxOptions::tag_check`] exists solely so the race-test suite
//! can *disable* the tag machinery (no consumer filtering, no sweep on
//! register) and demonstrate that the races it guards against are real:
//! with the tag off, a delayed delivery for an earlier key observably
//! surfaces in a later incarnation sharing the slot.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use crate::ring::{self, RingReceiver, RingSender, TrySendError};

/// One lazily initialised slab chunk of mailbox slots.
type SlotChunk<E> = OnceLock<Box<[Slot<E>]>>;

/// Slots per lazily initialised slab chunk.
const CHUNK: usize = 64;

/// Hard cap on slab slots: a key keeps at least 40 bits of `seq`.
const MAX_SLOTS: usize = 1 << 24;

/// Freelist "no head" sentinel.
const NO_SLOT: u64 = u32::MAX as u64;

/// Nap length once a full-mailbox delivery has exhausted its spin
/// budget and moved to timed waiting.
const FULL_NAP: Duration = Duration::from_micros(50);

/// Tuning knobs for a [`MailboxRegistry`].
#[derive(Debug, Clone, Copy)]
pub struct MailboxOptions {
    /// Bounded capacity of each mailbox ring. Must exceed the events one
    /// incarnation can have outstanding while its consumer is not
    /// draining (for the runtime: replies to every in-flight request),
    /// or producers wait out — and past `deliver_timeout`, drop on —
    /// the full mailbox.
    pub mailbox_capacity: usize,
    /// Maximum concurrently acquired mailboxes. The slab grows towards
    /// this in chunks of 64; acquiring past it waits (bounded by
    /// `acquire_timeout`) for a release. Also sizes the slot field of
    /// every key ([`MailboxRegistry::key`]).
    pub max_clients: usize,
    /// How long [`MailboxRegistry::acquire`] may wait for a mailbox to
    /// be released once all `max_clients` are held before returning
    /// [`SlabExhausted`].
    pub acquire_timeout: Duration,
    /// Spin iterations a delivery burns on a full mailbox with a live
    /// binding before falling back to timed naps (the consumer drains
    /// whole rings per wakeup, so in practice the spin alone absorbs
    /// one scheduling quantum).
    pub deliver_spin: u32,
    /// Total time a delivery may wait on a full, live mailbox before
    /// dropping the event and counting it
    /// ([`MailboxRegistry::full_dropped`]). Zero means "drop as soon as
    /// the spin budget is exhausted".
    pub deliver_timeout: Duration,
    /// The stale-event guard (see the module docs). `false` is a
    /// test-only mutation switch that disables consumer-side tag
    /// filtering *and* the sweep-on-register, modelling a registry
    /// without incarnation tags.
    pub tag_check: bool,
}

impl Default for MailboxOptions {
    fn default() -> Self {
        MailboxOptions {
            mailbox_capacity: 256,
            max_clients: 65536,
            acquire_timeout: Duration::from_secs(5),
            deliver_spin: 64,
            deliver_timeout: Duration::from_secs(1),
            tag_check: true,
        }
    }
}

/// Error returned by [`MailboxRegistry::acquire`] when every one of the
/// registry's `max_clients` mailboxes stayed held for the whole
/// `acquire_timeout`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlabExhausted {
    /// The registry's `max_clients` setting at the time of the failure.
    pub max_clients: usize,
    /// How long the acquire waited before giving up.
    pub waited: Duration,
}

impl fmt::Display for SlabExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reply-mailbox slab exhausted: all {} mailboxes stayed held for {:?} \
             (raise MailboxOptions::max_clients or release mailboxes sooner)",
            self.max_clients, self.waited
        )
    }
}

impl std::error::Error for SlabExhausted {}

/// One slab slot: a ring whose sender side is shared by every producer
/// and whose receiver side is held by the current [`Mailbox`] owner (and
/// parked here between owners).
struct Slot<E> {
    tx: RingSender<(u64, E)>,
    rx: Mutex<Option<RingReceiver<(u64, E)>>>,
    /// The key currently bound to this slot (0 = unbound) — what a key
    /// resolving to this slot is compared with. Producers re-check it
    /// before waiting on a full ring so deliveries to a dead
    /// registration are dropped, never waited on.
    bound: AtomicU64,
    /// Caller-defined registration metadata (the runtime stores the
    /// concurrency-control method for the deadlock detector).
    meta: AtomicU64,
    /// Freelist link (slot index, [`NO_SLOT`] terminated).
    next_free: AtomicU64,
}

struct Shared<E> {
    /// The slab, grown lazily chunk by chunk (readers index initialised
    /// chunks without any lock).
    chunks: Box<[SlotChunk<E>]>,
    /// Slots handed out so far (high-water mark; freed slots recycle
    /// through the freelist, not this counter).
    allocated: AtomicUsize,
    max_slots: usize,
    /// Width of a key's slot field.
    slot_bits: u32,
    /// Treiber stack of free slot indices: `(version₃₂ | index₃₂)`, the
    /// version incremented on every successful swing to defeat ABA.
    free_head: AtomicU64,
    /// Live registrations.
    live: AtomicUsize,
    /// Live registrations whose key does not carry their slot — while
    /// nonzero, a key its slot field does not resolve is looked for
    /// across the slab.
    unaddressed: AtomicUsize,
    /// Stale events discarded by consumers (tag mismatches plus
    /// sweep-on-register leftovers) — the observable count of the
    /// drop-stale-replies rule firing.
    stale_dropped: AtomicU64,
    /// Deliveries dropped because a live mailbox stayed full past
    /// `deliver_timeout`.
    full_dropped: AtomicU64,
    mailbox_capacity: usize,
    acquire_timeout: Duration,
    deliver_spin: u32,
    deliver_timeout: Duration,
    tag_check: bool,
}

impl<E> Shared<E> {
    /// An acquired slot (its chunk is initialised by construction).
    fn slot(&self, idx: u32) -> &Slot<E> {
        self.slot_at(idx as usize)
            .expect("slot chunk initialised before use")
    }

    /// The slot at `idx`, if that index is inside the slab and its chunk
    /// was initialised.
    fn slot_at(&self, idx: usize) -> Option<&Slot<E>> {
        let chunk = self.chunks.get(idx / CHUNK)?.get()?;
        Some(&chunk[idx % CHUNK])
    }

    /// The slot index a key's low bits name.
    fn addressed(&self, key: u64) -> usize {
        (key & ((1 << self.slot_bits) - 1)) as usize
    }

    /// The slot `key` is bound to, if it is live.
    fn resolve(&self, key: u64) -> Option<&Slot<E>> {
        self.resolve_addressed(key)
            .or_else(|| self.resolve_unaddressed(key))
    }

    /// The slot `key`'s low bits name, if `key` is bound there.
    fn resolve_addressed(&self, key: u64) -> Option<&Slot<E>> {
        self.slot_at(self.addressed(key))
            .filter(|slot| key != 0 && slot.bound.load(Ordering::SeqCst) == key)
    }

    /// Whichever allocated slot `key` is bound to — looked for only while
    /// an unaddressed registration is live.
    fn resolve_unaddressed(&self, key: u64) -> Option<&Slot<E>> {
        if key == 0 || self.unaddressed.load(Ordering::SeqCst) == 0 {
            return None;
        }
        let held = self.allocated.load(Ordering::SeqCst).min(self.max_slots);
        (0..held)
            .filter_map(|idx| self.slot_at(idx))
            .find(|slot| slot.bound.load(Ordering::SeqCst) == key)
    }

    fn deregister(&self, key: u64) {
        let addressed = self.resolve_addressed(key);
        let Some(slot) = addressed.or_else(|| self.resolve_unaddressed(key)) else {
            return;
        };
        // Losing the CAS means a racing deregister of the same key
        // already unbound it — only the winner decrements the counts.
        if slot
            .bound
            .compare_exchange(key, 0, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            if addressed.is_none() {
                self.unaddressed.fetch_sub(1, Ordering::SeqCst);
            }
            self.live.fetch_sub(1, Ordering::SeqCst);
        }
    }

    fn freelist_push(&self, idx: u32) {
        loop {
            let head = self.free_head.load(Ordering::SeqCst);
            self.slot(idx)
                .next_free
                .store(head & 0xFFFF_FFFF, Ordering::SeqCst);
            let next = ((head >> 32).wrapping_add(1)) << 32 | idx as u64;
            if self
                .free_head
                .compare_exchange(head, next, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return;
            }
        }
    }

    fn freelist_pop(&self) -> Option<u32> {
        loop {
            let head = self.free_head.load(Ordering::SeqCst);
            let idx = head & 0xFFFF_FFFF;
            if idx == NO_SLOT {
                return None;
            }
            let next = self.slot(idx as u32).next_free.load(Ordering::SeqCst);
            let new = ((head >> 32).wrapping_add(1)) << 32 | next;
            if self
                .free_head
                .compare_exchange(head, new, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return Some(idx as u32);
            }
        }
    }
}

/// The shared reply registry: a slab of reusable mailboxes addressed by
/// the keys themselves. Cheap to share via the handles it hands out; see
/// the module docs for the design.
pub struct MailboxRegistry<E> {
    shared: Arc<Shared<E>>,
}

impl<E: Send> Default for MailboxRegistry<E> {
    fn default() -> Self {
        MailboxRegistry::new()
    }
}

impl<E: Send> MailboxRegistry<E> {
    /// A registry with [`MailboxOptions::default`].
    pub fn new() -> Self {
        MailboxRegistry::with_options(MailboxOptions::default())
    }

    /// A registry with explicit tuning.
    pub fn with_options(opts: MailboxOptions) -> Self {
        let max_slots = opts.max_clients.clamp(1, MAX_SLOTS);
        let shared = Arc::new(Shared {
            chunks: (0..max_slots.div_ceil(CHUNK))
                .map(|_| OnceLock::new())
                .collect(),
            allocated: AtomicUsize::new(0),
            max_slots,
            slot_bits: max_slots.next_power_of_two().trailing_zeros(),
            free_head: AtomicU64::new(NO_SLOT),
            live: AtomicUsize::new(0),
            unaddressed: AtomicUsize::new(0),
            stale_dropped: AtomicU64::new(0),
            full_dropped: AtomicU64::new(0),
            mailbox_capacity: opts.mailbox_capacity.max(4),
            acquire_timeout: opts.acquire_timeout,
            deliver_spin: opts.deliver_spin,
            deliver_timeout: opts.deliver_timeout,
            tag_check: opts.tag_check,
        });
        MailboxRegistry { shared }
    }

    /// The key addressing mailbox `slot` for the caller's `seq`-th
    /// registration: `seq << slot_bits | slot`. Keys keep `seq`'s order,
    /// and `seq` must never be reused (key 0 is the unbound sentinel, so
    /// `seq` starts at 1). `None` once `seq` exceeds
    /// [`MailboxRegistry::max_seq`] — keys never wrap.
    pub fn key(&self, seq: u64, slot: u32) -> Option<u64> {
        debug_assert!(
            (slot as usize) < self.shared.max_slots,
            "slot {slot} outside the slab"
        );
        (seq <= self.max_seq()).then(|| seq << self.shared.slot_bits | slot as u64)
    }

    /// The `seq` a [`MailboxRegistry::key`] was minted from.
    pub fn seq_of(&self, key: u64) -> u64 {
        key >> self.shared.slot_bits
    }

    /// The largest `seq` a key can carry: `u64::MAX` shifted right by the
    /// slot field's width.
    pub fn max_seq(&self) -> u64 {
        u64::MAX >> self.shared.slot_bits
    }

    /// Take a mailbox out of the slab: a freelist pop when one is free, a
    /// lazily initialised chunk slot otherwise. Waits only when
    /// `max_clients` mailboxes are simultaneously held, and no longer
    /// than `acquire_timeout` before failing with [`SlabExhausted`].
    pub fn acquire(&self) -> Result<Mailbox<E>, SlabExhausted> {
        let shared = &self.shared;
        let mut deadline: Option<Instant> = None;
        let mut waits = 0u32;
        let slot = loop {
            if let Some(idx) = shared.freelist_pop() {
                break idx;
            }
            let n = shared.allocated.fetch_add(1, Ordering::SeqCst);
            if n < shared.max_slots {
                shared.chunks[n / CHUNK].get_or_init(|| {
                    (0..CHUNK)
                        .map(|_| {
                            let (tx, rx) = ring::channel(shared.mailbox_capacity);
                            Slot {
                                tx,
                                rx: Mutex::new(Some(rx)),
                                bound: AtomicU64::new(0),
                                meta: AtomicU64::new(0),
                                next_free: AtomicU64::new(NO_SLOT),
                            }
                        })
                        .collect()
                });
                break n as u32;
            }
            // Slab exhausted: hand the claim back and wait (bounded) for
            // a release.
            shared.allocated.fetch_sub(1, Ordering::SeqCst);
            let deadline = *deadline.get_or_insert_with(|| Instant::now() + shared.acquire_timeout);
            if Instant::now() >= deadline {
                return Err(SlabExhausted {
                    max_clients: shared.max_slots,
                    waited: shared.acquire_timeout,
                });
            }
            waits += 1;
            if waits <= 64 {
                thread::yield_now();
            } else {
                thread::sleep(Duration::from_micros(100));
            }
        };
        let rx = shared
            .slot(slot)
            .rx
            .lock()
            .expect("slot receiver poisoned")
            .take()
            .expect("a free slot parks its receiver");
        Ok(Mailbox {
            shared: Arc::clone(shared),
            slot,
            rx: Some(rx),
            pending: VecDeque::new(),
            scratch: Vec::new(),
        })
    }

    /// Bind `key` (nonzero, never reused; minted by
    /// [`MailboxRegistry::key`] for `mailbox.slot()` unless the caller
    /// accepts the unaddressed scan) to `mailbox`, whose previous key
    /// must be deregistered, with caller metadata. Sweeps the mailbox of
    /// the previous incarnation's leftovers first (unless the tag
    /// machinery is mutation-disabled). Must complete before any event
    /// addressed to `key` can be produced — the runtime registers before
    /// the incarnation's first request message leaves the client thread.
    pub fn register(&self, key: u64, meta: u64, mailbox: &mut Mailbox<E>) {
        debug_assert!(key != 0, "key 0 is the unbound sentinel");
        debug_assert!(
            Arc::ptr_eq(&self.shared, &mailbox.shared),
            "mailbox belongs to a different registry"
        );
        let shared = &self.shared;
        if shared.tag_check {
            mailbox.clear();
        }
        let slot = shared.slot(mailbox.slot);
        debug_assert_eq!(
            slot.bound.load(Ordering::SeqCst),
            0,
            "mailbox re-registered while bound"
        );
        if shared.addressed(key) != mailbox.slot as usize {
            shared.unaddressed.fetch_add(1, Ordering::SeqCst);
        }
        slot.meta.store(meta, Ordering::SeqCst);
        slot.bound.store(key, Ordering::SeqCst);
        shared.live.fetch_add(1, Ordering::SeqCst);
    }

    /// Tear down `key`'s registration. Deliveries for it become no-ops;
    /// anything already in (or racing into) the mailbox is discarded by
    /// the consumer's tag filter.
    pub fn deregister(&self, key: u64) {
        self.shared.deregister(key);
    }

    /// Route an event to the mailbox `key` is bound to. Returns `false`
    /// — dropping the event — when the key is not live, which is exactly
    /// the simulator's stale-reply rule. A full mailbox with a live
    /// binding is spun on briefly, then napped on until
    /// `deliver_timeout`, after which the event is dropped and counted
    /// ([`MailboxRegistry::full_dropped`]); a full mailbox whose binding
    /// died mid-wait drops the event immediately.
    pub fn deliver(&self, key: u64, event: E) -> bool {
        let shared = &self.shared;
        let Some(slot) = shared.resolve(key) else {
            return false;
        };
        let mut tagged = (key, event);
        let mut spins = 0u32;
        let mut deadline: Option<Instant> = None;
        loop {
            match slot.tx.try_send(tagged) {
                Ok(()) => return true,
                Err(TrySendError::Full(v)) => {
                    if slot.bound.load(Ordering::SeqCst) != key {
                        return false;
                    }
                    tagged = v;
                    spins += 1;
                    if spins <= shared.deliver_spin {
                        thread::yield_now();
                    } else {
                        let deadline = *deadline
                            .get_or_insert_with(|| Instant::now() + shared.deliver_timeout);
                        if Instant::now() >= deadline {
                            shared.full_dropped.fetch_add(1, Ordering::Relaxed);
                            return false;
                        }
                        thread::sleep(FULL_NAP);
                    }
                }
                // Unreachable while the slab is alive (it owns a sender),
                // but a dropped registry mid-delivery is not an error.
                Err(TrySendError::Disconnected(_)) => return false,
            }
        }
    }

    /// Like [`MailboxRegistry::deliver`] but never waits on a full
    /// mailbox: the event is dropped (returning `false`) instead, and —
    /// while `key` is still bound — counted like a timed-out wait
    /// ([`MailboxRegistry::full_dropped`]). Required whenever the
    /// delivering thread might *be* the mailbox's consumer — waiting on
    /// a ring only oneself can drain would deadlock — and useful for
    /// best-effort signals.
    pub fn try_deliver(&self, key: u64, event: E) -> bool {
        let shared = &self.shared;
        let Some(slot) = shared.resolve(key) else {
            return false;
        };
        match slot.tx.try_send((key, event)) {
            Ok(()) => true,
            Err(TrySendError::Full(_)) => {
                if slot.bound.load(Ordering::SeqCst) == key {
                    shared.full_dropped.fetch_add(1, Ordering::Relaxed);
                }
                false
            }
            Err(TrySendError::Disconnected(_)) => false,
        }
    }

    /// The metadata `key` was registered with, if it is live.
    pub fn resolve_meta(&self, key: u64) -> Option<u64> {
        let slot = self.shared.resolve(key)?;
        let meta = slot.meta.load(Ordering::SeqCst);
        // Re-check the binding so a slot rebound between the resolve and
        // the meta load cannot attribute the new key's metadata to the old.
        (slot.bound.load(Ordering::SeqCst) == key).then_some(meta)
    }

    /// Replace the metadata of live `key` by `update(meta)` in one atomic
    /// step (`update` returning `None` leaves it alone) and return the
    /// metadata found — `None` when `key` is not live. Every access is
    /// `SeqCst`, so an update and a later [`MailboxRegistry::resolve_meta`]
    /// on one thread are never reordered against the same pair on another.
    ///
    /// The slot may be rebound between the resolve and the swap; the swap
    /// then fails only if the two registrations' metadata differ, so a
    /// caller that must never touch a later registration keeps something
    /// unique to the registration (the runtime: the key's `seq`) in the
    /// metadata and has `update` check it.
    pub fn update_meta(&self, key: u64, mut update: impl FnMut(u64) -> Option<u64>) -> Option<u64> {
        let slot = self.shared.resolve(key)?;
        let mut meta = slot.meta.load(Ordering::SeqCst);
        loop {
            if slot.bound.load(Ordering::SeqCst) != key {
                return None;
            }
            let Some(next) = update(meta) else {
                return Some(meta);
            };
            match slot
                .meta
                .compare_exchange(meta, next, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return Some(meta),
                Err(found) => meta = found,
            }
        }
    }

    /// Live registrations.
    pub fn len(&self) -> usize {
        self.shared.live.load(Ordering::SeqCst)
    }

    /// True when no key is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stale events consumers have discarded so far (tag mismatches and
    /// register-time sweeps).
    pub fn stale_dropped(&self) -> u64 {
        self.shared.stale_dropped.load(Ordering::Relaxed)
    }

    /// Deliveries dropped because a live mailbox stayed full past
    /// `deliver_timeout` — nonzero means a consumer stalled long enough
    /// to cost it replies (the runtime's restart machinery recovers).
    pub fn full_dropped(&self) -> u64 {
        self.shared.full_dropped.load(Ordering::Relaxed)
    }
}

/// One reusable reply mailbox, owned by a single consumer thread at a
/// time. Dropping it sweeps leftovers and returns the slot to the slab.
pub struct Mailbox<E> {
    shared: Arc<Shared<E>>,
    slot: u32,
    /// Taken out of the slot while owned; parked back on drop.
    rx: Option<RingReceiver<(u64, E)>>,
    /// Events drained from the ring but not yet handed to the consumer.
    pending: VecDeque<(u64, E)>,
    scratch: Vec<(u64, E)>,
}

impl<E> Mailbox<E> {
    /// The slab slot this mailbox occupies (stable across incarnations
    /// for as long as the mailbox is held) — the low bits of every key
    /// [`MailboxRegistry::key`] mints for it.
    pub fn slot(&self) -> u32 {
        self.slot
    }

    /// Receive the next event addressed to `key`, parking up to
    /// `timeout`. Events tagged with any other key are stale leftovers
    /// or in-flight races from earlier incarnations of this slot; they
    /// are discarded and counted. Returns `None` on timeout.
    pub fn recv_timeout(&mut self, key: u64, timeout: Duration) -> Option<E> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            while let Some((tag, event)) = self.pending.pop_front() {
                if tag == key || !self.shared.tag_check {
                    return Some(event);
                }
                self.shared.stale_dropped.fetch_add(1, Ordering::Relaxed);
            }
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            let rx = self.rx.as_mut().expect("owned mailbox holds its receiver");
            self.scratch.clear();
            let drained = rx.drain_for(&mut self.scratch, left).unwrap_or(0);
            self.pending.extend(self.scratch.drain(..));
            if drained == 0 {
                return None;
            }
        }
    }

    /// Discard everything queued (ring and local buffer), counting the
    /// discards as stale drops.
    pub fn clear(&mut self) {
        let mut swept = self.pending.len() as u64;
        self.pending.clear();
        let rx = self.rx.as_mut().expect("owned mailbox holds its receiver");
        self.scratch.clear();
        while rx.drain_into(&mut self.scratch) > 0 {
            swept += self.scratch.len() as u64;
            self.scratch.clear();
        }
        if swept > 0 {
            self.shared
                .stale_dropped
                .fetch_add(swept, Ordering::Relaxed);
        }
    }

    /// Events currently buffered consumer-side (diagnostics for tests).
    pub fn buffered(&self) -> usize {
        self.pending.len()
    }
}

impl<E> Drop for Mailbox<E> {
    fn drop(&mut self) {
        // Defensive teardown: a mailbox dropped while its key is still
        // registered (a panicking client) unbinds it so the slot's next
        // owner cannot inherit the registration.
        let key = self.shared.slot(self.slot).bound.load(Ordering::SeqCst);
        if key != 0 {
            self.shared.deregister(key);
        }
        // Sweep leftovers so their payloads do not outlive this owner —
        // counted like every other consumer-side stale discard.
        self.clear();
        let slot = self.shared.slot(self.slot);
        *slot.rx.lock().expect("slot receiver poisoned") = self.rx.take();
        self.shared.freelist_push(self.slot);
    }
}

impl<E: Send> Clone for MailboxRegistry<E> {
    fn clone(&self) -> Self {
        MailboxRegistry {
            shared: Arc::clone(&self.shared),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry(opts: MailboxOptions) -> MailboxRegistry<u64> {
        MailboxRegistry::with_options(opts)
    }

    fn small() -> MailboxOptions {
        MailboxOptions {
            mailbox_capacity: 8,
            max_clients: 8,
            ..MailboxOptions::default()
        }
    }

    /// The key of `mb`'s `seq`-th registration.
    fn key(reg: &MailboxRegistry<u64>, seq: u64, mb: &Mailbox<u64>) -> u64 {
        reg.key(seq, mb.slot()).expect("seq fits")
    }

    #[test]
    fn register_deliver_receive_deregister_roundtrip() {
        let reg = registry(small());
        let mut mb = reg.acquire().unwrap();
        let k = key(&reg, 7, &mb);
        reg.register(k, 42, &mut mb);
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.resolve_meta(k), Some(42));
        assert!(reg.deliver(k, 700));
        assert_eq!(mb.recv_timeout(k, Duration::from_secs(1)), Some(700));
        reg.deregister(k);
        assert_eq!(reg.len(), 0);
        assert_eq!(reg.resolve_meta(k), None);
        assert!(!reg.deliver(k, 701), "stale delivery is a no-op");
    }

    #[test]
    fn keys_carry_their_slot_and_keep_seq_order() {
        let reg = registry(MailboxOptions::default());
        assert_eq!(
            reg.max_seq(),
            u64::MAX >> 16,
            "65,536 clients: 16 slot bits"
        );
        let k = reg.key(3, 5).unwrap();
        assert_eq!(k, 3 << 16 | 5);
        assert_eq!(reg.seq_of(k), 3);
        assert!(reg.key(2, 65_535).unwrap() < reg.key(3, 0).unwrap());
        assert!(reg.key(reg.max_seq(), 0).is_some());
        assert_eq!(
            reg.key(reg.max_seq() + 1, 0),
            None,
            "seq exhaustion never wraps"
        );
    }

    #[test]
    fn update_meta_swaps_live_metadata_only() {
        let reg = registry(small());
        let mut mb = reg.acquire().unwrap();
        let (k7, k8, k9) = (key(&reg, 7, &mb), key(&reg, 8, &mb), key(&reg, 9, &mb));
        reg.register(k7, 0b01, &mut mb);
        assert_eq!(reg.update_meta(k7, |meta| Some(meta | 0b10)), Some(0b01));
        assert_eq!(reg.resolve_meta(k7), Some(0b11));
        // `None` from the closure leaves the word alone and still reports it.
        assert_eq!(reg.update_meta(k7, |_| None), Some(0b11));
        assert_eq!(reg.update_meta(k8, |_| Some(0)), None, "never registered");
        reg.deregister(k7);
        assert_eq!(reg.update_meta(k7, |_| Some(0)), None, "no longer live");
        reg.register(k9, 0b01, &mut mb);
        assert_eq!(
            reg.resolve_meta(k9),
            Some(0b01),
            "the next key starts fresh"
        );
    }

    /// Keys that do not address a live registration — a slot beyond the
    /// slab, a slot in a chunk never initialised, a slot rebound to a
    /// newer key — are refused by every entry point, and none panics.
    #[test]
    fn forged_and_stale_keys_are_refused() {
        // 129 clients: 8 slot bits (256 addresses) over a 3-chunk slab.
        let reg = registry(MailboxOptions {
            max_clients: 129,
            ..small()
        });
        let mut mb = reg.acquire().unwrap();
        let old = key(&reg, 1, &mb);
        reg.register(old, 5, &mut mb);
        reg.deregister(old);
        let new = key(&reg, 2, &mb);
        reg.register(new, 6, &mut mb);
        let beyond_slab = 3 << 8 | 200; // chunk 3 of 3
        let uninitialised_chunk = 3 << 8 | 150; // chunk 2, never acquired
        for forged in [beyond_slab, uninitialised_chunk, old, 0] {
            assert!(!reg.deliver(forged, 1), "{forged:#x}: deliver");
            assert!(!reg.try_deliver(forged, 1), "{forged:#x}: try_deliver");
            assert_eq!(reg.resolve_meta(forged), None, "{forged:#x}: resolve_meta");
            assert_eq!(
                reg.update_meta(forged, |_| Some(0)),
                None,
                "{forged:#x}: update_meta"
            );
            reg.deregister(forged);
        }
        assert_eq!(reg.len(), 1, "no forged deregister touched the live key");
        assert_eq!(reg.resolve_meta(new), Some(6));
        assert_eq!(reg.full_dropped(), 0);
        reg.deregister(new);
    }

    /// A caller with its own key numbering (keys that do not carry the
    /// mailbox's slot) still registers, delivers and deregisters — found
    /// by the slab scan, which is idle again once they are gone.
    #[test]
    fn unaddressed_keys_still_route() {
        let reg = registry(small());
        let mut a = reg.acquire().unwrap();
        let mut b = reg.acquire().unwrap();
        reg.register(1, 10, &mut a); // addresses slot 1, held by `b`
        reg.register(2, 20, &mut b); // addresses slot 2, never acquired
        assert!(reg.deliver(1, 100));
        assert!(reg.deliver(2, 200));
        assert_eq!(a.recv_timeout(1, Duration::from_secs(1)), Some(100));
        assert_eq!(b.recv_timeout(2, Duration::from_secs(1)), Some(200));
        assert_eq!(reg.resolve_meta(1), Some(10));
        reg.deregister(1);
        reg.deregister(2);
        assert_eq!(reg.len(), 0);
        assert_eq!(reg.shared.unaddressed.load(Ordering::SeqCst), 0);
        assert!(!reg.deliver(1, 101), "stale delivery is a no-op");
    }

    #[test]
    fn slot_reuse_discards_earlier_incarnations_events() {
        let reg = registry(small());
        let mut mb = reg.acquire().unwrap();
        let (k1, k2) = (key(&reg, 1, &mb), key(&reg, 2, &mb));
        reg.register(k1, 0, &mut mb);
        assert!(reg.deliver(k1, 10));
        assert!(reg.deliver(k1, 11));
        // Consume only one of the two; the other is left in the ring.
        assert_eq!(mb.recv_timeout(k1, Duration::from_secs(1)), Some(10));
        reg.deregister(k1);
        // Next incarnation on the *same* mailbox: the leftover for key 1
        // is swept at register time and never surfaces.
        reg.register(k2, 0, &mut mb);
        assert!(reg.deliver(k2, 20));
        assert_eq!(mb.recv_timeout(k2, Duration::from_secs(1)), Some(20));
        assert!(reg.stale_dropped() >= 1, "the leftover was counted");
        reg.deregister(k2);
    }

    #[test]
    fn tag_filter_drops_in_flight_stale_events() {
        // Simulate the delivery/rebind race directly: an event tagged
        // with the old key lands *after* the new registration's sweep.
        let reg = registry(small());
        let mut mb = reg.acquire().unwrap();
        let (k1, k2) = (key(&reg, 1, &mb), key(&reg, 2, &mb));
        reg.register(k1, 0, &mut mb);
        reg.deregister(k1);
        reg.register(k2, 0, &mut mb);
        // Push through the slot's sender exactly as a racing deliver
        // whose binding check passed before the deregister would.
        let slot = reg.shared.slot(mb.slot());
        slot.tx.try_send((k1, 999)).unwrap();
        assert!(reg.deliver(k2, 20));
        assert_eq!(
            mb.recv_timeout(k2, Duration::from_secs(1)),
            Some(20),
            "the stale event must be filtered, not returned"
        );
        assert!(reg.stale_dropped() >= 1);
        reg.deregister(k2);
    }

    #[test]
    fn disabling_the_tag_leaks_the_stale_event() {
        // The mutation check: the identical sequence with the tag
        // machinery disabled hands the earlier incarnation's event to
        // the later one.
        let reg = registry(MailboxOptions {
            tag_check: false,
            ..small()
        });
        let mut mb = reg.acquire().unwrap();
        let (k1, k2) = (key(&reg, 1, &mb), key(&reg, 2, &mb));
        reg.register(k1, 0, &mut mb);
        assert!(reg.deliver(k1, 999));
        reg.deregister(k1);
        reg.register(k2, 0, &mut mb);
        assert!(reg.deliver(k2, 20));
        assert_eq!(
            mb.recv_timeout(k2, Duration::from_secs(1)),
            Some(999),
            "without the tag, the stale reply reaches the new incarnation"
        );
        reg.deregister(k2);
    }

    #[test]
    fn mailboxes_recycle_through_the_freelist() {
        let reg = registry(small());
        let first = reg.acquire().unwrap();
        let first_slot = first.slot();
        drop(first);
        let second = reg.acquire().unwrap();
        assert_eq!(
            second.slot(),
            first_slot,
            "a released slot is reused before the slab grows"
        );
        let third = reg.acquire().unwrap();
        assert_ne!(third.slot(), second.slot());
    }

    #[test]
    fn try_deliver_drops_on_full_instead_of_waiting() {
        let reg = registry(small()); // capacity 8
        let mut mb = reg.acquire().unwrap();
        let k = key(&reg, 1, &mb);
        reg.register(k, 0, &mut mb);
        for i in 0..8 {
            assert!(reg.try_deliver(k, i));
        }
        assert!(!reg.try_deliver(k, 99), "full mailbox: dropped, no wait");
        assert_eq!(reg.full_dropped(), 1, "and counted");
        assert_eq!(mb.recv_timeout(k, Duration::from_secs(1)), Some(0));
        assert!(reg.try_deliver(k, 8), "freed slot accepts again");
        reg.deregister(k);
        assert!(!reg.try_deliver(k, 9), "stale delivery is a no-op");
    }

    #[test]
    fn full_mailbox_with_dead_binding_drops_instead_of_spinning() {
        let reg = registry(small()); // capacity 8
        let mut mb = reg.acquire().unwrap();
        let k = key(&reg, 1, &mb);
        reg.register(k, 0, &mut mb);
        for i in 0..8 {
            assert!(reg.deliver(k, i));
        }
        // Ring full. Kill the binding from another thread after a beat —
        // the delivery must return false rather than spin forever.
        let t = std::thread::spawn({
            let reg = reg.clone();
            move || {
                std::thread::sleep(Duration::from_millis(20));
                reg.deregister(k);
            }
        });
        assert!(!reg.deliver(k, 99));
        t.join().unwrap();
        assert_eq!(reg.full_dropped(), 0, "a dead binding is not a full drop");
    }

    #[test]
    fn full_live_mailbox_drops_after_the_bounded_wait() {
        let reg = registry(MailboxOptions {
            deliver_spin: 4,
            deliver_timeout: Duration::from_millis(25),
            ..small()
        });
        let mut mb = reg.acquire().unwrap();
        let k = key(&reg, 1, &mb);
        reg.register(k, 0, &mut mb);
        for i in 0..8 {
            assert!(reg.deliver(k, i));
        }
        // The binding stays live and the consumer never drains: the
        // delivery must come back within the bound, counted.
        let begun = Instant::now();
        assert!(!reg.deliver(k, 99));
        assert!(
            begun.elapsed() < Duration::from_secs(2),
            "the wait is bounded"
        );
        assert_eq!(reg.full_dropped(), 1);
        assert_eq!(mb.recv_timeout(k, Duration::from_secs(1)), Some(0));
        reg.deregister(k);
    }

    #[test]
    fn dropping_a_registered_mailbox_deregisters_it() {
        let reg = registry(small());
        let mut mb = reg.acquire().unwrap();
        let k = key(&reg, 3, &mb);
        reg.register(k, 9, &mut mb);
        drop(mb);
        assert_eq!(reg.len(), 0, "drop tears the registration down");
        assert!(!reg.deliver(k, 1));
    }

    #[test]
    fn acquire_waits_for_a_release_when_the_slab_is_full() {
        let reg = Arc::new(registry(MailboxOptions {
            max_clients: 1,
            ..small()
        }));
        let held = reg.acquire().unwrap();
        let reg2 = Arc::clone(&reg);
        let waiter = std::thread::spawn(move || reg2.acquire().unwrap().slot());
        std::thread::sleep(Duration::from_millis(20));
        drop(held);
        assert_eq!(waiter.join().unwrap(), 0, "the lone slot is recycled");
    }

    #[test]
    fn acquire_fails_with_a_clear_error_once_the_wait_expires() {
        let reg = registry(MailboxOptions {
            max_clients: 1,
            acquire_timeout: Duration::from_millis(30),
            ..small()
        });
        let _held = reg.acquire().unwrap();
        let begun = Instant::now();
        let err = match reg.acquire() {
            Ok(_) => panic!("acquire must fail while the lone mailbox is held"),
            Err(err) => err,
        };
        assert!(begun.elapsed() >= Duration::from_millis(30));
        assert_eq!(err.max_clients, 1);
        let msg = err.to_string();
        assert!(
            msg.contains("all 1 mailboxes") && msg.contains("max_clients"),
            "error names the limit: {msg}"
        );
    }
}
