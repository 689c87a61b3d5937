//! Reusable reply mailboxes and the slab registry that binds keys to them.
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
//! * **Mailboxes** — each [`Mailbox`] wraps one bounded [`crate::ring`]
//!   (its consumer parks and is unparked by the delivering thread) owned
//!   by one consumer thread at a time. Mailboxes live in a slab and are
//!   *reused*: acquiring one pops a free slot off the freelist (a
//!   `Mutex<Vec<u32>>`) or lazily grows the slab by a chunk, dropping it
//!   pushes the slot back. No channel is ever allocated per registration.
//!   A receive that finds its mailbox empty polls it for up to
//!   [`crate::SPIN_WAIT`] before it parks: most replies are produced by a
//!   thread that is running right then (a client running another's
//!   command at a shard), and a parked consumer costs its deliverer an
//!   unpark and itself a wake-up. Each slot counts the receives the poll
//!   served ([`MailboxRegistry::spin_hits`]).
//! * **Addressing** — a `u64` key *carries* its mailbox's slot:
//!   [`MailboxRegistry::key`] mints `seq << slot_bits | slot`, where
//!   `slot_bits` is the width [`MailboxOptions::max_clients`] needs (16
//!   at the default 65,536) and `seq` is the caller's never-reused
//!   sequence number (the runtime's begin counter). Resolving a key is a
//!   bounds check of its slot field, a load of that slot's initialised
//!   chunk and a compare with the key the slot is bound to. There is no
//!   index and no registry-wide lock. A key that does not carry its
//!   mailbox's slot (a caller that brings its own numbering) still
//!   registers: it is found by scanning the slab's allocated slots, a
//!   scan skipped with one atomic load while no such registration is
//!   live.
//! * **The binding lock** — each slot keeps the key it is bound to and
//!   the caller's metadata for it behind one `Mutex`. Every delivery
//!   checks the key and pushes onto the ring inside one critical section
//!   of that lock, and [`MailboxRegistry::deregister`] clears the key
//!   under it, so once a deregister returns no event addressed to the
//!   old key can enter the ring. [`MailboxRegistry::register`] sweeps the
//!   ring of whatever the previous incarnation left there and binds the
//!   new key in one critical section. A later incarnation sharing the
//!   slot therefore never receives an earlier one's event — the
//!   simulator's "a stale reply for an aborted incarnation is dropped"
//!   rule, enforced by the producer — and events travel untagged. Keys
//!   must never be reused (their `seq` is a monotone counter), so a key
//!   names one incarnation. Locks are taken binding before ring, and a
//!   consumer a delivery must wake is unparked once the binding lock is
//!   released.
//!
//! Producers never wait unboundedly: a full mailbox whose binding is
//! live is waited on for space in short slices with the binding lock
//! released, the key re-checked before each push, until
//! [`MailboxOptions::deliver_timeout`] expires, at which point the event
//! is dropped and counted ([`MailboxRegistry::full_dropped`]) — a stalled
//! consumer can delay a delivering thread, never wedge it, and a deregister
//! never queues behind a waiting delivery. The same bound applies to
//! [`MailboxRegistry::acquire`]: once `max_clients` mailboxes are
//! simultaneously held, waiting past [`MailboxOptions::acquire_timeout`]
//! returns [`SlabExhausted`] instead of blocking forever.
//!
//! [`MailboxOptions::sweep_on_register`] exists solely so the race-test
//! suite can *disable* the register-time sweep and demonstrate that the
//! leak it guards against is real: with the sweep off, an event an
//! earlier key left queued surfaces in a later incarnation sharing the
//! slot.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use crate::ring::{self, RingReceiver, RingSender, TrySendError};
use crate::{spin_until, SPIN_WAIT};

/// One lazily initialised slab chunk of mailbox slots.
type SlotChunk<E> = OnceLock<Box<[Slot<E>]>>;

/// Slots per lazily initialised slab chunk.
const CHUNK: usize = 64;

/// Hard cap on slab slots: a key keeps at least 40 bits of `seq`.
const MAX_SLOTS: usize = 1 << 24;

/// Longest a delivery waits for space in a full mailbox before it
/// re-checks the binding: a registration torn down mid-wait drops the
/// event within one slice.
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
    /// Total time a delivery may wait on a full, live mailbox before
    /// dropping the event and counting it
    /// ([`MailboxRegistry::full_dropped`]). Zero means "drop as soon as
    /// the first try finds the mailbox full".
    pub deliver_timeout: Duration,
    /// The register-time sweep of the stale-event guard (see the module
    /// docs). `false` is a test-only mutation switch that skips it, so an
    /// event an earlier key left queued reaches the next incarnation on
    /// the slot.
    pub sweep_on_register: bool,
}

impl Default for MailboxOptions {
    fn default() -> Self {
        MailboxOptions {
            mailbox_capacity: 256,
            max_clients: 65536,
            acquire_timeout: Duration::from_secs(5),
            deliver_timeout: Duration::from_secs(1),
            sweep_on_register: true,
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

/// What a slot is bound to.
struct Binding {
    /// The live key (0 = unbound).
    key: u64,
    /// Caller-defined registration metadata (the runtime stores the
    /// concurrency-control method and the deadlock detector's flags).
    meta: u64,
}

/// One slab slot: a ring whose sender side is shared by every producer
/// and whose receiver side is held by the current [`Mailbox`] owner (and
/// parked here between owners), and the binding every push happens
/// under.
struct Slot<E> {
    tx: RingSender<E>,
    rx: Mutex<Option<RingReceiver<E>>>,
    binding: Mutex<Binding>,
    /// Receives on this slot's mailbox that the bounded poll served
    /// without parking (written by the mailbox's owner only).
    spin_hits: AtomicU64,
}

impl<E> Slot<E> {
    fn lock(&self) -> MutexGuard<'_, Binding> {
        // Every critical section leaves the binding consistent (a panicking
        // `update_meta` closure leaves the word unchanged), so a poisoned
        // lock holds valid data.
        self.binding.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

struct Shared<E> {
    /// The slab, grown lazily chunk by chunk (readers index initialised
    /// chunks without any lock).
    chunks: Box<[SlotChunk<E>]>,
    /// Slots handed out so far (high-water mark; freed slots recycle
    /// through the freelist, not this counter). Each claim is one
    /// read-modify-write and each chunk is published by its `OnceLock`, so
    /// `Relaxed` suffices; a scan for a key reads at least the claim of
    /// the slot the key was registered on, as for `unaddressed`.
    allocated: AtomicUsize,
    max_slots: usize,
    /// Width of a key's slot field.
    slot_bits: u32,
    /// Released slot indices, reused last-in first-out before the slab
    /// grows.
    free: Mutex<Vec<u32>>,
    /// Live registrations (a statistic: `Relaxed`).
    live: AtomicUsize,
    /// Live registrations whose key does not carry their slot — while
    /// nonzero, a key its slot field does not resolve is looked for
    /// across the slab. Changed under the binding lock of the slot it
    /// counts, so a registration's increment precedes its decrement. A
    /// producer learns a key only after its `register` returned, so even
    /// a `Relaxed` load sees that increment or a later value, and the
    /// count stays nonzero until that key is deregistered.
    unaddressed: AtomicUsize,
    /// Events an earlier incarnation left queued, discarded when the
    /// mailbox is swept (at register and on drop).
    stale_dropped: AtomicU64,
    /// Deliveries dropped because a live mailbox stayed full past
    /// `deliver_timeout`.
    full_dropped: AtomicU64,
    mailbox_capacity: usize,
    acquire_timeout: Duration,
    deliver_timeout: Duration,
    sweep_on_register: bool,
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

    /// The slot `key` is bound to and its index, with the binding locked:
    /// the slot `key`'s low bits name, else — while an unaddressed
    /// registration is live — whichever allocated slot holds it. Holds at
    /// most one binding lock at a time.
    fn lock_bound(&self, key: u64) -> Option<(usize, &Slot<E>, MutexGuard<'_, Binding>)> {
        if key == 0 {
            return None;
        }
        let bound_at = |idx: usize| {
            let slot = self.slot_at(idx)?;
            let binding = slot.lock();
            (binding.key == key).then_some((idx, slot, binding))
        };
        bound_at(self.addressed(key)).or_else(|| {
            if self.unaddressed.load(Ordering::Relaxed) == 0 {
                return None;
            }
            let held = self.allocated.load(Ordering::Relaxed).min(self.max_slots);
            (0..held).find_map(bound_at)
        })
    }

    /// Clear the binding of slot `idx`, if it holds a key.
    fn unbind(&self, idx: usize, mut binding: MutexGuard<'_, Binding>) {
        if binding.key == 0 {
            return;
        }
        if self.addressed(binding.key) != idx {
            self.unaddressed.fetch_sub(1, Ordering::Relaxed);
        }
        binding.key = 0;
        self.live.fetch_sub(1, Ordering::Relaxed);
    }

    /// The one copy of delivery: push `event` under live `key`'s binding
    /// lock, waiting for space with the lock released until `timeout`
    /// (see [`MailboxRegistry::deliver`]).
    fn deliver(&self, key: u64, mut event: E, timeout: Duration) -> bool {
        let mut deadline = None;
        loop {
            let Some((_, slot, binding)) = self.lock_bound(key) else {
                return false;
            };
            let pushed = slot.tx.try_send_deferred(event);
            drop(binding);
            match pushed {
                Ok(consumer) => {
                    if let Some(consumer) = consumer {
                        consumer.unpark();
                    }
                    return true;
                }
                // Unreachable while the slab is alive (it owns every
                // receiver), but a dropped registry is not an error.
                Err(TrySendError::Disconnected(_)) => return false,
                Err(TrySendError::Full(back)) => event = back,
            }
            // The clock starts only once the mailbox was found full: the
            // common delivery reads none.
            let deadline = *deadline.get_or_insert_with(|| Instant::now() + timeout);
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                self.full_dropped.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            slot.tx.wait_for_space(Some(left.min(FULL_NAP)));
        }
    }

    fn freelist_push(&self, idx: u32) {
        self.free.lock().expect("freelist poisoned").push(idx);
    }

    fn freelist_pop(&self) -> Option<u32> {
        self.free.lock().expect("freelist poisoned").pop()
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
            free: Mutex::new(Vec::new()),
            live: AtomicUsize::new(0),
            unaddressed: AtomicUsize::new(0),
            stale_dropped: AtomicU64::new(0),
            full_dropped: AtomicU64::new(0),
            mailbox_capacity: opts.mailbox_capacity.max(4),
            acquire_timeout: opts.acquire_timeout,
            deliver_timeout: opts.deliver_timeout,
            sweep_on_register: opts.sweep_on_register,
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
            let n = shared.allocated.fetch_add(1, Ordering::Relaxed);
            if n < shared.max_slots {
                shared.chunks[n / CHUNK].get_or_init(|| {
                    (0..CHUNK)
                        .map(|_| {
                            let (tx, rx) = ring::channel(shared.mailbox_capacity);
                            Slot {
                                tx,
                                rx: Mutex::new(Some(rx)),
                                binding: Mutex::new(Binding { key: 0, meta: 0 }),
                                spin_hits: AtomicU64::new(0),
                            }
                        })
                        .collect()
                });
                break n as u32;
            }
            // Slab exhausted: hand the claim back and wait (bounded) for
            // a release.
            shared.allocated.fetch_sub(1, Ordering::Relaxed);
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
        })
    }

    /// Bind `key` (nonzero, never reused; minted by
    /// [`MailboxRegistry::key`] for `mailbox.slot()` unless the caller
    /// accepts the unaddressed scan) to `mailbox`, whose previous key
    /// must be deregistered, with caller metadata. Under the slot's
    /// binding lock, sweeps the mailbox of the previous incarnation's
    /// leftovers (unless the sweep is mutation-disabled), then binds. Must
    /// complete before any event addressed to `key` can be produced — the
    /// runtime registers before the incarnation's first request message
    /// leaves the client thread.
    pub fn register(&self, key: u64, meta: u64, mailbox: &mut Mailbox<E>) {
        debug_assert!(key != 0, "key 0 is the unbound sentinel");
        debug_assert!(
            Arc::ptr_eq(&self.shared, &mailbox.shared),
            "mailbox belongs to a different registry"
        );
        let shared = &self.shared;
        let mut binding = shared.slot(mailbox.slot).lock();
        debug_assert_eq!(binding.key, 0, "mailbox re-registered while bound");
        if shared.sweep_on_register {
            mailbox.clear();
        }
        if shared.addressed(key) != mailbox.slot as usize {
            shared.unaddressed.fetch_add(1, Ordering::Relaxed);
        }
        *binding = Binding { key, meta };
        shared.live.fetch_add(1, Ordering::Relaxed);
    }

    /// Tear down `key`'s registration. Once this returns, deliveries for
    /// it are no-ops and none is still on its way into the mailbox.
    pub fn deregister(&self, key: u64) {
        if let Some((idx, _, binding)) = self.shared.lock_bound(key) {
            self.shared.unbind(idx, binding);
        }
    }

    /// Route an event to the mailbox `key` is bound to. Returns `false`
    /// — dropping the event — when the key is not live, which is exactly
    /// the simulator's stale-reply rule. A full mailbox with a live
    /// binding is waited on for space until `deliver_timeout`, after
    /// which the event is dropped and counted
    /// ([`MailboxRegistry::full_dropped`]); a full mailbox whose binding
    /// dies mid-wait drops the event within one 50 µs wait slice.
    pub fn deliver(&self, key: u64, event: E) -> bool {
        self.shared.deliver(key, event, self.shared.deliver_timeout)
    }

    /// Like [`MailboxRegistry::deliver`] but never waits on a full
    /// mailbox: the event is dropped (returning `false`) instead, and —
    /// while `key` is still bound — counted like a timed-out wait
    /// ([`MailboxRegistry::full_dropped`]). Required whenever the
    /// delivering thread might *be* the mailbox's consumer — waiting on
    /// a ring only oneself can drain would deadlock — and useful for
    /// best-effort signals.
    pub fn try_deliver(&self, key: u64, event: E) -> bool {
        self.shared.deliver(key, event, Duration::ZERO)
    }

    /// The metadata `key` was registered with, if it is live.
    pub fn resolve_meta(&self, key: u64) -> Option<u64> {
        self.update_meta(key, |_| None)
    }

    /// Replace the metadata of live `key` by `update(meta)` (`update`
    /// returning `None` leaves it alone) and return the metadata found —
    /// `None` when `key` is not live. `update` runs under the slot's
    /// binding lock, so it sees and changes the metadata of `key`'s own
    /// registration only, and the critical sections of every call on one
    /// key are totally ordered.
    pub fn update_meta(&self, key: u64, update: impl FnOnce(u64) -> Option<u64>) -> Option<u64> {
        let (_, _, mut binding) = self.shared.lock_bound(key)?;
        let found = binding.meta;
        if let Some(next) = update(found) {
            binding.meta = next;
        }
        Some(found)
    }

    /// Live registrations.
    pub fn len(&self) -> usize {
        self.shared.live.load(Ordering::Relaxed)
    }

    /// True when no key is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stale events swept out of mailboxes so far (at register and when
    /// a mailbox is dropped).
    pub fn stale_dropped(&self) -> u64 {
        self.shared.stale_dropped.load(Ordering::Relaxed)
    }

    /// Deliveries dropped because a live mailbox stayed full past
    /// `deliver_timeout` — nonzero means a consumer stalled long enough
    /// to cost it replies (the runtime's restart machinery recovers).
    pub fn full_dropped(&self) -> u64 {
        self.shared.full_dropped.load(Ordering::Relaxed)
    }

    /// Receives that found their mailbox empty and got an event within
    /// the bounded poll, without parking — summed over every slot.
    pub fn spin_hits(&self) -> u64 {
        let shared = &self.shared;
        let held = shared
            .allocated
            .load(Ordering::Relaxed)
            .min(shared.max_slots);
        (0..held)
            .filter_map(|idx| shared.slot_at(idx))
            .map(|slot| slot.spin_hits.load(Ordering::Relaxed))
            .sum()
    }
}

/// One reusable reply mailbox, owned by a single consumer thread at a
/// time. Dropping it sweeps leftovers and returns the slot to the slab.
pub struct Mailbox<E> {
    shared: Arc<Shared<E>>,
    slot: u32,
    /// Taken out of the slot while owned; parked back on drop.
    rx: Option<RingReceiver<E>>,
    /// Events drained from the ring but not yet handed to the consumer.
    pending: VecDeque<E>,
}

impl<E> Mailbox<E> {
    /// The slab slot this mailbox occupies (stable across incarnations
    /// for as long as the mailbox is held) — the low bits of every key
    /// [`MailboxRegistry::key`] mints for it.
    pub fn slot(&self) -> u32 {
        self.slot
    }

    /// Receive the next event, waiting up to `timeout`; `None` on
    /// timeout. An empty mailbox is polled for up to [`SPIN_WAIT`] (or
    /// `timeout`, if shorter) before the receiver parks, and a receive the
    /// poll served is counted ([`MailboxRegistry::spin_hits`]). `key`
    /// names the incarnation the caller waits for and is not consulted:
    /// no event for another key enters the ring once that key is
    /// deregistered, and register sweeps what it left queued.
    pub fn recv_timeout(&mut self, _key: u64, timeout: Duration) -> Option<E> {
        let rx = self.rx.as_mut().expect("owned mailbox holds its receiver");
        let pending = &mut self.pending;
        if pending.is_empty() && rx.drain_into(pending) == 0 {
            if spin_until(SPIN_WAIT.min(timeout), || rx.drain_into(pending) > 0) {
                let slot = self.shared.slot(self.slot);
                slot.spin_hits.fetch_add(1, Ordering::Relaxed);
            } else {
                // The slab owns a sender, so the ring never disconnects.
                let _ = rx.drain_for(pending, timeout);
            }
        }
        self.pending.pop_front()
    }

    /// Discard everything queued (ring and local buffer), counting the
    /// discards as stale drops.
    pub fn clear(&mut self) {
        let rx = self.rx.as_mut().expect("owned mailbox holds its receiver");
        rx.drain_into(&mut self.pending);
        let swept = self.pending.len() as u64;
        self.pending.clear();
        if swept > 0 {
            self.shared
                .stale_dropped
                .fetch_add(swept, Ordering::Relaxed);
        }
    }
}

impl<E> Drop for Mailbox<E> {
    fn drop(&mut self) {
        // Defensive teardown: a mailbox dropped while its key is still
        // registered (a panicking client) unbinds it so the slot's next
        // owner cannot inherit the registration.
        let shared = &self.shared;
        shared.unbind(self.slot as usize, shared.slot(self.slot).lock());
        // Sweep leftovers so their payloads do not outlive this owner —
        // counted like every other stale discard.
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
        assert_eq!(reg.shared.unaddressed.load(Ordering::Relaxed), 0);
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

    /// The race the binding lock closes: a delivery for an old key that
    /// is waiting for space while the slot is rebound re-checks the key
    /// before it pushes, so its event never reaches the new incarnation,
    /// and the old key's leftovers are swept and counted.
    #[test]
    fn a_delivery_in_flight_across_a_rebind_never_reaches_the_new_key() {
        let reg = registry(MailboxOptions {
            deliver_timeout: Duration::from_secs(30),
            ..small() // capacity 8
        });
        let mut mb = reg.acquire().unwrap();
        let (k1, k2) = (key(&reg, 1, &mb), key(&reg, 2, &mb));
        reg.register(k1, 0, &mut mb);
        for i in 0..8 {
            assert!(reg.deliver(k1, i));
        }
        // Full: this delivery waits for space with the binding released.
        let late = std::thread::spawn({
            let reg = reg.clone();
            move || reg.deliver(k1, 999)
        });
        let ring = &reg.shared.slot(mb.slot()).tx;
        while ring.waiting_producers() == 0 {
            std::thread::yield_now();
        }
        reg.deregister(k1);
        // The sweep frees the ring and wakes the waiting delivery.
        reg.register(k2, 0, &mut mb);
        assert!(!late.join().unwrap(), "the old key's delivery is refused");
        assert!(reg.deliver(k2, 20));
        assert_eq!(mb.recv_timeout(k2, Duration::from_secs(1)), Some(20));
        assert_eq!(
            mb.recv_timeout(k2, Duration::from_millis(20)),
            None,
            "the stale event never entered the ring"
        );
        assert_eq!(reg.stale_dropped(), 8, "the sweep counted the leftovers");
        assert_eq!(reg.full_dropped(), 0, "a dead binding is not a full drop");
        reg.deregister(k2);
    }

    #[test]
    fn disabling_the_tag_leaks_the_stale_event() {
        // The mutation check: the identical sequence with the
        // register-time sweep disabled hands the earlier incarnation's
        // event to the later one.
        let reg = registry(MailboxOptions {
            sweep_on_register: false,
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
            "without the sweep, the stale reply reaches the new incarnation"
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
        let reg = registry(MailboxOptions {
            deliver_timeout: Duration::from_secs(30),
            ..small() // capacity 8
        });
        let mut mb = reg.acquire().unwrap();
        let k = key(&reg, 1, &mb);
        reg.register(k, 0, &mut mb);
        for i in 0..8 {
            assert!(reg.deliver(k, i));
        }
        // Ring full. Kill the binding from another thread after a beat —
        // the delivery must give up within one wait slice of it, not sit
        // out its 30 s bound.
        let t = std::thread::spawn({
            let reg = reg.clone();
            move || {
                std::thread::sleep(Duration::from_millis(20));
                reg.deregister(k);
                Instant::now()
            }
        });
        assert!(!reg.deliver(k, 99));
        let returned = Instant::now();
        let deregistered = t.join().unwrap();
        // One FULL_NAP slice plus room for a loaded scheduler.
        let late = returned.saturating_duration_since(deregistered);
        assert!(
            late < FULL_NAP + Duration::from_millis(200),
            "returned {late:?} after the deregister"
        );
        assert_eq!(reg.full_dropped(), 0, "a dead binding is not a full drop");
    }

    #[test]
    fn full_live_mailbox_drops_after_the_bounded_wait() {
        let reg = registry(MailboxOptions {
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

    /// Only a receive that found the mailbox empty and was served by the
    /// poll counts: an event already queued is no wait, and a receive
    /// that times out parked after its poll.
    #[test]
    fn a_receive_counts_as_a_spin_hit_only_when_the_poll_served_it() {
        let reg = registry(small());
        let mut mb = reg.acquire().unwrap();
        let k = key(&reg, 1, &mb);
        reg.register(k, 0, &mut mb);
        assert!(reg.deliver(k, 1));
        assert_eq!(mb.recv_timeout(k, Duration::from_secs(1)), Some(1));
        let begun = Instant::now();
        assert_eq!(mb.recv_timeout(k, Duration::from_millis(20)), None);
        assert!(begun.elapsed() >= Duration::from_millis(20), "it parked");
        assert_eq!(mb.recv_timeout(k, Duration::ZERO), None);
        assert_eq!(reg.spin_hits(), 0);
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
