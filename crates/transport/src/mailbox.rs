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
//! * **The resizable index** — [`MailboxRegistry`] maps a live `u64`
//!   key (the runtime uses the transaction id) to its mailbox slot
//!   through a chain of power-of-two tables of packed atomic entries.
//!   Register is one CAS into the newest table, deliver is one pointer
//!   load plus one bucket load on the fast path, deregister is one CAS.
//!   No lock is taken on any of them. When live registrations approach
//!   the newest table's load-factor threshold — or two live keys
//!   collide on one of its buckets — a doubled table is installed with
//!   one pointer CAS and subsequent registers land there; entries in
//!   older tables stay put and are found by walking the (short,
//!   `prev`-linked) chain until their keys deregister, draining the old
//!   generations passively. Growth stops at
//!   [`MailboxOptions::index_max_capacity`]; only a collision at that
//!   cap spills into the mutex-guarded overflow map, and overflow
//!   entries migrate back onto the lock-free tables as soon as growth
//!   or a deregistration frees their bucket. The map is skipped
//!   entirely (one atomic load) while it is empty — the overwhelmingly
//!   common case.
//! * **The generation tag** — slots are reused by later transactions,
//!   and a delivery can race the slot's rebinding: the producer resolves
//!   key → slot, the old registration is torn down, a new one binds the
//!   same slot, and only then does the producer's push land. To keep the
//!   simulator's "a stale reply for an aborted incarnation is dropped"
//!   rule under that race, every event travels through the mailbox
//!   *tagged with the key it was addressed to*, and the consumer
//!   discards any event whose tag is not the key it is currently
//!   waiting on. Keys must never be reused (the runtime's transaction
//!   ids are a monotone counter), which makes the key its own perfect
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

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use crate::ring::{self, RingReceiver, RingSender, TrySendError};

/// One lazily initialised slab chunk of mailbox slots.
type SlotChunk<E> = OnceLock<Box<[Slot<E>]>>;

/// Slots per lazily initialised slab chunk.
const CHUNK: usize = 64;

/// A free index bucket. Packed entries put the key's low 40 bits in the
/// high bits and the slot in the low 24, so no valid entry is all-ones
/// (slots are capped below `0xFF_FFFF`).
const EMPTY: u64 = u64::MAX;

/// Slot bits in a packed index entry.
const SLOT_BITS: u32 = 24;

/// Key bits kept in an index entry for verification. Two distinct keys
/// collide only if they differ by a multiple of 2^40 — unreachable for
/// keys drawn from a counter.
const KEY_MASK: u64 = (1 << 40) - 1;

/// Hard cap on slab slots (24-bit slot field, all-ones reserved so a
/// packed entry can never equal [`EMPTY`]).
const MAX_SLOTS: usize = (1 << SLOT_BITS) - 1;

/// Freelist "no head" sentinel.
const NO_SLOT: u64 = u32::MAX as u64;

/// Nap length once a full-mailbox delivery has exhausted its spin
/// budget and moved to timed waiting.
const FULL_NAP: Duration = Duration::from_micros(50);

fn pack(key: u64, slot: u32) -> u64 {
    ((key & KEY_MASK) << SLOT_BITS) | slot as u64
}

fn entry_matches(entry: u64, key: u64) -> bool {
    entry != EMPTY && (entry >> SLOT_BITS) == (key & KEY_MASK)
}

fn entry_slot(entry: u64) -> u32 {
    (entry & ((1 << SLOT_BITS) - 1)) as u32
}

/// Tuning knobs for a [`MailboxRegistry`].
#[derive(Debug, Clone, Copy)]
pub struct MailboxOptions {
    /// Buckets in the *initial* lock-free key index table (rounded up to
    /// a power of two). The index doubles itself towards
    /// `index_max_capacity` as live registrations approach the current
    /// table's load-factor threshold or collide on a bucket, so this is
    /// a starting size, not a ceiling.
    pub index_capacity: usize,
    /// Ceiling on index growth (rounded up to a power of two, never
    /// below `index_capacity`). Only once the table is at this size do
    /// live bucket collisions spill to the mutex-guarded overflow map.
    pub index_max_capacity: usize,
    /// Bounded capacity of each mailbox ring. Must exceed the events one
    /// incarnation can have outstanding while its consumer is not
    /// draining (for the runtime: replies to every in-flight request),
    /// or producers wait out — and past `deliver_timeout`, drop on —
    /// the full mailbox.
    pub mailbox_capacity: usize,
    /// Maximum concurrently acquired mailboxes. The slab grows towards
    /// this in chunks of 64; acquiring past it waits (bounded by
    /// `acquire_timeout`) for a release.
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
            index_capacity: 1024,
            index_max_capacity: 1 << 20,
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

/// One generation of the key index: a power-of-two table of packed
/// `(key₄₀, slot₂₄)` entries, linked to the generation it replaced.
/// `prev` is fixed at construction and tables are only freed when the
/// whole registry drops, so readers walk the chain without any
/// reclamation protocol; superseded generations drain passively as
/// their keys deregister.
struct IndexTable {
    buckets: Box<[AtomicU64]>,
    mask: usize,
    /// Live-registration count at which a register in this table
    /// triggers growth (3/4 of capacity).
    grow_at: usize,
    prev: AtomicPtr<IndexTable>,
}

impl IndexTable {
    fn new(capacity: usize, prev: *mut IndexTable) -> Self {
        IndexTable {
            buckets: (0..capacity).map(|_| AtomicU64::new(EMPTY)).collect(),
            mask: capacity - 1,
            grow_at: capacity - capacity / 4,
            prev: AtomicPtr::new(prev),
        }
    }

    fn capacity(&self) -> usize {
        self.mask + 1
    }
}

/// Owner of the table chain: `head` points at the newest generation,
/// older generations hang off `prev`. Dropping it frees the chain.
struct IndexChain {
    head: AtomicPtr<IndexTable>,
}

impl IndexChain {
    fn new(capacity: usize) -> Self {
        let table = Box::into_raw(Box::new(IndexTable::new(capacity, std::ptr::null_mut())));
        IndexChain {
            head: AtomicPtr::new(table),
        }
    }
}

impl Drop for IndexChain {
    fn drop(&mut self) {
        let mut table = *self.head.get_mut();
        while !table.is_null() {
            // Tables are only ever published into this chain and never
            // unlinked while the registry is alive, so each is freed
            // exactly once here.
            let boxed = unsafe { Box::from_raw(table) };
            table = boxed.prev.load(Ordering::Relaxed);
        }
    }
}

/// One slab slot: a ring whose sender side is shared by every producer
/// and whose receiver side is held by the current [`Mailbox`] owner (and
/// parked here between owners).
struct Slot<E> {
    tx: RingSender<(u64, E)>,
    rx: Mutex<Option<RingReceiver<(u64, E)>>>,
    /// The key currently bound to this slot (0 = unbound). Producers
    /// re-check it before waiting on a full ring so deliveries to a
    /// dead registration are dropped, never waited on.
    bound: AtomicU64,
    /// Caller-defined registration metadata (the runtime stores the
    /// concurrency-control method for the deadlock detector).
    meta: AtomicU64,
    /// Freelist link (slot index, [`NO_SLOT`] terminated).
    next_free: AtomicU64,
}

struct Shared<E> {
    /// The resizable lock-free key index (see [`IndexTable`]).
    index: IndexChain,
    /// Growth ceiling for the index (power of two).
    index_max_capacity: usize,
    /// Completed index growths (generation counter).
    index_resizes: AtomicU64,
    /// Correctness net for live bucket collisions at `index_max_capacity`.
    overflow: Mutex<HashMap<u64, u32>>,
    /// Lets `lookup` skip the overflow mutex with one load while the map
    /// is empty (the overwhelmingly common case).
    overflow_len: AtomicUsize,
    /// The slab, grown lazily chunk by chunk (readers index initialised
    /// chunks without any lock).
    chunks: Box<[SlotChunk<E>]>,
    /// Slots handed out so far (high-water mark; freed slots recycle
    /// through the freelist, not this counter).
    allocated: AtomicUsize,
    max_slots: usize,
    /// Treiber stack of free slot indices: `(version₃₂ | index₃₂)`, the
    /// version incremented on every successful swing to defeat ABA.
    free_head: AtomicU64,
    /// Live registrations.
    live: AtomicUsize,
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
    fn slot(&self, idx: u32) -> &Slot<E> {
        let chunk = self.chunks[idx as usize / CHUNK]
            .get()
            .expect("slot chunk initialised before use");
        &chunk[idx as usize % CHUNK]
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

    /// The newest index generation. Tables live as long as the registry,
    /// so the borrow is safe for any caller holding `&self`.
    fn head_table(&self) -> &IndexTable {
        unsafe { &*self.index.head.load(Ordering::SeqCst) }
    }

    /// Resolve a key to its slot: one pointer load plus one bucket load
    /// on the fast path (key in the newest table), a short `prev`-chain
    /// walk for keys registered before a growth, the overflow map only
    /// while it is provably non-empty.
    fn lookup(&self, key: u64) -> Option<u32> {
        let mut table = self.index.head.load(Ordering::SeqCst);
        while !table.is_null() {
            let t = unsafe { &*table };
            let entry = t.buckets[(key as usize) & t.mask].load(Ordering::SeqCst);
            if entry_matches(entry, key) {
                return Some(entry_slot(entry));
            }
            table = t.prev.load(Ordering::SeqCst);
        }
        if self.overflow_len.load(Ordering::SeqCst) > 0 {
            return self
                .overflow
                .lock()
                .expect("overflow map poisoned")
                .get(&key)
                .copied();
        }
        None
    }

    /// Install a doubled table on top of `from`. A no-op when `from` is
    /// no longer the newest generation (someone else already grew) or
    /// the ceiling is reached. On success, overflow entries are given
    /// the chance to migrate into the fresh buckets.
    fn grow(&self, from: *mut IndexTable) {
        if self.index.head.load(Ordering::SeqCst) != from {
            return;
        }
        let capacity = unsafe { &*from }.capacity();
        if capacity >= self.index_max_capacity {
            return;
        }
        let raw = Box::into_raw(Box::new(IndexTable::new(capacity * 2, from)));
        match self
            .index
            .head
            .compare_exchange(from, raw, Ordering::SeqCst, Ordering::SeqCst)
        {
            Ok(_) => {
                self.index_resizes.fetch_add(1, Ordering::SeqCst);
                self.drain_overflow();
            }
            Err(_) => {
                // Lost the install race; the winner's table serves. Ours
                // was never published, so freeing it here is safe.
                drop(unsafe { Box::from_raw(raw) });
            }
        }
    }

    /// Move overflow-map entries whose bucket in the newest table is
    /// free back onto the lock-free path. The table insert happens
    /// *before* the map removal and both happen under the overflow
    /// lock, so a concurrent deregister either finds the key in the
    /// table, or misses, takes this lock, misses the map too — and its
    /// bounded chain rescan (ordered after this lock release) finds the
    /// migrated entry.
    fn drain_overflow(&self) {
        if self.overflow_len.load(Ordering::SeqCst) == 0 {
            return;
        }
        let mut map = self.overflow.lock().expect("overflow map poisoned");
        map.retain(|&key, &mut slot| {
            let t = self.head_table();
            let bucket = &t.buckets[(key as usize) & t.mask];
            if bucket
                .compare_exchange(EMPTY, pack(key, slot), Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                self.overflow_len.fetch_sub(1, Ordering::SeqCst);
                false
            } else {
                true
            }
        });
    }

    /// CAS `key`'s entry out of whichever generation holds it. `None`
    /// means the chain has no live entry for it (or a racing deregister
    /// of the same key won the CAS).
    fn remove_from_chain(&self, key: u64) -> Option<u32> {
        let mut table = self.index.head.load(Ordering::SeqCst);
        while !table.is_null() {
            let t = unsafe { &*table };
            let bucket = &t.buckets[(key as usize) & t.mask];
            let entry = bucket.load(Ordering::SeqCst);
            if entry_matches(entry, key) {
                // CAS, not a store: a concurrent register for a colliding
                // key must not be clobbered. (It cannot swing to another
                // entry for *our* key — keys are never reused.) Losing
                // the CAS means a racing deregister of the same key
                // already removed it — only the winner unbinds and
                // decrements `live`.
                return bucket
                    .compare_exchange(entry, EMPTY, Ordering::SeqCst, Ordering::SeqCst)
                    .ok()
                    .map(|_| entry_slot(entry));
            }
            table = t.prev.load(Ordering::SeqCst);
        }
        None
    }

    fn deregister(&self, key: u64) {
        // Two chain passes: a concurrent overflow→table migration can
        // move the key between our chain scan and our map check. The
        // migration inserts into the table before removing from the map
        // (both under the overflow lock we take below), so after a
        // locked map miss one rescan is guaranteed to see the entry.
        for pass in 0..2 {
            if let Some(slot) = self.remove_from_chain(key) {
                self.finish_deregister(key, slot);
                // Scrub the transient duplicate a migration may have
                // left in the map, then let waiting overflow entries
                // claim the bucket we just freed.
                self.scrub_overflow(key);
                self.drain_overflow();
                return;
            }
            if self.overflow_len.load(Ordering::SeqCst) > 0 {
                let removed = self
                    .overflow
                    .lock()
                    .expect("overflow map poisoned")
                    .remove(&key);
                if let Some(slot) = removed {
                    self.overflow_len.fetch_sub(1, Ordering::SeqCst);
                    self.finish_deregister(key, slot);
                    return;
                }
            } else if pass == 1 {
                return;
            }
        }
    }

    fn finish_deregister(&self, key: u64, slot: u32) {
        let _ = self
            .slot(slot)
            .bound
            .compare_exchange(key, 0, Ordering::SeqCst, Ordering::SeqCst);
        self.live.fetch_sub(1, Ordering::SeqCst);
    }

    /// Remove a possibly lingering overflow copy of `key` (the
    /// insert-before-remove window of [`Shared::drain_overflow`]).
    fn scrub_overflow(&self, key: u64) {
        if self.overflow_len.load(Ordering::SeqCst) == 0 {
            return;
        }
        let removed = self
            .overflow
            .lock()
            .expect("overflow map poisoned")
            .remove(&key);
        if removed.is_some() {
            self.overflow_len.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// The shared reply registry: a slab of reusable mailboxes plus the
/// resizable lock-free key index routing deliveries to them. Cheap to
/// share via the handles it hands out; see the module docs for the
/// design.
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
        let index_cap = opts.index_capacity.next_power_of_two().max(64);
        let index_max = opts.index_max_capacity.next_power_of_two().max(index_cap);
        let max_slots = opts.max_clients.clamp(1, MAX_SLOTS);
        let shared = Arc::new(Shared {
            index: IndexChain::new(index_cap),
            index_max_capacity: index_max,
            index_resizes: AtomicU64::new(0),
            overflow: Mutex::new(HashMap::new()),
            overflow_len: AtomicUsize::new(0),
            chunks: (0..max_slots.div_ceil(CHUNK))
                .map(|_| OnceLock::new())
                .collect(),
            allocated: AtomicUsize::new(0),
            max_slots,
            free_head: AtomicU64::new(NO_SLOT),
            live: AtomicUsize::new(0),
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

    /// Bind `key` (nonzero, never reused) to `mailbox` with caller
    /// metadata. Sweeps the mailbox of the previous incarnation's
    /// leftovers first (unless the tag machinery is mutation-disabled).
    /// Must complete before any event addressed to `key` can be produced
    /// — the runtime registers before the incarnation's first request
    /// message leaves the client thread.
    ///
    /// Returns `true` when the registration had to take the overflow-map
    /// path (a live bucket collision with the index already at
    /// `index_max_capacity`) — the signal callers use to observe the
    /// transition off the lock-free path.
    pub fn register(&self, key: u64, meta: u64, mailbox: &mut Mailbox<E>) -> bool {
        debug_assert!(key != 0, "key 0 is the unbound sentinel");
        debug_assert!(
            Arc::ptr_eq(&self.shared, &mailbox.shared),
            "mailbox belongs to a different registry"
        );
        let shared = &self.shared;
        if shared.tag_check {
            mailbox.clear();
        }
        debug_assert!(
            shared.lookup(key).is_none(),
            "key {key} registered while live"
        );
        let slot = shared.slot(mailbox.slot);
        slot.meta.store(meta, Ordering::SeqCst);
        slot.bound.store(key, Ordering::SeqCst);
        let packed = pack(key, mailbox.slot);
        let overflowed = loop {
            let head = shared.index.head.load(Ordering::SeqCst);
            let t = unsafe { &*head };
            if t.capacity() < shared.index_max_capacity
                && shared.live.load(Ordering::SeqCst) + 1 > t.grow_at
            {
                // Load factor reached: install a doubled generation and
                // retry there (amortised — the fast path stays one CAS).
                shared.grow(head);
                continue;
            }
            let bucket = &t.buckets[(key as usize) & t.mask];
            if bucket
                .compare_exchange(EMPTY, packed, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                break false;
            }
            // Bucket held by a live colliding key. Growth rehashes new
            // registrations across twice the buckets; only at the
            // ceiling does the overflow map become the slow home.
            if t.capacity() < shared.index_max_capacity {
                shared.grow(head);
                continue;
            }
            // The length counter is raised first so a resolver that
            // misses the chain checks the map from the moment the entry
            // exists.
            shared.overflow_len.fetch_add(1, Ordering::SeqCst);
            let prev = shared
                .overflow
                .lock()
                .expect("overflow map poisoned")
                .insert(key, mailbox.slot);
            debug_assert!(prev.is_none(), "key {key} registered while live");
            break true;
        };
        shared.live.fetch_add(1, Ordering::SeqCst);
        overflowed
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
        let Some(slot_idx) = shared.lookup(key) else {
            return false;
        };
        let slot = shared.slot(slot_idx);
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
        let Some(slot_idx) = shared.lookup(key) else {
            return false;
        };
        let slot = shared.slot(slot_idx);
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
        let shared = &self.shared;
        let slot_idx = shared.lookup(key)?;
        let slot = shared.slot(slot_idx);
        let meta = slot.meta.load(Ordering::SeqCst);
        // Re-check the binding so a slot rebound between lookup and the
        // meta load cannot attribute the new key's metadata to the old.
        (slot.bound.load(Ordering::SeqCst) == key).then_some(meta)
    }

    /// Replace the metadata of live `key` by `update(meta)` in one atomic
    /// step (`update` returning `None` leaves it alone) and return the
    /// metadata found — `None` when `key` is not live. Every access is
    /// `SeqCst`, so an update and a later [`MailboxRegistry::resolve_meta`]
    /// on one thread are never reordered against the same pair on another.
    ///
    /// The slot may be rebound between the lookup and the swap; the swap
    /// then fails only if the two registrations' metadata differ, so a
    /// caller that must never touch a later registration keeps something
    /// unique to the registration (the runtime: the key itself) in the
    /// metadata and has `update` check it.
    pub fn update_meta(&self, key: u64, mut update: impl FnMut(u64) -> Option<u64>) -> Option<u64> {
        let shared = &self.shared;
        let slot = shared.slot(shared.lookup(key)?);
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

    /// Buckets in the newest index generation.
    pub fn index_capacity(&self) -> usize {
        self.shared.head_table().capacity()
    }

    /// Completed index growths since construction.
    pub fn index_resizes(&self) -> u64 {
        self.shared.index_resizes.load(Ordering::SeqCst)
    }

    /// Registrations currently parked in the overflow map (live bucket
    /// collisions with the index at `index_max_capacity`). Diagnostics:
    /// nonzero is correct but means the ceiling is undersized for the
    /// live-key spread.
    pub fn overflow_entries(&self) -> usize {
        self.shared.overflow_len.load(Ordering::SeqCst)
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
    /// for as long as the mailbox is held).
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

    /// A small fixed-size index (growth disabled by the matching
    /// ceiling), matching the PR-4 behaviour most tests were written
    /// against.
    fn small() -> MailboxOptions {
        MailboxOptions {
            index_capacity: 64,
            index_max_capacity: 64,
            mailbox_capacity: 8,
            max_clients: 8,
            ..MailboxOptions::default()
        }
    }

    #[test]
    fn register_deliver_receive_deregister_roundtrip() {
        let reg = registry(small());
        let mut mb = reg.acquire().unwrap();
        reg.register(7, 42, &mut mb);
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.resolve_meta(7), Some(42));
        assert!(reg.deliver(7, 700));
        assert_eq!(mb.recv_timeout(7, Duration::from_secs(1)), Some(700));
        reg.deregister(7);
        assert_eq!(reg.len(), 0);
        assert_eq!(reg.resolve_meta(7), None);
        assert!(!reg.deliver(7, 701), "stale delivery is a no-op");
    }

    #[test]
    fn update_meta_swaps_live_metadata_only() {
        let reg = registry(small());
        let mut mb = reg.acquire().unwrap();
        reg.register(7, 0b01, &mut mb);
        assert_eq!(reg.update_meta(7, |meta| Some(meta | 0b10)), Some(0b01));
        assert_eq!(reg.resolve_meta(7), Some(0b11));
        // `None` from the closure leaves the word alone and still reports it.
        assert_eq!(reg.update_meta(7, |_| None), Some(0b11));
        assert_eq!(reg.update_meta(8, |_| Some(0)), None, "never registered");
        reg.deregister(7);
        assert_eq!(reg.update_meta(7, |_| Some(0)), None, "no longer live");
        reg.register(9, 0b01, &mut mb);
        assert_eq!(reg.resolve_meta(9), Some(0b01), "the next key starts fresh");
    }

    #[test]
    fn slot_reuse_discards_earlier_incarnations_events() {
        let reg = registry(small());
        let mut mb = reg.acquire().unwrap();
        reg.register(1, 0, &mut mb);
        assert!(reg.deliver(1, 10));
        assert!(reg.deliver(1, 11));
        // Consume only one of the two; the other is left in the ring.
        assert_eq!(mb.recv_timeout(1, Duration::from_secs(1)), Some(10));
        reg.deregister(1);
        // Next incarnation on the *same* mailbox: the leftover for key 1
        // is swept at register time and never surfaces.
        reg.register(2, 0, &mut mb);
        assert!(reg.deliver(2, 20));
        assert_eq!(mb.recv_timeout(2, Duration::from_secs(1)), Some(20));
        assert!(reg.stale_dropped() >= 1, "the leftover was counted");
        reg.deregister(2);
    }

    #[test]
    fn tag_filter_drops_in_flight_stale_events() {
        // Simulate the delivery/rebind race directly: an event tagged
        // with the old key lands *after* the new registration's sweep.
        let reg = registry(small());
        let mut mb = reg.acquire().unwrap();
        reg.register(1, 0, &mut mb);
        reg.deregister(1);
        reg.register(2, 0, &mut mb);
        // Push through the slot's sender exactly as a racing deliver
        // whose lookup resolved before the deregister would.
        let slot = reg.shared.slot(mb.slot());
        slot.tx.try_send((1, 999)).unwrap();
        assert!(reg.deliver(2, 20));
        assert_eq!(
            mb.recv_timeout(2, Duration::from_secs(1)),
            Some(20),
            "the stale event must be filtered, not returned"
        );
        assert!(reg.stale_dropped() >= 1);
        reg.deregister(2);
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
        reg.register(1, 0, &mut mb);
        assert!(reg.deliver(1, 999));
        reg.deregister(1);
        reg.register(2, 0, &mut mb);
        assert!(reg.deliver(2, 20));
        assert_eq!(
            mb.recv_timeout(2, Duration::from_secs(1)),
            Some(999),
            "without the tag, the stale reply reaches the new incarnation"
        );
        reg.deregister(2);
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
    fn colliding_live_keys_take_the_overflow_path_at_the_ceiling() {
        let reg = registry(small()); // index capacity 64 == ceiling
        let mut a = reg.acquire().unwrap();
        let mut b = reg.acquire().unwrap();
        // 5 and 69 share bucket 5 of a 64-bucket index.
        assert!(!reg.register(5, 0, &mut a));
        assert!(
            reg.register(69, 0, &mut b),
            "the collision at the ceiling is reported"
        );
        assert_eq!(reg.overflow_entries(), 1);
        assert!(reg.deliver(5, 50));
        assert!(reg.deliver(69, 690));
        assert_eq!(a.recv_timeout(5, Duration::from_secs(1)), Some(50));
        assert_eq!(b.recv_timeout(69, Duration::from_secs(1)), Some(690));
        reg.deregister(5);
        assert!(
            reg.deliver(69, 691),
            "overflow entry survives the other's deregister"
        );
        assert_eq!(b.recv_timeout(69, Duration::from_secs(1)), Some(691));
        reg.deregister(69);
        assert_eq!(reg.overflow_entries(), 0);
        assert_eq!(reg.len(), 0);
    }

    #[test]
    fn colliding_live_keys_grow_the_index_instead_of_overflowing() {
        let reg = registry(MailboxOptions {
            index_max_capacity: 1024,
            ..small()
        });
        let mut a = reg.acquire().unwrap();
        let mut b = reg.acquire().unwrap();
        // 5 and 69 collide in a 64-bucket table but not a 128-bucket one.
        assert!(!reg.register(5, 0, &mut a));
        assert!(!reg.register(69, 0, &mut b));
        assert_eq!(reg.overflow_entries(), 0, "growth absorbed the collision");
        assert!(reg.index_resizes() >= 1);
        assert!(reg.index_capacity() >= 128);
        // Key 5 lives in the superseded generation, 69 in the new one;
        // both stay deliverable through the chain.
        assert!(reg.deliver(5, 50));
        assert!(reg.deliver(69, 690));
        assert_eq!(a.recv_timeout(5, Duration::from_secs(1)), Some(50));
        assert_eq!(b.recv_timeout(69, Duration::from_secs(1)), Some(690));
        assert_eq!(reg.resolve_meta(5), Some(0));
        reg.deregister(5);
        reg.deregister(69);
        assert_eq!(reg.len(), 0);
    }

    #[test]
    fn load_factor_growth_keeps_a_dense_key_range_lock_free() {
        let reg = registry(MailboxOptions {
            index_capacity: 64,
            index_max_capacity: 1 << 12,
            mailbox_capacity: 4,
            max_clients: 256,
            ..MailboxOptions::default()
        });
        let mut boxes = Vec::new();
        for key in 1..=256u64 {
            let mut mb = reg.acquire().unwrap();
            assert!(
                !reg.register(key, key, &mut mb),
                "no overflow while growing"
            );
            boxes.push((key, mb));
        }
        assert_eq!(reg.len(), 256);
        assert_eq!(reg.overflow_entries(), 0);
        assert!(reg.index_resizes() >= 2, "64 buckets cannot hold 256 keys");
        assert!(reg.index_capacity() >= 512, "3/4 load factor at 256 live");
        // Every key — whichever generation holds it — delivers and
        // resolves.
        for (key, mb) in boxes.iter_mut() {
            assert_eq!(reg.resolve_meta(*key), Some(*key));
            assert!(reg.deliver(*key, *key * 10));
            assert_eq!(
                mb.recv_timeout(*key, Duration::from_secs(1)),
                Some(*key * 10)
            );
        }
        for (key, _) in &boxes {
            reg.deregister(*key);
        }
        assert_eq!(reg.len(), 0);
        let resizes = reg.index_resizes();
        drop(boxes);
        // New registrations land in the newest generation; no further
        // growth is needed at this population.
        let mut mb = reg.acquire().unwrap();
        assert!(!reg.register(1000, 0, &mut mb));
        assert_eq!(reg.index_resizes(), resizes);
        reg.deregister(1000);
    }

    #[test]
    fn overflow_entries_migrate_back_when_their_bucket_frees() {
        let reg = registry(small()); // 64 buckets, growth disabled
        let mut a = reg.acquire().unwrap();
        let mut b = reg.acquire().unwrap();
        reg.register(5, 0, &mut a);
        assert!(reg.register(69, 7, &mut b));
        assert_eq!(reg.overflow_entries(), 1);
        // Deregistering the bucket holder re-homes the overflow entry
        // onto the lock-free table.
        reg.deregister(5);
        assert_eq!(
            reg.overflow_entries(),
            0,
            "the freed bucket reclaimed the overflow entry"
        );
        assert_eq!(reg.len(), 1);
        assert!(reg.deliver(69, 690), "migrated entry still routes");
        assert_eq!(b.recv_timeout(69, Duration::from_secs(1)), Some(690));
        assert_eq!(reg.resolve_meta(69), Some(7));
        reg.deregister(69);
        assert_eq!(reg.len(), 0);
        assert_eq!(reg.overflow_entries(), 0);
    }

    #[test]
    fn try_deliver_drops_on_full_instead_of_waiting() {
        let reg = registry(small()); // capacity 8
        let mut mb = reg.acquire().unwrap();
        reg.register(1, 0, &mut mb);
        for i in 0..8 {
            assert!(reg.try_deliver(1, i));
        }
        assert!(!reg.try_deliver(1, 99), "full mailbox: dropped, no wait");
        assert_eq!(reg.full_dropped(), 1, "and counted");
        assert_eq!(mb.recv_timeout(1, Duration::from_secs(1)), Some(0));
        assert!(reg.try_deliver(1, 8), "freed slot accepts again");
        reg.deregister(1);
        assert!(!reg.try_deliver(1, 9), "stale delivery is a no-op");
    }

    #[test]
    fn full_mailbox_with_dead_binding_drops_instead_of_spinning() {
        let reg = registry(small()); // capacity 8
        let mut mb = reg.acquire().unwrap();
        reg.register(1, 0, &mut mb);
        for i in 0..8 {
            assert!(reg.deliver(1, i));
        }
        // Ring full. Kill the binding from another thread after a beat —
        // the delivery must return false rather than spin forever.
        let t = std::thread::spawn({
            let reg = reg.clone();
            move || {
                std::thread::sleep(Duration::from_millis(20));
                reg.deregister(1);
            }
        });
        assert!(!reg.deliver(1, 99));
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
        reg.register(1, 0, &mut mb);
        for i in 0..8 {
            assert!(reg.deliver(1, i));
        }
        // The binding stays live and the consumer never drains: the
        // delivery must come back within the bound, counted.
        let begun = Instant::now();
        assert!(!reg.deliver(1, 99));
        assert!(
            begun.elapsed() < Duration::from_secs(2),
            "the wait is bounded"
        );
        assert_eq!(reg.full_dropped(), 1);
        assert_eq!(mb.recv_timeout(1, Duration::from_secs(1)), Some(0));
        reg.deregister(1);
    }

    #[test]
    fn dropping_a_registered_mailbox_deregisters_it() {
        let reg = registry(small());
        let mut mb = reg.acquire().unwrap();
        reg.register(3, 9, &mut mb);
        drop(mb);
        assert_eq!(reg.len(), 0, "drop tears the registration down");
        assert!(!reg.deliver(3, 1));
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
