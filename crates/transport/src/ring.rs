//! A bounded lock-free MPSC ring with park/unpark backpressure.
//!
//! The layout is the classic sequence-stamped ring (Vyukov's bounded queue,
//! specialised to a single consumer): a power-of-two array of slots, each
//! carrying an atomic sequence number, a producer-side `tail` claimed by
//! CAS and a consumer-side `head` advanced by plain stores. Producers and
//! the consumer touch disjoint cache lines ([`CachePadded`]) and neither
//! takes a lock on the fast path.
//!
//! Blocking is strictly a slow path:
//!
//! * An **empty** ring parks the consumer. Before parking it raises the
//!   `sleeping` flag and re-checks the ring (SeqCst on both sides), so a
//!   producer that published a slot either sees the flag and unparks it,
//!   or the consumer saw the slot and never parked. Parking and taking
//!   are separate steps: [`RingReceiver::wait_ready`] parks until a value
//!   is published *without consuming it*, so a consumer that may only
//!   take values under a lock can sleep outside it.
//! * A **full** ring parks producers. A producer registers itself in the
//!   waiter list (a mutex guarded vec — the only lock, taken only when the
//!   ring is already full), re-checks for space, then parks; the consumer
//!   unparks all registered waiters after freeing slots.
//!
//! Both parks use a bounded `park_timeout` as a belt-and-braces safety net:
//! if the handshake above is ever violated the cost is a bounded stall,
//! never a deadlock.
//!
//! Disconnect semantics mirror `std::sync::mpsc`: when every
//! [`RingSender`] is dropped, [`RingReceiver::wait_ready`] returns
//! `Err(RecvError)` once the ring is empty; when the receiver is dropped,
//! sends fail with [`SendError`] returning the rejected value.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

use crate::stamp::now_nanos;
use crate::CachePadded;

/// Safety-net bound on a consumer park: a correct handshake is woken by
/// `unpark` long before this fires.
const CONSUMER_PARK: Duration = Duration::from_millis(5);

/// Safety-net bound on a producer park while the ring is full.
const PRODUCER_PARK: Duration = Duration::from_millis(1);

/// The error returned by [`RingSender::send`] when the receiver is gone;
/// carries the rejected value back to the caller.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// The error returned by [`RingSender::try_send`].
#[derive(Debug, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The ring is full; the value is handed back.
    Full(T),
    /// The receiver is gone; the value is handed back.
    Disconnected(T),
}

/// The error returned by blocking receives once every sender is gone and
/// the ring is empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

struct Slot<T> {
    /// Lap stamp: `pos` when free for the producer claiming position
    /// `pos`, `pos + 1` once the value is published, `pos + capacity`
    /// after the consumer took it (free for the next lap).
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<T>>,
}

struct Shared<T> {
    buf: Box<[Slot<T>]>,
    mask: usize,
    /// Producer cursor (claimed by CAS).
    tail: CachePadded<AtomicUsize>,
    /// Consumer cursor. Written only by the consumer; read by producers
    /// never (fullness is derived from slot stamps) and by `Drop` to
    /// reclaim unconsumed values.
    head: CachePadded<AtomicUsize>,
    /// Consumer-is-parked flag for the empty-ring handshake.
    sleeping: AtomicBool,
    /// The consumer thread, registered on its first blocking receive.
    consumer: Mutex<Option<Thread>>,
    /// Live `RingSender` clones.
    senders: AtomicUsize,
    /// Cleared when the receiver drops, failing all further sends.
    rx_alive: AtomicBool,
    /// Producers parked on a full ring. Locked only on that slow path.
    waiters: Mutex<Vec<Thread>>,
    /// Cheap "is anyone in `waiters`" flag so the consumer's fast path
    /// never touches the mutex.
    has_waiters: AtomicBool,
    /// When raised, every publish stamps its slot with [`now_nanos`] and
    /// every take folds the dwell time into the meter below. Off by
    /// default: the disabled cost is one relaxed load per side.
    stamping: AtomicBool,
    /// Per-slot enqueue timestamps, parallel to `buf` (written only while
    /// `stamping` is raised, under the same seq protocol as the value).
    stamps: Box<[AtomicU64]>,
    /// Queue-dwell meter: messages taken and their summed nanoseconds in
    /// the ring, accumulated by the consumer while `stamping` is raised.
    dwell_count: AtomicU64,
    dwell_nanos: AtomicU64,
}

// The UnsafeCell slots are handed across threads under the seq protocol.
unsafe impl<T: Send> Send for Shared<T> {}
unsafe impl<T: Send> Sync for Shared<T> {}

impl<T> Drop for Shared<T> {
    fn drop(&mut self) {
        // Both sides are gone; reclaim values published but never taken.
        let mut head = self.head.load(Ordering::Relaxed);
        loop {
            let slot = &self.buf[head & self.mask];
            if slot.seq.load(Ordering::Relaxed) != head.wrapping_add(1) {
                break;
            }
            unsafe { (*slot.value.get()).assume_init_drop() };
            head = head.wrapping_add(1);
        }
    }
}

impl<T> Shared<T> {
    /// True when the slot at the current tail has not been freed by the
    /// consumer — the ring is full.
    fn is_full(&self) -> bool {
        let pos = self.tail.load(Ordering::SeqCst);
        let seq = self.buf[pos & self.mask].seq.load(Ordering::SeqCst);
        (seq.wrapping_sub(pos) as isize) < 0
    }

    /// Unpark the consumer if it is (or is about to be) parked.
    fn wake_consumer(&self) {
        if self.sleeping.swap(false, Ordering::SeqCst) {
            if let Some(t) = self
                .consumer
                .lock()
                .expect("consumer handle poisoned")
                .as_ref()
            {
                t.unpark();
            }
        }
    }

    /// Unpark every producer registered as waiting on a full ring.
    fn wake_producers(&self) {
        if self.has_waiters.swap(false, Ordering::SeqCst) {
            let mut waiters = self.waiters.lock().expect("waiter list poisoned");
            for t in waiters.drain(..) {
                t.unpark();
            }
        }
    }
}

/// The producing half; cheap to clone, safe to use from many threads.
pub struct RingSender<T> {
    shared: Arc<Shared<T>>,
}

/// The consuming half. Exactly one exists per ring.
pub struct RingReceiver<T> {
    shared: Arc<Shared<T>>,
}

/// Create a ring holding at least `capacity` values (rounded up to the
/// next power of two, minimum 2).
pub fn channel<T: Send>(capacity: usize) -> (RingSender<T>, RingReceiver<T>) {
    let cap = capacity.next_power_of_two().max(2);
    let buf: Box<[Slot<T>]> = (0..cap)
        .map(|i| Slot {
            seq: AtomicUsize::new(i),
            value: UnsafeCell::new(MaybeUninit::uninit()),
        })
        .collect();
    let shared = Arc::new(Shared {
        buf,
        mask: cap - 1,
        tail: CachePadded::new(AtomicUsize::new(0)),
        head: CachePadded::new(AtomicUsize::new(0)),
        sleeping: AtomicBool::new(false),
        consumer: Mutex::new(None),
        senders: AtomicUsize::new(1),
        rx_alive: AtomicBool::new(true),
        waiters: Mutex::new(Vec::new()),
        has_waiters: AtomicBool::new(false),
        stamping: AtomicBool::new(false),
        stamps: (0..cap).map(|_| AtomicU64::new(0)).collect(),
        dwell_count: AtomicU64::new(0),
        dwell_nanos: AtomicU64::new(0),
    });
    (
        RingSender {
            shared: Arc::clone(&shared),
        },
        RingReceiver { shared },
    )
}

impl<T> Clone for RingSender<T> {
    fn clone(&self) -> Self {
        self.shared.senders.fetch_add(1, Ordering::SeqCst);
        RingSender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for RingSender<T> {
    fn drop(&mut self) {
        if self.shared.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Last sender: the parked consumer must observe the disconnect.
            self.shared.wake_consumer();
        }
    }
}

impl<T> RingSender<T> {
    /// Enqueue without blocking.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let shared = &*self.shared;
        if !shared.rx_alive.load(Ordering::SeqCst) {
            return Err(TrySendError::Disconnected(value));
        }
        let mut pos = shared.tail.load(Ordering::Relaxed);
        loop {
            let slot = &shared.buf[pos & shared.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq.wrapping_sub(pos) as isize;
            if diff == 0 {
                match shared.tail.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        unsafe { (*slot.value.get()).write(value) };
                        if shared.stamping.load(Ordering::Relaxed) {
                            shared.stamps[pos & shared.mask].store(now_nanos(), Ordering::Relaxed);
                        }
                        slot.seq.store(pos.wrapping_add(1), Ordering::Release);
                        // Publish must be globally ordered before the
                        // sleeping-flag read (pairs with the consumer's
                        // flag-store / ring-recheck sequence).
                        fence(Ordering::SeqCst);
                        if shared.sleeping.load(Ordering::Relaxed) {
                            shared.wake_consumer();
                        }
                        return Ok(());
                    }
                    Err(current) => pos = current,
                }
            } else if diff < 0 {
                return Err(TrySendError::Full(value));
            } else {
                // Another producer claimed this position; catch up.
                pos = shared.tail.load(Ordering::Relaxed);
            }
        }
    }

    /// Enqueue, parking while the ring is full. Fails only when the
    /// receiver is gone.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut value = value;
        loop {
            match self.try_send(value) {
                Ok(()) => return Ok(()),
                Err(TrySendError::Disconnected(v)) => return Err(SendError(v)),
                Err(TrySendError::Full(v)) => value = v,
            }
            let shared = &*self.shared;
            // Slow path: register, re-check, park, deregister. The
            // re-check after registration closes the lost-wakeup window —
            // either the consumer's drain sees our registration, or we
            // see the space it freed. Deregistering on every exit keeps
            // the list bounded by the number of currently-blocked
            // producers (no duplicate entries, no stale unparks).
            let me = thread::current();
            {
                let mut waiters = shared.waiters.lock().expect("waiter list poisoned");
                waiters.push(me.clone());
            }
            shared.has_waiters.store(true, Ordering::SeqCst);
            fence(Ordering::SeqCst);
            if shared.is_full() && shared.rx_alive.load(Ordering::SeqCst) {
                thread::park_timeout(PRODUCER_PARK);
            }
            {
                let mut waiters = shared.waiters.lock().expect("waiter list poisoned");
                waiters.retain(|t| t.id() != me.id());
            }
        }
    }

    /// True when every claimed slot has been taken: `tail == head`. False
    /// from the moment a producer claims a slot (before it is even
    /// published) until the consumer takes it.
    ///
    /// A `true` answer is only as stable as the consumer is quiet, so it
    /// means something to a caller that holds whatever lock the consumer
    /// takes values under: the `head` it reads is then final, and "idle"
    /// says everything enqueued so far has been taken under that lock. A
    /// claim made by another thread is visible here once that thread has
    /// synchronised with the caller after its `send` returned (the `tail`
    /// CAS is sequenced before anything the sender does next).
    pub fn is_idle(&self) -> bool {
        let shared = &*self.shared;
        shared.tail.load(Ordering::Acquire) == shared.head.load(Ordering::Acquire)
    }

    /// True when the receiver still exists.
    pub fn is_connected(&self) -> bool {
        self.shared.rx_alive.load(Ordering::SeqCst)
    }

    /// Enable or disable enqueue/dequeue stamping on this ring (shared
    /// with every clone and the receiver). Off by default.
    pub fn set_stamping(&self, enabled: bool) {
        self.shared.stamping.store(enabled, Ordering::SeqCst);
    }

    /// The queue-dwell meter: `(messages taken, summed nanoseconds each
    /// spent published in the ring)` since stamping was enabled.
    pub fn queue_dwell(&self) -> (u64, u64) {
        (
            self.shared.dwell_count.load(Ordering::Relaxed),
            self.shared.dwell_nanos.load(Ordering::Relaxed),
        )
    }
}

impl<T> RingReceiver<T> {
    /// Dequeue one value without blocking.
    pub fn try_recv(&mut self) -> Option<T> {
        let shared = &*self.shared;
        let head = shared.head.load(Ordering::Relaxed);
        let slot = &shared.buf[head & shared.mask];
        let seq = slot.seq.load(Ordering::Acquire);
        if seq != head.wrapping_add(1) {
            return None;
        }
        let value = unsafe { (*slot.value.get()).assume_init_read() };
        if shared.stamping.load(Ordering::Relaxed) {
            let queued = shared.stamps[head & shared.mask].load(Ordering::Relaxed);
            // A zero stamp is a slot published before stamping was
            // enabled — it carries no dwell information.
            if queued != 0 {
                shared
                    .dwell_nanos
                    .fetch_add(now_nanos().saturating_sub(queued), Ordering::Relaxed);
                shared.dwell_count.fetch_add(1, Ordering::Relaxed);
            }
        }
        slot.seq
            .store(head.wrapping_add(shared.buf.len()), Ordering::Release);
        shared.head.store(head.wrapping_add(1), Ordering::Release);
        Some(value)
    }

    /// Sweep everything currently published into `out` without blocking;
    /// returns how many values were moved. Wakes producers parked on a
    /// full ring when slots were freed.
    pub fn drain_into(&mut self, out: &mut Vec<T>) -> usize {
        let mut n = 0;
        while let Some(value) = self.try_recv() {
            out.push(value);
            n += 1;
        }
        if n > 0 {
            self.wake_waiting_producers();
        }
        n
    }

    /// After freeing slots: unpark producers parked on a full ring (pairs
    /// with their register + fence + fullness re-check).
    fn wake_waiting_producers(&self) {
        fence(Ordering::SeqCst);
        if self.shared.has_waiters.load(Ordering::Relaxed) {
            self.shared.wake_producers();
        }
    }

    /// Park until a value is published, *without taking it*: the next
    /// [`RingReceiver::try_recv`] / [`RingReceiver::drain_into`] is
    /// guaranteed to find one. Returns `Err(RecvError)` once every sender
    /// is gone and the ring is empty.
    pub fn wait_ready(&mut self) -> Result<(), RecvError> {
        self.park_until_ready(None).map(|_| ())
    }

    /// Drain what is published, parking up to `timeout` while the ring
    /// is empty; `Ok(0)` once it passes. The ring is always checked at
    /// least once, so a zero timeout is a non-blocking poll that still
    /// honours the park/unpark handshake.
    pub fn drain_for(&mut self, out: &mut Vec<T>, timeout: Duration) -> Result<usize, RecvError> {
        if self.park_until_ready(Some(Instant::now() + timeout))? {
            Ok(self.drain_into(out))
        } else {
            Ok(0)
        }
    }

    /// Receive a single value, parking while the ring is empty.
    pub fn recv(&mut self) -> Result<T, RecvError> {
        self.wait_ready()?;
        let value = self
            .try_recv()
            .expect("a ready ring yields to its only consumer");
        self.wake_waiting_producers();
        Ok(value)
    }

    /// True when the slot at `head` holds a published value.
    fn head_published(&self) -> bool {
        let shared = &*self.shared;
        let head = shared.head.load(Ordering::Relaxed);
        shared.buf[head & shared.mask].seq.load(Ordering::Acquire) == head.wrapping_add(1)
    }

    /// The one copy of the consumer's park protocol (`deadline: None`
    /// parks indefinitely): `Ok(true)` once a value is published,
    /// `Ok(false)` once the deadline passes, `Err` on disconnect.
    fn park_until_ready(&self, deadline: Option<Instant>) -> Result<bool, RecvError> {
        loop {
            if self.head_published() {
                return Ok(true);
            }
            // Measured on a loaded single-CPU box: parking immediately
            // beats yielding first — spare scheduler slots go to the
            // producers, and the unpark handshake is one futex pair.
            self.register_consumer();
            self.shared.sleeping.store(true, Ordering::SeqCst);
            // Re-check after raising the flag (pairs with the producer's
            // publish + fence + flag-read); the fence keeps the re-check's
            // acquire load from moving ahead of the flag store.
            fence(Ordering::SeqCst);
            if self.head_published() {
                self.shared.sleeping.store(false, Ordering::SeqCst);
                return Ok(true);
            }
            if self.shared.senders.load(Ordering::SeqCst) == 0 {
                self.shared.sleeping.store(false, Ordering::SeqCst);
                // Final look: a sender may have published between the
                // check above and its drop.
                return if self.head_published() {
                    Ok(true)
                } else {
                    Err(RecvError)
                };
            }
            let park = match deadline {
                None => CONSUMER_PARK,
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        self.shared.sleeping.store(false, Ordering::SeqCst);
                        return Ok(false);
                    }
                    left.min(CONSUMER_PARK)
                }
            };
            thread::park_timeout(park);
            self.shared.sleeping.store(false, Ordering::SeqCst);
        }
    }

    /// Number of live senders (diagnostics).
    pub fn sender_count(&self) -> usize {
        self.shared.senders.load(Ordering::SeqCst)
    }

    /// See [`RingSender::set_stamping`].
    pub fn set_stamping(&self, enabled: bool) {
        self.shared.stamping.store(enabled, Ordering::SeqCst);
    }

    /// See [`RingSender::queue_dwell`].
    pub fn queue_dwell(&self) -> (u64, u64) {
        (
            self.shared.dwell_count.load(Ordering::Relaxed),
            self.shared.dwell_nanos.load(Ordering::Relaxed),
        )
    }

    fn register_consumer(&self) {
        let mut consumer = self
            .shared
            .consumer
            .lock()
            .expect("consumer handle poisoned");
        // Always overwrite a handle for a *different* thread: receivers
        // migrate between threads when a reply mailbox is released to the
        // slab and reacquired, and a stale handle would unpark the old
        // owner while the new one sleeps out its full safety-net timeout.
        let me = thread::current();
        match consumer.as_ref() {
            Some(t) if t.id() == me.id() => {}
            _ => *consumer = Some(me),
        }
    }
}

impl<T> Drop for RingReceiver<T> {
    fn drop(&mut self) {
        self.shared.rx_alive.store(false, Ordering::SeqCst);
        // Drop everything already published so senders' values do not
        // linger, and release parked producers to observe the disconnect.
        while self.try_recv().is_some() {}
        self.shared.wake_producers();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_a_single_producer() {
        let (tx, mut rx) = channel::<u64>(8);
        for i in 0..6 {
            tx.try_send(i).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(rx.drain_into(&mut out), 6);
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn capacity_rounds_up_and_full_ring_rejects() {
        let (tx, mut rx) = channel::<u32>(3); // rounds to 4
        for i in 0..4 {
            tx.try_send(i).unwrap();
        }
        assert_eq!(tx.try_send(99), Err(TrySendError::Full(99)));
        assert_eq!(rx.try_recv(), Some(0));
        tx.try_send(4).unwrap();
        let mut out = Vec::new();
        rx.drain_into(&mut out);
        assert_eq!(out, vec![1, 2, 3, 4]);
    }

    #[test]
    fn wraps_around_many_laps() {
        let (tx, mut rx) = channel::<usize>(4);
        for lap in 0..1000 {
            for i in 0..3 {
                tx.try_send(lap * 3 + i).unwrap();
            }
            let mut out = Vec::new();
            assert_eq!(rx.drain_into(&mut out), 3);
            assert_eq!(out, vec![lap * 3, lap * 3 + 1, lap * 3 + 2]);
        }
    }

    #[test]
    fn disconnect_when_all_senders_drop() {
        let (tx, mut rx) = channel::<u8>(4);
        let tx2 = tx.clone();
        tx.try_send(1).unwrap();
        drop(tx);
        tx2.try_send(2).unwrap();
        drop(tx2);
        let mut out = Vec::new();
        assert_eq!(rx.wait_ready(), Ok(()), "published values outlive senders");
        assert_eq!(rx.drain_into(&mut out), 2);
        assert_eq!(out, vec![1, 2]);
        assert_eq!(rx.wait_ready(), Err(RecvError));
    }

    #[test]
    fn send_fails_when_receiver_drops() {
        let (tx, rx) = channel::<String>(4);
        tx.try_send("queued".into()).unwrap();
        drop(rx);
        assert!(!tx.is_connected());
        assert_eq!(
            tx.send("late".to_string()),
            Err(SendError("late".to_string()))
        );
        assert_eq!(
            tx.try_send("later".to_string()),
            Err(TrySendError::Disconnected("later".to_string()))
        );
    }

    #[test]
    fn blocking_send_waits_for_space() {
        let (tx, mut rx) = channel::<u32>(2);
        tx.send(0).unwrap();
        tx.send(1).unwrap();
        let producer = std::thread::spawn(move || {
            for i in 2..50 {
                tx.send(i).unwrap();
            }
        });
        let mut out = Vec::new();
        while out.len() < 50 {
            rx.wait_ready()
                .expect("the producer is alive until 50 arrived");
            rx.drain_into(&mut out);
        }
        producer.join().unwrap();
        assert_eq!(out, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn blocking_recv_waits_for_values() {
        let (tx, mut rx) = channel::<u32>(8);
        let producer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            tx.send(42).unwrap();
        });
        assert_eq!(rx.recv(), Ok(42));
        producer.join().unwrap();
    }

    #[test]
    fn wait_ready_parks_without_consuming() {
        let (tx, mut rx) = channel::<u32>(8);
        let producer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            tx.send(7).unwrap();
            tx
        });
        assert_eq!(rx.wait_ready(), Ok(()));
        // Ready is a promise about the next take, and is idempotent.
        assert_eq!(rx.wait_ready(), Ok(()));
        assert_eq!(rx.try_recv(), Some(7));
        let tx = producer.join().unwrap();
        assert!(tx.is_idle());
    }

    /// Two producers against a consumer that alternates `wait_ready` and
    /// `drain_into` on a small ring: every value arrives, in order per
    /// producer, and the run ends in a disconnect — a lost wake-up would
    /// cost 5 ms a time (the safety-net park) and show as a timeout.
    #[test]
    fn wait_ready_then_drain_never_loses_a_wakeup() {
        const PER_PRODUCER: u64 = 20_000;
        let (tx, mut rx) = channel::<(u64, u64)>(8);
        let producers: Vec<_> = (0..2u64)
            .map(|p| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for seq in 0..PER_PRODUCER {
                        tx.send((p, seq)).unwrap();
                        if seq % 64 == 0 {
                            // Let the consumer run dry and park.
                            std::thread::sleep(Duration::from_micros(50));
                        }
                    }
                })
            })
            .collect();
        drop(tx);
        let started = Instant::now();
        let mut next = [0u64; 2];
        let mut buf = Vec::new();
        while rx.wait_ready().is_ok() {
            assert!(rx.drain_into(&mut buf) > 0, "ready means a value is there");
            for (p, seq) in buf.drain(..) {
                assert_eq!(seq, next[p as usize], "producer {p} out of order");
                next[p as usize] += 1;
            }
        }
        for p in producers {
            p.join().unwrap();
        }
        assert_eq!(next, [PER_PRODUCER; 2]);
        assert!(
            started.elapsed() < Duration::from_secs(20),
            "wake-ups were lost to the safety-net park"
        );
    }

    #[test]
    fn is_idle_tracks_claimed_until_taken() {
        let (tx, mut rx) = channel::<u32>(4);
        assert!(tx.is_idle());
        for lap in 0..10 {
            tx.try_send(lap).unwrap();
            assert!(!tx.is_idle(), "claimed and published, not taken");
            tx.try_send(lap).unwrap();
            assert_eq!(rx.try_recv(), Some(lap));
            assert!(!tx.is_idle(), "one of two still queued");
            assert_eq!(rx.try_recv(), Some(lap));
            assert!(tx.is_idle());
        }
        // A full ring rejects without claiming.
        for i in 0..4 {
            tx.try_send(i).unwrap();
        }
        assert_eq!(tx.try_send(9), Err(TrySendError::Full(9)));
        let mut out = Vec::new();
        assert_eq!(rx.drain_into(&mut out), 4);
        assert!(tx.is_idle());
    }

    #[test]
    fn drain_for_times_out_then_delivers() {
        let (tx, mut rx) = channel::<u32>(8);
        let mut out = Vec::new();
        // Nothing published: the bounded drain gives up with Ok(0).
        assert_eq!(rx.drain_for(&mut out, Duration::from_millis(5)), Ok(0));
        assert!(out.is_empty());
        let producer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            tx.send(9).unwrap();
            // Keep the sender alive long enough that the receiver's next
            // drain observes the value, not the disconnect.
            std::thread::sleep(Duration::from_millis(50));
        });
        // A generous deadline: the parked consumer must be woken by the
        // producer's publish well before it.
        assert_eq!(rx.drain_for(&mut out, Duration::from_secs(5)), Ok(1));
        assert_eq!(out, vec![9]);
        producer.join().unwrap();
        // All senders gone and the ring empty: disconnect, not timeout.
        assert_eq!(
            rx.drain_for(&mut out, Duration::from_millis(5)),
            Err(RecvError)
        );
    }

    #[test]
    fn dwell_meter_counts_only_while_stamping() {
        let (tx, mut rx) = channel::<u32>(8);
        tx.try_send(1).unwrap();
        assert_eq!(rx.try_recv(), Some(1));
        assert_eq!(tx.queue_dwell(), (0, 0), "meter off by default");

        tx.set_stamping(true);
        tx.try_send(2).unwrap();
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(rx.try_recv(), Some(2));
        let (count, nanos) = rx.queue_dwell();
        assert_eq!(count, 1);
        assert!(
            nanos >= 1_000_000,
            "a value parked 2ms must show dwell, got {nanos}ns"
        );

        tx.set_stamping(false);
        tx.try_send(3).unwrap();
        assert_eq!(rx.try_recv(), Some(3));
        assert_eq!(rx.queue_dwell().0, 1, "meter frozen once disabled");
    }

    #[test]
    fn unconsumed_values_are_dropped_with_the_ring() {
        let flag = Arc::new(AtomicUsize::new(0));
        #[derive(Debug)]
        struct Probe(Arc<AtomicUsize>);
        impl Drop for Probe {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (tx, rx) = channel::<Probe>(4);
        tx.try_send(Probe(Arc::clone(&flag))).unwrap();
        tx.try_send(Probe(Arc::clone(&flag))).unwrap();
        drop(rx);
        drop(tx);
        assert_eq!(flag.load(Ordering::SeqCst), 2, "no leaked slot values");
    }
}
