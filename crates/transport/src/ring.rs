//! A bounded MPSC ring: a `VecDeque` behind one `Mutex`, with park/unpark
//! backpressure on both sides.
//!
//! Every command that finds its shard busy, and every reply, crosses one of
//! these, but since shards run an idle core's command on the caller's own
//! thread only the contended minority reaches a shard's inbox. One lock
//! (`State`) holds the queue, the sender count, the receiver's liveness,
//! the waiting consumer's [`Thread`] handle, the number of producers
//! waiting for space and the dwell meter, so every rule below is a
//! statement about one critical section.
//!
//! * An **empty** ring parks the consumer. Under the lock it finds the
//!   queue empty and stores its own handle; it releases the lock and
//!   calls `thread::park`. A producer that pushes takes the handle under
//!   the lock and unparks the consumer after releasing it. Either the
//!   push came first and the consumer saw the value, or the producer saw
//!   the handle; an unpark that lands before the park leaves a token, so
//!   the park returns at once. No wake-up is lost, so no park needs a
//!   safety-net timeout. The consumer does *not* wait on a `Condvar`:
//!   measured on the benchmark's `wide_hot` workload, that hand-off cost
//!   12 % more median commit latency and 16.5 % more CPU per commit than
//!   this one (a woken `Condvar::wait` must re-take the ring's mutex
//!   before it can return; a parked consumer takes it only to look). Parking and
//!   taking are separate steps: [`RingReceiver::wait_ready`] parks until
//!   a value is queued *without consuming it*, so a consumer that may
//!   only take values under another lock can sleep outside it. The
//!   producer's half splits the same way: [`RingSender::try_send_deferred`]
//!   hands the parked consumer back instead of unparking it, so a
//!   producer that pushes under a lock of its own wakes the consumer
//!   only once that lock is released.
//! * A **hand-off** wakes nobody. [`RingSender::send_quiet`] pushes and
//!   leaves a parked consumer parked, with its handle in place for the
//!   next waking send; [`RingSender::take_while`] lets a producer-side
//!   thread take the runnable prefix of the queue itself, and
//!   [`RingSender::wake_consumer`] unparks the consumer for whatever that
//!   thread left. The ring stays memory-safe with two takers (every take
//!   is one critical section), but orders them against each other only
//!   through a lock of the caller's: the shard runtime takes under its
//!   core lock on both sides. A quiet push to a full ring does wake the
//!   consumer before it waits for space.
//! * A **full** ring blocks producers on one `Condvar` (`space`), counted
//!   in the state while they wait. A take notifies it only while that
//!   count is non-zero: std's futex `notify_*` makes a syscall every
//!   time, and nearly every take has nobody to wake. Waiting and pushing
//!   are separate steps too ([`RingSender::wait_for_space`]), for a
//!   producer that must re-check a condition of its own between them.
//!
//! A copy of the queue's length lives in an atomic, stored under the lock
//! on every change, so [`RingSender::is_idle`] and an empty
//! [`RingReceiver::try_recv`] / [`RingReceiver::drain_into`] poll take no
//! lock.
//!
//! Disconnect semantics mirror `std::sync::mpsc`: when every
//! [`RingSender`] is dropped, [`RingReceiver::wait_ready`] returns
//! `Err(RecvError)` once the ring is empty; when the receiver is dropped,
//! sends fail with [`SendError`] returning the rejected value.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

use crate::stamp::now_nanos;

/// The error returned by [`RingSender::send`] when the receiver is gone;
/// carries the rejected value back to the caller.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// The error returned by [`RingSender::try_send`] and
/// [`RingSender::try_send_deferred`].
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

struct State<T> {
    /// Queued values with their enqueue stamps ([`now_nanos`] while
    /// `stamping`, else 0).
    queue: VecDeque<(T, u64)>,
    /// Live `RingSender` clones.
    senders: usize,
    /// Cleared when the receiver drops, failing all further sends.
    rx_alive: bool,
    /// The consumer, present while it is parked (or about to park) on an
    /// empty ring; a producer takes it to wake it.
    consumer: Option<Thread>,
    /// Producers blocked on `space`.
    waiting_producers: usize,
    /// When set, every push stamps its value and every take folds the
    /// value's dwell into the meter below.
    stamping: bool,
    /// Queue-dwell meter: values taken while stamping and their summed
    /// nanoseconds in the ring.
    dwell_count: u64,
    dwell_nanos: u64,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    /// Producers blocked on a full ring wait here.
    space: Condvar,
    /// `state.queue.len()`, stored under the lock on every change. The
    /// `Release` stores pair with the lock-free `Acquire` loads of
    /// `is_idle` and the empty polls; queued values are only ever read
    /// under the lock.
    len: AtomicUsize,
    capacity: usize,
}

impl<T> Shared<T> {
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        // Nothing that can panic runs under this lock, and every critical
        // section leaves the state consistent, so a poisoned lock (a
        // panic elsewhere on the holder's thread) holds valid data.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Take values off the front into `put`, in order, while `accept`
    /// takes them and at most `max`, then wake producers that wait for
    /// the space; returns how many were taken.
    fn take(
        &self,
        mut state: MutexGuard<'_, State<T>>,
        max: usize,
        mut accept: impl FnMut(&T) -> bool,
        mut put: impl FnMut(T),
    ) -> usize {
        let now = state.stamping.then(now_nanos);
        let mut dwell = (0, 0);
        let mut n = 0;
        while n < max && state.queue.front().is_some_and(|(value, _)| accept(value)) {
            let (value, stamp) = state.queue.pop_front().expect("the front was just seen");
            // A zero stamp was pushed before stamping began: no dwell.
            if let Some(now) = now.filter(|_| stamp != 0) {
                dwell.0 += 1;
                dwell.1 += now.saturating_sub(stamp);
            }
            put(value);
            n += 1;
        }
        state.dwell_count += dwell.0;
        state.dwell_nanos += dwell.1;
        self.len.store(state.queue.len(), Ordering::Release);
        let wake = n > 0 && state.waiting_producers > 0;
        drop(state);
        if wake {
            self.space.notify_all();
        }
        n
    }
}

/// Time left before the deadline `timeout` from the first call sets;
/// `None` once it has passed.
fn time_left(deadline: &mut Option<Instant>, timeout: Duration) -> Option<Duration> {
    let deadline = *deadline.get_or_insert_with(|| Instant::now() + timeout);
    Some(deadline.saturating_duration_since(Instant::now())).filter(|left| !left.is_zero())
}

/// The producing half; cheap to clone, safe to use from many threads.
pub struct RingSender<T> {
    shared: Arc<Shared<T>>,
}

/// The consuming half. Exactly one exists per ring, and it alone parks on
/// it; a sender may take values too ([`RingSender::take_while`]).
pub struct RingReceiver<T> {
    shared: Arc<Shared<T>>,
}

/// Create a ring holding at least `capacity` values (rounded up to the
/// next power of two, minimum 2).
pub fn channel<T: Send>(capacity: usize) -> (RingSender<T>, RingReceiver<T>) {
    let capacity = capacity.next_power_of_two().max(2);
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::with_capacity(capacity),
            senders: 1,
            rx_alive: true,
            consumer: None,
            waiting_producers: 0,
            stamping: false,
            dwell_count: 0,
            dwell_nanos: 0,
        }),
        space: Condvar::new(),
        len: AtomicUsize::new(0),
        capacity,
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
        self.shared.lock().senders += 1;
        RingSender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for RingSender<T> {
    fn drop(&mut self) {
        let mut state = self.shared.lock();
        state.senders -= 1;
        // The last sender wakes a parked consumer to see the disconnect.
        let consumer = if state.senders == 0 {
            state.consumer.take()
        } else {
            None
        };
        drop(state);
        if let Some(consumer) = consumer {
            consumer.unpark();
        }
    }
}

impl<T> RingSender<T> {
    /// Enqueue without blocking.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        if let Some(consumer) = self.try_send_deferred(value)? {
            consumer.unpark();
        }
        Ok(())
    }

    /// [`RingSender::try_send`] that leaves the wake-up to the caller: a
    /// consumer parked on the empty ring comes back, to be unparked once
    /// the caller has released whatever lock it pushed under.
    #[must_use = "a returned consumer is parked until it is unparked"]
    pub fn try_send_deferred(&self, value: T) -> Result<Option<Thread>, TrySendError<T>> {
        let mut state = self.shared.lock();
        if !state.rx_alive {
            return Err(TrySendError::Disconnected(value));
        }
        if state.queue.len() >= self.shared.capacity {
            return Err(TrySendError::Full(value));
        }
        let stamp = state.stamping.then(now_nanos).unwrap_or(0);
        state.queue.push_back((value, stamp));
        self.shared.len.store(state.queue.len(), Ordering::Release);
        Ok(state.consumer.take())
    }

    /// Enqueue, waiting while the ring is full. Fails only when the
    /// receiver is gone.
    pub fn send(&self, mut value: T) -> Result<(), SendError<T>> {
        loop {
            match self.try_send(value) {
                Ok(()) => return Ok(()),
                Err(TrySendError::Disconnected(value)) => return Err(SendError(value)),
                Err(TrySendError::Full(back)) => value = back,
            }
            self.wait_for_space(None);
        }
    }

    /// Enqueue *without* waking the consumer: a parked consumer stays
    /// parked and keeps its place, so a later waking send (or
    /// [`RingSender::wake_consumer`]) still finds it. For a producer that
    /// expects another thread to take the value — one that takes under a
    /// lock of its own, see [`RingSender::take_while`] — and wakes the
    /// consumer only if nobody does. A full ring is the exception: the
    /// producer wakes the consumer before it waits for space, so a ring
    /// nobody else drains cannot wedge it. Fails only when the receiver
    /// is gone.
    pub fn send_quiet(&self, value: T) -> Result<(), SendError<T>> {
        loop {
            let mut state = self.shared.lock();
            if !state.rx_alive {
                return Err(SendError(value));
            }
            if state.queue.len() < self.shared.capacity {
                let stamp = state.stamping.then(now_nanos).unwrap_or(0);
                state.queue.push_back((value, stamp));
                self.shared.len.store(state.queue.len(), Ordering::Release);
                return Ok(());
            }
            let consumer = state.consumer.take();
            drop(state);
            if let Some(consumer) = consumer {
                consumer.unpark();
            }
            self.wait_for_space(None);
        }
    }

    /// Unpark the consumer if it is parked on the ring (a no-op when it
    /// is not: a consumer that has not parked yet looks at the queue
    /// under the ring's lock before it does).
    pub fn wake_consumer(&self) {
        let consumer = self.shared.lock().consumer.take();
        if let Some(consumer) = consumer {
            consumer.unpark();
        }
    }

    /// The ring's second consumer: take values off the front into `out`,
    /// in order, while `accept` takes them and at most `max`; returns how
    /// many were taken. Takes no lock while the ring is idle.
    ///
    /// The ring does not order this against the [`RingReceiver`]: a
    /// caller keeps per-ring FIFO only if it takes under a lock of its
    /// own that the receiver's owner also takes every value under, and
    /// applies what it took before it lets go of that lock.
    pub fn take_while(
        &self,
        max: usize,
        accept: impl FnMut(&T) -> bool,
        out: &mut impl Extend<T>,
    ) -> usize {
        if self.is_idle() {
            return 0;
        }
        self.shared
            .take(self.shared.lock(), max, accept, |v| out.extend(Some(v)))
    }

    /// Wait while the ring is full and its receiver lives, at most
    /// `timeout` (`None`: for as long as that lasts). Pushes nothing, so a
    /// producer that must re-check a condition of its own before each
    /// push waits here with its own locks released. The clock is first
    /// read once the ring is found full.
    pub fn wait_for_space(&self, timeout: Option<Duration>) {
        let shared = &*self.shared;
        let mut state = shared.lock();
        let mut deadline = None;
        while state.rx_alive && state.queue.len() >= shared.capacity {
            let left = match timeout {
                None => None,
                Some(timeout) => match time_left(&mut deadline, timeout) {
                    Some(left) => Some(left),
                    None => return,
                },
            };
            state.waiting_producers += 1;
            state = match left {
                None => shared
                    .space
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner),
                Some(left) => {
                    let waited = shared.space.wait_timeout(state, left);
                    waited.unwrap_or_else(PoisonError::into_inner).0
                }
            };
            state.waiting_producers -= 1;
        }
    }

    /// Producers waiting for space right now (tests force interleavings
    /// with it).
    #[cfg(test)]
    pub(crate) fn waiting_producers(&self) -> usize {
        self.shared.lock().waiting_producers
    }

    /// True when every value sent so far has been taken. Reads the length
    /// copy, so it takes no lock.
    ///
    /// A `true` answer is only as stable as the consumer is quiet, so it
    /// means something to a caller that holds whatever lock the consumer
    /// takes values under: nothing can then be taken behind its back, and
    /// "idle" says everything enqueued so far has been taken under that
    /// lock. A send by another thread is visible here once that thread
    /// has synchronised with the caller after its `send` returned (the
    /// length was stored before the send released the ring's lock).
    pub fn is_idle(&self) -> bool {
        self.shared.len.load(Ordering::Acquire) == 0
    }

    /// Enable or disable enqueue/dequeue stamping on this ring (shared
    /// with every clone). Off by default.
    pub fn set_stamping(&self, enabled: bool) {
        self.shared.lock().stamping = enabled;
    }

    /// The queue-dwell meter: `(messages taken, summed nanoseconds each
    /// spent queued in the ring)` since stamping was enabled.
    pub fn queue_dwell(&self) -> (u64, u64) {
        let state = self.shared.lock();
        (state.dwell_count, state.dwell_nanos)
    }
}

impl<T> RingReceiver<T> {
    /// Dequeue one value without blocking.
    pub fn try_recv(&mut self) -> Option<T> {
        if self.shared.len.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut value = None;
        self.shared
            .take(self.shared.lock(), 1, |_| true, |v| value = Some(v));
        value
    }

    /// Sweep everything currently queued into `out` without blocking;
    /// returns how many values were moved. Wakes producers waiting on a
    /// full ring when slots were freed.
    pub fn drain_into(&mut self, out: &mut impl Extend<T>) -> usize {
        if self.shared.len.load(Ordering::Acquire) == 0 {
            return 0;
        }
        self.shared.take(
            self.shared.lock(),
            usize::MAX,
            |_| true,
            |v| out.extend(Some(v)),
        )
    }

    /// Park until a value is queued, *without taking it*: the next
    /// [`RingReceiver::try_recv`] / [`RingReceiver::drain_into`] finds
    /// one unless a [`RingSender::take_while`] took it first. Returns
    /// `Err(RecvError)` once every sender is gone and the ring is empty.
    pub fn wait_ready(&mut self) -> Result<(), RecvError> {
        self.lock_ready(None).map(drop)
    }

    /// Drain what is queued, parking up to `timeout` while the ring is
    /// empty; `Ok(0)` once it passes. The ring is always checked at least
    /// once, so a zero timeout is a non-blocking poll.
    pub fn drain_for(
        &mut self,
        out: &mut impl Extend<T>,
        timeout: Duration,
    ) -> Result<usize, RecvError> {
        Ok(match self.lock_ready(Some(timeout))? {
            Some(state) => self
                .shared
                .take(state, usize::MAX, |_| true, |v| out.extend(Some(v))),
            None => 0,
        })
    }

    /// Receive a single value, parking while the ring is empty.
    pub fn recv(&mut self) -> Result<T, RecvError> {
        let state = self
            .lock_ready(None)?
            .expect("only a deadline ends the wait empty");
        let mut value = None;
        self.shared.take(state, 1, |_| true, |v| value = Some(v));
        Ok(value.expect("a ready ring yields to its only consumer"))
    }

    /// The one copy of the consumer's park protocol (`timeout: None`
    /// parks indefinitely): the locked state once a value is queued,
    /// `Ok(None)` once the timeout passes, `Err` on disconnect. The clock
    /// is first read once the ring is found empty.
    fn lock_ready(
        &self,
        timeout: Option<Duration>,
    ) -> Result<Option<MutexGuard<'_, State<T>>>, RecvError> {
        let mut deadline = None;
        loop {
            let mut state = self.shared.lock();
            if !state.queue.is_empty() {
                state.consumer = None;
                return Ok(Some(state));
            }
            if state.senders == 0 {
                return Err(RecvError);
            }
            let left = match timeout {
                None => None,
                Some(timeout) => match time_left(&mut deadline, timeout) {
                    Some(left) => Some(left),
                    None => {
                        state.consumer = None;
                        return Ok(None);
                    }
                },
            };
            // A producer takes this handle under the lock and unparks it
            // after: whether that lands before or after the park below,
            // the park returns.
            state.consumer = Some(thread::current());
            drop(state);
            match left {
                None => thread::park(),
                Some(left) => thread::park_timeout(left),
            }
        }
    }
}

impl<T> Drop for RingReceiver<T> {
    fn drop(&mut self) {
        let mut state = self.shared.lock();
        state.rx_alive = false;
        // Queued values go with the receiver (dropped outside the lock),
        // and producers waiting for space wake to see the disconnect.
        let queued = std::mem::take(&mut state.queue);
        self.shared.len.store(0, Ordering::Release);
        let wake = state.waiting_producers > 0;
        drop(state);
        drop(queued);
        if wake {
            self.shared.space.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{self, RecvTimeoutError};

    /// Run `body` on its own thread and fail if it has not finished in
    /// 20 s: no park has a safety-net timeout, so a lost wake-up hangs.
    fn within_watchdog(body: impl FnOnce() + Send + 'static) {
        let (done_tx, done_rx) = mpsc::channel();
        let worker = std::thread::spawn(move || {
            body();
            done_tx.send(()).expect("the watchdog outlives the body");
        });
        if let Err(RecvTimeoutError::Timeout) = done_rx.recv_timeout(Duration::from_secs(20)) {
            panic!("not finished after 20 s: a wake-up was lost");
        }
        // Finished, or panicked (the sender dropped unsent): re-raise.
        worker
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
    }

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
        assert_eq!(rx.wait_ready(), Ok(()), "queued values outlive senders");
        assert_eq!(rx.drain_into(&mut out), 2);
        assert_eq!(out, vec![1, 2]);
        assert_eq!(rx.wait_ready(), Err(RecvError));
    }

    #[test]
    fn send_fails_when_receiver_drops() {
        let (tx, rx) = channel::<String>(4);
        tx.try_send("queued".into()).unwrap();
        drop(rx);
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
        within_watchdog(|| {
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
        });
    }

    #[test]
    fn wait_for_space_returns_at_the_deadline() {
        let (tx, _rx) = channel::<u32>(2);
        tx.send(0).unwrap();
        tx.send(1).unwrap();
        let begun = Instant::now();
        tx.wait_for_space(Some(Duration::from_millis(20)));
        assert!(begun.elapsed() >= Duration::from_millis(20));
        assert_eq!(tx.try_send(2), Err(TrySendError::Full(2)), "still full");
        tx.wait_for_space(Some(Duration::ZERO));
        assert_eq!(tx.waiting_producers(), 0);
    }

    #[test]
    fn wait_for_space_returns_once_a_drain_frees_space() {
        let (tx, mut rx) = channel::<u32>(2);
        tx.send(0).unwrap();
        tx.send(1).unwrap();
        let watcher = tx.clone();
        let consumer = std::thread::spawn(move || {
            // Drain only once the producer is waiting for space.
            while watcher.waiting_producers() == 0 {
                std::thread::yield_now();
            }
            let mut out = Vec::new();
            rx.drain_into(&mut out);
            (out, rx)
        });
        let begun = Instant::now();
        tx.wait_for_space(Some(Duration::from_secs(10)));
        assert!(
            begun.elapsed() < Duration::from_secs(5),
            "woken by the drain, not the deadline"
        );
        assert_eq!(tx.try_send(2), Ok(()));
        let (out, mut rx) = consumer.join().unwrap();
        assert_eq!(out, vec![0, 1]);
        assert_eq!(rx.try_recv(), Some(2));
        drop(rx);
        tx.wait_for_space(None);
        assert_eq!(tx.try_send(3), Err(TrySendError::Disconnected(3)));
    }

    /// A deferred send queues the value and hands the parked consumer to
    /// the caller, who alone wakes it.
    #[test]
    fn a_deferred_send_hands_back_the_parked_consumer() {
        within_watchdog(|| {
            let (tx, mut rx) = channel::<u32>(4);
            let shared = Arc::clone(&tx.shared);
            let consumer = std::thread::spawn(move || (rx.recv(), rx));
            while shared.lock().consumer.is_none() {
                std::thread::yield_now();
            }
            let parked = tx.try_send_deferred(5).unwrap();
            assert_eq!(
                parked.as_ref().map(Thread::id),
                Some(consumer.thread().id())
            );
            assert!(tx.try_send_deferred(6).unwrap().is_none(), "taken once");
            parked.unwrap().unpark();
            assert_eq!(consumer.join().unwrap().0, Ok(5));
        });
    }

    /// A quiet send leaves the parked consumer parked and its handle in
    /// place, so `wake_consumer` — or the next waking send — still finds it.
    #[test]
    fn a_quiet_send_leaves_the_consumer_parked_until_woken() {
        within_watchdog(|| {
            let (tx, mut rx) = channel::<u32>(4);
            let shared = Arc::clone(&tx.shared);
            let consumer = std::thread::spawn(move || (rx.wait_ready(), rx));
            while shared.lock().consumer.is_none() {
                std::thread::yield_now();
            }
            tx.send_quiet(1).unwrap();
            std::thread::sleep(Duration::from_millis(20));
            assert!(!consumer.is_finished(), "a quiet send wakes nobody");
            assert!(shared.lock().consumer.is_some(), "the handle stays");
            tx.wake_consumer();
            let (ready, mut rx) = consumer.join().unwrap();
            assert_eq!(ready, Ok(()));
            assert_eq!(rx.try_recv(), Some(1));
            tx.wake_consumer(); // nobody parked: a no-op
        });
    }

    /// A quiet send to a full ring wakes the consumer before it waits, so
    /// a consumer parked behind quiet sends alone still drains the ring.
    #[test]
    fn a_quiet_send_to_a_full_ring_wakes_the_consumer() {
        within_watchdog(|| {
            let (tx, mut rx) = channel::<u32>(2);
            let producer = std::thread::spawn(move || {
                for i in 0..50 {
                    tx.send_quiet(i).unwrap();
                }
            });
            let mut out = Vec::new();
            while rx.wait_ready().is_ok() {
                // Let the ring fill before draining it.
                std::thread::sleep(Duration::from_micros(200));
                rx.drain_into(&mut out);
            }
            producer.join().unwrap();
            assert_eq!(out, (0..50).collect::<Vec<_>>());
        });
    }

    /// The second consumer takes the accepted prefix, in order and up to
    /// its bound, and leaves the rest — from the first refused value on —
    /// for the receiver.
    #[test]
    fn take_while_takes_the_accepted_prefix_only() {
        let (tx, mut rx) = channel::<u32>(8);
        let mut out = Vec::new();
        assert_eq!(tx.take_while(8, |_| true, &mut out), 0, "idle ring");
        for v in [1, 2, 3, 10, 4] {
            tx.try_send(v).unwrap();
        }
        assert_eq!(tx.take_while(2, |&v| v < 10, &mut out), 2, "bounded");
        assert_eq!(tx.take_while(8, |&v| v < 10, &mut out), 1, "stops at 10");
        assert_eq!(out, [1, 2, 3]);
        let mut rest = Vec::new();
        rx.drain_into(&mut rest);
        assert_eq!(rest, [10, 4]);
        assert!(tx.is_idle());
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
    /// producer, and the run ends in a disconnect. A lost wake-up parks
    /// for good and trips the watchdog.
    #[test]
    fn wait_ready_then_drain_never_loses_a_wakeup() {
        const PER_PRODUCER: u64 = 20_000;
        within_watchdog(|| {
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
        });
    }

    #[test]
    fn is_idle_tracks_claimed_until_taken() {
        let (tx, mut rx) = channel::<u32>(4);
        assert!(tx.is_idle());
        for lap in 0..10 {
            tx.try_send(lap).unwrap();
            assert!(!tx.is_idle(), "sent, not taken");
            tx.try_send(lap).unwrap();
            assert_eq!(rx.try_recv(), Some(lap));
            assert!(!tx.is_idle(), "one of two still queued");
            assert_eq!(rx.try_recv(), Some(lap));
            assert!(tx.is_idle());
        }
        // A full ring rejects without queueing.
        for i in 0..4 {
            tx.try_send(i).unwrap();
        }
        assert_eq!(tx.try_send(9), Err(TrySendError::Full(9)));
        let mut out = Vec::new();
        assert_eq!(rx.drain_into(&mut out), 4);
        assert!(tx.is_idle());
    }

    /// The shard's inline test reads the length copy without the ring's
    /// lock: a send another thread finished must show, and only a drain
    /// may clear it.
    #[test]
    fn is_idle_sees_another_threads_send_until_a_drain() {
        let (tx, mut rx) = channel::<u32>(4);
        let watcher = tx.clone();
        for round in 0..100 {
            let tx = tx.clone();
            std::thread::spawn(move || tx.send(round).unwrap())
                .join()
                .unwrap();
            assert!(!watcher.is_idle(), "round {round}: a returned send shows");
            let drainer = std::thread::spawn(move || {
                let mut out = Vec::new();
                assert_eq!(rx.drain_into(&mut out), 1);
                rx
            });
            rx = drainer.join().unwrap();
            assert!(watcher.is_idle(), "round {round}: idle after the drain");
        }
    }

    #[test]
    fn drain_for_times_out_then_delivers() {
        let (tx, mut rx) = channel::<u32>(8);
        let mut out = Vec::new();
        // Nothing queued: the bounded drain gives up with Ok(0).
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
        let (count, nanos) = tx.queue_dwell();
        assert_eq!(count, 1);
        assert!(
            nanos >= 1_000_000,
            "a value parked 2ms must show dwell, got {nanos}ns"
        );

        tx.set_stamping(false);
        tx.try_send(3).unwrap();
        assert_eq!(rx.try_recv(), Some(3));
        assert_eq!(tx.queue_dwell().0, 1, "meter frozen once disabled");
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
