//! Single-use reply channels for control-plane conversations.
//!
//! The runtime's diagnostics (wait-for edges, waiting transactions, log
//! snapshots) and its one-shot routes (snapshot reads, bypass applies) are
//! request/response exchanges: the requester enqueues a command carrying
//! a reply slot, the shard fills it exactly once. A oneshot is that slot —
//! one mutex-guarded cell and a condvar, no allocation churn beyond the
//! single `Arc`, with the usual disconnect semantics (a dropped sender
//! wakes the receiver with an error instead of leaving it blocked).
//!
//! The answer usually comes from a thread that is running right then — a
//! client that runs the command at a shard it holds — so a timed receive
//! polls a `settled` flag for up to [`crate::SPIN_WAIT`] before it parks,
//! and the sender notifies the condvar only when the receiver is parked
//! on it (std's futex `notify_one` makes a syscall every time). The sender
//! settles the cell once: a send stores the value and the disconnect in
//! one critical section, and the drop that follows finds the flag up and
//! touches nothing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::{spin_until, SPIN_WAIT};

/// Why a receive completed without a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// The sender was dropped without sending.
    Disconnected,
    /// [`OneshotReceiver::recv_timeout`] gave up waiting.
    Timeout,
}

struct State<T> {
    value: Option<T>,
    closed: bool,
    /// The receiver waits on `ready`: a settling sender must notify it.
    parked: bool,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
    /// Raised, under the lock, once the sender has settled the cell (sent
    /// or dropped): what the receiver's poll reads without the lock.
    settled: AtomicBool,
}

impl<T> Shared<T> {
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().expect("oneshot poisoned")
    }

    /// The sender's one critical section: store `value` (if any), close,
    /// and wake a parked receiver once the lock is released.
    fn settle(&self, value: Option<T>) {
        let mut state = self.lock();
        if value.is_some() {
            state.value = value;
        }
        state.closed = true;
        self.settled.store(true, Ordering::Release);
        let parked = state.parked;
        drop(state);
        if parked {
            self.ready.notify_one();
        }
    }
}

/// The sending half; consumed by [`OneshotSender::send`].
pub struct OneshotSender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half.
pub struct OneshotReceiver<T> {
    shared: Arc<Shared<T>>,
}

/// Create a connected oneshot pair.
pub fn channel<T>() -> (OneshotSender<T>, OneshotReceiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            value: None,
            closed: false,
            parked: false,
        }),
        ready: Condvar::new(),
        settled: AtomicBool::new(false),
    });
    (
        OneshotSender {
            shared: Arc::clone(&shared),
        },
        OneshotReceiver { shared },
    )
}

impl<T> OneshotSender<T> {
    /// Deliver the reply, waking the receiver if it is parked. Consumes
    /// the sender.
    pub fn send(self, value: T) {
        self.shared.settle(Some(value));
    }
}

impl<T> Drop for OneshotSender<T> {
    fn drop(&mut self) {
        // Only this sender raises the flag: up means `send` settled.
        if !self.shared.settled.load(Ordering::Relaxed) {
            self.shared.settle(None);
        }
    }
}

impl<T> OneshotReceiver<T> {
    /// Block until the reply arrives or the sender is dropped.
    pub fn recv(self) -> Result<T, RecvError> {
        self.wait(None)
    }

    /// Wait until the reply arrives, the sender is dropped, or `timeout`
    /// elapses: polling for up to [`SPIN_WAIT`] (or `timeout`, if
    /// shorter), then parked.
    pub fn recv_timeout(self, timeout: Duration) -> Result<T, RecvError> {
        self.recv_timeout_spun(timeout).0
    }

    /// [`OneshotReceiver::recv_timeout`], and whether the poll served it:
    /// the reply was not there yet when the receive began and arrived
    /// without the receiver parking.
    pub fn recv_timeout_spun(self, timeout: Duration) -> (Result<T, RecvError>, bool) {
        let settled = || self.shared.settled.load(Ordering::Acquire);
        let spun = !settled() && spin_until(SPIN_WAIT.min(timeout), settled);
        let received = self.wait(Some(timeout));
        let hit = spun && received.is_ok();
        (received, hit)
    }

    /// The parked half of both receives (`timeout: None` waits for as
    /// long as the sender lives).
    fn wait(self, timeout: Option<Duration>) -> Result<T, RecvError> {
        let deadline = timeout.map(|timeout| Instant::now() + timeout);
        let shared = &*self.shared;
        let mut state = shared.lock();
        loop {
            if let Some(value) = state.value.take() {
                return Ok(value);
            }
            if state.closed {
                return Err(RecvError::Disconnected);
            }
            state.parked = true;
            state = match deadline {
                None => shared.ready.wait(state).expect("oneshot poisoned"),
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        state.parked = false;
                        return Err(RecvError::Timeout);
                    }
                    let waited = shared.ready.wait_timeout(state, left);
                    waited.expect("oneshot poisoned").0
                }
            };
            state.parked = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_across_threads() {
        let (tx, rx) = channel::<u64>();
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            tx.send(7);
        });
        assert_eq!(rx.recv(), Ok(7));
        sender.join().unwrap();
    }

    #[test]
    fn dropped_sender_disconnects() {
        let (tx, rx) = channel::<u64>();
        drop(tx);
        assert_eq!(rx.recv(), Err(RecvError::Disconnected));
    }

    #[test]
    fn timeout_fires_without_a_reply() {
        let (tx, rx) = channel::<u64>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvError::Timeout)
        );
        drop(tx);
    }

    /// A receiver parked on the condvar is woken by a send from another
    /// thread, and one parked past the poll by the sender's drop.
    #[test]
    fn a_parked_receiver_is_woken_by_send_and_by_drop() {
        let (tx, rx) = channel::<u64>();
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            tx.send(9);
        });
        assert_eq!(rx.recv_timeout_spun(Duration::from_secs(5)), (Ok(9), false));
        sender.join().unwrap();
        let (tx, rx) = channel::<u64>();
        let dropper = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            drop(tx);
        });
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)),
            Err(RecvError::Disconnected)
        );
        dropper.join().unwrap();
    }

    #[test]
    fn reply_beats_timeout() {
        let (tx, rx) = channel::<&'static str>();
        tx.send("now");
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok("now"));
    }
}
