//! # transport — the runtime's message plane
//!
//! The primitives every message crosses between runtime threads, built
//! on `std::sync` alone (no `unsafe`):
//!
//! * [`ring`] — a bounded MPSC ring: a `VecDeque` behind one `Mutex`,
//!   with park/unpark backpressure on both sides. Since shards run an
//!   idle core's command on the caller's thread, only commands that find
//!   the core busy reach a shard's inbox, and the consumer drains the
//!   whole ring per wake-up. An empty ring's consumer parks and is
//!   unparked by the next producer (a `Condvar` there measured slower);
//!   producers blocked on a full ring wait on a `Condvar` that is only
//!   notified while one is counted as waiting.
//! * [`oneshot`] — a single-use reply channel for control-plane
//!   request/response conversations (wait-for edges, log snapshots,
//!   waiting-transaction reports), replacing the ad-hoc
//!   `std::sync::mpsc::channel()` pair allocated per call.
//! * [`mailbox`] — the reply direction: a slab of reusable bounded
//!   mailboxes (one per client, recycled through a `Mutex<Vec>` freelist
//!   instead of allocated per conversation), addressed by keys that carry
//!   their slot, so routing an event to its waiting consumer is an array
//!   index and a compare under that slot's binding lock. A delivery
//!   pushes under the same lock a deregister takes, so an event addressed
//!   to a retired key never enters a mailbox.
//! * [`stamp`] — the process-wide monotonic nanosecond clock every plane
//!   timestamps against (ring dwell meters, the trace crate's
//!   flight-recorder events), so durations measured on different threads
//!   subtract meaningfully.
//! * [`SPIN_WAIT`] / [`spin_until`] — the one bounded spin every waiter
//!   whose answer comes from a running thread polls through before it
//!   parks.
//! * [`CachePadded`] — align a value to its own cache line so hot atomics
//!   (per-stripe metric shards, the trace ring's head) do not
//!   false-share.
//!
//! The crate is deliberately free of runtime-specific types: it moves `T`s
//! between threads and knows nothing about transactions.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

pub mod batch;
pub mod mailbox;
pub mod oneshot;
pub mod ring;
pub mod stamp;

/// How long a waiter whose answer is on its way from a *running* thread
/// polls for it before it parks: a reply receive ([`mailbox::Mailbox`],
/// [`oneshot::OneshotReceiver`]) and, in the runtime, a submit that finds
/// a shard's core held. Sized to what parking costs — a wake-up is a
/// thread hop of ≈ 6.5 µs on a 2-core x86-64 VM — against the few
/// microseconds a running thread takes to answer: a spin that outlasts
/// the hop can only lose. A time, not a spin count, so the bound means
/// the same on any CPU.
pub const SPIN_WAIT: Duration = Duration::from_micros(8);

/// Poll `ready` under `spin_loop` until it answers `true` or `bound` has
/// passed; returns its last answer. The clock is first read once the
/// first poll failed.
pub fn spin_until(bound: Duration, mut ready: impl FnMut() -> bool) -> bool {
    if ready() {
        return true;
    }
    let deadline = Instant::now() + bound;
    loop {
        std::hint::spin_loop();
        if ready() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
    }
}

/// Pads and aligns a value to 128 bytes, the size of two x86-64 cache
/// lines (the adjacent-line prefetcher pulls pairs, so 64-byte alignment
/// still false-shares across the pair boundary).
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T>(pub T);

impl<T> CachePadded<T> {
    /// Wrap a value in its own cache line.
    pub const fn new(value: T) -> Self {
        CachePadded(value)
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spin_until_answers_at_once_or_after_the_bound() {
        assert!(
            spin_until(Duration::ZERO, || true),
            "a ready poll needs no time"
        );
        let begun = Instant::now();
        assert!(!spin_until(Duration::from_micros(200), || false));
        assert!(begun.elapsed() >= Duration::from_micros(200));
        let mut polls = 0;
        assert!(spin_until(Duration::from_secs(5), || {
            polls += 1;
            polls == 3
        }));
    }

    #[test]
    fn cache_padded_is_aligned_and_transparent() {
        let padded = CachePadded::new(7u64);
        assert_eq!(*padded, 7);
        assert_eq!(std::mem::align_of::<CachePadded<u8>>(), 128);
        let pair: [CachePadded<u8>; 2] = [CachePadded::new(1), CachePadded::new(2)];
        let a = &pair[0].0 as *const u8 as usize;
        let b = &pair[1].0 as *const u8 as usize;
        assert!(b - a >= 128, "neighbours must sit on distinct line pairs");
    }
}
