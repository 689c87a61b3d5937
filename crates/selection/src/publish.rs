//! A published `Arc`: readers load the current value without taking a
//! lock, one writer at a time replaces it.
//!
//! [`Published`] is the seam between the selector's two cadences: every
//! admission [`Published::load`]s the current epoch, a re-fit — tens of
//! milliseconds apart — [`Published::update`]s it. The value lives in one
//! of two slots; `live` names the slot readers may clone from and each slot
//! counts the readers currently looking at it. A reader pins the slot it
//! believes live, re-checks that it still is, clones the `Arc` and unpins —
//! two atomic increments and no waiting. The writer fills the *spare* slot
//! once nothing pins it, flips `live`, then empties the old slot once its
//! last pin is gone, so a replaced value is freed as soon as the readers
//! that cloned it let go.
//!
//! All five atomics accesses of the protocol are `SeqCst`: the argument
//! below needs the pin increment, the `live` re-check, the flip and the
//! pin-count poll to sit in one total order (it is Dekker's handshake — a
//! store followed by a load of the other side's variable, on both sides).

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Mutex, PoisonError};

struct Slot<T> {
    /// Readers between their pin and their unpin on this slot.
    pins: AtomicUsize,
    value: UnsafeCell<Option<Arc<T>>>,
}

/// An `Option<Arc<T>>` that many threads read and one thread at a time
/// replaces; see the module documentation.
pub struct Published<T> {
    slots: [Slot<T>; 2],
    /// Index of the slot readers clone from.
    live: AtomicUsize,
    /// Serializes writers; never touched by [`Published::load`].
    writer: Mutex<()>,
}

// SAFETY: the only non-`Sync` field is each slot's `UnsafeCell`. A slot's
// value is written only by the thread holding `writer`, only while the slot
// is not live and not pinned, and read (cloned) only by readers that pinned
// it and then saw it live — `load` and `update` show why those never
// overlap. What crosses threads is `Arc<T>` (cloned by readers, dropped by
// whichever thread lets go last), which needs `T: Send + Sync`.
unsafe impl<T: Send + Sync> Sync for Published<T> {}

impl<T> Published<T> {
    /// A cell holding `initial`.
    pub fn new(initial: Option<Arc<T>>) -> Published<T> {
        let slot = |value| Slot {
            pins: AtomicUsize::new(0),
            value: UnsafeCell::new(value),
        };
        Published {
            slots: [slot(initial), slot(None)],
            live: AtomicUsize::new(0),
            writer: Mutex::new(()),
        }
    }

    /// The current value. Lock-free: retries only when a writer flipped
    /// `live` between the pin and the re-check.
    pub fn load(&self) -> Option<Arc<T>> {
        loop {
            let i = self.live.load(SeqCst);
            let slot = &self.slots[i];
            slot.pins.fetch_add(1, SeqCst);
            let seen = (self.live.load(SeqCst) == i).then(|| {
                // SAFETY: slot `i` is pinned by this thread and was live
                // *after* the pin. The writer writes a slot only after (a)
                // flipping `live` away from it and (b) then polling its pin
                // count to zero. If that poll came before our pin in the
                // total order, so did the flip, and the re-check above
                // would have failed; so the poll comes after, sees our pin,
                // and the writer waits until the unpin below. The value we
                // read was stored before the flip that made `i` live, which
                // the re-check observed.
                unsafe { (*slot.value.get()).clone() }
            });
            slot.pins.fetch_sub(1, SeqCst);
            if let Some(value) = seen {
                return value;
            }
        }
    }

    /// Replace the value with what `next` makes of the current one (`None`
    /// from `next` leaves it in place). Writers are serialized for the
    /// whole call, `next` included, so `next` always sees the value it
    /// replaces; readers keep loading the old value until `next` returns.
    /// Returns the value now current.
    pub fn update(&self, next: impl FnOnce(Option<&Arc<T>>) -> Option<Arc<T>>) -> Option<Arc<T>> {
        // The guarded state is `()`: a writer that panicked inside `next`
        // had not touched a slot yet, so the poison carries no meaning.
        let _writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let live = self.live.load(SeqCst);
        // SAFETY: only the holder of `writer` (this thread) writes slots,
        // and it does not write the live one; concurrent readers only
        // clone through a shared reference.
        let current = unsafe { (*self.slots[live].value.get()).clone() };
        let Some(fresh) = next(current.as_ref()) else {
            return current;
        };
        let spare = 1 - live;
        self.wait_unpinned(spare);
        // SAFETY: `spare` is not live and its pin count was just seen at
        // zero. A reader pinning it from here on re-checks `live`, which
        // keeps naming the other slot until the store below, so it backs
        // off without touching the value.
        unsafe { *self.slots[spare].value.get() = Some(Arc::clone(&fresh)) };
        self.live.store(spare, SeqCst);
        self.wait_unpinned(live);
        // SAFETY: as above with the roles swapped — `live` (the old slot)
        // stopped being live at the store, and every reader that saw it
        // live before that has unpinned.
        unsafe { *self.slots[live].value.get() = None };
        Some(fresh)
    }

    /// Spin until no reader pins `slot`. A pin spans one `Arc` clone, so
    /// the wait is a few instructions unless a pinned reader was preempted.
    fn wait_unpinned(&self, slot: usize) {
        let mut spins = 0u32;
        while self.slots[slot].pins.load(SeqCst) != 0 {
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

impl<T> std::fmt::Debug for Published<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Published")
            .field("live", &self.live.load(SeqCst))
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;

    #[test]
    fn update_sees_the_value_it_replaces_and_frees_it() {
        let cell = Published::new(None);
        assert!(cell.load().is_none());
        let first = cell.update(|prev| {
            assert!(prev.is_none());
            Some(Arc::new(1u64))
        });
        assert_eq!(first.as_deref(), Some(&1));
        let retired = Arc::downgrade(&first.expect("just published"));
        let second = cell.update(|prev| Some(Arc::new(**prev.expect("holds 1") + 1)));
        assert_eq!(second.as_deref(), Some(&2));
        assert_eq!(cell.load().as_deref(), Some(&2));
        assert!(retired.upgrade().is_none(), "the replaced value was freed");
        // Declining to replace leaves the value in place.
        assert_eq!(cell.update(|_| None).as_deref(), Some(&2));
    }

    /// Readers race a writer that publishes `(n, 2n)` pairs: a reader must
    /// only ever see a pair some `update` published, whole.
    #[test]
    fn readers_never_see_a_torn_or_freed_value() {
        const READERS: usize = 4;
        let cell = Published::new(Some(Arc::new((0u64, 0u64))));
        let done = AtomicBool::new(false);
        let start = Barrier::new(READERS + 1);
        std::thread::scope(|scope| {
            for _ in 0..READERS {
                scope.spawn(|| {
                    start.wait();
                    let mut last = 0;
                    while !done.load(SeqCst) {
                        let pair = cell.load().expect("never emptied");
                        assert_eq!(pair.1, pair.0 * 2, "torn value");
                        assert!(pair.0 >= last, "values went backwards");
                        last = pair.0;
                    }
                });
            }
            start.wait();
            for n in 1..=20_000u64 {
                cell.update(|_| Some(Arc::new((n, n * 2))));
            }
            done.store(true, SeqCst);
        });
        assert_eq!(cell.load().as_deref(), Some(&(20_000, 40_000)));
    }

    #[test]
    fn a_writer_panic_leaves_the_last_value_published() {
        let cell = Published::new(Some(Arc::new(7u64)));
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cell.update(|_| panic!("fit blew up"));
        }));
        assert!(panicked.is_err());
        assert_eq!(cell.load().as_deref(), Some(&7));
        assert_eq!(cell.update(|_| Some(Arc::new(8))).as_deref(), Some(&8));
    }
}
