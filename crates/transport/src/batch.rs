//! A small-vector batch: the unit the send batcher hands to a shard.
//!
//! Protocol batches are almost always tiny (a transaction sends a handful
//! of messages per destination shard), so [`SmallBatch`] stores the first
//! [`INLINE_BATCH`] values inline — the whole batch travels through the
//! ring *inside its slot*, with no heap allocation on the client and, more
//! importantly, no cross-thread `free` on the shard. Larger batches spill
//! the remainder into a `Vec`.

/// Values stored inline before spilling to the heap.
pub const INLINE_BATCH: usize = 4;

/// A batch of values, inline up to [`INLINE_BATCH`], spilled beyond.
#[derive(Debug, Clone)]
pub struct SmallBatch<T> {
    inline: [Option<T>; INLINE_BATCH],
    len: usize,
    spill: Vec<T>,
}

impl<T> Default for SmallBatch<T> {
    fn default() -> Self {
        SmallBatch {
            inline: [None, None, None, None],
            len: 0,
            spill: Vec::new(),
        }
    }
}

impl<T> SmallBatch<T> {
    /// An empty batch.
    pub fn new() -> Self {
        SmallBatch::default()
    }

    /// Append a value, spilling to the heap past the inline capacity.
    pub fn push(&mut self, value: T) {
        if self.len < INLINE_BATCH {
            self.inline[self.len] = Some(value);
        } else {
            self.spill.push(value);
        }
        self.len += 1;
    }

    /// Number of values in the batch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate the values in push order.
    pub fn iter(&self) -> impl Iterator<Item = &T> + Clone {
        self.inline
            .iter()
            .take(self.len)
            .filter_map(Option::as_ref)
            .chain(self.spill.iter())
    }

    /// Iterate the values mutably, in push order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.inline
            .iter_mut()
            .take(self.len)
            .filter_map(Option::as_mut)
            .chain(self.spill.iter_mut())
    }
}

impl<T> IntoIterator for SmallBatch<T> {
    type Item = T;
    type IntoIter = std::iter::Chain<
        std::iter::Flatten<std::array::IntoIter<Option<T>, INLINE_BATCH>>,
        std::vec::IntoIter<T>,
    >;

    /// The values by value, in push order (unused inline slots are `None`).
    fn into_iter(self) -> Self::IntoIter {
        self.inline.into_iter().flatten().chain(self.spill)
    }
}

impl<T> FromIterator<T> for SmallBatch<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut batch = SmallBatch::new();
        for value in iter {
            batch.push(value);
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_then_spill_preserves_order() {
        let mut batch = SmallBatch::new();
        for i in 0..10 {
            batch.push(i);
        }
        assert_eq!(batch.len(), 10);
        assert!(!batch.is_empty());
        let seen: Vec<i32> = batch.iter().copied().collect();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        for value in batch.iter_mut() {
            *value *= 2;
        }
        let owned: Vec<i32> = batch.into_iter().collect();
        assert_eq!(owned, (0..10).map(|i| 2 * i).collect::<Vec<_>>());
    }

    #[test]
    fn small_batches_never_touch_the_heap() {
        let batch: SmallBatch<u64> = (0..INLINE_BATCH as u64).collect();
        assert_eq!(batch.len(), INLINE_BATCH);
        assert_eq!(batch.spill.capacity(), 0, "no spill alloc at capacity");
    }

    #[test]
    fn empty_batch_iterates_nothing() {
        let batch: SmallBatch<String> = SmallBatch::new();
        assert!(batch.is_empty());
        assert_eq!(batch.iter().count(), 0);
    }
}
