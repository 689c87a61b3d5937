//! Seeded inputs for the selector tests: a Zipfian-skewed item picker
//! drawing the three transaction shapes of the `dynamic_skewed` benchmark
//! workload, and the metrics an epoch snapshot is fitted from.

use dbmodel::{AccessMode, Catalog, CcMethod, LogicalItemId, SiteId, Transaction, TxnId};
use metrics::SimMetrics;
use simkit::dist::Zipfian;
use simkit::rng::SimRng;
use simkit::time::{Duration, SimTime};

/// `(reads, read-modify-writes)` per transaction: the lookup-dominated
/// shape, the classic two-item transfer and the message-heavy wide one.
const SHAPES: [(usize, usize); 3] = [(4, 1), (0, 2), (4, 4)];

/// A Zipfian-skewed picker over item ids `0..items`; `theta = 0` is the
/// uniform distribution, `theta = 0.99` the standard YCSB hot set.
pub struct SkewedItems {
    items: u64,
    zipf: Zipfian,
}

impl SkewedItems {
    pub fn new(items: u64, theta: f64) -> Self {
        SkewedItems {
            items,
            zipf: Zipfian::new(items as usize, theta),
        }
    }

    /// `k` *distinct* skew-weighted items. A collision re-samples a
    /// bounded number of times (keeping the hot head hot), then falls
    /// back to a linear sweep from the last sample — so the degenerate
    /// high-theta case where `k` approaches the item count terminates in
    /// `O(k · items)` worst case instead of degrading into unbounded
    /// rejection. `k > items` is a caller bug and panics in every build
    /// (the old debug-only assert let release builds spin forever).
    pub fn pick_distinct(&self, rng: &mut SimRng, k: usize) -> Vec<LogicalItemId> {
        assert!(
            k as u64 <= self.items,
            "cannot pick {k} distinct items out of {}",
            self.items
        );
        const MAX_RESAMPLES: u32 = 8;
        let mut picked: Vec<LogicalItemId> = Vec::with_capacity(k);
        for _ in 0..k {
            let mut id = self.zipf.sample_index(rng) as u64;
            let mut resamples = 0;
            while picked.iter().any(|p| p.0 == id) {
                if resamples < MAX_RESAMPLES {
                    resamples += 1;
                    id = self.zipf.sample_index(rng) as u64;
                } else {
                    id = (id + 1) % self.items;
                }
            }
            picked.push(LogicalItemId(id));
        }
        picked
    }

    /// One transaction — what the STL selector sees — of a shape drawn
    /// uniformly from `SHAPES`, on distinct skew-picked items.
    pub fn mixed_transaction(&self, rng: &mut SimRng, id: u64) -> Transaction {
        let (reads, writes) = SHAPES[rng.next_index(SHAPES.len())];
        let picked = self.pick_distinct(rng, reads + writes);
        let (reads, writes) = picked.split_at(reads);
        Transaction::builder(TxnId(id), SiteId(0))
            .reads(reads.iter().copied())
            .writes(writes.iter().copied())
            .build()
    }
}

/// The metrics a runtime holds after committing `txns` round-robin over the
/// three methods in 100 ms with no denial, restart or backoff: one grant
/// and one ~80 µs lock hold per accessed copy. The selector tests fit
/// their epoch snapshots from this.
pub fn committed_metrics(catalog: &Catalog, txns: &[Transaction]) -> SimMetrics {
    let mut metrics = SimMetrics::new();
    for (i, txn) in txns.iter().enumerate() {
        let method = CcMethod::ALL[i % 3];
        for (set, mode) in [
            (txn.read_set(), AccessMode::Read),
            (txn.write_set(), AccessMode::Write),
        ] {
            for &item in set {
                let copy = catalog.physical_copies(item).expect("catalogued item")[0];
                metrics.record_grant(copy, mode);
                metrics.record_lock_hold(method, Duration::from_micros(60 + i as u64 % 40), false);
            }
        }
        metrics.record_commit(method, Duration::from_micros(150));
    }
    metrics.set_time_span(SimTime::ZERO, SimTime::from_millis(100));
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_have_distinct_items_and_declared_sizes() {
        let skew = SkewedItems::new(64, 0.99);
        let mut rng = SimRng::new(7);
        for (reads, writes) in SHAPES {
            for _ in 0..200 {
                let picked = skew.pick_distinct(&mut rng, reads + writes);
                let mut ids: Vec<u64> = picked.iter().map(|i| i.0).collect();
                ids.sort_unstable();
                ids.dedup();
                assert_eq!(ids.len(), reads + writes);
                assert!(ids.iter().all(|&i| i < 64));
            }
        }
    }

    /// The degenerate case the old rejection loop mishandled: `k` equal
    /// to the whole item count under heavy skew must return every item
    /// exactly once, quickly, for any seed.
    #[test]
    fn pick_distinct_survives_k_equal_to_item_count() {
        for theta in [0.0, 0.99, 1.2] {
            let skew = SkewedItems::new(32, theta);
            for seed in 0..20 {
                let mut rng = SimRng::new(seed);
                let picked = skew.pick_distinct(&mut rng, 32);
                let mut ids: Vec<u64> = picked.iter().map(|i| i.0).collect();
                ids.sort_unstable();
                assert_eq!(
                    ids,
                    (0..32).collect::<Vec<u64>>(),
                    "theta {theta} seed {seed}: all 32 items, each once"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot pick")]
    fn pick_distinct_rejects_k_beyond_item_count() {
        let skew = SkewedItems::new(4, 0.5);
        let mut rng = SimRng::new(1);
        let _ = skew.pick_distinct(&mut rng, 5);
    }

    #[test]
    fn high_theta_concentrates_low_theta_spreads() {
        let mut rng = SimRng::new(11);
        let mut hot_share = |theta: f64| {
            let skew = SkewedItems::new(1024, theta);
            let hits = (0..4000)
                .filter(|_| skew.pick_distinct(&mut rng, 1)[0].0 < 16)
                .count();
            hits as f64 / 4000.0
        };
        let uniform = hot_share(0.0);
        let skewed = hot_share(0.99);
        assert!(
            skewed > 0.3 && uniform < 0.1,
            "theta=0.99 must concentrate on the hot head \
             (hot-16 share: skewed {skewed:.2} vs uniform {uniform:.2})"
        );
    }
}
