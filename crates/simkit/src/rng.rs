//! Seedable random number generation for the simulator.
//!
//! [`SimRng`] wraps a small, fast, seedable generator (xoshiro256**-style,
//! implemented locally so the simulation does not depend on the exact stream
//! of any external crate version) and exposes exactly the primitives the
//! workload generator and distributions need. Splitting off independent
//! sub-streams with [`SimRng::fork`] keeps components (arrival process,
//! transaction shape, network delays) decoupled: adding a draw in one
//! component does not perturb the randomness seen by the others.

/// A deterministic, seedable pseudo-random number generator.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// The `n`-th value (counting from 0) of the SplitMix64 stream seeded with
/// `seed`, computed directly — a counter-based generator: threads that
/// share one stream draw `n` from an atomic counter and need no lock.
pub fn splitmix64_nth(seed: u64, n: u64) -> u64 {
    let mut state = seed.wrapping_add(n.wrapping_mul(0x9E3779B97F4A7C15));
    splitmix64(&mut state)
}

/// Map 64 random bits to a uniform value in `[0, 1)` (the top 53 become the
/// mantissa).
pub fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl SimRng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derive an independent generator for a named sub-component.
    ///
    /// The derived stream depends on both this generator's seed material and
    /// the `stream` label, so distinct components get uncorrelated streams
    /// that are stable across runs.
    pub fn fork(&self, stream: u64) -> SimRng {
        let mut sm = self.s[0] ^ self.s[3] ^ stream.wrapping_mul(0xA24BAED4963EE407);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Next raw 64-bit value (xoshiro256** step).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform value in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// A uniform integer in `[0, bound)`. `bound` must be non-zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below bound must be positive");
        // Lemire-style rejection-free-enough approach with widening multiply;
        // bias is negligible for the bounds used here but we reject to be exact.
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound || low >= (u64::MAX - bound + 1) % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// A uniform usize in `[0, bound)`.
    pub fn next_index(&mut self, bound: usize) -> usize {
        self.next_below(bound as u64) as usize
    }

    /// Bernoulli draw with probability `p` of returning `true`.
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Choose `k` distinct indices uniformly at random from `[0, n)`.
    ///
    /// Uses a partial Fisher-Yates shuffle; `k` is clamped to `n`.
    pub fn sample_distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        let k = k.min(n);
        let mut pool: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.next_index(n - i);
            pool.swap(i, j);
        }
        pool.truncate(k);
        pool
    }

    /// Shuffle a slice in place (Fisher-Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        let n = items.len();
        for i in (1..n).rev() {
            let j = self.next_index(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 5);
    }

    #[test]
    fn forked_streams_are_stable_and_distinct() {
        let root = SimRng::new(7);
        let mut x1 = root.fork(1);
        let mut x2 = root.fork(1);
        let mut y = root.fork(2);
        assert_eq!(x1.next_u64(), x2.next_u64());
        assert_ne!(x1.next_u64(), y.next_u64());
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = SimRng::new(3);
        for _ in 0..10_000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn next_below_respects_bound_and_covers_range() {
        let mut r = SimRng::new(11);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = r.next_below(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn sample_distinct_yields_unique_indices() {
        let mut r = SimRng::new(5);
        for _ in 0..100 {
            let sample = r.sample_distinct(20, 8);
            assert_eq!(sample.len(), 8);
            let mut sorted = sample.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 8);
            assert!(sorted.iter().all(|&i| i < 20));
        }
    }

    #[test]
    fn sample_distinct_clamps_to_population() {
        let mut r = SimRng::new(5);
        let sample = r.sample_distinct(3, 10);
        let mut sorted = sample.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
    }

    #[test]
    fn bernoulli_frequency_tracks_probability() {
        let mut r = SimRng::new(9);
        let hits = (0..100_000).filter(|_| r.next_bool(0.3)).count();
        let freq = hits as f64 / 100_000.0;
        assert!((freq - 0.3).abs() < 0.01, "freq = {freq}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SimRng::new(13);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
