//! The frozen, seeded workload generator.
//!
//! Everything a workload's transaction stream depends on lives in this
//! file — the RNG, the Zipfian table, the shape mixes and the counts — and
//! it links nothing from the repository, so no change outside `benchmark/`
//! can alter what a workload sends. The pinned stream hashes in the tests
//! below fail if this file itself drifts.

/// xoshiro256** seeded through splitmix64.
pub struct Rng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Rng {
    pub fn new(seed: u64) -> Rng {
        let mut state = seed;
        Rng {
            s: std::array::from_fn(|_| splitmix64(&mut state)),
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let out = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-40 for the
    /// item counts used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipfian ranks over `0..n`: rank `i` has weight `1 / (i + 1)^theta`.
/// Rank `i` *is* item `i`, so the hot head alternates between shards under
/// the catalog's round-robin placement.
pub struct Zipf {
    n: u64,
    /// Cumulative distribution; empty for `theta == 0` (exactly uniform).
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Zipf {
        assert!(n > 0, "a distribution over no items");
        if theta == 0.0 {
            return Zipf { n, cdf: Vec::new() };
        }
        let mut cdf: Vec<f64> = Vec::with_capacity(n as usize);
        let mut total = 0.0;
        for i in 0..n {
            total += 1.0 / ((i + 1) as f64).powf(theta);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { n, cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        if self.cdf.is_empty() {
            return rng.below(self.n);
        }
        let u = rng.unit();
        (self.cdf.partition_point(|&c| c <= u) as u64).min(self.n - 1)
    }

    /// `k` distinct items: a collision re-samples a bounded number of times
    /// (keeping the hot head hot), then probes linearly so it terminates.
    fn sample_distinct(&self, rng: &mut Rng, k: usize, out: &mut Vec<u64>) {
        assert!(k as u64 <= self.n, "cannot pick {k} distinct of {}", self.n);
        out.clear();
        for _ in 0..k {
            let mut id = self.sample(rng);
            let mut resamples = 0;
            while out.contains(&id) {
                if resamples < 8 {
                    resamples += 1;
                    id = self.sample(rng);
                } else {
                    id = (id + 1) % self.n;
                }
            }
            out.push(id);
        }
    }
}

/// What one transaction does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `reads` plain reads plus `writes` read-modify-writes: written item
    /// `j` gets `value + 1` for even `j`, `value - 1` for odd `j`, so an
    /// even write set conserves the total and an odd one adds one.
    Rmw { reads: usize, writes: usize },
    /// One commutative `item += 1` (confluent: bypass eligible).
    Add,
    /// `reads` plain reads and nothing else (snapshot eligible).
    ReadOnly { reads: usize },
}

impl Shape {
    /// `(plain reads, written items)` of one transaction of this shape.
    pub fn counts(self) -> (usize, usize) {
        match self {
            Shape::Rmw { reads, writes } => (reads, writes),
            Shape::Add => (0, 1),
            Shape::ReadOnly { reads } => (reads, 0),
        }
    }
}

/// One generated transaction: the shape and the distinct items it touches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnDesc {
    pub shape: Shape,
    pub reads: Vec<u64>,
    pub writes: Vec<u64>,
}

impl TxnDesc {
    /// What a commit of this transaction adds to the sum of all items.
    pub fn net_increment(&self) -> i64 {
        match self.shape {
            Shape::Rmw { writes, .. } => (writes % 2) as i64,
            Shape::Add => 1,
            Shape::ReadOnly { .. } => 0,
        }
    }
}

const TRANSFER: Shape = Shape::Rmw {
    reads: 0,
    writes: 2,
};
const WIDE: Shape = Shape::Rmw {
    reads: 4,
    writes: 4,
};
const READ_HEAVY: Shape = Shape::Rmw {
    reads: 4,
    writes: 1,
};

/// How the database assigns a method to a coordinated transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// One third each of 2PL, T/O and PA.
    MixedThirds,
    Static2pl,
    /// The STL selector chooses per transaction.
    DynamicStl,
}

/// One benchmark workload. `mix` lists `(weight, shape)`: every transaction
/// draws its shape with these weights, then its items from the Zipfian.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub items: u64,
    pub theta: f64,
    /// Measured transactions per rep.
    pub measured: usize,
    /// Warm-up transactions per rep (part of `setup_s`).
    pub warmup: usize,
    pub policy: Policy,
    pub mix: &'static [(u32, Shape)],
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "transfer_uniform",
        why: "2-item RMW transfers, uniform over 4096 items, 2PL/T-O/PA mixed: no conflicts, so the transport ring and reply mailbox are most of a commit",
        items: 4096,
        theta: 0.0,
        measured: 40_000,
        warmup: 10_000,
        policy: Policy::MixedThirds,
        mix: &[(1, TRANSFER)],
    },
    Workload {
        name: "wide_hot",
        why: "4-read + 4-write transactions, Zipf 0.99 over 64 items, mixed methods: queue managers, precedence, PA backoff, T/O restarts and the deadlock detector do the work",
        items: 64,
        theta: 0.99,
        measured: 16_000,
        warmup: 5_000,
        policy: Policy::MixedThirds,
        mix: &[(1, WIDE)],
    },
    Workload {
        name: "counter_bypass",
        why: "4-in-5 single-item adds beside 1-in-5 coordinated transfers on one Zipf 0.99 head of 1024 items: the confluent bypass carries the load and its refusals and fallbacks show",
        items: 1024,
        theta: 0.99,
        measured: 40_000,
        warmup: 10_000,
        policy: Policy::Static2pl,
        mix: &[(4, Shape::Add), (1, TRANSFER)],
    },
    Workload {
        name: "read_mostly",
        why: "7-in-8 four-item read-only transactions beside 1-in-8 transfers, Zipf 0.99 over 1024 items: the snapshot plane serves the reads while writers pay the version installs",
        items: 1024,
        theta: 0.99,
        measured: 40_000,
        warmup: 10_000,
        policy: Policy::Static2pl,
        mix: &[(7, Shape::ReadOnly { reads: 4 }), (1, TRANSFER)],
    },
    Workload {
        name: "dynamic_skewed",
        why: "DynamicStl policy over three shapes, Zipf 0.6 over 1024 items: the only workload that runs the selector, so a selector change moves it and no other",
        items: 1024,
        theta: 0.6,
        measured: 3_000,
        warmup: 2_000,
        policy: Policy::DynamicStl,
        mix: &[(1, READ_HEAVY), (1, TRANSFER), (1, WIDE)],
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

impl Workload {
    /// The first `count` transactions of stream `stream` at `seed`. Streams
    /// are independent: reps use their rep index, the correctness slice
    /// [`CORRECTNESS_STREAM`].
    pub fn generate(&self, seed: u64, stream: u64, count: usize) -> Vec<TxnDesc> {
        let mut key = FNV_OFFSET;
        fnv1a(&mut key, self.name.as_bytes());
        fnv1a(&mut key, &seed.to_le_bytes());
        fnv1a(&mut key, &stream.to_le_bytes());
        let mut rng = Rng::new(key);
        let zipf = Zipf::new(self.items, self.theta);
        let total_weight: u32 = self.mix.iter().map(|&(w, _)| w).sum();
        let mut picked = Vec::new();
        (0..count)
            .map(|_| {
                let mut draw = rng.below(total_weight as u64) as u32;
                let mut shape = self.mix[0].1;
                for &(weight, candidate) in self.mix {
                    if draw < weight {
                        shape = candidate;
                        break;
                    }
                    draw -= weight;
                }
                let (reads, writes) = shape.counts();
                zipf.sample_distinct(&mut rng, reads + writes, &mut picked);
                TxnDesc {
                    shape,
                    reads: picked[..reads].to_vec(),
                    writes: picked[reads..].to_vec(),
                }
            })
            .collect()
    }
}

/// Stream id of the correctness slice (rep indices never reach it).
pub const CORRECTNESS_STREAM: u64 = u64::MAX;

/// FNV-1a over a stream — what the pinned tests compare.
#[cfg(test)]
pub fn stream_hash(stream: &[TxnDesc]) -> u64 {
    let mut hash = FNV_OFFSET;
    for txn in stream {
        let tag: u8 = match txn.shape {
            Shape::Rmw { .. } => 0,
            Shape::Add => 1,
            Shape::ReadOnly { .. } => 2,
        };
        fnv1a(
            &mut hash,
            &[tag, txn.reads.len() as u8, txn.writes.len() as u8],
        );
        for item in txn.reads.iter().chain(&txn.writes) {
            fnv1a(&mut hash, &item.to_le_bytes());
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for w in &WORKLOADS {
            let a = w.generate(7, 0, 500);
            assert_eq!(a, w.generate(7, 0, 500), "{}: seed 7 repeats", w.name);
            assert_ne!(a, w.generate(8, 0, 500), "{}: seed 8 differs", w.name);
            assert_ne!(a, w.generate(7, 1, 500), "{}: stream 1 differs", w.name);
        }
    }

    #[test]
    fn a_longer_stream_extends_a_shorter_one() {
        let w = &WORKLOADS[1];
        assert_eq!(w.generate(3, 0, 100)[..], w.generate(3, 0, 300)[..100]);
    }

    #[test]
    fn declared_shape_sizes_and_distinct_items_hold() {
        for w in &WORKLOADS {
            let mut seen = Vec::new();
            for txn in w.generate(11, 2, 2_000) {
                let (reads, writes) = txn.shape.counts();
                assert_eq!((txn.reads.len(), txn.writes.len()), (reads, writes));
                let mut items: Vec<u64> = txn.reads.iter().chain(&txn.writes).copied().collect();
                assert!(items.iter().all(|&i| i < w.items), "{}: in range", w.name);
                items.sort_unstable();
                items.dedup();
                assert_eq!(items.len(), reads + writes, "{}: distinct", w.name);
                assert!(w.mix.iter().any(|&(_, s)| s == txn.shape));
                if !seen.contains(&txn.shape) {
                    seen.push(txn.shape);
                }
            }
            assert_eq!(seen.len(), w.mix.len(), "{}: every shape drawn", w.name);
        }
    }

    #[test]
    fn mix_weights_are_respected() {
        let w = workload("counter_bypass").unwrap();
        let stream = w.generate(5, 0, 20_000);
        let adds = stream.iter().filter(|t| t.shape == Shape::Add).count();
        let share = adds as f64 / stream.len() as f64;
        assert!((share - 0.8).abs() < 0.02, "adds are 4 in 5, saw {share}");
    }

    #[test]
    fn zipf_concentrates_and_uniform_spreads() {
        let mut rng = Rng::new(1);
        let mut head_share = |theta: f64| {
            let z = Zipf::new(1024, theta);
            (0..8_000).filter(|_| z.sample(&mut rng) < 16).count() as f64 / 8_000.0
        };
        let (uniform, skewed) = (head_share(0.0), head_share(0.99));
        assert!(uniform < 0.05 && skewed > 0.3, "{uniform} vs {skewed}");
    }

    #[test]
    fn net_increment_matches_the_body_rule() {
        let w = workload("dynamic_skewed").unwrap();
        for txn in w.generate(1, 0, 300) {
            let expected = match txn.shape {
                Shape::Rmw { writes: 1, .. } => 1,
                _ => 0,
            };
            assert_eq!(txn.net_increment(), expected);
        }
    }

    /// The first 1,000 transactions of every workload at seed 1, pinned. A
    /// change here changes every number the benchmark has ever reported.
    #[test]
    fn pinned_stream_hashes() {
        let pinned: [(&str, u64); 5] = [
            ("transfer_uniform", 0x5cc9_f60d_fcb9_b913),
            ("wide_hot", 0x88ac_1cc6_0682_c2e3),
            ("counter_bypass", 0x3d5f_8e3d_8a48_bfde),
            ("read_mostly", 0x204e_c203_8ad8_c213),
            ("dynamic_skewed", 0x3ad6_282e_cee3_10f6),
        ];
        for (name, hash) in pinned {
            let stream = workload(name).unwrap().generate(1, 0, 1_000);
            assert_eq!(
                stream_hash(&stream),
                hash,
                "{name}: {:#018x}",
                stream_hash(&stream)
            );
        }
    }
}
