//! Seeded inputs: key table, payload pool and the op ring. Everything the
//! program under test sees is generated here, in set-up, from `--seed`.

use bytes::Bytes;

/// Ops in one batched client call.
pub const BATCH: usize = 64;
/// Ops in the ring: ≥ 1 M, a whole number of batches, and a whole number of
/// put/get/get batch cycles so the cycle survives the wrap-around.
pub const RING_OPS: usize = 3 * BATCH * 5462;
const _: () = assert!(RING_OPS >= 1_000_000);
/// Distinct payloads; a put picks one by index.
pub const POOL: usize = 1024;

/// splitmix64: small, seedable, and good enough to draw keys with.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in 0..n.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize
    }
}

/// How keys are drawn.
#[derive(Clone, Copy)]
pub enum KeyDist {
    Uniform,
    Zipf(f64),
}

/// Which ops a workload issues.
#[derive(Clone, Copy)]
pub enum Mix {
    /// Each op is a put with this probability, else a get.
    PutShare(f64),
    /// Whole batches alternate put, get, get.
    PutGetGetBatches,
}

/// Zipf probabilities of ranks 1..=n: p(r) ∝ r^-theta.
pub fn zipf_probabilities(n: usize, theta: f64) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-theta)).collect();
    let total: f64 = weights.iter().sum();
    weights.into_iter().map(|w| w / total).collect()
}

/// Draws key indices: uniform, or Zipf ranks mapped through a seeded
/// shuffle so the hot keys differ from seed to seed.
struct KeyChooser {
    cdf: Vec<f64>,
    rank_to_key: Vec<u32>,
    keys: usize,
}

impl KeyChooser {
    fn new(keys: usize, dist: KeyDist, rng: &mut Rng) -> Self {
        let (cdf, rank_to_key) = match dist {
            KeyDist::Uniform => (Vec::new(), Vec::new()),
            KeyDist::Zipf(theta) => {
                let mut acc = 0.0;
                let cdf = zipf_probabilities(keys, theta)
                    .into_iter()
                    .map(|p| {
                        acc += p;
                        acc
                    })
                    .collect();
                let mut perm: Vec<u32> = (0..keys as u32).collect();
                for i in (1..keys).rev() {
                    perm.swap(i, rng.below(i + 1));
                }
                (cdf, perm)
            }
        };
        KeyChooser {
            cdf,
            rank_to_key,
            keys,
        }
    }

    fn next(&self, rng: &mut Rng) -> u32 {
        if self.cdf.is_empty() {
            return rng.below(self.keys) as u32;
        }
        let u = rng.next_f64();
        let rank = self.cdf.partition_point(|&c| c <= u).min(self.keys - 1);
        self.rank_to_key[rank]
    }
}

/// One generated operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Op {
    pub put: bool,
    pub key: u32,
    pub payload: u16,
}

/// Everything a workload feeds the program.
pub struct Inputs {
    pub keys: Vec<String>,
    pub pool: Vec<Bytes>,
    pub ring: Vec<Op>,
}

impl Inputs {
    pub fn generate(seed: u64, keys: usize, value_bytes: usize, dist: KeyDist, mix: Mix) -> Self {
        let mut rng = Rng::new(seed);
        let pool = (0..POOL)
            .map(|i| {
                let mut v = vec![0u8; value_bytes];
                for chunk in v.chunks_mut(8) {
                    let word = rng.next_u64().to_le_bytes();
                    chunk.copy_from_slice(&word[..chunk.len()]);
                }
                // The index in front makes the payloads pairwise distinct.
                v[..2].copy_from_slice(&(i as u16).to_le_bytes());
                Bytes::from(v)
            })
            .collect();
        let chooser = KeyChooser::new(keys, dist, &mut rng);
        let ring = (0..RING_OPS)
            .map(|i| Op {
                put: match mix {
                    Mix::PutShare(p) => rng.next_f64() < p,
                    Mix::PutGetGetBatches => (i / BATCH).is_multiple_of(3),
                },
                key: chooser.next(&mut rng),
                payload: rng.below(POOL) as u16,
            })
            .collect();
        Inputs {
            keys: (0..keys).map(|i| format!("k{i:07}")).collect(),
            pool,
            ring,
        }
    }

    /// FNV-1a over the op ring: two runs fed the same inputs agree on it.
    pub fn sequence_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for op in &self.ring {
            eat(u64::from(op.put) << 48 | u64::from(op.payload) << 32 | u64::from(op.key));
        }
        h
    }

    /// The payload every key holds after preload.
    pub fn preload_payload(key: usize) -> u16 {
        (key % POOL) as u16
    }

    /// The `i`-th key, wrapping around the key table.
    pub fn key(&self, i: usize) -> &str {
        &self.keys[i % self.keys.len()]
    }

    /// The `i`-th payload, wrapping around the pool.
    pub fn value(&self, i: usize) -> Bytes {
        self.pool[i % self.pool.len()].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> Inputs {
        Inputs::generate(seed, 500, 32, KeyDist::Zipf(0.99), Mix::PutShare(0.2))
    }

    #[test]
    fn same_seed_same_sequence_and_other_seed_differs() {
        assert_eq!(small(7).sequence_hash(), small(7).sequence_hash());
        assert_ne!(small(7).sequence_hash(), small(8).sequence_hash());
        assert_eq!(small(7).pool, small(7).pool);
        assert_ne!(small(7).pool, small(8).pool);
    }

    #[test]
    fn ring_is_whole_batches_and_cycles() {
        assert_eq!(RING_OPS % (3 * BATCH), 0);
        let inputs = Inputs::generate(1, 100, 16, KeyDist::Uniform, Mix::PutGetGetBatches);
        assert_eq!(inputs.ring.len(), RING_OPS);
        for (b, batch) in inputs.ring.chunks(BATCH).enumerate() {
            assert!(batch.iter().all(|op| op.put == (b % 3 == 0)));
        }
    }

    #[test]
    fn zipf_table_sums_to_one_and_is_skewed() {
        let p = zipf_probabilities(16_384, 0.99);
        let total: f64 = p.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "sum {total}");
        assert!(p.windows(2).all(|w| w[0] > w[1]));
        let hot: f64 = p[..4096].iter().sum();
        assert!(hot > 0.8, "top quarter carries {hot}");
    }

    #[test]
    fn put_share_is_respected_and_keys_in_range() {
        let inputs = small(3);
        let puts = inputs.ring.iter().filter(|op| op.put).count() as f64;
        let share = puts / RING_OPS as f64;
        assert!((share - 0.2).abs() < 0.005, "put share {share}");
        assert!(inputs.ring.iter().all(|op| (op.key as usize) < 500));
        assert!(inputs.ring.iter().all(|op| (op.payload as usize) < POOL));
    }

    #[test]
    fn payloads_are_distinct() {
        let inputs = small(5);
        let mut seen = std::collections::BTreeSet::new();
        for p in &inputs.pool {
            assert!(seen.insert(p.to_vec()));
        }
    }
}
