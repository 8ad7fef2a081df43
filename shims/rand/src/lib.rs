//! Offline shim for the `rand` crate: a deterministic `SmallRng`
//! (xoshiro256++ seeded through splitmix64) behind the subset of the
//! `Rng`/`SeedableRng` API this workspace uses. The build environment has
//! no crates.io access, so the real crate cannot be fetched.

/// Types that can be sampled from a uniform bit stream.
pub trait Sample: Sized {
    /// Draws one value from the RNG.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Sample for i64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as i64
    }
}

impl Sample for f64 {
    /// Uniform in `[0, 1)` using the top 53 bits.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Core RNG interface: a source of uniform 64-bit words.
pub trait RngCore {
    /// Next uniform 64-bit word.
    fn next_u64(&mut self) -> u64;
}

/// Convenience sampling methods (subset of `rand::Rng`).
pub trait Rng: RngCore {
    /// Draws a uniform value of type `T`.
    fn gen<T: Sample>(&mut self) -> T {
        T::sample(self)
    }

    /// Uniform integer in `[low, high)`.
    fn gen_range(&mut self, range: std::ops::Range<u64>) -> u64 {
        let span = range.end - range.start;
        assert!(span > 0, "empty gen_range");
        // Lemire-style widening multiply avoids modulo bias well enough for
        // the simulation workloads here.
        let x = self.next_u64();
        range.start + ((x as u128 * span as u128) >> 64) as u64
    }

    /// Bernoulli draw with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Construction from integer seeds (subset of `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Builds an RNG from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// A small, fast, deterministic RNG (xoshiro256++).
    #[derive(Debug, Clone)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut st = seed;
            SmallRng {
                s: [
                    splitmix64(&mut st),
                    splitmix64(&mut st),
                    splitmix64(&mut st),
                    splitmix64(&mut st),
                ],
            }
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_and_in_range() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            let x: f64 = a.gen();
            let y: f64 = b.gen();
            assert_eq!(x, y);
            assert!((0.0..1.0).contains(&x));
        }
        let mut c = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            let v = c.gen_range(10..20);
            assert!((10..20).contains(&v));
        }
    }
}
