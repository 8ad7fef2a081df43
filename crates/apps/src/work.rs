//! Synthetic compute kernel standing in for the applications' numerics.
//!
//! The skeletons must spend *time* between runtime events so that (a) the
//! PYTHIA-RECORD overhead of Table I is measured against a realistic
//! compute-dominated baseline and (b) the timing model has meaningful
//! durations to learn. [`WorkScale`] converts abstract *work units*
//! (grid points, particles, …) to a busy-wait; setting it to zero turns
//! compute off entirely, which the structural tests use to run the whole
//! suite in milliseconds.

use std::time::{Duration, Instant};

/// Converts abstract work units into busy-wait time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkScale {
    /// Nanoseconds of compute per work unit (0 = no compute at all).
    pub ns_per_unit: u64,
}

impl WorkScale {
    /// No compute: events fire back-to-back (structure-only runs).
    pub const ZERO: WorkScale = WorkScale { ns_per_unit: 0 };

    /// Busy-waits for `units` work units.
    pub fn compute(&self, units: u64) {
        if self.ns_per_unit == 0 || units == 0 {
            return;
        }
        spin_for(Duration::from_nanos(units.saturating_mul(self.ns_per_unit)));
    }

    /// The wall-clock duration `units` corresponds to.
    pub fn duration_of(&self, units: u64) -> Duration {
        Duration::from_nanos(units.saturating_mul(self.ns_per_unit))
    }
}

/// Busy-waits (spin loop) for `d`. Spinning rather than sleeping keeps the
/// thread on-core, like a real compute kernel, so fork/join costs of the
/// OpenMP experiments are realistic.
pub fn spin_for(d: Duration) {
    if d.is_zero() {
        return;
    }
    let start = Instant::now();
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// A tiny deterministic PRNG (SplitMix64) used by the irregular
/// applications (AMG, Quicksilver) so that "data-dependent" communication
/// is reproducible run-to-run for a given seed.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        self.next_u64() % bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_scale_is_free() {
        let t0 = Instant::now();
        WorkScale::ZERO.compute(1_000_000_000);
        assert!(t0.elapsed() < Duration::from_millis(10));
    }

    #[test]
    fn spin_waits_roughly_right() {
        let scale = WorkScale { ns_per_unit: 1000 };
        let t0 = Instant::now();
        scale.compute(500); // 500µs
        let e = t0.elapsed();
        assert!(e >= Duration::from_micros(500), "{e:?}");
        assert!(e < Duration::from_millis(50), "{e:?}");
    }

    #[test]
    fn duration_of_matches_scale() {
        let scale = WorkScale { ns_per_unit: 10 };
        assert_eq!(scale.duration_of(100), Duration::from_micros(1));
    }

    #[test]
    fn splitmix_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
        }
    }
}
