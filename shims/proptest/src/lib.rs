//! Offline shim for `proptest`: a deterministic property-testing harness
//! exposing the subset of the proptest API this workspace uses —
//! [`Strategy`] over integer ranges, tuples, and [`collection::vec`],
//! `prop_map`, the [`proptest!`] macro with `ProptestConfig::with_cases`,
//! and the `prop_assert*`/`prop_assume!` macros.
//!
//! Unlike real proptest there is no shrinking: a failing case panics with
//! the assertion message and the case's seed. Generation is fully
//! deterministic (seeded from the test name), so failures reproduce.

use std::ops::Range;

/// Runner configuration; only the case count is honored.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of accepted (non-rejected) cases to run per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Why a generated case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// The case was rejected by `prop_assume!` and should not be counted.
    Reject(String),
    /// An assertion failed.
    Fail(String),
}

/// Deterministic generator RNG (splitmix64).
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates an RNG for one generated case.
    pub fn new(seed: u64, case: u64) -> Self {
        TestRng {
            state: seed ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Multiply-shift bounded sampling; bias is negligible for the
        // small bounds used in tests.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// FNV-1a hash of a test name, used as the per-test base seed.
pub fn seed_from_name(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A generator of values for property tests.
pub trait Strategy {
    /// The generated value type.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy adapter produced by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! impl_unsigned_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = self.end as u64 - self.start as u64;
                self.start + rng.below(span) as $t
            }
        }
    )*};
}

macro_rules! impl_signed_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i64).wrapping_sub(self.start as i64) as u64;
                (self.start as i64 + rng.below(span) as i64) as $t
            }
        }
    )*};
}

impl_unsigned_range!(u8, u16, u32, u64, usize);
impl_signed_range!(i64);

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Number of elements a [`vec`] strategy may generate.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// Strategy generating `Vec`s of `element` with a length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// Strategy produced by [`vec`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// The commonly-imported surface, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assume, proptest, ProptestConfig, Strategy, TestCaseError,
    };
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running the body over generated inputs.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $($rest:tt)*
    ) => {
        $crate::proptest!(@impl ($config) $($rest)*);
    };
    (
        $(#[$meta:meta])*
        fn $name:ident($($args:tt)*) $body:block
        $($rest:tt)*
    ) => {
        $crate::proptest!(@impl ($crate::ProptestConfig::default())
            $(#[$meta])* fn $name($($args)*) $body $($rest)*);
    };
    (@impl ($config:expr)) => {};
    (@impl ($config:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $config;
            let __seed = $crate::seed_from_name(concat!(module_path!(), "::", stringify!($name)));
            let mut __accepted: u32 = 0;
            let mut __attempt: u64 = 0;
            while __accepted < __config.cases {
                let mut __rng = $crate::TestRng::new(__seed, __attempt);
                __attempt += 1;
                $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)+
                let __outcome = (|| -> ::std::result::Result<(), $crate::TestCaseError> {
                    $body
                    ::std::result::Result::Ok(())
                })();
                match __outcome {
                    ::std::result::Result::Ok(()) => __accepted += 1,
                    ::std::result::Result::Err($crate::TestCaseError::Reject(_)) => {
                        assert!(
                            __attempt < 1_000_000,
                            "proptest: too many rejected cases in {}",
                            stringify!($name)
                        );
                    }
                    ::std::result::Result::Err($crate::TestCaseError::Fail(__msg)) => {
                        panic!(
                            "proptest case failed (seed {:#x}, attempt {}): {}",
                            __seed,
                            __attempt - 1,
                            __msg
                        );
                    }
                }
            }
        }
        $crate::proptest!(@impl ($config) $($rest)*);
    };
}

/// Asserts a condition inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(
                ::std::format!($($fmt)+),
            ));
        }
    };
}

/// Asserts equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: `{:?}` != `{:?}`",
            __l,
            __r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: `{:?}` != `{:?}`: {}",
            __l,
            __r,
            ::std::format!($($fmt)+)
        );
    }};
}

/// Rejects the current case unless the condition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Reject(
                ::std::string::String::from(stringify!($cond)),
            ));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::collection::vec;
    use crate::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::TestRng::new(1, 2);
        for _ in 0..1000 {
            let x = Strategy::generate(&(3u32..17), &mut rng);
            assert!((3..17).contains(&x));
            let y = Strategy::generate(&(-5i64..5), &mut rng);
            assert!((-5..5).contains(&y));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let strat = vec(0u32..100, 0..20);
        let a: Vec<u32> = {
            let mut rng = crate::TestRng::new(42, 7);
            Strategy::generate(&strat, &mut rng)
        };
        let b: Vec<u32> = {
            let mut rng = crate::TestRng::new(42, 7);
            Strategy::generate(&strat, &mut rng)
        };
        assert_eq!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_machinery_works(xs in vec(0u32..10, 1..50), k in 1usize..4) {
            prop_assume!(!xs.is_empty());
            let doubled: Vec<u32> = xs.iter().map(|x| x * 2).collect();
            prop_assert_eq!(doubled.len(), xs.len());
            prop_assert!(k < 4, "k was {}", k);
        }
    }
}
