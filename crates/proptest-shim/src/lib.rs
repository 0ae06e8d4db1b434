//! A minimal, dependency-free stand-in for the [`proptest`] crate.
//!
//! This workspace builds fully offline (no crates.io access), so the real
//! proptest cannot be vendored. This shim implements exactly the API
//! surface the repository's property tests use — deterministic, seeded
//! random-input testing with strategies, `proptest!`, `prop_assert*!` and
//! `prop_assume!` — with per-test seeds derived from the test name, so
//! every run explores the same input sequence (reproducible failures).
//!
//! Differences from real proptest, by design:
//!
//! * no shrinking — a failing case reports its case number and message;
//! * strategies sample uniformly (no bias toward edge values);
//! * `ProptestConfig` only carries `cases`.
//!
//! [`proptest`]: https://docs.rs/proptest

use std::ops::{Range, RangeInclusive};

/// Deterministic SplitMix64 generator driving all strategies.
#[derive(Debug, Clone)]
pub struct TestRng(u64);

impl TestRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be nonzero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// How a single generated case ended.
#[derive(Debug)]
pub enum TestCaseError {
    /// An assertion failed; the message describes it.
    Fail(String),
    /// `prop_assume!` rejected the inputs; the case is re-drawn.
    Reject,
}

/// Per-test configuration (only `cases` is supported).
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of accepted input cases to run.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` accepted inputs.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

/// FNV-1a over the test name: a stable per-test seed.
pub fn seed_from_name(name: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A generator of test inputs.
pub trait Strategy {
    /// The generated input type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Builds a dependent strategy from each generated value.
    fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S2: Strategy,
        F: Fn(Self::Value) -> S2,
    {
        FlatMap { inner: self, f }
    }
}

/// Strategy always yielding a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, U, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, S2, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;

    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($ty:ty),*) => {$(
        impl Strategy for Range<$ty> {
            type Value = $ty;

            fn generate(&self, rng: &mut TestRng) -> $ty {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end - self.start) as u64;
                self.start + rng.next_below(span) as $ty
            }
        }

        impl Strategy for RangeInclusive<$ty> {
            type Value = $ty;

            fn generate(&self, rng: &mut TestRng) -> $ty {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi - lo) as u64 + 1;
                lo + rng.next_below(span) as $ty
            }
        }
    )*};
}

impl_range_strategy!(u32, u64, usize, u8, u16);

impl Strategy for Range<f32> {
    type Value = f32;

    fn generate(&self, rng: &mut TestRng) -> f32 {
        self.start + (rng.next_unit() as f32) * (self.end - self.start)
    }
}

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.next_unit() * (self.end - self.start)
    }
}

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);

/// Types with a canonical full-domain strategy (see [`any`]).
pub trait Arbitrary: Sized {
    /// Draws a value from the type's full domain.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for u32 {
    fn arbitrary(rng: &mut TestRng) -> u32 {
        rng.next_u64() as u32
    }
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut TestRng) -> u64 {
        rng.next_u64()
    }
}

impl Arbitrary for usize {
    fn arbitrary(rng: &mut TestRng) -> usize {
        rng.next_u64() as usize
    }
}

impl Arbitrary for u8 {
    fn arbitrary(rng: &mut TestRng) -> u8 {
        rng.next_u64() as u8
    }
}

/// Full-domain strategy for `T` (`any::<u32>()`, `any::<bool>()`, ...).
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

/// See [`any`].
#[derive(Debug, Clone, Copy)]
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Vector of `element`-generated values with length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.generate(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Everything a property test needs in scope.
pub mod prelude {
    pub use crate::{
        any, collection, prop_assert, prop_assert_eq, prop_assume, proptest, Arbitrary, Just,
        ProptestConfig, Strategy, TestCaseError, TestRng,
    };
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

/// Fails the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                l,
                r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return Err($crate::TestCaseError::Fail(format!($($fmt)+)));
        }
    }};
}

/// Rejects the current inputs (the case is re-drawn, not failed).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::Reject);
        }
    };
}

/// Declares seeded property tests.
///
/// ```
/// use proptest::prelude::*;
///
/// proptest! {
///     // `#[test]` goes here in a real test module.
///     fn addition_commutes(a in 0u32..1000, b in 0u32..1000) {
///         prop_assert_eq!(a + b, b + a);
///     }
/// }
/// addition_commutes();
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cfg ($cfg); $($rest)*);
    };
    (@cfg ($cfg:expr); $($(#[$meta:meta])* fn $name:ident(
        $($arg:ident in $strat:expr),+ $(,)?
    ) $body:block)*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::new($crate::seed_from_name(stringify!($name)));
            let mut accepted: u32 = 0;
            let mut attempts: u32 = 0;
            while accepted < config.cases {
                attempts += 1;
                assert!(
                    attempts <= config.cases.saturating_mul(16).max(64),
                    "too many rejected cases ({} accepted of {} wanted)",
                    accepted,
                    config.cases
                );
                $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                let outcome = (move || -> Result<(), $crate::TestCaseError> {
                    $body
                    #[allow(unreachable_code)]
                    Ok(())
                })();
                match outcome {
                    Ok(()) => accepted += 1,
                    Err($crate::TestCaseError::Reject) => {}
                    Err($crate::TestCaseError::Fail(msg)) => {
                        panic!("property failed at case {accepted}: {msg}");
                    }
                }
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@cfg ($crate::ProptestConfig::default()); $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::seed_from_name;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::new(1);
        for _ in 0..1000 {
            let v = (5u32..17).generate(&mut rng);
            assert!((5..17).contains(&v));
            let f = (0.25f32..0.75).generate(&mut rng);
            assert!((0.25..0.75).contains(&f));
            let i = (3u64..=3).generate(&mut rng);
            assert_eq!(i, 3);
        }
    }

    #[test]
    fn vec_strategy_respects_size() {
        let mut rng = TestRng::new(2);
        for _ in 0..100 {
            let v = collection::vec(0u32..10, 2..6).generate(&mut rng);
            assert!((2..6).contains(&v.len()));
        }
    }

    #[test]
    fn seeds_are_stable() {
        assert_eq!(seed_from_name("abc"), seed_from_name("abc"));
        assert_ne!(seed_from_name("abc"), seed_from_name("abd"));
    }

    proptest! {
        #[test]
        fn macro_roundtrip(a in 0u32..100, flag in any::<bool>()) {
            prop_assume!(a != 13);
            prop_assert!(a < 100);
            if flag {
                prop_assert_eq!(a + 1, 1 + a);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn flat_map_composes(v in (1u64..10).prop_flat_map(|n| (Just(n), 0u64..n))) {
            let (n, k) = v;
            prop_assert!(k < n);
        }
    }
}
