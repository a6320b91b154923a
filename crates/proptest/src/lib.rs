//! A small, dependency-free re-implementation of the subset of the
//! [proptest](https://docs.rs/proptest) API this workspace uses.
//!
//! The build environment is fully offline, so the real crates.io `proptest`
//! cannot be fetched. This crate keeps the property tests source-compatible:
//! `proptest!`, `prop_assert*!`, `prop_oneof!`, `Just`, `Strategy`
//! (`prop_map` / `prop_flat_map`), `prop::collection::vec`, and
//! `ProptestConfig::with_cases` all work as in upstream proptest.
//!
//! Differences from upstream, by design:
//!
//! * Generation is a fixed deterministic pseudo-random sweep (splitmix64
//!   seeded from the test name and case index) — every run of a test explores
//!   the identical case sequence, which suits a deterministic simulator.
//! * There is no shrinking. On failure the offending inputs are printed
//!   verbatim before the panic is propagated; cases here are small enough to
//!   read directly.

#![forbid(unsafe_code)]

use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};

/// Run-time configuration for a `proptest!` block.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 256 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases per test.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

/// Deterministic splitmix64 generator used for all value generation.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds a generator; the same seed always yields the same stream.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Derives the per-case seed for `test_name` at case index `case`.
    pub fn for_case(test_name: &str, case: u32) -> Self {
        // FNV-1a over the name, mixed with the case index.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Self::new(h ^ (u64::from(case)).wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u128) -> u128 {
        debug_assert!(bound > 0);
        let wide = u128::from(self.next_u64()) << 64 | u128::from(self.next_u64());
        wide % bound
    }
}

/// A generator of test-case values.
///
/// Unlike upstream proptest there is no value tree: `generate` directly
/// produces a value from the deterministic RNG.
pub trait Strategy {
    /// The generated value type.
    type Value: Debug;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        O: Debug,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Generates a value, then generates from the strategy `f` builds from it.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// Always produces a clone of the wrapped value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone + Debug>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    O: Debug,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, T, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    T: Strategy,
    F: Fn(S::Value) -> T,
{
    type Value = T::Value;
    fn generate(&self, rng: &mut TestRng) -> T::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// A boxed, type-erased strategy (what [`Strategy::boxed`] returns).
pub struct BoxedStrategy<V>(Box<dyn ObjectSafeStrategy<V>>);

trait ObjectSafeStrategy<V> {
    fn generate_erased(&self, rng: &mut TestRng) -> V;
}

impl<S: Strategy> ObjectSafeStrategy<S::Value> for S {
    fn generate_erased(&self, rng: &mut TestRng) -> S::Value {
        self.generate(rng)
    }
}

impl<V: Debug> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        self.0.generate_erased(rng)
    }
}

/// Uniform choice among boxed strategies (backs `prop_oneof!`).
pub struct OneOf<V>(pub Vec<BoxedStrategy<V>>);

impl<V: Debug> Strategy for OneOf<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let idx = rng.below(self.0.len() as u128) as usize;
        self.0[idx].generate(rng)
    }
}

/// Integers the range strategies can sample.
pub trait SampleUniform: Copy + Debug {
    /// Widens to u128 for span arithmetic.
    fn to_u128(self) -> u128;
    /// Narrows from u128 (value is guaranteed in range).
    fn from_u128(v: u128) -> Self;
}

macro_rules! impl_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn to_u128(self) -> u128 {
                self as u128
            }
            fn from_u128(v: u128) -> Self {
                v as $t
            }
        }
    )*};
}

impl_sample_uniform!(u8, u16, u32, u64, usize);

impl<T: SampleUniform> Strategy for Range<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let lo = self.start.to_u128();
        let hi = self.end.to_u128();
        assert!(lo < hi, "empty range strategy");
        T::from_u128(lo + rng.below(hi - lo))
    }
}

impl<T: SampleUniform> Strategy for RangeInclusive<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let lo = self.start().to_u128();
        let hi = self.end().to_u128();
        assert!(lo <= hi, "empty range strategy");
        T::from_u128(lo + rng.below(hi - lo + 1))
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

/// The `prop::` namespace (`prop::collection::vec` et al.).
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::{Strategy, TestRng};
        use std::ops::Range;

        /// Strategy for `Vec`s of `element` values with a length drawn from
        /// `size`.
        pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
            VecStrategy { element, size }
        }

        /// See [`vec()`].
        pub struct VecStrategy<S> {
            element: S,
            size: Range<usize>,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let span = (self.size.end - self.size.start) as u128;
                assert!(span > 0, "empty vec size range");
                let len = self.size.start + rng.below(span) as usize;
                (0..len).map(|_| self.element.generate(rng)).collect()
            }
        }
    }
}

/// Everything the property tests import.
pub mod prelude {
    pub use crate::{
        prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, BoxedStrategy,
        Just, ProptestConfig, Strategy,
    };
}

/// Declares property tests; see the crate docs for supported syntax.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    (($cfg:expr) $( $(#[$meta:meta])* fn $name:ident ( $($pat:pat_param in $strat:expr),+ $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                for case in 0..config.cases {
                    let mut rng = $crate::TestRng::for_case(stringify!($name), case);
                    let values = ( $( $crate::Strategy::generate(&($strat), &mut rng), )+ );
                    let described = format!("{:?}", values);
                    let outcome = ::std::panic::catch_unwind(
                        ::std::panic::AssertUnwindSafe(move || {
                            let ( $($pat,)+ ) = values;
                            $body
                        }),
                    );
                    if let Err(panic) = outcome {
                        eprintln!(
                            "proptest: test {} failed at case {}/{} with inputs {}",
                            stringify!($name),
                            case,
                            config.cases,
                            described,
                        );
                        ::std::panic::resume_unwind(panic);
                    }
                }
            }
        )*
    };
}

/// Asserts a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Uniformly picks one of several strategies per generated value.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::OneOf(vec![ $( $crate::Strategy::boxed($strategy) ),+ ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::TestRng;

    #[test]
    fn rng_is_deterministic() {
        let mut a = TestRng::for_case("x", 3);
        let mut b = TestRng::for_case("x", 3);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = TestRng::for_case("x", 4);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = TestRng::new(7);
        for _ in 0..1000 {
            let v = (5u32..17).generate(&mut rng);
            assert!((5..17).contains(&v));
            let w = (0u8..=3).generate(&mut rng);
            assert!(w <= 3);
        }
    }

    #[test]
    fn vec_and_tuple_strategies_compose() {
        let mut rng = TestRng::new(9);
        let s = prop::collection::vec((0u64..4, 0u32..2), 1..10);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!(!v.is_empty() && v.len() < 10);
            assert!(v.iter().all(|&(a, b)| a < 4 && b < 2));
        }
    }

    #[test]
    fn oneof_and_flat_map_cover_all_arms() {
        let mut rng = TestRng::new(11);
        let s = (1u32..5).prop_flat_map(|n| (Just(n), prop_oneof![0u32..1, 10u32..11]));
        let mut saw = [false, false];
        for _ in 0..200 {
            let (n, v) = s.generate(&mut rng);
            assert!((1..5).contains(&n));
            assert!(v == 0 || v == 10);
            saw[usize::from(v == 10)] = true;
        }
        assert!(saw[0] && saw[1]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn macro_binds_tuple_patterns((a, b) in (0u32..10, 0u32..10), c in 0u8..=1) {
            prop_assert!(a < 10);
            prop_assert_ne!(b, 10);
            prop_assert_eq!(u32::from(c) * 20 < 40, true);
        }
    }
}
