//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no access to a crates.io registry, so this
//! workspace-local crate implements the API subset the repository's property
//! tests use: the [`proptest!`] macro, range/tuple/`Just`/`prop_map`/
//! `prop_oneof!` strategies, [`collection::vec`], [`any`], and
//! [`test_runner::Config`] (`ProptestConfig::with_cases`).
//!
//! Semantics are simplified relative to upstream: cases are drawn from a
//! deterministic generator (so failures reproduce across runs), and there is
//! **no shrinking** — a failing case panics with the assertion message of the
//! first failure.

#![forbid(unsafe_code)]

pub mod strategy {
    //! Value-generation strategies.

    use std::fmt::Debug;
    use std::ops::{Range, RangeInclusive};

    /// Deterministic generator driving all strategies (SplitMix64).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Creates a generator for one test case.
        pub fn new(seed: u64) -> Self {
            Self {
                state: seed ^ 0x9e37_79b9_7f4a_7c15,
            }
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, bound)`.
        pub fn below(&mut self, bound: u64) -> u64 {
            assert!(bound > 0, "cannot sample an empty range");
            if bound.is_power_of_two() {
                return self.next_u64() & (bound - 1);
            }
            let zone = u64::MAX - (u64::MAX % bound) - 1;
            loop {
                let v = self.next_u64();
                if v <= zone {
                    return v % bound;
                }
            }
        }
    }

    /// A recipe for generating values of an associated type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<T, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> T,
        {
            Map { inner: self, f }
        }

        /// Type-erases the strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    /// A type-erased strategy.
    pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

    impl<S: Strategy + ?Sized> Strategy for Box<S> {
        type Value = S::Value;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            (**self).sample(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            (**self).sample(rng)
        }
    }

    /// Strategy generating a single constant value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// [`Strategy::prop_map`] adaptor.
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, F, T> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> T,
    {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            (self.f)(self.inner.sample(rng))
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as i128 - lo as i128) as u64;
                    if span == u64::MAX {
                        return (rng.next_u64() as i128 + lo as i128) as $t;
                    }
                    (lo as i128 + rng.below(span + 1) as i128) as $t
                }
            }
        )*};
    }

    impl_range_strategy!(usize, u64, u32, u16, u8, i64, i32, i16, i8);

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident $idx:tt),+);)*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A 0);
        (A 0, B 1);
        (A 0, B 1, C 2);
        (A 0, B 1, C 2, D 3);
        (A 0, B 1, C 2, D 3, E 4);
    }

    /// Weighted union of strategies (built by [`crate::prop_oneof!`]).
    pub struct Union<V> {
        arms: Vec<(u32, BoxedStrategy<V>)>,
        total: u64,
    }

    impl<V> Union<V> {
        /// Builds a union; weights must not all be zero.
        pub fn new(arms: Vec<(u32, BoxedStrategy<V>)>) -> Self {
            let total: u64 = arms.iter().map(|&(w, _)| u64::from(w)).sum();
            assert!(total > 0, "prop_oneof! needs a positive total weight");
            Self { arms, total }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn sample(&self, rng: &mut TestRng) -> V {
            let mut pick = rng.below(self.total);
            for (w, s) in &self.arms {
                let w = u64::from(*w);
                if pick < w {
                    return s.sample(rng);
                }
                pick -= w;
            }
            unreachable!("weighted pick within total")
        }
    }

    /// Full-range strategy for primitive types (see [`crate::any`]).
    #[derive(Debug, Clone, Default)]
    pub struct Any<T>(std::marker::PhantomData<T>);

    impl<T> Any<T> {
        /// Creates the strategy.
        pub fn new() -> Self {
            Any(std::marker::PhantomData)
        }
    }

    macro_rules! impl_any {
        ($($t:ty),*) => {$(
            impl Strategy for Any<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_any!(u64, i64, u32, i32, usize, u16, i16, u8, i8);

    impl Strategy for Any<bool> {
        type Value = bool;
        fn sample(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

/// Full-range strategy for a primitive type: `any::<i64>()`.
pub fn any<T>() -> strategy::Any<T>
where
    strategy::Any<T>: strategy::Strategy<Value = T>,
{
    strategy::Any::new()
}

pub mod collection {
    //! Collection strategies.

    use super::strategy::{Strategy, TestRng};
    use std::ops::Range;

    /// Length specification for [`vec()`]: a fixed size or a half-open range.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // inclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    /// Strategy for vectors whose elements come from `element`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generates `Vec`s with lengths drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = if self.size.lo == self.size.hi {
                self.size.lo
            } else {
                self.size.lo + rng.below((self.size.hi - self.size.lo + 1) as u64) as usize
            };
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod test_runner {
    //! Test-runner configuration.

    /// Runner configuration (`ProptestConfig` in the prelude).
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of cases each property runs.
        pub cases: u32,
    }

    impl Config {
        /// A configuration running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Self { cases: 64 }
        }
    }
}

/// Common imports for property tests.
pub mod prelude {
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Asserts a condition inside a property (panics on failure; no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Asserts equality inside a property (panics on failure; no shrinking).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Asserts inequality inside a property (panics on failure; no shrinking).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Weighted choice between strategies: `prop_oneof![3 => a, 1 => b]`.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($strategy))),+
        ])
    };
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $((1u32, $crate::strategy::Strategy::boxed($strategy))),+
        ])
    };
}

/// Declares property tests: each function runs its body once per generated
/// case, with arguments drawn from the given strategies.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            config = $crate::test_runner::Config::default();
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($args:tt)*) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::Config = $cfg;
            // Per-test deterministic seed: hash of the test name, so
            // different properties explore different streams but failures
            // reproduce run-to-run.
            let mut name_seed: u64 = 0xcbf2_9ce4_8422_2325;
            for b in stringify!($name).bytes() {
                name_seed ^= b as u64;
                name_seed = name_seed.wrapping_mul(0x0000_0100_0000_01b3);
            }
            for case in 0..u64::from(config.cases) {
                let mut rng = $crate::strategy::TestRng::new(
                    name_seed.wrapping_add(case.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
                );
                $crate::__proptest_bind!(rng; $($args)*);
                $body
            }
        }
    )*};
}

/// Binds property arguments: `name in strategy` draws from the strategy,
/// `name: Type` draws from `any::<Type>()`.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_bind {
    ($rng:ident;) => {};
    ($rng:ident; $arg:ident in $strategy:expr, $($rest:tt)*) => {
        let $arg = $crate::strategy::Strategy::sample(&($strategy), &mut $rng);
        $crate::__proptest_bind!($rng; $($rest)*);
    };
    ($rng:ident; $arg:ident in $strategy:expr) => {
        let $arg = $crate::strategy::Strategy::sample(&($strategy), &mut $rng);
    };
    ($rng:ident; $arg:ident : $ty:ty, $($rest:tt)*) => {
        let $arg = $crate::strategy::Strategy::sample(&$crate::any::<$ty>(), &mut $rng);
        $crate::__proptest_bind!($rng; $($rest)*);
    };
    ($rng:ident; $arg:ident : $ty:ty) => {
        let $arg = $crate::strategy::Strategy::sample(&$crate::any::<$ty>(), &mut $rng);
    };
}
