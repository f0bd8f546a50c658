//! Offline mini-proptest.
//!
//! Implements the `proptest` macro surface the workspace uses —
//! `proptest! { #[test] fn f(x in strategy, ...) { ... } }`, `prop_assert!`,
//! `prop_assert_eq!`, `prop_oneof!`, `Just`, range strategies, tuples,
//! `prop_map`, `prop_recursive`, `collection::vec`, and `any::<T>()` — on a
//! deterministic SplitMix64 generator, without shrinking. Each test case is
//! seeded from the test's name and case index, so failures reproduce
//! exactly on rerun; set `PROPTEST_SEED` to shift the whole stream.

#![allow(clippy::all, clippy::pedantic, clippy::nursery)]
use std::rc::Rc;

/// Deterministic per-case random source.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Build a generator for one `(test, case)` pair.
    pub fn for_case(test_name: &str, case: u64) -> Self {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in test_name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        let env =
            std::env::var("PROPTEST_SEED").ok().and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
        TestRng { state: h ^ case.wrapping_mul(0x9E3779B97F4A7C15) ^ env }
    }

    /// Next raw 64-bit word (SplitMix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0);
        self.next_u64() % n
    }
}

/// Runner configuration and failure types.
pub mod test_runner {
    /// Stand-in for `proptest::test_runner::Config`.
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of cases each property runs.
        pub cases: u32,
    }

    impl Config {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 64 }
        }
    }

    /// Why a test case did not pass.
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        /// The case failed an assertion.
        Fail(String),
        /// The case asked to be skipped.
        Reject(String),
    }

    impl TestCaseError {
        /// A failing case.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }

        /// A rejected (skipped) case.
        pub fn reject(msg: impl Into<String>) -> Self {
            TestCaseError::Reject(msg.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                TestCaseError::Fail(m) => write!(f, "{m}"),
                TestCaseError::Reject(m) => write!(f, "rejected: {m}"),
            }
        }
    }

    /// Result alias matching proptest's.
    pub type TestCaseResult = Result<(), TestCaseError>;
}

/// Value-generation strategies.
pub mod strategy {
    use super::TestRng;
    use std::rc::Rc;

    /// A generator of random values (no shrinking in the shim).
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Generate one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Map generated values through `f`.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }

        /// Recursive strategies: apply `f` to the current strategy `depth`
        /// times (sizes are accepted for API compatibility and ignored).
        fn prop_recursive<F, S>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch_size: u32,
            f: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> S,
            S: Strategy<Value = Self::Value> + 'static,
        {
            let mut cur = self.boxed();
            for _ in 0..depth {
                cur = f(cur).boxed();
            }
            cur
        }

        /// Type-erase.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Rc::new(move |rng: &mut TestRng| self.generate(rng)))
        }
    }

    /// A cloneable type-erased strategy.
    pub struct BoxedStrategy<V>(Rc<dyn Fn(&mut TestRng) -> V>);

    impl<V> Clone for BoxedStrategy<V> {
        fn clone(&self) -> Self {
            BoxedStrategy(Rc::clone(&self.0))
        }
    }

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            (self.0)(rng)
        }
    }

    /// Always generates a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// [`Strategy::prop_map`] adapter.
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S, F, U> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> U,
    {
        type Value = U;
        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Uniform choice between boxed strategies ([`crate::prop_oneof!`]).
    pub struct OneOf<V> {
        options: Vec<BoxedStrategy<V>>,
    }

    /// Build a [`OneOf`] from type-erased options.
    pub fn one_of<V>(options: Vec<BoxedStrategy<V>>) -> OneOf<V> {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        OneOf { options }
    }

    impl<V> Strategy for OneOf<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let i = rng.below(self.options.len() as u64) as usize;
            self.options[i].generate(rng)
        }
    }

    macro_rules! int_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end - self.start) as u64;
                    self.start + rng.below(span) as $t
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    lo + rng.below((hi - lo) as u64 + 1) as $t
                }
            }
        )*};
    }
    int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for core::ops::Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    impl Strategy for core::ops::RangeInclusive<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            let (lo, hi) = (*self.start(), *self.end());
            // unit_f64 is half-open; fold the endpoint in via rounding
            lo + rng.unit_f64() * (hi - lo)
        }
    }

    /// Regex-style string strategies, heavily simplified: a `&str` strategy
    /// generates printable strings (ASCII plus occasional multibyte
    /// codepoints); a trailing `{m,n}` repetition bound is honored, any
    /// other regex structure is ignored.
    impl Strategy for &'static str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            let (lo, hi) = parse_repeat_bounds(self).unwrap_or((0, 64));
            let len = lo + rng.below((hi - lo + 1) as u64) as usize;
            (0..len)
                .map(|_| {
                    let r = rng.next_u64();
                    if r % 16 == 0 {
                        // sprinkle some multibyte/printable-unicode chars
                        char::from_u32(0xA1 + (r >> 8) as u32 % 0x500).unwrap_or('¿')
                    } else {
                        (0x20 + (r >> 8) % 0x5F) as u8 as char
                    }
                })
                .collect()
        }
    }

    fn parse_repeat_bounds(pattern: &str) -> Option<(usize, usize)> {
        let open = pattern.rfind('{')?;
        let close = pattern.rfind('}')?;
        let body = pattern.get(open + 1..close)?;
        let (lo, hi) = body.split_once(',')?;
        Some((lo.trim().parse().ok()?, hi.trim().parse().ok()?))
    }

    macro_rules! tuple_strategy {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }
    tuple_strategy! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
        (A.0, B.1, C.2, D.3, E.4, F.5)
    }
}

/// Collection strategies.
pub mod collection {
    use super::strategy::Strategy;
    use super::TestRng;

    /// Length specification for [`vec()`].
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

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange { lo: r.start, hi: r.end }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            SizeRange { lo: *r.start(), hi: *r.end() + 1 }
        }
    }

    /// Strategy producing vectors of `elem` with lengths in `size`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { elem, size: size.into() }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + rng.below(span.max(1)) as usize;
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// `any::<T>()` support for simple primitives.
pub trait ArbitraryValue: Sized {
    /// Generate one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arb_int {
    ($($t:ty),*) => {$(
        impl ArbitraryValue for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl ArbitraryValue for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl ArbitraryValue for f64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.unit_f64()
    }
}

/// Strategy for a whole primitive domain, see [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: ArbitraryValue> strategy::Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The `any::<T>()` entry point.
pub fn any<T: ArbitraryValue>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Boolean strategies (`proptest::bool`).
pub mod bool {
    /// Uniform `true`/`false`.
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// The whole boolean domain.
    pub const ANY: Any = Any;

    impl crate::strategy::Strategy for Any {
        type Value = core::primitive::bool;
        fn generate(&self, rng: &mut crate::TestRng) -> core::primitive::bool {
            rng.next_u64() & 1 == 1
        }
    }
}

/// One-stop imports matching `proptest::prelude::*`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{Config as ProptestConfig, TestCaseError, TestCaseResult};
    pub use crate::{any, prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest};
}

// Rc is unused directly here but re-exported paths reference the module.
#[doc(hidden)]
pub type __Rc<T> = Rc<T>;

/// The main property-test macro. Supports an optional leading
/// `#![proptest_config(expr)]` and any number of
/// `#[test] fn name(arg in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::test_runner::Config::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ( ($cfg:expr) $( $(#[$meta:meta])* fn $name:ident ( $($arg:ident in $strat:expr),* $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cfg: $crate::test_runner::Config = $cfg;
                for case in 0..cfg.cases as u64 {
                    let mut __rng = $crate::TestRng::for_case(
                        concat!(module_path!(), "::", stringify!($name)),
                        case,
                    );
                    $(
                        let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng);
                    )*
                    let __result: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| {
                            { $body }
                            #[allow(unreachable_code)]
                            ::std::result::Result::Ok(())
                        })();
                    match __result {
                        ::std::result::Result::Ok(()) => {}
                        ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(_)) => {}
                        ::std::result::Result::Err(e) => {
                            panic!("proptest case {case} of {} failed: {e}", stringify!($name));
                        }
                    }
                }
            }
        )*
    };
}

/// Fallible assertion: fails the current case (with formatting) instead of
/// panicking, so the runner can report the case index.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Fallible equality assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (__l, __r) = (&$a, &$b);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: `{:?}` != `{:?}`", __l, __r
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (__l, __r) = (&$a, &$b);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: `{:?}` != `{:?}`: {}", __l, __r, format!($($fmt)*)
        );
    }};
}

/// Skip the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::reject(
                concat!("assumption failed: ", stringify!($cond)),
            ));
        }
    };
}

/// Uniform choice among strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::strategy::one_of(vec![$($crate::strategy::Strategy::boxed($s)),+])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_and_tuples(pair in (0..10u32, 0.0..1.0f64), v in collection::vec(1..5usize, 0..4)) {
            let (a, b) = pair;
            prop_assert!(a < 10);
            prop_assert!((0.0..1.0).contains(&b));
            prop_assert!(v.len() < 4);
            for x in v {
                prop_assert!((1..5).contains(&x));
            }
        }

        #[test]
        fn oneof_and_map(x in prop_oneof![Just(1u32), (5..9u32).prop_map(|v| v * 10)]) {
            prop_assert!(x == 1 || (50..90).contains(&x), "{x}");
        }
    }

    #[test]
    fn deterministic_per_case() {
        let mut a = crate::TestRng::for_case("t", 3);
        let mut b = crate::TestRng::for_case("t", 3);
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
