//! Vendored, dependency-free stand-in for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so this crate
//! provides the subset of the proptest API the workspace actually uses:
//! the [`Strategy`] trait with `prop_map`/`prop_flat_map`/`prop_filter_map`,
//! range/tuple/`Just`/`any`/`collection::vec`/regex-string strategies,
//! `prop_oneof!`, and the `proptest!`/`prop_assert!`/`prop_assume!` macro
//! family.
//!
//! Semantics differ from upstream in two deliberate ways:
//!
//! * Sampling is **deterministic**: the RNG is seeded from the test
//!   function's name, so a failing case reproduces on every run with no
//!   persistence files. There is no shrinking — failures report the
//!   sampled case via the ordinary `assert!` panic message.
//! * The `PROPTEST_CASES` environment variable **always** overrides the
//!   per-test case count (including explicit `ProptestConfig::with_cases`),
//!   so CI can pin a small, fast, reproducible case budget globally.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod test_runner {
    //! Deterministic RNG and run configuration.

    /// SplitMix64 generator: tiny, fast, and good enough for sampling.
    #[derive(Debug, Clone)]
    pub struct TestRng(u64);

    impl TestRng {
        /// Creates an RNG seeded from an arbitrary byte string (the test
        /// name), so every test gets a distinct but stable stream.
        pub fn from_name(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            TestRng(h)
        }

        /// Next raw 64-bit output.
        pub fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, bound)`; `bound` must be non-zero.
        pub fn below(&mut self, bound: u64) -> u64 {
            debug_assert!(bound > 0);
            // Modulo bias is irrelevant for test-case sampling.
            self.next_u64() % bound
        }

        /// Uniform f64 in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// Run configuration (`ProptestConfig` in upstream naming).
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of cases to run per property.
        pub cases: u32,
    }

    impl Config {
        /// Configuration running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }

        /// Case count after applying the `PROPTEST_CASES` override.
        pub fn resolved_cases(&self) -> u32 {
            match std::env::var("PROPTEST_CASES") {
                Ok(v) => v.trim().parse().unwrap_or(self.cases),
                Err(_) => self.cases,
            }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 256 }
        }
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use crate::test_runner::TestRng;

    /// A recipe for generating values of type `Self::Value`.
    ///
    /// Unlike upstream proptest there is no value tree or shrinking:
    /// a strategy is just a sampler.
    pub trait Strategy {
        /// The type of value this strategy produces.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Generates a value, then samples the strategy `f` builds from it.
        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { inner: self, f }
        }

        /// Maps values through `f`, resampling whenever `f` returns `None`.
        ///
        /// `whence` labels the rejection in the panic raised if the filter
        /// rejects essentially everything.
        fn prop_filter_map<O, F>(self, whence: &'static str, f: F) -> FilterMap<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> Option<O>,
        {
            FilterMap {
                inner: self,
                f,
                whence,
            }
        }

        /// Type-erases the strategy (used by `prop_oneof!`).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(self))
        }
    }

    /// A heap-allocated, type-erased strategy.
    pub struct BoxedStrategy<T>(Box<dyn Strategy<Value = T>>);

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            self.0.sample(rng)
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
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn sample(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
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
        fn sample(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.inner.sample(rng)).sample(rng)
        }
    }

    /// See [`Strategy::prop_filter_map`].
    pub struct FilterMap<S, F> {
        inner: S,
        f: F,
        whence: &'static str,
    }

    impl<S, O, F> Strategy for FilterMap<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> Option<O>,
    {
        type Value = O;
        fn sample(&self, rng: &mut TestRng) -> O {
            for _ in 0..1000 {
                if let Some(v) = (self.f)(self.inner.sample(rng)) {
                    return v;
                }
            }
            panic!(
                "prop_filter_map rejected 1000 samples in a row: {}",
                self.whence
            );
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Weighted choice between boxed strategies (built by `prop_oneof!`).
    pub struct Union<T> {
        arms: Vec<(u32, BoxedStrategy<T>)>,
        total: u64,
    }

    impl<T> Union<T> {
        /// Builds a union; every weight must be non-zero.
        pub fn new(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
            let total = arms.iter().map(|(w, _)| u64::from(*w)).sum();
            assert!(total > 0, "prop_oneof! needs at least one weighted arm");
            Union { arms, total }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            let mut pick = rng.below(self.total);
            for (w, arm) in &self.arms {
                let w = u64::from(*w);
                if pick < w {
                    return arm.sample(rng);
                }
                pick -= w;
            }
            unreachable!("weights sum to total");
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as u64) - (self.start as u64);
                    self.start + rng.below(span) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    let (start, end) = (*self.start(), *self.end());
                    assert!(start <= end, "empty range strategy");
                    let span = (end as u64) - (start as u64) + 1;
                    start + rng.below(span) as $t
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, usize);

    impl Strategy for std::ops::Range<u64> {
        type Value = u64;
        fn sample(&self, rng: &mut TestRng) -> u64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.below(self.end - self.start)
        }
    }

    impl Strategy for std::ops::RangeInclusive<u64> {
        type Value = u64;
        fn sample(&self, rng: &mut TestRng) -> u64 {
            let (start, end) = (*self.start(), *self.end());
            assert!(start <= end, "empty range strategy");
            if start == 0 && end == u64::MAX {
                return rng.next_u64();
            }
            start + rng.below(end - start + 1)
        }
    }

    impl Strategy for std::ops::Range<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    macro_rules! tuple_strategy {
        ($(($($s:ident / $v:ident),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($v,)+) = self;
                    ($($v.sample(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy! {
        (A / a, B / b)
        (A / a, B / b, C / c)
        (A / a, B / b, C / c, D / d)
        (A / a, B / b, C / c, D / d, E / e)
        (A / a, B / b, C / c, D / d, E / e, F / f)
    }

    // String strategies are written as regex literals. Only the small
    // dialect the test suite uses is supported: literal characters,
    // character classes with ranges, and {m}/{m,n}/?/*/+ quantifiers.
    impl Strategy for &'static str {
        type Value = String;
        fn sample(&self, rng: &mut TestRng) -> String {
            sample_regex(self, rng)
        }
    }

    fn sample_regex(pattern: &str, rng: &mut TestRng) -> String {
        let chars: Vec<char> = pattern.chars().collect();
        let mut out = String::new();
        let mut i = 0;
        while i < chars.len() {
            let alphabet: Vec<char> = match chars[i] {
                '[' => {
                    let close = chars[i..]
                        .iter()
                        .position(|&c| c == ']')
                        .unwrap_or_else(|| panic!("unclosed [ in regex strategy {pattern:?}"));
                    let class = &chars[i + 1..i + close];
                    i += close + 1;
                    expand_class(class, pattern)
                }
                '.' => {
                    i += 1;
                    (b' '..=b'~').map(char::from).collect()
                }
                '\\' => {
                    i += 2;
                    vec![*chars
                        .get(i - 1)
                        .unwrap_or_else(|| panic!("trailing \\ in regex strategy {pattern:?}"))]
                }
                c => {
                    assert!(
                        !"(){}*+?|^$".contains(c),
                        "unsupported regex syntax {c:?} in strategy {pattern:?}"
                    );
                    i += 1;
                    vec![c]
                }
            };
            let (lo, hi) = parse_quantifier(&chars, &mut i, pattern);
            let n = lo + rng.below((hi - lo + 1) as u64) as usize;
            for _ in 0..n {
                out.push(alphabet[rng.below(alphabet.len() as u64) as usize]);
            }
        }
        out
    }

    fn expand_class(class: &[char], pattern: &str) -> Vec<char> {
        assert!(!class.is_empty(), "empty [] in regex strategy {pattern:?}");
        assert!(
            class[0] != '^',
            "negated class unsupported in strategy {pattern:?}"
        );
        let mut set = Vec::new();
        let mut j = 0;
        while j < class.len() {
            if j + 2 < class.len() && class[j + 1] == '-' {
                let (a, b) = (class[j], class[j + 2]);
                assert!(a <= b, "bad class range in regex strategy {pattern:?}");
                for c in a..=b {
                    set.push(c);
                }
                j += 3;
            } else {
                set.push(class[j]);
                j += 1;
            }
        }
        set
    }

    /// Parses a quantifier at `chars[*i]`, advancing past it. Returns the
    /// inclusive repetition bounds (unbounded forms are capped at 8).
    fn parse_quantifier(chars: &[char], i: &mut usize, pattern: &str) -> (usize, usize) {
        match chars.get(*i) {
            Some('{') => {
                let close = chars[*i..]
                    .iter()
                    .position(|&c| c == '}')
                    .unwrap_or_else(|| panic!("unclosed {{ in regex strategy {pattern:?}"));
                let body: String = chars[*i + 1..*i + close].iter().collect();
                *i += close + 1;
                let parse = |s: &str| -> usize {
                    s.trim()
                        .parse()
                        .unwrap_or_else(|_| panic!("bad quantifier in regex strategy {pattern:?}"))
                };
                match body.split_once(',') {
                    Some((lo, hi)) => (parse(lo), parse(hi)),
                    None => {
                        let n = parse(&body);
                        (n, n)
                    }
                }
            }
            Some('?') => {
                *i += 1;
                (0, 1)
            }
            Some('*') => {
                *i += 1;
                (0, 8)
            }
            Some('+') => {
                *i += 1;
                (1, 8)
            }
            _ => (1, 1),
        }
    }
}

pub mod arbitrary {
    //! The [`Arbitrary`] trait and the [`any`] entry point.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Types with a canonical whole-domain sampling strategy.
    pub trait Arbitrary {
        /// Draws an unconstrained value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! int_arbitrary {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            rng.unit_f64()
        }
    }

    impl Arbitrary for char {
        fn arbitrary(rng: &mut TestRng) -> char {
            char::from((b' ' + rng.below(95) as u8).min(b'~'))
        }
    }

    macro_rules! tuple_arbitrary {
        ($(($($t:ident),+))*) => {$(
            impl<$($t: Arbitrary),+> Arbitrary for ($($t,)+) {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    ($(<$t as Arbitrary>::arbitrary(rng),)+)
                }
            }
        )*};
    }

    tuple_arbitrary! {
        (A, B)
        (A, B, C)
        (A, B, C, D)
    }

    /// Strategy returned by [`any`].
    pub struct Any<T>(std::marker::PhantomData<fn() -> T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The canonical strategy for `T`'s full domain.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }
}

pub mod collection {
    //! Collection strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Inclusive size bounds for generated collections.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    /// Strategy producing `Vec`s whose length falls in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max - self.size.min + 1) as u64;
            let n = self.size.min + rng.below(span) as usize;
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod prelude {
    //! One-stop import mirroring `proptest::prelude`.

    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Declares deterministic property tests.
///
/// Supports an optional `#![proptest_config(...)]` header and test
/// functions whose parameters are either `pattern in strategy` or
/// `name: Type` (shorthand for `name in any::<Type>()`).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { (<$crate::test_runner::Config as Default>::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr) $(#[$meta:meta])* fn $name:ident ( $($params:tt)* ) $body:block $($rest:tt)* ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::Config = $cfg;
            let mut rng = $crate::test_runner::TestRng::from_name(concat!(
                module_path!(), "::", stringify!($name)
            ));
            for _ in 0..config.resolved_cases() {
                // One closure per case so `prop_assume!` can skip the
                // case with a plain `return`.
                let mut case = || {
                    $crate::__proptest_bind! { (rng) $($params)* }
                    $body
                };
                case();
            }
        }
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_bind {
    ( ($rng:ident) ) => {};
    ( ($rng:ident) $id:ident : $ty:ty ) => {
        $crate::__proptest_bind! { ($rng) $id: $ty, }
    };
    ( ($rng:ident) $id:ident : $ty:ty , $($rest:tt)* ) => {
        let $id: $ty = $crate::strategy::Strategy::sample(
            &$crate::arbitrary::any::<$ty>(), &mut $rng);
        $crate::__proptest_bind! { ($rng) $($rest)* }
    };
    ( ($rng:ident) $pat:pat in $s:expr ) => {
        $crate::__proptest_bind! { ($rng) $pat in $s, }
    };
    ( ($rng:ident) $pat:pat in $s:expr , $($rest:tt)* ) => {
        let $pat = $crate::strategy::Strategy::sample(&$s, &mut $rng);
        $crate::__proptest_bind! { ($rng) $($rest)* }
    };
}

/// Asserts a property-level condition (plain `assert!` here: no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($arg:tt)*) => { assert!($($arg)*) };
}

/// Equality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($arg:tt)*) => { assert_eq!($($arg)*) };
}

/// Inequality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($arg:tt)*) => { assert_ne!($($arg)*) };
}

/// Skips the current case when its precondition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return;
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return;
        }
    };
}

/// Weighted or unweighted choice between strategies of one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($arm))),+
        ])
    };
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $((1u32, $crate::strategy::Strategy::boxed($arm))),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = crate::test_runner::TestRng::from_name("bounds");
        for _ in 0..1000 {
            let v = (3u32..7).sample(&mut rng);
            assert!((3..7).contains(&v));
            let v = (1u64..=1).sample(&mut rng);
            assert_eq!(v, 1);
            let f = (0.25f64..0.5).sample(&mut rng);
            assert!((0.25..0.5).contains(&f));
        }
    }

    #[test]
    fn regex_strategy_samples_class_and_quantifier() {
        let mut rng = crate::test_runner::TestRng::from_name("regex");
        for _ in 0..200 {
            let s = "[a-c]{2,4}x?".sample(&mut rng);
            let stripped = s.strip_suffix('x').unwrap_or(&s);
            assert!((2..=4).contains(&stripped.len()), "bad sample {s:?}");
            assert!(stripped.chars().all(|c| ('a'..='c').contains(&c)));
        }
    }

    #[test]
    fn oneof_honors_weights() {
        let mut rng = crate::test_runner::TestRng::from_name("weights");
        let s = prop_oneof![9 => Just(true), 1 => Just(false)];
        let trues = (0..1000).filter(|_| s.sample(&mut rng)).count();
        assert!(trues > 700, "expected mostly true, got {trues}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn macro_binds_both_param_forms(
            v in crate::collection::vec(0u8..3, 0..10),
            (a, b) in (1u32..5, 1u32..5),
            flag: bool,
            seed: u64,
        ) {
            prop_assume!(!v.is_empty() || flag || seed.is_multiple_of(2));
            prop_assert!(v.iter().all(|&x| x < 3));
            prop_assert!(a < 5 && b < 5);
            prop_assert_eq!(a + b, b + a);
        }
    }
}
