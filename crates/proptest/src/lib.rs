//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset of the proptest 1.x API the workspace's
//! property tests use: range strategies, [`collection::vec`] /
//! [`collection::btree_set`], [`Strategy::prop_map`], the [`proptest!`]
//! macro with `#![proptest_config(...)]`, and `prop_assert*`.
//!
//! Differences from real proptest: cases are drawn from a fixed
//! deterministic seed (per test name), and failing cases are *not*
//! shrunk — the failure message reports the case index so it can be
//! re-run deterministically.

use std::collections::BTreeSet;
use std::fmt;
use std::ops::Range;

use rand::rngs::StdRng;
use rand::{RngCore, UniformSample};

/// Configuration accepted by `#![proptest_config(...)]`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
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

/// A failed property check (from `prop_assert!`).
#[derive(Debug)]
pub struct TestCaseError {
    msg: String,
}

impl TestCaseError {
    /// Creates a failure with a message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError { msg: msg.into() }
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

/// A generator of random values of type `Value`.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut StdRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn sample(&self, rng: &mut StdRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

impl<T: UniformSample + Copy> Strategy for Range<T> {
    type Value = T;

    fn sample(&self, rng: &mut StdRng) -> T {
        T::uniform(rng, self.start..self.end)
    }
}

/// Sizes accepted by the collection strategies: a fixed `usize` or a
/// half-open `Range<usize>`.
#[derive(Debug, Clone)]
pub struct SizeRange(Range<usize>);

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange(n..n + 1)
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        SizeRange(r)
    }
}

impl SizeRange {
    fn pick(&self, rng: &mut StdRng) -> usize {
        if self.0.end <= self.0.start + 1 {
            self.0.start
        } else {
            usize::uniform(rng, self.0.clone())
        }
    }
}

/// Collection strategies.
pub mod collection {
    use super::*;

    /// Strategy producing `Vec`s of `element` with a size in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// Strategy producing `BTreeSet`s of `element` with a target size in
    /// `size` (duplicates shrink the set, as in proptest).
    pub fn btree_set<S: Strategy>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        BTreeSetStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut StdRng) -> Self::Value {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// See [`btree_set`].
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;

        fn sample(&self, rng: &mut StdRng) -> Self::Value {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Derives the per-test root seed from the test's name.
pub fn seed_for(test_name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Builds the RNG for one case of one property test.
pub fn case_rng(test_name: &str, case: u32) -> StdRng {
    use rand::SeedableRng;
    let mut r = StdRng::seed_from_u64(seed_for(test_name) ^ (u64::from(case) << 32));
    let _ = r.next_u64(); // decorrelate consecutive case seeds
    r
}

/// The common imports, as in real proptest.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy, TestCaseError,
    };
    pub use rand::{Rng, SeedableRng};
}

/// Fails the property if `cond` is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Fails the property if the two values differ.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if a != b {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} == {} (left: {:?}, right: {:?})",
                stringify!($a),
                stringify!($b),
                a,
                b
            )));
        }
    }};
}

/// Declares property tests: each `fn name(arg in strategy, ...) { .. }`
/// becomes a `#[test]` running `cases` random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { @cfg($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { @cfg($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (@cfg($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident( $($arg:ident in $strat:expr),* $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::ProptestConfig = $cfg;
            for __case in 0..cfg.cases {
                let mut __rng = $crate::case_rng(stringify!($name), __case);
                let __result: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                    $(let $arg = $crate::Strategy::sample(&($strat), &mut __rng);)*
                    $body
                    Ok(())
                })();
                if let Err(e) = __result {
                    panic!("property `{}` failed at case {}: {}", stringify!($name), __case, e);
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3usize..10, y in -2.0f64..2.0) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-2.0..2.0).contains(&y), "y out of range: {y}");
        }

        #[test]
        fn vecs_have_requested_sizes(
            xs in crate::collection::vec(0.0f64..1.0, 4),
            ys in crate::collection::vec(0u32..5, 1..7),
        ) {
            prop_assert_eq!(xs.len(), 4);
            prop_assert!((1..7).contains(&ys.len()));
        }

        #[test]
        fn sets_are_bounded(s in crate::collection::btree_set(0usize..30, 0..10)) {
            prop_assert!(s.len() < 10);
            prop_assert!(s.iter().all(|&v| v < 30));
        }
    }

    #[test]
    fn prop_map_applies() {
        let strat = (1usize..5).prop_map(|n| vec![0u8; n]);
        let mut rng = super::case_rng("prop_map_applies", 0);
        for _ in 0..20 {
            let v = strat.sample(&mut rng);
            assert!((1..5).contains(&v.len()));
        }
    }

    #[test]
    fn cases_are_deterministic() {
        use rand::Rng;
        let a: Vec<u64> = (0..5)
            .map(|c| super::case_rng("t", c).gen::<u64>())
            .collect();
        let b: Vec<u64> = (0..5)
            .map(|c| super::case_rng("t", c).gen::<u64>())
            .collect();
        assert_eq!(a, b);
    }
}
