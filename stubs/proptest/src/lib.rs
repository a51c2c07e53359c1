//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset of the proptest API the workspace uses: the
//! [`proptest!`] macro (with `#![proptest_config(...)]`), [`any`],
//! integer/float range strategies, tuple strategies, the
//! `prop::collection::{vec, btree_map, hash_set}` combinators, and the
//! `prop_assert*` macros. Inputs are generated from a deterministic
//! per-case RNG. When a case fails, a greedy halving shrinker reduces it
//! (bounded by an evaluation budget) and the test panics with the minimal
//! counterexample it found.

#![forbid(unsafe_code)]
#![allow(
    clippy::disallowed_types,
    reason = "mirrors proptest's `hash_set` strategy, which yields a `HashSet`"
)]

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// Runner configuration; mirrors `proptest::test_runner::Config`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 64 }
    }
}

/// A generator of random values; mirrors `proptest::strategy::Strategy`.
pub trait Strategy {
    /// The generated type.
    type Value;
    /// Generates one value.
    fn generate(&self, rng: &mut SmallRng) -> Self::Value;
    /// Candidates strictly simpler than `value` that this strategy could
    /// itself have generated, in preference order (simplest first). The
    /// default is no shrinking.
    fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }
}

macro_rules! int_range_strategy {
    ($($ty:ty),*) => {$(
        impl Strategy for Range<$ty> {
            type Value = $ty;
            fn generate(&self, rng: &mut SmallRng) -> $ty {
                rng.gen_range(self.clone())
            }
            // Halve the distance to the range start; the greedy runner
            // re-halves from each failing candidate, so convergence is
            // O(log n) like real proptest's binary-search shrinker. The
            // `v - 1` candidate then walks to the exact failure boundary.
            fn shrink(&self, value: &$ty) -> Vec<$ty> {
                let (lo, v) = (self.start as i128, *value as i128);
                if v <= lo {
                    return Vec::new();
                }
                let mut out = vec![self.start];
                let mid = lo + (v - lo) / 2;
                if mid > lo && mid < v {
                    out.push(mid as $ty);
                }
                if v - 1 > mid {
                    out.push((v - 1) as $ty);
                }
                out
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut SmallRng) -> f64 {
        rng.gen_range(self.clone())
    }
    fn shrink(&self, value: &f64) -> Vec<f64> {
        let (lo, v) = (self.start, *value);
        // partial_cmp so NaN (never greater) shrinks to nothing.
        if v.partial_cmp(&lo) != Some(std::cmp::Ordering::Greater) {
            return Vec::new();
        }
        let mut out = vec![lo];
        let mid = lo + (v - lo) / 2.0;
        if mid > lo && mid < v {
            out.push(mid);
        }
        out
    }
}

macro_rules! tuple_strategy {
    ($(($($name:ident $idx:tt),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+)
        where
            $($name::Value: Clone,)+
        {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut SmallRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
            // Shrinks one component at a time, holding the others fixed.
            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for cand in self.$idx.shrink(&value.$idx) {
                        let mut tup = value.clone();
                        tup.$idx = cand;
                        out.push(tup);
                    }
                )+
                out
            }
        }
    )*};
}

tuple_strategy! {
    (A 0)
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
    (A 0, B 1, C 2, D 3, E 4)
    (A 0, B 1, C 2, D 3, E 4, F 5)
}

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut SmallRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical whole-domain strategy; mirrors
/// `proptest::arbitrary::Arbitrary`.
pub trait Arbitrary: Sized {
    /// Generates an unconstrained value.
    fn arbitrary(rng: &mut SmallRng) -> Self;
}

macro_rules! int_arbitrary {
    ($($ty:ty),*) => {$(
        impl Arbitrary for $ty {
            fn arbitrary(rng: &mut SmallRng) -> $ty {
                rng.gen::<u64>() as $ty
            }
        }
    )*};
}

int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut SmallRng) -> bool {
        rng.gen::<bool>()
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut SmallRng) -> f64 {
        rng.gen::<f64>()
    }
}

impl Arbitrary for char {
    fn arbitrary(rng: &mut SmallRng) -> char {
        char::from_u32(rng.gen_range(0x20u32..0x7f)).unwrap()
    }
}

/// Strategy returned by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut SmallRng) -> T {
        T::arbitrary(rng)
    }
}

/// The whole-domain strategy for `T`; mirrors `proptest::arbitrary::any`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Collection strategies; mirrors `proptest::collection`.
pub mod collection {
    use super::{SmallRng, Strategy};
    use rand::Rng;
    use std::collections::{BTreeMap, HashSet};
    use std::hash::Hash;
    use std::ops::Range;

    /// Strategy for `Vec<T>` with a length drawn from `len`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S>
    where
        S::Value: Clone,
    {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut SmallRng) -> Vec<S::Value> {
            let n = rng.gen_range(self.len.clone());
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
        // Prefix-halving first (the cheapest big win), then dropping the
        // last element, then per-element shrinks with the length fixed.
        // All candidates respect the configured minimum length.
        fn shrink(&self, value: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
            let mut out = Vec::new();
            if value.len() > self.len.start {
                let half = (value.len() / 2).max(self.len.start);
                if half < value.len() - 1 {
                    out.push(value[..half].to_vec());
                }
                out.push(value[..value.len() - 1].to_vec());
            }
            for (i, v) in value.iter().enumerate() {
                for cand in self.element.shrink(v) {
                    let mut smaller = value.clone();
                    smaller[i] = cand;
                    out.push(smaller);
                }
            }
            out
        }
    }

    /// Strategy for `BTreeMap<K, V>` with a size drawn from `size`.
    ///
    /// Key collisions may make the map smaller than the drawn size, as in
    /// real proptest.
    pub fn btree_map<K: Strategy, V: Strategy>(
        key: K,
        value: V,
        size: Range<usize>,
    ) -> BTreeMapStrategy<K, V> {
        BTreeMapStrategy { key, value, size }
    }

    /// See [`btree_map`].
    #[derive(Debug, Clone)]
    pub struct BTreeMapStrategy<K, V> {
        key: K,
        value: V,
        size: Range<usize>,
    }

    impl<K, V> Strategy for BTreeMapStrategy<K, V>
    where
        K: Strategy,
        K::Value: Ord,
        V: Strategy,
    {
        type Value = BTreeMap<K::Value, V::Value>;
        fn generate(&self, rng: &mut SmallRng) -> Self::Value {
            let n = rng.gen_range(self.size.clone());
            let mut map = BTreeMap::new();
            for _ in 0..n {
                map.insert(self.key.generate(rng), self.value.generate(rng));
            }
            map
        }
    }

    /// Strategy for `HashSet<T>` with a size drawn from `size`.
    ///
    /// Element collisions may make the set smaller than the drawn size.
    pub fn hash_set<S: Strategy>(element: S, size: Range<usize>) -> HashSetStrategy<S> {
        HashSetStrategy { element, size }
    }

    /// See [`hash_set`].
    #[derive(Debug, Clone)]
    pub struct HashSetStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S> Strategy for HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: Eq + Hash,
    {
        type Value = HashSet<S::Value>;
        fn generate(&self, rng: &mut SmallRng) -> Self::Value {
            let n = rng.gen_range(self.size.clone());
            let mut set = HashSet::new();
            for _ in 0..n {
                set.insert(self.element.generate(rng));
            }
            set
        }
    }
}

/// The glob-import surface; mirrors `proptest::prelude`.
pub mod prelude {
    pub use crate::{any, Arbitrary, Just, ProptestConfig, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};

    /// Namespace mirror of the `proptest::prelude::prop` re-export.
    pub mod prop {
        pub use crate::collection;
    }
}

#[doc(hidden)]
pub fn __case_rng(test_name: &str, case: u32) -> SmallRng {
    // Deterministic but test- and case-specific: hash the test name into
    // the seed so distinct properties explore distinct sequences.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
    }
    SmallRng::seed_from_u64(h ^ (case as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Identity helper that anchors the property closure's argument type to
/// the strategy's `Value` so the closure body type-checks (a bare
/// `|vals: &_| ...` would leave the parameter uninferred).
#[doc(hidden)]
pub fn __property<S: Strategy, F: Fn(&S::Value)>(_strat: &S, f: F) -> F {
    f
}

/// Greedy shrink: repeatedly replace the counterexample with its first
/// still-failing shrink candidate until none fails or the evaluation
/// budget runs out. Each candidate runs under `catch_unwind`, so "fails"
/// means "the property body panics on it".
#[doc(hidden)]
pub fn __shrink<S, F>(strat: &S, mut current: S::Value, run: &F) -> S::Value
where
    S: Strategy,
    F: Fn(&S::Value),
{
    let mut budget = 256u32;
    loop {
        let mut progressed = false;
        for cand in strat.shrink(&current) {
            if budget == 0 {
                return current;
            }
            budget -= 1;
            let failed =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&cand))).is_err();
            if failed {
                current = cand;
                progressed = true;
                break;
            }
        }
        if !progressed {
            return current;
        }
    }
}

/// Defines property tests; mirrors `proptest::proptest!`, including
/// shrinking of failing cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($cfg:expr)
     $($(#[$meta:meta])*
       fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
     )*
    ) => {$(
        $(#[$meta])*
        fn $name() {
            use $crate::Strategy as _;
            let cfg: $crate::ProptestConfig = $cfg;
            let strat = ($(($strat),)+);
            let run = $crate::__property(&strat, |__vals| {
                let ($($arg,)+) = ::std::clone::Clone::clone(__vals);
                $body
            });
            for case in 0..cfg.cases {
                let mut rng = $crate::__case_rng(stringify!($name), case);
                let vals = strat.generate(&mut rng);
                let failed = ::std::panic::catch_unwind(
                    ::std::panic::AssertUnwindSafe(|| run(&vals)),
                )
                .is_err();
                if failed {
                    let minimal = $crate::__shrink(&strat, vals, &run);
                    panic!(
                        "property {} failed on case {case}; minimal counterexample: {minimal:?}",
                        stringify!($name),
                    );
                }
            }
        }
    )*};
}

/// Asserts a condition inside [`proptest!`]; a failure triggers
/// shrinking.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside [`proptest!`]; a failure triggers shrinking.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside [`proptest!`]; a failure triggers
/// shrinking.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_in_bounds(x in 3u32..17, f in 0.0f64..1.0) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((0.0..1.0).contains(&f));
        }

        #[test]
        fn collections_respect_sizes(
            v in prop::collection::vec(any::<u8>(), 2..9),
            m in prop::collection::btree_map(0u32..50, any::<bool>(), 0..6),
            s in prop::collection::hash_set(0u32..50, 0..6),
        ) {
            prop_assert!((2..9).contains(&v.len()));
            prop_assert!(m.len() < 6);
            prop_assert!(s.len() < 6);
        }

        #[test]
        fn tuples_compose((a, b) in (0u8..10, any::<bool>()), c in any::<u64>()) {
            prop_assert!(a < 10);
            let _ = (b, c);
        }
    }

    // No `#![proptest_config]` — exercises the default-config macro arm.
    proptest! {
        #[test]
        fn default_macro_arm_without_config(x in 0u8..5) {
            prop_assert!(x < 5);
        }
    }

    #[test]
    fn int_shrink_converges_to_the_failure_boundary() {
        // Property "x < 17" first fails at 17; halving from 93 plus the
        // v-1 walk must land exactly on the boundary.
        let strat = (0u32..100,);
        let run = |v: &(u32,)| assert!(v.0 < 17);
        assert_eq!(crate::__shrink(&strat, (93,), &run).0, 17);
    }

    #[test]
    fn vec_shrink_minimises_length_then_elements() {
        // Any length-3 vec fails, so the minimal counterexample is the
        // shortest failing length with every element shrunk to zero.
        let strat = (prop::collection::vec(0u32..10, 0..20),);
        let run = |v: &(Vec<u32>,)| assert!(v.0.len() < 3);
        let minimal = crate::__shrink(&strat, (vec![9, 8, 7, 6, 5, 4],), &run).0;
        assert_eq!(minimal, vec![0, 0, 0]);
    }

    #[test]
    fn shrink_keeps_the_original_when_no_candidate_fails() {
        let strat = (0u32..100,);
        let run = |_: &(u32,)| {};
        assert_eq!(crate::__shrink(&strat, (42,), &run).0, 42);
    }

    // Deliberately failing property (no #[test] attribute, invoked
    // manually below): fails whenever x >= 5, so both components must
    // shrink — x to the boundary 5, the irrelevant pad to 0.
    proptest! {
        fn shrink_target(x in 0u64..1000, pad in 0u64..1000) {
            prop_assert!(x < 5 || pad > 10_000);
        }
    }

    #[test]
    fn failing_property_reports_minimal_counterexample() {
        let err = std::panic::catch_unwind(shrink_target).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("panic payload is a formatted String");
        assert!(msg.contains("minimal counterexample: (5, 0)"), "unexpected message: {msg}");
    }
}
