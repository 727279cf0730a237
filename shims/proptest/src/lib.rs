//! Offline stand-in for `proptest`.
//!
//! Implements the subset of the proptest API the workspace's property
//! tests use: the [`proptest!`] macro (with optional
//! `#![proptest_config(..)]`), `prop_assert!`/`prop_assert_eq!`/
//! `prop_assume!`, numeric range strategies, `collection::vec`, and
//! character-class string strategies like `"[a-z ]{0,60}"`.
//!
//! Unlike the real crate there is no shrinking: a failing case panics with
//! the sampled inputs in the assertion message instead. Sampling is
//! deterministic (fixed seed per test function), so failures reproduce.

#![forbid(unsafe_code)]

pub use rand;

use rand::rngs::StdRng;
use rand::RngExt;

/// Runtime configuration accepted by `#![proptest_config(..)]`.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 100 }
    }
}

/// A source of random values of some type.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;
    /// Draws one value.
    fn sample(&self, rng: &mut StdRng) -> Self::Value;
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.random_range(self.clone())
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.random_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u32, u64, usize, i32, i64);

impl Strategy for core::ops::Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut StdRng) -> f64 {
        rng.random_range(self.clone())
    }
}

impl Strategy for core::ops::RangeInclusive<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut StdRng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        lo + rng.random::<f64>() * (hi - lo)
    }
}

/// String strategy from a regex-like pattern. Supported subset:
/// `[<chars>]{m,n}` where `<chars>` is a set of literal characters and
/// `a-z`-style ranges. This covers every pattern used in the workspace.
impl Strategy for &str {
    type Value = String;

    fn sample(&self, rng: &mut StdRng) -> String {
        let (alphabet, lo, hi) = parse_char_class(self);
        let len = rng.random_range(lo..=hi);
        (0..len)
            .map(|_| alphabet[rng.random_range(0..alphabet.len())])
            .collect()
    }
}

fn parse_char_class(pattern: &str) -> (Vec<char>, usize, usize) {
    let inner = pattern
        .strip_prefix('[')
        .and_then(|r| r.split_once(']'))
        .unwrap_or_else(|| panic!("unsupported proptest pattern: {pattern:?}"));
    let (class, rest) = inner;
    let mut alphabet = Vec::new();
    let chars: Vec<char> = class.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        if i + 2 < chars.len() && chars[i + 1] == '-' {
            for c in chars[i]..=chars[i + 2] {
                alphabet.push(c);
            }
            i += 3;
        } else {
            alphabet.push(chars[i]);
            i += 1;
        }
    }
    assert!(!alphabet.is_empty(), "empty char class: {pattern:?}");
    let bounds = rest
        .strip_prefix('{')
        .and_then(|r| r.strip_suffix('}'))
        .unwrap_or_else(|| panic!("unsupported repetition in: {pattern:?}"));
    let (lo, hi) = match bounds.split_once(',') {
        Some((a, b)) => (a.trim().parse().unwrap(), b.trim().parse().unwrap()),
        None => {
            let n = bounds.trim().parse().unwrap();
            (n, n)
        }
    };
    (alphabet, lo, hi)
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{StdRng, Strategy};
    use rand::RngExt;

    /// Size specification for [`fn@vec`]: a fixed length or a range of lengths.
    pub trait SizeRange {
        /// Draws a concrete length.
        fn sample_len(&self, rng: &mut StdRng) -> usize;
    }

    impl SizeRange for usize {
        fn sample_len(&self, _rng: &mut StdRng) -> usize {
            *self
        }
    }

    impl SizeRange for core::ops::Range<usize> {
        fn sample_len(&self, rng: &mut StdRng) -> usize {
            rng.random_range(self.clone())
        }
    }

    impl SizeRange for core::ops::RangeInclusive<usize> {
        fn sample_len(&self, rng: &mut StdRng) -> usize {
            rng.random_range(self.clone())
        }
    }

    /// Strategy producing `Vec`s of values drawn from `element`.
    pub struct VecStrategy<S, R> {
        element: S,
        size: R,
    }

    /// Vectors of values from `element` with length drawn from `size`.
    pub fn vec<S: Strategy, R: SizeRange>(element: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { element, size }
    }

    impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = self.size.sample_len(rng);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Everything a property test needs in scope.
pub mod prelude {
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, proptest};
    pub use crate::{ProptestConfig, Strategy};
}

/// Like `assert!`, inside a property.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Like `assert_eq!`, inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Skips the current case when its inputs don't meet a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            continue;
        }
    };
}

/// Defines `#[test]` functions that run their body over many sampled inputs.
#[macro_export]
macro_rules! proptest {
    (@cfg ($cfg:expr)
        $(
            $(#[doc = $doc:expr])*
            #[test]
            fn $name:ident( $($arg:ident in $strat:expr),* $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[doc = $doc])*
            #[test]
            fn $name() {
                use $crate::Strategy as _;
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = <$crate::rand::rngs::StdRng as $crate::rand::SeedableRng>::seed_from_u64(
                    0x70726f_7074u64 ^ stringify!($name).len() as u64,
                );
                let mut case = 0u32;
                while case < config.cases {
                    case += 1;
                    $(let $arg = ($strat).sample(&mut rng);)*
                    $body
                }
            }
        )*
    };
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::proptest!(@cfg ($cfg) $($rest)*);
    };
    ( $($rest:tt)* ) => {
        $crate::proptest!(@cfg ($crate::ProptestConfig::default()) $($rest)*);
    };
}
