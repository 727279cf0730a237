//! Seeded random-number streams and statistical distributions.
//!
//! Only the base `rand` crate is available offline, so the distributions the
//! simulator needs (exponential inter-arrivals, normal/log-normal service
//! jitter, Poisson burst counts, Pareto tails) are implemented here from
//! first principles.
//!
//! Reproducibility contract: a [`RngFactory`] derives independent
//! [`StdRng`] streams from a master seed and a string label, so adding a new
//! consumer never perturbs the draws seen by existing consumers.

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

/// Derives independent, deterministic RNG streams from a master seed.
///
/// Each `(seed, label)` pair yields the same stream forever; distinct labels
/// yield (for all practical purposes) independent streams.
///
/// # Example
///
/// ```
/// use argus_des::rng::RngFactory;
/// use rand::RngExt;
/// let f = RngFactory::new(42);
/// let mut a1 = f.stream("arrivals");
/// let mut a2 = f.stream("arrivals");
/// assert_eq!(a1.random::<u64>(), a2.random::<u64>());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RngFactory {
    seed: u64,
}

impl RngFactory {
    /// Creates a factory from a master seed.
    pub fn new(seed: u64) -> Self {
        RngFactory { seed }
    }

    /// The master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Creates the deterministic stream for `label`.
    pub fn stream(&self, label: &str) -> StdRng {
        StdRng::seed_from_u64(mix(self.seed, hash_label(label)))
    }

    /// Creates the deterministic stream for `label` and an integer index
    /// (e.g. a worker id), so per-entity streams stay independent.
    pub fn stream_indexed(&self, label: &str, index: u64) -> StdRng {
        StdRng::seed_from_u64(mix(mix(self.seed, hash_label(label)), index))
    }
}

/// FNV-1a hash of a label string.
fn hash_label(label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer: decorrelates nearby seeds.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Draws from the exponential distribution with the given `rate` (λ > 0)
/// via inverse-CDF sampling. Mean is `1 / rate`.
///
/// # Panics
/// Panics in debug builds if `rate` is not strictly positive and finite.
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    debug_assert!(rate.is_finite() && rate > 0.0, "invalid rate: {rate}");
    // u in (0, 1]: avoid ln(0).
    let u: f64 = 1.0 - rng.random::<f64>();
    -u.ln() / rate
}

/// Draws from the standard normal distribution via the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // u1 in (0, 1] so ln is finite.
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Draws from `N(mean, std_dev²)`.
///
/// # Panics
/// Panics in debug builds if `std_dev` is negative or non-finite.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    debug_assert!(
        std_dev.is_finite() && std_dev >= 0.0,
        "invalid std_dev: {std_dev}"
    );
    mean + std_dev * standard_normal(rng)
}

/// Draws from a log-normal distribution parameterised by the mean and
/// standard deviation of the underlying normal (`mu`, `sigma`).
pub fn log_normal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    normal(rng, mu, sigma).exp()
}

/// Draws from a Poisson distribution with mean `lambda`.
///
/// Uses Knuth's multiplication method for small `lambda` and a normal
/// approximation (rounded, clamped at zero) for `lambda > 30`, which is
/// accurate to well under a percent in that regime.
pub fn poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> u64 {
    debug_assert!(
        lambda.is_finite() && lambda >= 0.0,
        "invalid lambda: {lambda}"
    );
    if lambda == 0.0 {
        return 0;
    }
    if lambda > 30.0 {
        let x = normal(rng, lambda, lambda.sqrt());
        return x.round().max(0.0) as u64;
    }
    let l = (-lambda).exp();
    let mut k = 0u64;
    let mut p = 1.0;
    loop {
        p *= rng.random::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
    }
}

/// Samples an index from a discrete probability distribution given as a
/// slice of non-negative weights (not necessarily normalised).
///
/// Returns `None` if the weights are empty or all zero.
pub fn weighted_index<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> Option<usize> {
    // Only strictly-positive finite weights contribute, so a non-positive
    // total means there is nothing to sample from.
    let total: f64 = weights.iter().copied().filter(|w| *w > 0.0).sum();
    if total <= 0.0 {
        return None;
    }
    let mut target = rng.random::<f64>() * total;
    let mut last_positive = None;
    for (i, &w) in weights.iter().enumerate() {
        if w > 0.0 {
            last_positive = Some(i);
            if target < w {
                return Some(i);
            }
            target -= w;
        }
    }
    // Floating-point slack: fall back to the last positive-weight index.
    last_positive
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> StdRng {
        RngFactory::new(7).stream("test")
    }

    #[test]
    fn streams_are_deterministic_and_label_distinct() {
        let f = RngFactory::new(123);
        let a: u64 = f.stream("x").random();
        let b: u64 = f.stream("x").random();
        let c: u64 = f.stream("y").random();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(f.seed(), 123);
        let i0: u64 = f.stream_indexed("w", 0).random();
        let i1: u64 = f.stream_indexed("w", 1).random();
        assert_ne!(i0, i1);
    }

    #[test]
    fn exponential_mean_matches() {
        let mut r = rng();
        let n = 50_000;
        let rate = 4.0;
        let mean: f64 = (0..n).map(|_| exponential(&mut r, rate)).sum::<f64>() / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn normal_moments_match() {
        let mut r = rng();
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| normal(&mut r, 3.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn log_normal_is_positive_with_right_median() {
        let mut r = rng();
        let mut xs: Vec<f64> = (0..20_001).map(|_| log_normal(&mut r, 1.0, 0.5)).collect();
        assert!(xs.iter().all(|&x| x > 0.0));
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[xs.len() / 2];
        // Median of lognormal(mu, sigma) is e^mu.
        assert!((median - 1.0f64.exp()).abs() < 0.1, "median {median}");
    }

    #[test]
    fn poisson_small_and_large_lambda() {
        let mut r = rng();
        for &lambda in &[0.5, 3.0, 50.0] {
            let n = 20_000;
            let mean: f64 = (0..n).map(|_| poisson(&mut r, lambda) as f64).sum::<f64>() / n as f64;
            assert!(
                (mean - lambda).abs() < lambda.max(1.0) * 0.05,
                "lambda {lambda} mean {mean}"
            );
        }
        assert_eq!(poisson(&mut r, 0.0), 0);
    }

    #[test]
    fn weighted_index_distribution() {
        let mut r = rng();
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[weighted_index(&mut r, &weights).unwrap()] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn weighted_index_degenerate_inputs() {
        let mut r = rng();
        assert_eq!(weighted_index(&mut r, &[]), None);
        assert_eq!(weighted_index(&mut r, &[0.0, 0.0]), None);
        assert_eq!(weighted_index(&mut r, &[0.0, 5.0]), Some(1));
    }
}
