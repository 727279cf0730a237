//! Empirically profiled degradation `d(v', v)` — the explicit input to ODA.
//!
//! §4.3: "Argus assumes no fixed degradation form; `d` is an explicit
//! input, and ODA minimizes total expected loss across redistributions" and
//! "empirically, `d` increases super-linearly with the model speed gap".
//! This module profiles `d` from the quality oracle exactly the way the
//! paper profiles it from generated images.

use argus_models::ApproxLevel;
use argus_prompts::Prompt;

use crate::QualityOracle;

/// A profiled degradation matrix over an approximation ladder.
///
/// `cost(i, j)` is the expected PickScore loss when a prompt whose optimal
/// level is `ladder[i]` is instead served at `ladder[j]`. Serving at a
/// *less* approximate level never degrades quality (cost 0) — the
/// asymmetry that makes Earth-Mover's Distance inadequate (§4.3).
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationProfile {
    n: usize,
    /// Row-major `n × n` matrix.
    cost: Vec<f64>,
}

impl DegradationProfile {
    /// Profiles degradation from the oracle over a prompt sample.
    ///
    /// For each pair `(i, j)` the cost is the mean of
    /// `max(0, score(p, ladder[i]) − score(p, ladder[j]))` over prompts `p`
    /// whose optimal level is `i`.
    ///
    /// # Panics
    /// Panics if `ladder` is empty.
    pub fn profile(oracle: &QualityOracle, prompts: &[Prompt], ladder: &[ApproxLevel]) -> Self {
        assert!(!ladder.is_empty(), "empty approximation ladder");
        let n = ladder.len();
        let mut sums = vec![0.0f64; n * n];
        let mut counts = vec![0usize; n];
        for p in prompts {
            let i = oracle.optimal_level(p, ladder);
            counts[i] += 1;
            let scores = oracle.scores(p, ladder);
            for j in 0..n {
                sums[i * n + j] += (scores[i] - scores[j]).max(0.0);
            }
        }
        let mut cost = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..n {
                if counts[i] > 0 {
                    cost[i * n + j] = sums[i * n + j] / counts[i] as f64;
                }
            }
        }
        // Never charge for running less approximate (slower) than optimal.
        for i in 0..n {
            for j in 0..=i {
                cost[i * n + j] = 0.0;
            }
        }
        DegradationProfile { n, cost }
    }

    /// A synthetic super-linear profile `d(i → j) = scale · (j − i)^power`
    /// for `j > i`, 0 otherwise. Used by unit tests and as a fallback when
    /// no profiling sample is available.
    ///
    /// # Panics
    /// Panics if `n == 0` or `power < 1.0` (sub-linear profiles violate the
    /// ODA optimality precondition).
    pub fn synthetic(n: usize, power: f64, scale: f64) -> Self {
        assert!(n > 0, "empty ladder");
        assert!(
            power >= 1.0,
            "sub-linear degradation profile (power {power}) violates ODA preconditions"
        );
        let mut cost = vec![0.0f64; n * n];
        for i in 0..n {
            for j in i + 1..n {
                cost[i * n + j] = scale * ((j - i) as f64).powf(power);
            }
        }
        DegradationProfile { n, cost }
    }

    /// Number of levels.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the ladder is empty (never true for constructed profiles).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Expected quality loss moving a prompt with optimal level `from` to
    /// level `to`.
    ///
    /// # Panics
    /// Panics if either index is out of range.
    pub fn cost(&self, from: usize, to: usize) -> f64 {
        assert!(from < self.n && to < self.n, "level index out of range");
        self.cost[from * self.n + to]
    }

    /// Whether each row is non-decreasing in the target depth (moving
    /// further right never gets cheaper) — the monotonicity ODA relies on.
    pub fn is_monotone(&self) -> bool {
        (0..self.n).all(|i| {
            (i + 1..self.n).all(|j| j + 1 >= self.n || self.cost(i, j + 1) >= self.cost(i, j))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use argus_models::Strategy;
    use argus_prompts::PromptGenerator;

    fn profile(strategy: Strategy) -> DegradationProfile {
        let oracle = QualityOracle::new(21);
        let prompts = PromptGenerator::new(22).generate_batch(8000);
        DegradationProfile::profile(&oracle, &prompts, ApproxLevel::ladder(strategy))
    }

    #[test]
    fn leftward_moves_are_free() {
        for strategy in [Strategy::Sm, Strategy::Ac] {
            let d = profile(strategy);
            for i in 0..d.len() {
                for j in 0..=i {
                    assert_eq!(d.cost(i, j), 0.0, "{strategy}: d({i},{j})");
                }
            }
        }
    }

    #[test]
    fn profiled_costs_are_monotone_in_gap() {
        for strategy in [Strategy::Sm, Strategy::Ac] {
            let d = profile(strategy);
            assert!(d.is_monotone(), "{strategy}: {d:?}");
        }
    }

    #[test]
    fn profiled_costs_are_superlinear_in_gap() {
        // §4.3: d grows super-linearly with the speed gap. Check that a
        // two-rung jump costs more than twice a one-rung jump from the same
        // origin, for origins with meaningful mass.
        let d = profile(Strategy::Ac);
        for i in 0..3 {
            let one = d.cost(i, i + 1);
            let two = d.cost(i, i + 2);
            if one > 0.05 {
                assert!(two > 1.6 * one, "d({i},·): one={one:.3} two={two:.3}");
            }
        }
    }

    #[test]
    fn synthetic_profile_shape() {
        let d = DegradationProfile::synthetic(4, 2.0, 0.5);
        assert_eq!(d.cost(0, 0), 0.0);
        assert_eq!(d.cost(2, 0), 0.0);
        assert_eq!(d.cost(0, 1), 0.5);
        assert_eq!(d.cost(0, 3), 4.5);
        assert!(d.is_monotone());
        assert_eq!(d.len(), 4);
        assert!(!d.is_empty());
    }

    #[test]
    #[should_panic(expected = "sub-linear")]
    fn synthetic_rejects_sublinear() {
        let _ = DegradationProfile::synthetic(3, 0.5, 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cost_bounds_checked() {
        let d = DegradationProfile::synthetic(3, 2.0, 1.0);
        let _ = d.cost(3, 0);
    }
}
