//! # argus-classifier — the Approximation-Level Predictor
//!
//! Argus' prompt-awareness comes from a lightweight classifier that
//! predicts, per prompt, the *optimal model* — the fastest approximation
//! level that preserves quality (§4.1). The paper trains a BERT-based
//! model offline on 10 k DiffusionDB prompts labelled by generating images
//! at every level and scoring them with PickScore; retraining is triggered
//! by quality drift and runs off the critical path.
//!
//! BERT is not available offline, so this crate substitutes a hashed
//! bag-of-n-grams feature extractor plus multinomial logistic regression
//! trained by SGD — the same interface and operational behaviour
//! (supervised labels from the quality oracle, imperfect predictions,
//! epoch-controllable accuracy for the Fig. 19 sweep, drift-triggered
//! retraining for Fig. 18).
//!
//! The weights are feature-major: one row of eight lanes per hashed
//! feature, one lane per class, so a classifier has at most eight classes
//! (every approximation ladder has six). A sample's forward and backward
//! passes each make one allocation-free pass over its features, and train
//! bit for bit like the row-major `classes × dim` trainer the tests keep
//! as the reference.
//!
//! # Example
//!
//! ```
//! use argus_classifier::{label_prompts, train, TrainerConfig};
//! use argus_models::{ApproxLevel, Strategy};
//! use argus_prompts::PromptGenerator;
//! use argus_quality::QualityOracle;
//!
//! let ladder = ApproxLevel::ladder(Strategy::Ac);
//! let oracle = QualityOracle::new(7);
//! let prompts = PromptGenerator::new(7).generate_batch(500);
//! let samples = label_prompts(&oracle, &prompts, &ladder);
//! let (clf, report) = train(&samples, ladder.len(), &TrainerConfig::default());
//! assert!(report.final_loss() < 1.8);
//! assert!(clf.predict(&prompts[0]) < ladder.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod drift;
mod features;
mod model;

pub use drift::DriftDetector;
pub use features::FeatureExtractor;
pub use model::{evaluate, train, Classifier, EvalReport, TrainerConfig, TrainingReport};

use argus_models::ApproxLevel;
use argus_prompts::Prompt;
use argus_quality::QualityOracle;

/// Labels prompts, in order, with their oracle-optimal level index — the
/// supervision the paper obtains by generating images at every level and
/// scoring them with PickScore (§4.1). The samples borrow the prompts, so
/// [`train`] and [`evaluate`] read each one's carried tokens.
pub fn label_prompts<'a>(
    oracle: &QualityOracle,
    prompts: impl IntoIterator<Item = &'a Prompt>,
    ladder: &[ApproxLevel],
) -> Vec<(&'a Prompt, usize)> {
    prompts
        .into_iter()
        .map(|p| (p, oracle.optimal_level(p, ladder)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use argus_models::Strategy;
    use argus_prompts::PromptGenerator;

    #[test]
    fn labels_are_in_range() {
        let ladder = ApproxLevel::ladder(Strategy::Sm);
        let oracle = QualityOracle::new(1);
        let prompts = PromptGenerator::new(1).generate_batch(200);
        let samples = label_prompts(&oracle, &prompts, ladder);
        assert_eq!(samples.len(), prompts.len());
        for ((p, label), prompt) in samples.into_iter().zip(&prompts) {
            assert!(std::ptr::eq(p, prompt));
            assert!(label < ladder.len());
        }
    }
}
