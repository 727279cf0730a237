//! Multinomial logistic regression trained by SGD.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::features::FeatureExtractor;

/// Initial SGD step size; epoch `e` steps with `INITIAL_LR / (1 + e)`.
const INITIAL_LR: f32 = 0.25;

/// L2 regularization strength.
const L2: f32 = 1e-5;

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainerConfig {
    /// Number of passes over the training set. The Fig. 19 sweep varies
    /// this to trade loss against routing quality.
    pub epochs: usize,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            epochs: 8, // paper: "8 epochs per refresh" (§5.5)
            seed: 0,
        }
    }
}

/// Per-epoch training trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingReport {
    /// Mean cross-entropy loss after each epoch.
    pub epoch_losses: Vec<f64>,
}

impl TrainingReport {
    /// Loss after the final epoch.
    pub fn final_loss(&self) -> f64 {
        self.epoch_losses.last().copied().unwrap_or(f64::INFINITY)
    }
}

/// Accuracy metrics on a labelled set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalReport {
    /// Fraction of exact optimal-level matches.
    pub accuracy: f64,
    /// Fraction predicted within one rung of the optimal level. Adjacent
    /// levels differ little in quality, so this is the quality-relevant
    /// accuracy.
    pub within_one: f64,
    /// Mean cross-entropy loss.
    pub loss: f64,
}

/// Weight lanes per feature row: the most classes a [`Classifier`] can
/// have.
const LANES: usize = 8;

/// The trained approximation-level predictor.
#[derive(Debug, Clone)]
pub struct Classifier {
    extractor: FeatureExtractor,
    /// Feature-major weights: row `i` holds feature `i`'s weight for every
    /// class. Lanes at or above `classes` stay `0.0`: their error is zero,
    /// so an update leaves them there.
    weights: Vec<[f32; LANES]>,
    classes: usize,
}

impl Classifier {
    /// Number of output classes (approximation levels).
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Class logits for extracted features, in lanes `..classes`. Each
    /// lane starts from `-0.0`, as `f32`'s `Sum` does, and adds the
    /// features in order.
    fn logits(&self, feats: &[(usize, f32)]) -> [f32; LANES] {
        let mut out = [-0.0f32; LANES];
        for &(i, v) in feats {
            for (o, &w) in out.iter_mut().zip(&self.weights[i]) {
                *o += w * v;
            }
        }
        out
    }

    /// Class probabilities (softmax over logits).
    pub fn predict_proba(&self, text: &str) -> Vec<f64> {
        let logits = self.logits(&self.extractor.features(text));
        softmax(&logits[..self.classes])[..self.classes].to_vec()
    }

    /// Applies one online SGD step for a freshly labelled sample — the §6
    /// "online or active learning" extension, as an alternative to
    /// drift-triggered batch retraining. The label comes from scoring the
    /// image that was just generated, so this runs off the critical path.
    ///
    /// # Panics
    /// Panics if `label` is out of range or `lr` is not positive/finite.
    pub fn update(&mut self, text: &str, label: usize, lr: f32) {
        assert!(label < self.classes, "label {label} out of range");
        assert!(lr.is_finite() && lr > 0.0, "invalid learning rate {lr}");
        let x = self.extractor.features(text);
        let probs = softmax(&self.logits(&x)[..self.classes]);
        for (c, &prob) in probs[..self.classes].iter().enumerate() {
            let err = (prob - if c == label { 1.0 } else { 0.0 }) as f32;
            if err.abs() < 1e-9 {
                continue;
            }
            for &(i, v) in &x {
                self.weights[i][c] -= lr * err * v;
            }
        }
    }

    /// The predicted optimal level index (argmax; ties to the lower
    /// index, i.e. the less approximate level).
    pub fn predict(&self, text: &str) -> usize {
        first_argmax(&self.logits(&self.extractor.features(text))[..self.classes])
    }

    /// One SGD step on features `x` with per-class errors `err`:
    /// `w -= lr · (err · v + L2 · w)`, skipping each class whose error is
    /// below `1e-9`. Classes never share a weight and the features come
    /// in order, so every weight sees the updates of a class-by-class
    /// pass in the same order.
    fn descend(&mut self, x: &[(usize, f32)], err: &[f32; LANES], lr: f32) {
        let skips = |e: f32| e.abs() < 1e-9;
        let live = &err[..self.classes];
        if !live.iter().any(|&e| skips(e)) {
            // Padding lanes: `0 − lr · (0 · v + L2 · 0)` is exactly 0.
            for &(i, v) in x {
                for (w, &e) in self.weights[i].iter_mut().zip(err) {
                    *w -= lr * (e * v + L2 * *w);
                }
            }
        } else if !live.iter().all(|&e| skips(e)) {
            for &(i, v) in x {
                for (w, &e) in self.weights[i].iter_mut().zip(live) {
                    if !skips(e) {
                        *w -= lr * (e * v + L2 * *w);
                    }
                }
            }
        }
    }
}

/// The first index of the largest logit.
fn first_argmax(logits: &[f32]) -> usize {
    let mut best = 0;
    for (c, &l) in logits.iter().enumerate().skip(1) {
        if l > logits[best] {
            best = c;
        }
    }
    best
}

/// Softmax of `logits` in f64, in lanes `..logits.len()`.
fn softmax(logits: &[f32]) -> [f64; LANES] {
    let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max) as f64;
    let mut out = [0.0f64; LANES];
    for (p, &l) in out.iter_mut().zip(logits) {
        *p = ((l as f64) - max).exp();
    }
    let live = &mut out[..logits.len()];
    let sum: f64 = live.iter().sum();
    for p in live {
        *p /= sum;
    }
    out
}

/// Trains a classifier on `(text, label)` samples with `classes` output
/// classes.
///
/// # Panics
/// Panics if `samples` is empty, `classes == 0`, `classes > 8`, or a
/// label is out of range.
pub fn train<S: AsRef<str>>(
    samples: &[(S, usize)],
    classes: usize,
    cfg: &TrainerConfig,
) -> (Classifier, TrainingReport) {
    assert!(!samples.is_empty(), "no training samples");
    assert!(classes > 0, "need at least one class");
    assert!(
        classes <= LANES,
        "at most {LANES} classes are supported, got {classes}"
    );
    assert!(
        samples.iter().all(|&(_, y)| y < classes),
        "label out of range"
    );

    let extractor = FeatureExtractor::default();
    let mut clf = Classifier {
        extractor,
        weights: vec![[0.0f32; LANES]; extractor.dim()],
        classes,
    };

    // Pre-extract features once.
    let feats: Vec<Vec<(usize, f32)>> = samples
        .iter()
        .map(|(t, _)| extractor.features(t.as_ref()))
        .collect();

    let mut order: Vec<usize> = (0..samples.len()).collect();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x0074_7261_696e);
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);

    for epoch in 0..cfg.epochs {
        // Fisher–Yates shuffle.
        for i in (1..order.len()).rev() {
            let j = rng.random_range(0..=i);
            order.swap(i, j);
        }
        let lr = INITIAL_LR / (1.0 + epoch as f32);
        let mut loss_sum = 0.0f64;
        for &s in &order {
            let x = &feats[s];
            let y = samples[s].1;
            // Forward.
            let probs = softmax(&clf.logits(x)[..classes]);
            loss_sum += -(probs[y].max(1e-12)).ln();
            // Backward: grad = (p - onehot) ⊗ x, plus L2.
            let mut err = [0.0f32; LANES];
            for (c, (e, &prob)) in err.iter_mut().zip(&probs[..classes]).enumerate() {
                *e = (prob - if c == y { 1.0 } else { 0.0 }) as f32;
            }
            clf.descend(x, &err, lr);
        }
        epoch_losses.push(loss_sum / samples.len() as f64);
    }

    (clf, TrainingReport { epoch_losses })
}

/// Evaluates a classifier on labelled samples.
///
/// # Panics
/// Panics if `samples` is empty.
pub fn evaluate(clf: &Classifier, samples: &[(String, usize)]) -> EvalReport {
    assert!(!samples.is_empty(), "no evaluation samples");
    let mut exact = 0usize;
    let mut near = 0usize;
    let mut loss = 0.0f64;
    for (text, y) in samples {
        let logits = clf.logits(&clf.extractor.features(text));
        let logits = &logits[..clf.classes];
        loss += -(softmax(logits)[..clf.classes][*y].max(1e-12)).ln();
        let pred = first_argmax(logits);
        if pred == *y {
            exact += 1;
        }
        if pred.abs_diff(*y) <= 1 {
            near += 1;
        }
    }
    let n = samples.len() as f64;
    EvalReport {
        accuracy: exact as f64 / n,
        within_one: near as f64 / n,
        loss: loss / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use argus_models::{ApproxLevel, Strategy};
    use argus_prompts::PromptGenerator;
    use argus_quality::QualityOracle;

    fn training_data(n: usize, seed: u64) -> (Vec<(String, usize)>, usize) {
        let ladder = ApproxLevel::ladder(Strategy::Ac);
        let oracle = QualityOracle::new(seed);
        let prompts = PromptGenerator::new(seed).generate_batch(n);
        (
            crate::label_prompts(&oracle, &prompts, &ladder),
            ladder.len(),
        )
    }

    /// The trainer before feature-major weights: a row-major
    /// `classes × dim` matrix, touched class by class.
    struct Reference {
        weights: Vec<f32>,
        classes: usize,
        dim: usize,
    }

    /// How often the reference's backward pass skipped classes.
    #[derive(Debug, Default)]
    struct Skips {
        /// Samples where some classes were skipped and others updated.
        some: usize,
        /// Samples where every class was skipped.
        all: usize,
    }

    impl Reference {
        fn logit(&self, c: usize, feats: &[(usize, f32)]) -> f32 {
            let row = &self.weights[c * self.dim..(c + 1) * self.dim];
            feats.iter().map(|&(i, v)| row[i] * v).sum()
        }

        fn logits(&self, feats: &[(usize, f32)]) -> Vec<f32> {
            (0..self.classes).map(|c| self.logit(c, feats)).collect()
        }

        fn predict_proba(&self, text: &str) -> Vec<f64> {
            reference_softmax(&self.logits(&FeatureExtractor::default().features(text)))
        }

        fn predict(&self, text: &str) -> usize {
            let feats = FeatureExtractor::default().features(text);
            let mut best = (0, self.logit(0, &feats));
            for c in 1..self.classes {
                let l = self.logit(c, &feats);
                if l > best.1 {
                    best = (c, l);
                }
            }
            best.0
        }

        fn update(&mut self, text: &str, label: usize, lr: f32) {
            let dim = self.dim;
            let x = FeatureExtractor::default().features(text);
            let probs = reference_softmax(&self.logits(&x));
            for (c, &prob) in probs.iter().enumerate() {
                let err = (prob - if c == label { 1.0 } else { 0.0 }) as f32;
                if err.abs() < 1e-9 {
                    continue;
                }
                let row = &mut self.weights[c * dim..(c + 1) * dim];
                for &(i, v) in &x {
                    row[i] -= lr * err * v;
                }
            }
        }
    }

    fn reference_softmax(logits: &[f32]) -> Vec<f64> {
        let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max) as f64;
        let exps: Vec<f64> = logits.iter().map(|&l| ((l as f64) - max).exp()).collect();
        let sum: f64 = exps.iter().sum();
        exps.into_iter().map(|e| e / sum).collect()
    }

    fn reference_train(
        samples: &[(String, usize)],
        classes: usize,
        cfg: &TrainerConfig,
    ) -> (Reference, TrainingReport, Skips) {
        let extractor = FeatureExtractor::default();
        let dim = extractor.dim();
        let mut clf = Reference {
            weights: vec![0.0f32; classes * dim],
            classes,
            dim,
        };
        let mut skips = Skips::default();
        let feats: Vec<Vec<(usize, f32)>> =
            samples.iter().map(|(t, _)| extractor.features(t)).collect();
        let mut order: Vec<usize> = (0..samples.len()).collect();
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x0074_7261_696e);
        let mut epoch_losses = Vec::with_capacity(cfg.epochs);
        for epoch in 0..cfg.epochs {
            for i in (1..order.len()).rev() {
                let j = rng.random_range(0..=i);
                order.swap(i, j);
            }
            let lr = INITIAL_LR / (1.0 + epoch as f32);
            let mut loss_sum = 0.0f64;
            for &s in &order {
                let x = &feats[s];
                let y = samples[s].1;
                let probs = reference_softmax(&clf.logits(x));
                loss_sum += -(probs[y].max(1e-12)).ln();
                let mut skipped = 0;
                for (c, &prob) in probs.iter().enumerate() {
                    let err = (prob - if c == y { 1.0 } else { 0.0 }) as f32;
                    if err.abs() < 1e-9 {
                        skipped += 1;
                        continue;
                    }
                    let row = &mut clf.weights[c * dim..(c + 1) * dim];
                    for &(i, v) in x {
                        row[i] -= lr * (err * v + L2 * row[i]);
                    }
                }
                if skipped == classes {
                    skips.all += 1;
                } else if skipped > 0 {
                    skips.some += 1;
                }
            }
            epoch_losses.push(loss_sum / samples.len() as f64);
        }
        (clf, TrainingReport { epoch_losses }, skips)
    }

    /// Asserts `clf` holds the reference's weights bit for bit (transposed)
    /// with zero padding lanes.
    fn assert_same_weights(clf: &Classifier, reference: &Reference, case: &str) {
        assert_eq!(clf.weights.len(), reference.dim, "{case}");
        for (i, row) in clf.weights.iter().enumerate() {
            for (c, w) in row.iter().enumerate() {
                let expected = if c < reference.classes {
                    reference.weights[c * reference.dim + i]
                } else {
                    0.0
                };
                assert_eq!(
                    w.to_bits(),
                    expected.to_bits(),
                    "{case}: feature {i}, class {c}"
                );
            }
        }
    }

    /// Trains both layouts, then checks weights, losses, predictions,
    /// `evaluate` and a stream of online updates. Returns the reference's
    /// skip counts.
    fn check_against_reference(
        samples: &[(String, usize)],
        classes: usize,
        cfg: &TrainerConfig,
    ) -> Skips {
        let case = format!(
            "{classes} classes, {} epochs, seed {}",
            cfg.epochs, cfg.seed
        );
        let (mut clf, report) = train(samples, classes, cfg);
        let (mut reference, expected, skips) = reference_train(samples, classes, cfg);
        let bits = |r: &TrainingReport| {
            r.epoch_losses
                .iter()
                .map(|l| l.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&report), bits(&expected), "{case}");
        assert_same_weights(&clf, &reference, &case);
        let (mut exact, mut near, mut loss) = (0usize, 0usize, 0.0f64);
        for (text, y) in samples {
            let p = clf.predict_proba(text);
            let q = reference.predict_proba(text);
            assert_eq!(
                p.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                q.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "{case}: {text}"
            );
            let pred = clf.predict(text);
            assert_eq!(pred, reference.predict(text), "{case}: {text}");
            loss += -(q[*y].max(1e-12)).ln();
            exact += usize::from(pred == *y);
            near += usize::from(pred.abs_diff(*y) <= 1);
        }
        let n = samples.len() as f64;
        let eval = evaluate(&clf, samples);
        assert_eq!(
            eval.accuracy.to_bits(),
            (exact as f64 / n).to_bits(),
            "{case}"
        );
        assert_eq!(
            eval.within_one.to_bits(),
            (near as f64 / n).to_bits(),
            "{case}"
        );
        assert_eq!(eval.loss.to_bits(), (loss / n).to_bits(), "{case}");
        // Online updates, with labels the training never saw.
        for (k, (text, y)) in samples.iter().enumerate().take(150) {
            let label = (y + k) % classes;
            let lr = if k % 2 == 0 { 0.02 } else { 0.5 };
            clf.update(text, label, lr);
            reference.update(text, label, lr);
        }
        assert_same_weights(&clf, &reference, &format!("{case}, after updates"));
        skips
    }

    #[test]
    fn feature_major_sgd_is_bit_identical_to_the_row_major_reference() {
        let ladder = ApproxLevel::ladder(Strategy::Ac);
        for seed in [17, 23] {
            let oracle = QualityOracle::new(seed);
            let prompts = PromptGenerator::new(seed).generate_batch(300);
            for classes in [1, 2, 3, 6, 8] {
                // Eight classes leave rungs 6 and 7 without a sample.
                let samples: Vec<(String, usize)> = prompts
                    .iter()
                    .map(|p| (p.text.clone(), oracle.optimal_level(p, &ladder) % classes))
                    .collect();
                for epochs in [0, 1, 8] {
                    let cfg = TrainerConfig { epochs, seed };
                    let skips = check_against_reference(&samples, classes, &cfg);
                    if classes == 1 {
                        // One class: every error is exactly zero.
                        assert_eq!(skips.all, samples.len() * epochs);
                    }
                }
            }
        }
    }

    #[test]
    fn partly_skipped_steps_match_the_reference() {
        // Long "of" runs give large feature values, so class 2, which no
        // sample carries, is driven below the skip threshold at once while
        // classes 0 and 1 keep disagreeing over the shared features.
        let run = "of ".repeat(40);
        let samples: Vec<(String, usize)> = (0..60)
            .map(|i| {
                let colour = if i % 2 == 0 { "red" } else { "blue" };
                (format!("{run}{colour} {}", i % 7), i % 2)
            })
            .collect();
        let cfg = TrainerConfig {
            epochs: 30,
            seed: 5,
        };
        let skips = check_against_reference(&samples, 3, &cfg);
        assert!(skips.some > 0, "{skips:?}");
    }

    #[test]
    fn predict_is_the_first_argmax_of_the_logits() {
        let (samples, classes) = training_data(800, 5);
        let (clf, _) = train(&samples, classes, &TrainerConfig::default());
        for (text, _) in &samples {
            let logits = clf.logits(&clf.extractor.features(text));
            let logits = &logits[..clf.classes];
            let mut best = 0;
            for (i, &l) in logits.iter().enumerate() {
                if l > logits[best] {
                    best = i;
                }
            }
            assert_eq!(clf.predict(text), best, "{text}");
        }
    }

    #[test]
    fn training_reduces_loss_monotonically_enough() {
        let (samples, classes) = training_data(3000, 1);
        let (_, report) = train(&samples, classes, &TrainerConfig::default());
        assert_eq!(report.epoch_losses.len(), 8);
        let first = report.epoch_losses[0];
        let last = report.final_loss();
        assert!(last < first, "loss did not improve: {report:?}");
        assert!(last < 1.3, "final loss {last}");
    }

    #[test]
    fn classifier_beats_chance_substantially() {
        let (train_set, classes) = training_data(6000, 2);
        let (clf, _) = train(&train_set, classes, &TrainerConfig::default());
        let (test_set, _) = training_data(2000, 99); // fresh prompts, same oracle family
        let eval = evaluate(&clf, &test_set);
        // Chance = 1/6 ≈ 0.17 exact. Structural features recover the
        // complexity latent; level noise caps attainable accuracy.
        assert!(eval.accuracy > 0.45, "accuracy {}", eval.accuracy);
        assert!(eval.within_one > 0.80, "within-one {}", eval.within_one);
        assert!(eval.loss < 1.2, "loss {}", eval.loss);
    }

    #[test]
    fn more_epochs_means_lower_loss() {
        // The Fig. 19 premise: training longer improves the predictor.
        let (samples, classes) = training_data(2500, 3);
        let short = train(
            &samples,
            classes,
            &TrainerConfig {
                epochs: 1,
                ..TrainerConfig::default()
            },
        )
        .1
        .final_loss();
        let long = train(
            &samples,
            classes,
            &TrainerConfig {
                epochs: 12,
                ..TrainerConfig::default()
            },
        )
        .1
        .final_loss();
        assert!(long < short, "short {short} long {long}");
    }

    #[test]
    fn zero_epochs_yields_uniform_untrained_classifier() {
        let (samples, classes) = training_data(100, 6);
        let (clf, report) = train(
            &samples,
            classes,
            &TrainerConfig {
                epochs: 0,
                ..TrainerConfig::default()
            },
        );
        assert!(report.epoch_losses.is_empty());
        assert!(report.final_loss().is_infinite());
        // All-zero weights: uniform probabilities, argmax ties to class 0.
        let p = clf.predict_proba("anything at all");
        assert!(p.iter().all(|&x| (x - 1.0 / classes as f64).abs() < 1e-9));
        assert_eq!(clf.predict("anything at all"), 0);
    }

    #[test]
    fn training_is_deterministic() {
        let (samples, classes) = training_data(500, 4);
        let cfg = TrainerConfig::default();
        let a = train(&samples, classes, &cfg).1;
        let b = train(&samples, classes, &cfg).1;
        assert_eq!(a, b);
    }

    #[test]
    fn probabilities_are_normalized() {
        let (samples, classes) = training_data(300, 5);
        let (clf, _) = train(&samples, classes, &TrainerConfig::default());
        let p = clf.predict_proba("photo of a red apple on a table");
        assert_eq!(p.len(), classes);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p.iter().all(|&x| x >= 0.0));
        assert_eq!(clf.classes(), classes);
    }

    #[test]
    fn online_updates_adapt_to_new_distribution() {
        // Train on one label mapping, then stream updates with flipped
        // labels: predictions must follow the stream.
        let samples: Vec<(String, usize)> = (0..200)
            .map(|i| (format!("alpha beta sample {i}"), 0))
            .collect();
        let (mut clf, _) = train(&samples, 2, &TrainerConfig::default());
        assert_eq!(clf.predict("alpha beta sample 3"), 0);
        for i in 0..300 {
            clf.update(&format!("alpha beta sample {i}"), 1, 0.1);
        }
        assert_eq!(clf.predict("alpha beta sample 3"), 1);
    }

    #[test]
    #[should_panic(expected = "label 9 out of range")]
    fn online_update_checks_label() {
        let (mut clf, _) = train(&[("x", 0)], 2, &TrainerConfig::default());
        clf.update("x", 9, 0.1);
    }

    #[test]
    #[should_panic(expected = "no training samples")]
    fn empty_training_set_rejected() {
        let _ = train::<&str>(&[], 3, &TrainerConfig::default());
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn out_of_range_label_rejected() {
        let _ = train(&[("x", 5)], 3, &TrainerConfig::default());
    }

    #[test]
    #[should_panic(expected = "at most 8 classes")]
    fn nine_classes_rejected() {
        let _ = train(&[("x", 8)], 9, &TrainerConfig::default());
    }
}
