//! The prompt stream generator.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::tokens::{Drawn, Draws};
use crate::vocab::{BASE_THEMES, RELATIONS, THEMES};
use crate::{fnv1a, Prompt, PromptId};

/// Controls how drift-only themes enter the stream over time.
///
/// Before `start_at` prompts have been generated, only base themes appear.
/// Over the following `ramp` prompts the probability of drawing from a
/// drift theme rises linearly from 0 to `max_fraction` and stays there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftSchedule {
    /// Prompt index at which drift begins.
    pub start_at: u64,
    /// Number of prompts over which the drift share ramps up.
    pub ramp: u64,
    /// Steady-state share of drift-theme prompts, in `[0, 1]`.
    pub max_fraction: f64,
}

impl DriftSchedule {
    /// The drift-theme probability at stream position `index`.
    pub fn fraction_at(&self, index: u64) -> f64 {
        if index < self.start_at {
            return 0.0;
        }
        if self.ramp == 0 {
            return self.max_fraction;
        }
        let progress = (index - self.start_at) as f64 / self.ramp as f64;
        self.max_fraction * progress.min(1.0)
    }
}

/// Deterministic generator of the synthetic DiffusionDB-like prompt stream.
///
/// # Example
///
/// ```
/// use argus_prompts::{PromptGenerator, DriftSchedule};
/// let mut generator = PromptGenerator::new(7).with_drift(DriftSchedule {
///     start_at: 100,
///     ramp: 200,
///     max_fraction: 0.5,
/// });
/// let first = generator.generate();
/// assert_eq!(first.id.0, 0);
/// ```
#[derive(Debug)]
pub struct PromptGenerator {
    rng: StdRng,
    next_id: u64,
    drift: Option<DriftSchedule>,
}

impl PromptGenerator {
    /// Creates a generator with no drift.
    pub fn new(seed: u64) -> Self {
        PromptGenerator {
            rng: StdRng::seed_from_u64(seed ^ 0x70726f_6d7074), // "prompt"
            next_id: 0,
            drift: None,
        }
    }

    /// Enables a drift schedule (builder style).
    pub fn with_drift(mut self, schedule: DriftSchedule) -> Self {
        self.drift = Some(schedule);
        self
    }

    /// Generates the next prompt in the stream.
    pub fn generate(&mut self) -> Prompt {
        let id = PromptId(self.next_id);
        let index = self.next_id;
        self.next_id += 1;

        let drift_fraction = self.drift.map(|d| d.fraction_at(index)).unwrap_or(0.0);
        let theme_idx = if THEMES.len() > BASE_THEMES && self.rng.random::<f64>() < drift_fraction {
            BASE_THEMES + self.rng.random_range(0..THEMES.len() - BASE_THEMES)
        } else {
            self.rng.random_range(0..BASE_THEMES)
        };
        let theme = &THEMES[theme_idx];

        // Structure: 1–3 subjects, optional setting, style, 0–3 modifiers.
        let n_subjects = match self.rng.random::<f64>() {
            x if x < 0.50 => 1,
            x if x < 0.85 => 2,
            _ => 3,
        };
        let with_setting = self.rng.random::<f64>() < 0.8;
        let n_modifiers = self.rng.random_range(0..=3usize);

        // Every piece is drawn first, in the stream's RNG order (each
        // subject, then its relation), and the text is then written into
        // one allocation of its exact length. The indices drawn are kept
        // as the prompt's record, from which its tokens are replayed.
        let style_idx = self.rng.random_range(0..theme.styles.len());
        let mut subject_idx = [0usize; 3];
        let mut relation_idx = [0usize; 2];
        let mut prev: Option<usize> = None;
        for i in 0..n_subjects {
            let mut s_idx = self.rng.random_range(0..theme.subjects.len());
            if prev == Some(s_idx) {
                s_idx = (s_idx + 1) % theme.subjects.len();
            }
            prev = Some(s_idx);
            subject_idx[i] = s_idx;
            if i > 0 {
                relation_idx[i - 1] = self.rng.random_range(0..RELATIONS.len());
            }
        }
        let setting_idx = with_setting.then(|| self.rng.random_range(0..theme.settings.len()));
        let mut modifier_idx = [0usize; 3];
        for m in &mut modifier_idx[..n_modifiers] {
            *m = self.rng.random_range(0..theme.modifiers.len());
        }
        let style = theme.styles[style_idx];
        let (subjects, relations, modifiers) = (
            subject_idx.map(|i| theme.subjects[i]),
            relation_idx.map(|i| RELATIONS[i]),
            modifier_idx.map(|i| theme.modifiers[i]),
        );
        let setting = setting_idx.map(|i| theme.settings[i]);
        let (subjects, relations, modifiers) = (
            &subjects[..n_subjects],
            &relations[..n_subjects - 1],
            &modifiers[..n_modifiers],
        );
        let len = style.len()
            + " of ".len()
            + subjects.iter().map(|s| s.len()).sum::<usize>()
            + relations.iter().map(|r| r.len() + 2).sum::<usize>()
            + setting.map_or(0, |s| s.len() + 1)
            + modifiers.iter().map(|m| m.len() + 2).sum::<usize>();
        let mut text = String::with_capacity(len);
        text.push_str(style);
        text.push_str(" of ");
        text.push_str(subjects[0]);
        for (rel, subject) in relations.iter().zip(&subjects[1..]) {
            text.push(' ');
            text.push_str(rel);
            text.push(' ');
            text.push_str(subject);
        }
        if let Some(setting) = setting {
            text.push(' ');
            text.push_str(setting);
        }
        for m in modifiers {
            text.push_str(", ");
            text.push_str(m);
        }
        debug_assert_eq!(text.len(), len);
        let drawn = Drawn {
            draws: Draws::new(
                theme_idx,
                style_idx,
                &subject_idx[..n_subjects],
                &relation_idx[..n_subjects - 1],
                setting_idx,
                &modifier_idx[..n_modifiers],
            ),
            hash: fnv1a(text.as_bytes()),
        };

        // Structural complexity: subjects and relations dominate; settings
        // and modifiers add detail pressure. Jitter models everything the
        // structure does not capture (rare words, unusual compositions).
        let base = match n_subjects {
            1 => 0.15,
            2 => 0.45,
            _ => 0.70,
        };
        let complexity = (base
            + if with_setting { 0.08 } else { 0.0 }
            + 0.04 * n_modifiers as f64
            + 0.06 * self.rng.random::<f64>())
        .clamp(0.0, 1.0);

        Prompt {
            id,
            text,
            complexity,
            theme: theme_idx,
            drawn: Some(drawn),
        }
    }

    /// Generates the next `n` prompts.
    pub fn generate_batch(&mut self, n: usize) -> Vec<Prompt> {
        (0..n).map(|_| self.generate()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `generate` as it was before exact-size text: the same draws, with
    /// the text started by `format!` and grown as each piece is drawn.
    fn reference_generate(g: &mut PromptGenerator) -> Prompt {
        let id = PromptId(g.next_id);
        let index = g.next_id;
        g.next_id += 1;

        let drift_fraction = g.drift.map(|d| d.fraction_at(index)).unwrap_or(0.0);
        let theme_idx = if THEMES.len() > BASE_THEMES && g.rng.random::<f64>() < drift_fraction {
            BASE_THEMES + g.rng.random_range(0..THEMES.len() - BASE_THEMES)
        } else {
            g.rng.random_range(0..BASE_THEMES)
        };
        let theme = &THEMES[theme_idx];
        let n_subjects = match g.rng.random::<f64>() {
            x if x < 0.50 => 1,
            x if x < 0.85 => 2,
            _ => 3,
        };
        let with_setting = g.rng.random::<f64>() < 0.8;
        let n_modifiers = g.rng.random_range(0..=3usize);

        let style = theme.styles[g.rng.random_range(0..theme.styles.len())];
        let mut text = format!("{style} of ");
        let mut prev: Option<usize> = None;
        for i in 0..n_subjects {
            let mut s_idx = g.rng.random_range(0..theme.subjects.len());
            if prev == Some(s_idx) {
                s_idx = (s_idx + 1) % theme.subjects.len();
            }
            prev = Some(s_idx);
            if i > 0 {
                let rel = RELATIONS[g.rng.random_range(0..RELATIONS.len())];
                text.push(' ');
                text.push_str(rel);
                text.push(' ');
            }
            text.push_str(theme.subjects[s_idx]);
        }
        if with_setting {
            text.push(' ');
            text.push_str(theme.settings[g.rng.random_range(0..theme.settings.len())]);
        }
        for _ in 0..n_modifiers {
            text.push_str(", ");
            text.push_str(theme.modifiers[g.rng.random_range(0..theme.modifiers.len())]);
        }
        let base = match n_subjects {
            1 => 0.15,
            2 => 0.45,
            _ => 0.70,
        };
        let complexity = (base
            + if with_setting { 0.08 } else { 0.0 }
            + 0.04 * n_modifiers as f64
            + 0.06 * g.rng.random::<f64>())
        .clamp(0.0, 1.0);
        Prompt::from_text(id, text, complexity, theme_idx)
    }

    #[test]
    fn exact_size_text_is_bit_identical_to_the_format_reference() {
        let step = DriftSchedule {
            start_at: 3_000,
            ramp: 0,
            max_fraction: 0.6,
        };
        let ramped = DriftSchedule {
            start_at: 1_000,
            ramp: 6_000,
            max_fraction: 0.65,
        };
        for seed in [1, 77, 2024] {
            for drift in [None, Some(step), Some(ramped)] {
                let generator = || {
                    let g = PromptGenerator::new(seed);
                    match drift {
                        Some(d) => g.with_drift(d),
                        None => g,
                    }
                };
                let (mut g, mut reference) = (generator(), generator());
                for _ in 0..10_000 {
                    let (p, r) = (g.generate(), reference_generate(&mut reference));
                    assert_eq!(p.id, r.id);
                    assert_eq!(p.text.as_bytes(), r.text.as_bytes(), "seed {seed}");
                    assert_eq!(p.complexity.to_bits(), r.complexity.to_bits());
                    assert_eq!(p.theme, r.theme);
                    assert_eq!(p.text.capacity(), p.text.len(), "{}", p.text);
                }
                // Both streams stand at the same RNG position.
                assert_eq!(g.generate(), reference_generate(&mut reference));
                assert_eq!(g.rng.random::<u64>(), reference.rng.random::<u64>());
            }
        }
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let a: Vec<Prompt> = PromptGenerator::new(5).generate_batch(50);
        let b: Vec<Prompt> = PromptGenerator::new(5).generate_batch(50);
        assert_eq!(a, b);
        let c: Vec<Prompt> = PromptGenerator::new(6).generate_batch(50);
        assert_ne!(a, c);
    }

    #[test]
    fn ids_are_sequential() {
        let mut g = PromptGenerator::new(1);
        for i in 0..20 {
            assert_eq!(g.generate().id, PromptId(i));
        }
    }

    #[test]
    fn no_drift_means_base_themes_only() {
        let mut g = PromptGenerator::new(3);
        for p in g.generate_batch(500) {
            assert!(
                p.theme < BASE_THEMES,
                "theme {} leaked without drift",
                p.theme
            );
        }
    }

    #[test]
    fn drift_introduces_new_themes_at_the_right_rate() {
        let mut g = PromptGenerator::new(11).with_drift(DriftSchedule {
            start_at: 1000,
            ramp: 0,
            max_fraction: 0.6,
        });
        let pre = g.generate_batch(1000);
        assert!(pre.iter().all(|p| p.theme < BASE_THEMES));
        let post = g.generate_batch(4000);
        let drifted = post.iter().filter(|p| p.theme >= BASE_THEMES).count() as f64 / 4000.0;
        assert!((drifted - 0.6).abs() < 0.05, "drift share {drifted}");
    }

    #[test]
    fn drift_fraction_ramps_linearly() {
        let d = DriftSchedule {
            start_at: 100,
            ramp: 200,
            max_fraction: 0.4,
        };
        assert_eq!(d.fraction_at(0), 0.0);
        assert_eq!(d.fraction_at(99), 0.0);
        assert!((d.fraction_at(200) - 0.2).abs() < 1e-12);
        assert!((d.fraction_at(300) - 0.4).abs() < 1e-12);
        assert!((d.fraction_at(10_000) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn complexity_distribution_is_spread() {
        let mut g = PromptGenerator::new(9);
        let prompts = g.generate_batch(2000);
        let lo = prompts.iter().filter(|p| p.complexity < 0.3).count();
        let hi = prompts.iter().filter(|p| p.complexity > 0.6).count();
        // Obs. 1: a large fraction is approximation-tolerant (low
        // complexity), yet a meaningful share is not.
        assert!(lo > 400, "low-complexity count {lo}");
        assert!(hi > 200, "high-complexity count {hi}");
        assert!(prompts.iter().all(|p| (0.0..=1.0).contains(&p.complexity)));
    }

    #[test]
    fn multi_subject_prompts_contain_relations() {
        let mut g = PromptGenerator::new(13);
        let mut saw_relation = false;
        for p in g.generate_batch(200) {
            if p.complexity > 0.55 {
                // 2–3 subjects: must contain a relation phrase.
                let has_rel = RELATIONS.iter().any(|r| p.text.contains(r));
                saw_relation |= has_rel;
            }
        }
        assert!(saw_relation);
    }

    proptest! {
        #[test]
        fn prop_prompts_are_well_formed(seed in 0u64..1000) {
            let mut g = PromptGenerator::new(seed);
            let p = g.generate();
            prop_assert!(!p.text.is_empty());
            prop_assert!(p.text.contains(" of "));
            prop_assert!((0.0..=1.0).contains(&p.complexity));
            prop_assert!(p.theme < THEMES.len());
            prop_assert!(!crate::tokenize(&p.text).is_empty());
        }
    }
}
