//! The deterministic PickScore oracle.

use argus_models::{ApproxLevel, Strategy};
use argus_prompts::{fnv1a, Prompt};

use crate::depth::approximation_depth;

/// The optimal-quality threshold `θ` (§3): a score within `θ · max` counts
/// as optimal quality. The paper uses 0.9, consistent with NIRVANA (ref. 20).
pub const OPTIMAL_QUALITY_THETA: f64 = 0.9;

/// Nominal cache-neighbour similarity for AC when none is supplied: the
/// warm-cache average. [`QualityOracle::score`] uses this; the full system
/// simulation passes the actually retrieved similarity.
pub const DEFAULT_AC_SIMILARITY: f64 = 0.75;

/// Severity exponent: per-prompt degradation multiplier is
/// `exp(GAMMA · complexity) / MU`.
const GAMMA: f64 = 4.5;

/// Normalisation constant `E[exp(GAMMA · (complexity + η))]` under the
/// `argus-prompts` generator distribution (mixture over subjects/settings/
/// modifiers/jitter, η ~ N(0, 0.04)); derived in closed form from the
/// generator's mixture weights and verified by
/// `severity_multiplier_has_unit_mean`.
const MU: f64 = 15.0;

/// Std-dev of the per-prompt latent noise added to complexity before the
/// severity transform (captures non-structural quality factors).
const ETA_SD: f64 = 0.04;

/// Std-dev of the idiosyncratic per-(prompt, level) score noise. This is
/// what makes per-prompt quality orderings non-monotone in approximation
/// depth — the paper's Fig. 8 explicitly counts prompts where an
/// intermediate model is optimal while a *faster and a slower* model both
/// are not, which requires level-specific affinity.
const LEVEL_NOISE_SD: f64 = 0.6;

/// Mean degradation (PickScore drop from the SD-XL base) as a piecewise-
/// linear function of approximation depth. Anchored to the profiled
/// per-level qualities of `argus-models` (paper Fig. 9 / Fig. 13 / §5.5).
fn mean_drop_at_depth(depth: f64) -> f64 {
    // Profiled anchors scaled by 1.1: the score floor truncates the loss of
    // the most fragile prompts, and the scaling restores the population
    // means to the profiled q_v values (verified by calibration tests).
    const ANCHORS: [(f64, f64); 7] = [
        (0.0, 0.0),
        (0.176, 0.33),
        (0.352, 0.99),
        (0.528, 1.87),
        (0.704, 3.08),
        (0.88, 3.74),
        (1.0, 4.51),
    ];
    if depth <= 0.0 {
        return 0.0;
    }
    for w in ANCHORS.windows(2) {
        let (d0, q0) = w[0];
        let (d1, q1) = w[1];
        if depth <= d1 {
            return q0 + (q1 - q0) * (depth - d0) / (d1 - d0);
        }
    }
    // Similarity-modulated AC depth can exceed 1; extrapolate the terminal
    // slope.
    let slope = (4.51 - 3.74) / (1.0 - 0.88);
    4.51 + slope * (depth - 1.0)
}

/// Score clamp range: PickScore values for recognizable T2I output.
const SCORE_FLOOR: f64 = 10.0;
const SCORE_CEIL: f64 = 24.0;

/// Deterministic oracle for per-prompt, per-level image quality.
///
/// All scores derive from `(oracle seed, prompt text, prompt id, level)`;
/// two oracles with the same seed agree everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QualityOracle {
    seed: u64,
}

fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform in [0, 1) from a hash.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Standard normal from two hashes (Box–Muller).
fn gauss(h1: u64, h2: u64) -> f64 {
    let u1 = (1.0 - unit(h1)).max(f64::MIN_POSITIVE);
    let u2 = unit(h2);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

impl QualityOracle {
    /// Creates an oracle with the given seed.
    pub fn new(seed: u64) -> Self {
        QualityOracle { seed }
    }

    /// The per-prompt hash every draw derives from. It hashes the whole
    /// text, so each public entry point computes it once, and a caller
    /// that reads several quantities of a prompt does so through
    /// [`Self::terms`].
    fn prompt_hash(&self, p: &Prompt) -> u64 {
        mix(mix(self.seed, fnv1a(p.text.as_bytes())), p.id.0)
    }

    /// The terms every quantity this oracle reports for `p` derives from:
    /// one text hash plus the base-quality and severity draws. A caller
    /// that needs several quantities of one prompt (a completion's score
    /// and base, say) reads them all from one [`PromptTerms`].
    pub fn terms(&self, p: &Prompt) -> PromptTerms {
        PromptTerms::of(p, self.prompt_hash(p))
    }

    /// The best achievable PickScore for this prompt (its SD-XL / K=0
    /// score before level noise) — the `max{s_1..s_n}` of §3.
    pub fn base_quality(&self, p: &Prompt) -> f64 {
        base_quality_of(self.prompt_hash(p))
    }

    /// The per-prompt degradation severity multiplier (mean ≈ 1 over the
    /// generator distribution). Tolerant prompts (low complexity) have
    /// multipliers well below 1 — they are the "approximation tolerant"
    /// majority of Observation 1.
    pub fn severity(&self, p: &Prompt) -> f64 {
        severity_of(p, self.prompt_hash(p))
    }

    /// The prompt's approximation tolerance in `[0, 1]` (diagnostic view of
    /// the latent: `1 − complexity`).
    pub fn tolerance(&self, p: &Prompt) -> f64 {
        (1.0 - p.complexity).clamp(0.0, 1.0)
    }

    /// PickScore of the image generated for `p` at `level`, using the
    /// nominal cache similarity for AC levels.
    pub fn score(&self, p: &Prompt, level: ApproxLevel) -> f64 {
        self.score_with_similarity(p, level, DEFAULT_AC_SIMILARITY)
    }

    /// PickScore when the AC cache retrieval found a neighbour of the given
    /// cosine `similarity` (see [`PromptTerms::score`]).
    pub fn score_with_similarity(&self, p: &Prompt, level: ApproxLevel, similarity: f64) -> f64 {
        self.terms(p).score(level, similarity)
    }

    /// Scores for every level of a ladder.
    pub fn scores(&self, p: &Prompt, ladder: &[ApproxLevel]) -> Vec<f64> {
        let terms = self.terms(p);
        ladder
            .iter()
            .map(|&l| terms.score(l, DEFAULT_AC_SIMILARITY))
            .collect()
    }

    /// The index (into `ladder`) of the prompt's **optimal model** (see
    /// [`PromptTerms::optimal_level`]).
    ///
    /// # Panics
    /// Panics if `ladder` is empty.
    pub fn optimal_level(&self, p: &Prompt, ladder: &[ApproxLevel]) -> usize {
        self.terms(p).optimal_level(ladder)
    }

    /// Histogram (fractions summing to 1) of optimal-level choices over a
    /// prompt set — the affinity distribution `φ(v)` in its exact form.
    pub fn optimal_choice_histogram(&self, prompts: &[Prompt], ladder: &[ApproxLevel]) -> Vec<f64> {
        let mut counts = vec![0usize; ladder.len()];
        for p in prompts {
            counts[self.optimal_level(p, ladder)] += 1;
        }
        let n = prompts.len().max(1) as f64;
        counts.iter().map(|&c| c as f64 / n).collect()
    }
}

/// [`QualityOracle::base_quality`] of the prompt with hash `h`.
fn base_quality_of(h: u64) -> f64 {
    (21.0 + 0.5 * gauss(mix(h, 1), mix(h, 2))).clamp(19.5, 22.5)
}

/// [`QualityOracle::severity`] of `p`, whose hash is `h`.
fn severity_of(p: &Prompt, h: u64) -> f64 {
    let eta = ETA_SD * gauss(mix(h, 3), mix(h, 4));
    ((GAMMA * (p.complexity + eta)).exp() / MU).clamp(0.05, 6.0)
}

/// The per-prompt terms of one oracle: the prompt's hash and its
/// base-quality and severity draws, from which every level's score
/// follows without touching the text again. [`QualityOracle::terms`]
/// computes them once; every quantity read from them is bit-identical to
/// the oracle's per-quantity method for the same prompt.
#[derive(Debug, Clone, Copy)]
pub struct PromptTerms {
    h: u64,
    base_quality: f64,
    severity: f64,
}

impl PromptTerms {
    /// The terms of `p`, whose hash is `h`.
    fn of(p: &Prompt, h: u64) -> Self {
        PromptTerms {
            h,
            base_quality: base_quality_of(h),
            severity: severity_of(p, h),
        }
    }

    /// The prompt's best achievable PickScore
    /// ([`QualityOracle::base_quality`]).
    pub fn base_quality(&self) -> f64 {
        self.base_quality
    }

    /// PickScore at `level` when the AC cache retrieval found a neighbour
    /// of the given cosine `similarity`, clamped to `[0, 1]` and ignored
    /// for SM levels. Better neighbours mean the resumed trajectory needs
    /// less correction, i.e. shallower effective approximation.
    pub fn score(&self, level: ApproxLevel, similarity: f64) -> f64 {
        let mut depth = approximation_depth(level);
        if level.strategy() == Strategy::Ac && depth > 0.0 {
            let mult = 1.0 + 0.5 * (DEFAULT_AC_SIMILARITY - similarity.clamp(0.0, 1.0));
            depth *= mult;
        }
        let drop = mean_drop_at_depth(depth) * self.severity;
        let lt = level_tag(level);
        let level_noise =
            LEVEL_NOISE_SD * gauss(mix(self.h, 31 * lt + 7), mix(self.h, 17 * lt + 3));
        (self.base_quality - drop + level_noise).clamp(SCORE_FLOOR, SCORE_CEIL)
    }

    /// The index (into `ladder`) of the prompt's **optimal model** (§3):
    /// the fastest level whose score (at the nominal AC similarity) is
    /// within [`OPTIMAL_QUALITY_THETA`] of the best score across the
    /// ladder. `ladder` must be ordered slowest (least approximate) first,
    /// as produced by [`ApproxLevel::ladder`].
    ///
    /// # Panics
    /// Panics if `ladder` is empty.
    pub fn optimal_level(&self, ladder: &[ApproxLevel]) -> usize {
        assert!(!ladder.is_empty(), "empty approximation ladder");
        // Fastest = deepest approximation = last in ladder order. In one
        // pass, a new best takes the pick (scores are at least
        // `SCORE_FLOOR > 0`, so the best meets its own bar) and a later
        // level within θ of the best so far takes it over, so the pick
        // ends on the last level within θ of the overall best.
        let (mut best, mut pick) = (f64::NEG_INFINITY, 0);
        for (i, &l) in ladder.iter().enumerate() {
            let s = self.score(l, DEFAULT_AC_SIMILARITY);
            if s > best {
                (best, pick) = (s, i);
            } else if s >= OPTIMAL_QUALITY_THETA * best {
                pick = i;
            }
        }
        pick
    }
}

fn level_tag(level: ApproxLevel) -> u64 {
    match level {
        ApproxLevel::Sm(v) => 100 + v as u64,
        ApproxLevel::Ac(k) => 200 + u64::from(k.skipped_steps()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use argus_models::{AcLevel, ModelVariant};
    use argus_prompts::PromptGenerator;

    fn prompts(n: usize) -> Vec<Prompt> {
        PromptGenerator::new(404).generate_batch(n)
    }

    fn mean<'a>(it: impl Iterator<Item = &'a f64>) -> f64 {
        let v: Vec<f64> = it.copied().collect();
        v.iter().sum::<f64>() / v.len() as f64
    }

    /// The oracle before hash-once: every quantity hashes the text again,
    /// and a score hashes it three times, for itself, its severity and its
    /// base quality.
    struct Reference(u64);

    impl Reference {
        fn prompt_hash(&self, p: &Prompt) -> u64 {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in p.text.as_bytes() {
                h ^= u64::from(*b);
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            mix(mix(self.0, h), p.id.0)
        }

        fn base_quality(&self, p: &Prompt) -> f64 {
            let h = self.prompt_hash(p);
            (21.0 + 0.5 * gauss(mix(h, 1), mix(h, 2))).clamp(19.5, 22.5)
        }

        fn severity(&self, p: &Prompt) -> f64 {
            let h = self.prompt_hash(p);
            let eta = ETA_SD * gauss(mix(h, 3), mix(h, 4));
            ((GAMMA * (p.complexity + eta)).exp() / MU).clamp(0.05, 6.0)
        }

        fn score(&self, p: &Prompt, level: ApproxLevel, similarity: f64) -> f64 {
            let mut depth = approximation_depth(level);
            if level.strategy() == Strategy::Ac && depth > 0.0 {
                let mult = 1.0 + 0.5 * (DEFAULT_AC_SIMILARITY - similarity.clamp(0.0, 1.0));
                depth *= mult;
            }
            let drop = mean_drop_at_depth(depth) * self.severity(p);
            let h = self.prompt_hash(p);
            let lt = level_tag(level);
            let level_noise = LEVEL_NOISE_SD * gauss(mix(h, 31 * lt + 7), mix(h, 17 * lt + 3));
            (self.base_quality(p) - drop + level_noise).clamp(SCORE_FLOOR, SCORE_CEIL)
        }

        /// The fastest level within θ of the best, from per-level scores.
        fn optimal_level(&self, p: &Prompt, ladder: &[ApproxLevel]) -> usize {
            let s: Vec<f64> = ladder
                .iter()
                .map(|&l| self.score(p, l, DEFAULT_AC_SIMILARITY))
                .collect();
            let best = s.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            (0..s.len())
                .rev()
                .find(|&i| s[i] >= OPTIMAL_QUALITY_THETA * best)
                .unwrap_or(0)
        }
    }

    #[test]
    fn prompt_terms_are_bit_identical_to_the_hash_per_quantity_reference() {
        let o = QualityOracle::new(14);
        let reference = Reference(14);
        for p in prompts(2000) {
            let terms = o.terms(&p);
            assert_eq!(
                terms.base_quality().to_bits(),
                reference.base_quality(&p).to_bits()
            );
            assert_eq!(o.severity(&p).to_bits(), reference.severity(&p).to_bits());
            for strategy in [Strategy::Sm, Strategy::Ac] {
                let ladder = ApproxLevel::ladder(strategy);
                assert_eq!(
                    terms.optimal_level(&ladder),
                    reference.optimal_level(&p, &ladder)
                );
                for &l in &ladder {
                    for sim in [0.0, 0.3, DEFAULT_AC_SIMILARITY, 1.0, 1.7] {
                        let expected = reference.score(&p, l, sim).to_bits();
                        assert_eq!(terms.score(l, sim).to_bits(), expected, "{l} at {sim}");
                        assert_eq!(o.score_with_similarity(&p, l, sim).to_bits(), expected);
                    }
                }
            }
        }
    }

    #[test]
    fn scores_and_optimal_level_match_per_level_scores() {
        let o = QualityOracle::new(13);
        let (sm, ac) = (
            ApproxLevel::ladder(Strategy::Sm),
            ApproxLevel::ladder(Strategy::Ac),
        );
        // Both ladders, plus orders that move the best score around.
        let ladders = [
            sm.clone(),
            ac.clone(),
            ac.iter().rev().copied().collect(),
            [&ac[3..], &sm[..], &ac[..3]].concat(),
        ];
        for p in prompts(1000) {
            for ladder in &ladders {
                let per_level: Vec<u64> = ladder
                    .iter()
                    .map(|&l| {
                        o.score_with_similarity(&p, l, DEFAULT_AC_SIMILARITY)
                            .to_bits()
                    })
                    .collect();
                let scores = o.scores(&p, ladder);
                assert_eq!(
                    scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                    per_level
                );
                // The fastest level within θ of the best, from per-level scores.
                let s: Vec<f64> = per_level.iter().map(|&b| f64::from_bits(b)).collect();
                let best = s.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let expected = (0..s.len())
                    .rev()
                    .find(|&i| s[i] >= OPTIMAL_QUALITY_THETA * best)
                    .unwrap_or(0);
                assert_eq!(o.optimal_level(&p, ladder), expected);
            }
        }
    }

    #[test]
    fn scores_are_deterministic() {
        let o1 = QualityOracle::new(9);
        let o2 = QualityOracle::new(9);
        let p = prompts(1).remove(0);
        for l in ApproxLevel::ladder(Strategy::Sm) {
            assert_eq!(o1.score(&p, l), o2.score(&p, l));
        }
        let o3 = QualityOracle::new(10);
        let l = ApproxLevel::Sm(ModelVariant::Sd15);
        assert_ne!(o1.score(&p, l), o3.score(&p, l));
    }

    #[test]
    fn severity_multiplier_has_unit_mean() {
        let o = QualityOracle::new(1);
        let ps = prompts(30_000);
        let m = mean(ps.iter().map(|p| o.severity(p)).collect::<Vec<_>>().iter());
        assert!((m - 1.0).abs() < 0.06, "E[severity] = {m}");
    }

    #[test]
    fn random_assignment_means_match_profiled_quality() {
        // The calibration contract: mean score per level over the prompt
        // population ≈ the profiled q_v the solver uses (Fig. 9 anchors).
        let o = QualityOracle::new(2);
        let ps = prompts(20_000);
        for strategy in [Strategy::Sm, Strategy::Ac] {
            for l in ApproxLevel::ladder(strategy) {
                let scores: Vec<f64> = ps.iter().map(|p| o.score(p, l)).collect();
                let m = mean(scores.iter());
                let target = l.profiled_quality();
                assert!(
                    (m - target).abs() < 0.45,
                    "{l}: mean {m:.2} vs profiled {target:.2}"
                );
            }
        }
    }

    #[test]
    fn optimal_assignment_beats_random_for_small_model() {
        // Fig. 9: SD-Small random ≈ 17.4 vs optimal-only ≈ 20.6.
        let o = QualityOracle::new(3);
        let ps = prompts(20_000);
        let ladder = ApproxLevel::ladder(Strategy::Sm);
        let small = ApproxLevel::Sm(ModelVariant::SmallSd);
        let small_idx = ladder.iter().position(|&l| l == small).unwrap();
        let random_mean = mean(
            ps.iter()
                .map(|p| o.score(p, small))
                .collect::<Vec<_>>()
                .iter(),
        );
        let optimal: Vec<f64> = ps
            .iter()
            .filter(|p| o.optimal_level(p, &ladder) == small_idx)
            .map(|p| o.score(p, small))
            .collect();
        assert!(!optimal.is_empty());
        let optimal_mean = mean(optimal.iter());
        assert!((random_mean - 17.4).abs() < 0.5, "random {random_mean:.2}");
        assert!(
            optimal_mean > 19.6,
            "optimal-assignment mean {optimal_mean:.2} (paper: 20.6)"
        );
        assert!(optimal_mean - random_mean > 2.0);
    }

    #[test]
    fn majority_of_prompts_tolerate_approximation() {
        // Observation 1 / Fig. 8: most prompts do not require the base
        // model, and a sizable share tolerates the deepest level.
        let o = QualityOracle::new(4);
        let ps = prompts(10_000);
        for strategy in [Strategy::Sm, Strategy::Ac] {
            let ladder = ApproxLevel::ladder(strategy);
            let hist = o.optimal_choice_histogram(&ps, &ladder);
            assert!((hist.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            let base_share = hist[0];
            let strict_share = hist[0] + hist[1]; // two least-approximate levels
            let deepest_share = hist[5];
            assert!(
                base_share <= 0.35,
                "{strategy}: base-model share {base_share}"
            );
            assert!(
                (0.02..=0.45).contains(&strict_share),
                "{strategy}: strict share {strict_share}"
            );
            assert!(
                (0.20..=0.60).contains(&deepest_share),
                "{strategy}: deepest share {deepest_share}"
            );
            assert!(1.0 - base_share > 0.6, "{strategy}: tolerance too rare");
        }
    }

    #[test]
    fn mean_scores_decrease_with_depth_but_orderings_vary() {
        let o = QualityOracle::new(5);
        let ps = prompts(5000);
        for strategy in [Strategy::Sm, Strategy::Ac] {
            let ladder = ApproxLevel::ladder(strategy);
            // Population means strictly decrease along the ladder …
            let means: Vec<f64> = ladder
                .iter()
                .map(|&l| mean(ps.iter().map(|p| o.score(p, l)).collect::<Vec<_>>().iter()))
                .collect();
            assert!(
                means.windows(2).all(|w| w[0] > w[1]),
                "{strategy}: {means:?}"
            );
            // … while some individual prompts prefer a deeper level
            // (idiosyncratic affinity — Fig. 8's mixed optimal choices).
            let inversions = ps
                .iter()
                .filter(|p| {
                    let s = o.scores(p, &ladder);
                    s.windows(2).any(|w| w[1] > w[0])
                })
                .count();
            assert!(inversions > 0, "{strategy}: perfectly monotone oracle");
            // Large per-prompt inversions across two rungs stay rare.
            let big = ps
                .iter()
                .filter(|p| {
                    let s = o.scores(p, &ladder);
                    (0..s.len() - 2).any(|i| s[i] + 3.0 < s[i + 2])
                })
                .count();
            assert!(big * 100 < ps.len(), "{strategy}: {big} large inversions");
        }
    }

    #[test]
    fn better_cache_neighbours_give_better_ac_quality() {
        let o = QualityOracle::new(6);
        let ps = prompts(300);
        let k20 = ApproxLevel::Ac(AcLevel(20));
        let mut improved = 0;
        for p in &ps {
            let close = o.score_with_similarity(p, k20, 0.95);
            let far = o.score_with_similarity(p, k20, 0.30);
            assert!(close + 1e-9 >= far, "{}: {close} < {far}", p.text);
            if close > far {
                improved += 1;
            }
        }
        assert!(
            improved > 200,
            "similarity had almost no effect: {improved}"
        );
    }

    #[test]
    fn similarity_does_not_affect_sm_or_k0() {
        let o = QualityOracle::new(7);
        let p = prompts(1).remove(0);
        let sm = ApproxLevel::Sm(ModelVariant::Sd15);
        assert_eq!(
            o.score_with_similarity(&p, sm, 0.1),
            o.score_with_similarity(&p, sm, 0.9)
        );
        let k0 = ApproxLevel::Ac(AcLevel(0));
        assert_eq!(
            o.score_with_similarity(&p, k0, 0.1),
            o.score_with_similarity(&p, k0, 0.9)
        );
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // slice of scores past idx, by index
    fn optimal_level_respects_theta() {
        let o = QualityOracle::new(8);
        let ladder = ApproxLevel::ladder(Strategy::Ac);
        for p in prompts(2000) {
            let idx = o.optimal_level(&p, &ladder);
            let scores = o.scores(&p, &ladder);
            let best = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            assert!(scores[idx] >= OPTIMAL_QUALITY_THETA * best);
            // No faster level also meets the bar.
            for j in idx + 1..ladder.len() {
                assert!(scores[j] < OPTIMAL_QUALITY_THETA * best);
            }
        }
    }

    #[test]
    fn scores_stay_in_clamp_range() {
        let o = QualityOracle::new(11);
        for p in prompts(3000) {
            for l in ApproxLevel::ladder(Strategy::Sm) {
                let s = o.score(&p, l);
                assert!((SCORE_FLOOR..=SCORE_CEIL).contains(&s));
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty approximation ladder")]
    fn optimal_level_panics_on_empty_ladder() {
        let o = QualityOracle::new(1);
        let p = prompts(1).remove(0);
        let _ = o.optimal_level(&p, &[]);
    }

    #[test]
    fn drop_curve_is_monotone_and_anchored() {
        assert_eq!(mean_drop_at_depth(0.0), 0.0);
        assert!((mean_drop_at_depth(0.88) - 3.74).abs() < 1e-12);
        assert!((mean_drop_at_depth(1.0) - 4.51).abs() < 1e-12);
        let mut last = -1.0;
        for i in 0..=120 {
            let d = mean_drop_at_depth(i as f64 / 100.0);
            assert!(d >= last);
            last = d;
        }
    }
}
