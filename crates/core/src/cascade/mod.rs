//! The query-aware cascade serving plane (DESIGN.md §13).
//!
//! DiffServe-style serving flips the Argus ladder around: every job runs
//! a cheap **first pass**, a deterministic [`Discriminator`] scores the
//! result, and only flagged jobs are **escalated** — re-enqueued through
//! the ordinary dispatch path at a stronger level, carrying their
//! original arrival time so SLO accounting sees the full two-pass
//! latency. Escalation demand feeds back into planning: the metrics
//! stage maintains a per-level escalation-rate EWMA, the driver snapshots
//! it each allocator tick, and Eq. 1 prices first-pass capacity as
//! first-pass **plus expected-escalation** work
//! ([`crate::capacity::CapacityCtx::escalation`]).
//!
//! The plane is a composition of existing subsystems, not a side
//! channel: escalated jobs go through the same cache gate, Eq. 3
//! worker selection, batched dispatch, autoscaling and telemetry as
//! first passes — a second pass is just a dispatch whose target level
//! the driver overrides. `RunConfig::with_cascade` turns it on; off (the
//! default) the run is bit-identical to the pre-cascade tree.

use std::fmt;
use std::sync::Arc;

use argus_models::{ApproxLevel, Strategy, RUNGS, SM_LADDER};
use argus_prompts::Prompt;
use argus_quality::QualityOracle;
use std::collections::BTreeMap;

use crate::pipeline::{
    CacheGate, Dispatcher, InitialPlacement, LevelPlanner, RouteCtx, ServingPolicy, TickAction,
    WorkerSelector,
};
use crate::switcher::StrategySwitcher;

/// Demand-estimate floor per allocator tick, matching the Argus
/// allocator's smoothing (§4.2) so ladder-vs-cascade comparisons differ
/// only in routing, not demand estimation.
const DEMAND_DECAY: f64 = 0.85;

/// Upper bound of the doubt scale: a threshold of exactly `1.0` can
/// never be reached, so it degenerates to "never escalate", while `0.0`
/// (doubt is non-negative) degenerates to "escalate everything".
pub const MAX_DOUBT: f64 = 0.99;

/// The level every first pass targets: the SM ladder's cheapest rung,
/// Tiny-SD. Spill may serve a first pass elsewhere; Eq. 1 prices
/// escalations at the rate observed here.
pub(crate) const FIRST_PASS_LEVEL: ApproxLevel = ApproxLevel::Sm(SM_LADDER[RUNGS - 1]);

/// The level escalated jobs re-run at: the SM ladder's rung 0, SD-XL.
pub(crate) const ESCALATION_LEVEL: ApproxLevel = ApproxLevel::Sm(SM_LADDER[0]);

/// Seed salt separating the built-in discriminator's scoring stream
/// from the ground-truth quality oracle: the discriminator is an
/// *imperfect but deterministic* judge, not an oracle replay.
const DISCRIMINATOR_SEED_SALT: u64 = 0x0D15C;

/// A deterministic first-pass judge: maps a completed generation to a
/// doubt score in `[0, MAX_DOUBT]`. Implementations must be pure
/// functions of their seed and inputs — no wall clock, no unseeded
/// randomness (lint rules D1/D5 apply to the cascade path).
pub trait Discriminator: fmt::Debug + Send + Sync {
    /// Display name (diagnostics and stats).
    fn name(&self) -> &'static str;

    /// Doubt in the first-pass result for `prompt` executed at `level`
    /// with the given retrieval `similarity` (the AC path's hit
    /// similarity; [`argus_quality::DEFAULT_AC_SIMILARITY`] otherwise).
    /// The driver escalates when `doubt >= threshold`.
    fn doubt(&self, prompt: &Prompt, level: ApproxLevel, similarity: f64) -> f64;
}

/// The built-in discriminator: a [`QualityOracle`] re-seeded away from
/// the run's ground-truth oracle estimates the first pass's quality
/// ratio, and doubt is the estimated relative quality *loss*. Sharing
/// the oracle's machinery keeps the judge hash-deterministic while the
/// seed salt keeps it honestly imperfect — its estimate disagrees with
/// the ground truth per prompt, exactly like a trained CLIP-head
/// discriminator would.
#[derive(Debug, Clone)]
pub struct OracleDiscriminator {
    estimator: QualityOracle,
}

impl OracleDiscriminator {
    /// A discriminator derived from the run seed.
    pub fn new(seed: u64) -> Self {
        OracleDiscriminator {
            estimator: QualityOracle::new(seed ^ DISCRIMINATOR_SEED_SALT),
        }
    }
}

impl Discriminator for OracleDiscriminator {
    fn name(&self) -> &'static str {
        "oracle-estimate"
    }

    fn doubt(&self, prompt: &Prompt, level: ApproxLevel, similarity: f64) -> f64 {
        // One hash of the text per judgement serves the estimate and its base.
        let terms = self.estimator.terms(prompt);
        (1.0 - terms.score(level, similarity) / terms.base_quality()).clamp(0.0, MAX_DOUBT)
    }
}

/// Configuration of the cascade plane (`RunConfig::with_cascade`). The
/// rungs are fixed: every job's first pass runs at the SM ladder's
/// cheapest rung (Tiny-SD) and escalated jobs re-run at rung 0 (SD-XL).
#[derive(Debug, Clone)]
pub struct CascadeConfig {
    /// Escalate when `doubt >= threshold`: `0.0` escalates everything,
    /// `1.0` never escalates.
    pub threshold: f64,
    /// Whether the observed escalation rate is priced into Eq. 1
    /// capacity planning (`false` is the s65 ablation arm).
    pub price_escalations: bool,
    /// Discriminator override; `None` uses [`OracleDiscriminator`]
    /// seeded from the run seed.
    pub discriminator: Option<Arc<dyn Discriminator>>,
}

impl Default for CascadeConfig {
    fn default() -> Self {
        CascadeConfig {
            threshold: 0.1,
            price_escalations: true,
            discriminator: None,
        }
    }
}

impl CascadeConfig {
    /// The default cascade: cheapest-first, escalate to SD-XL.
    pub fn new() -> Self {
        CascadeConfig::default()
    }

    /// Sets the escalation threshold.
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        self.threshold = threshold;
        self
    }

    /// Enables or disables Eq. 1 escalation pricing (the s65 ablation).
    pub fn with_escalation_pricing(mut self, on: bool) -> Self {
        self.price_escalations = on;
        self
    }

    /// The first-pass rung of a `ladder_len`-rung ladder: the cheapest.
    pub fn first_pass_rung(&self, ladder_len: usize) -> usize {
        ladder_len.saturating_sub(1)
    }
}

/// The cascade's [`ServingPolicy`]: every new job targets the first-pass
/// rung of the full SM ladder; escalated re-dispatches keep the same
/// pipeline but the driver overrides their target to the escalation
/// rung. Planning solves Eq. 1 over the whole ladder (the solver may
/// staff intermediate rungs; Eq. 3 spill then serves first passes there,
/// which the discriminator judges coherently because doubt is a function
/// of the *executed* level).
#[derive(Debug, Clone, Copy)]
pub struct CascadePolicy {
    first_pass: usize,
}

impl CascadePolicy {
    /// A cascade pipeline whose first pass targets `first_pass` (an
    /// index into the SM ladder, clamped at routing time).
    pub fn new(first_pass: usize) -> Self {
        CascadePolicy { first_pass }
    }
}

impl LevelPlanner for CascadePolicy {
    fn active_ladder(&self, _switcher: &StrategySwitcher) -> Vec<ApproxLevel> {
        ApproxLevel::ladder(Strategy::Sm).to_vec()
    }

    fn pick_target_level(&self, _ctx: &mut RouteCtx<'_>, ladder: &[ApproxLevel]) -> usize {
        self.first_pass.min(ladder.len() - 1)
    }

    fn plan_tick(&self, observed_qpm: f64, last_demand_qpm: f64) -> TickAction {
        TickAction::Reallocate {
            estimate_qpm: observed_qpm.max(DEMAND_DECAY * last_demand_qpm),
        }
    }

    fn initial_placement(&self) -> InitialPlacement {
        InitialPlacement::Solve
    }
}

impl CacheGate for CascadePolicy {
    fn cache_active(&self, _switcher: &StrategySwitcher) -> bool {
        false
    }
}

impl WorkerSelector for CascadePolicy {}
impl Dispatcher for CascadePolicy {}

impl ServingPolicy for CascadePolicy {
    fn name(&self) -> &'static str {
        "Cascade"
    }
}

/// Cascade accounting surfaced as `RunOutcome::cascade`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CascadeStats {
    /// First-pass completions per *executed* level (spill can serve a
    /// first pass away from the configured rung).
    pub first_pass: BTreeMap<ApproxLevel, u64>,
    /// Discriminator-flagged escalations per first-pass level.
    pub escalated: BTreeMap<ApproxLevel, u64>,
    /// First passes the discriminator accepted, per level.
    pub accepted: BTreeMap<ApproxLevel, u64>,
    /// Final escalation-rate EWMA per first-pass level — the same
    /// series the driver feeds into Eq. 1 each tick and exports as the
    /// `escalation_rate` timeline gauge.
    pub escalation_rate: BTreeMap<ApproxLevel, f64>,
    /// Escalated jobs whose second pass completed.
    pub escalated_completed: u64,
    /// Mean relative-quality gain (`final − first` quality ratio) over
    /// completed escalations — what the second pass bought.
    pub quality_delta: f64,
}

impl CascadeStats {
    /// Total first-pass completions across levels.
    pub fn first_pass_total(&self) -> u64 {
        self.first_pass.values().sum()
    }

    /// Total escalations across levels.
    pub fn escalated_total(&self) -> u64 {
        self.escalated.values().sum()
    }

    /// Total accepted first passes across levels.
    pub fn accepted_total(&self) -> u64 {
        self.accepted.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use argus_prompts::PromptGenerator;

    #[test]
    fn the_rungs_are_tiny_sd_then_sd_xl() {
        use argus_models::ModelVariant;
        let ladder = ApproxLevel::ladder(Strategy::Sm);
        assert_eq!(FIRST_PASS_LEVEL, ApproxLevel::Sm(ModelVariant::TinySd));
        assert_eq!(ESCALATION_LEVEL, ApproxLevel::Sm(ModelVariant::SdXl));
        assert_eq!(
            ladder[CascadeConfig::new().first_pass_rung(RUNGS)],
            FIRST_PASS_LEVEL
        );
        assert_eq!(ladder[0], ESCALATION_LEVEL);
    }

    #[test]
    fn discriminator_is_deterministic_and_bounded() {
        let prompts = PromptGenerator::new(7).generate_batch(64);
        let d = OracleDiscriminator::new(42);
        let ladder = ApproxLevel::ladder(Strategy::Sm);
        for p in &prompts {
            for &level in ladder {
                let a = d.doubt(p, level, 0.75);
                let b = d.doubt(p, level, 0.75);
                assert_eq!(a.to_bits(), b.to_bits());
                assert!((0.0..=MAX_DOUBT).contains(&a), "{a}");
            }
        }
    }

    #[test]
    fn doubt_equals_the_two_call_formula() {
        // The doubt as two oracle reads, each hashing the text: the
        // estimated score at the executed level, then the base quality.
        let two_call = |d: &OracleDiscriminator, p: &Prompt, level, similarity| {
            let est = d.estimator.score_with_similarity(p, level, similarity);
            let base = d.estimator.base_quality(p);
            (1.0 - est / base).clamp(0.0, MAX_DOUBT)
        };
        let prompts = PromptGenerator::new(11).generate_batch(500);
        let d = OracleDiscriminator::new(24);
        for strategy in [Strategy::Sm, Strategy::Ac] {
            for &level in ApproxLevel::ladder(strategy) {
                for p in &prompts {
                    for similarity in [0.0, 0.3, 0.75, 1.0, 1.7] {
                        assert_eq!(
                            d.doubt(p, level, similarity).to_bits(),
                            two_call(&d, p, level, similarity).to_bits(),
                            "{level} at {similarity}: {}",
                            p.text
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn doubt_of_a_prompt_equals_doubt_of_its_free_text_twin() {
        use argus_prompts::DriftSchedule;
        let step = DriftSchedule {
            start_at: 3_000,
            ramp: 0,
            max_fraction: 0.6,
        };
        let ramp = DriftSchedule {
            start_at: 1_000,
            ramp: 6_000,
            max_fraction: 0.65,
        };
        let d = OracleDiscriminator::new(24);
        let ladder = ApproxLevel::ladder(Strategy::Sm);
        for seed in [1, 77, 2024] {
            for drift in [None, Some(step), Some(ramp)] {
                let mut g = PromptGenerator::new(seed);
                if let Some(schedule) = drift {
                    g = g.with_drift(schedule);
                }
                for (i, p) in g.generate_batch(10_000).into_iter().enumerate() {
                    let twin = Prompt::from_text(p.id, p.text.clone(), p.complexity, p.theme);
                    // The cascade's first-pass rung, and one more rung in turn.
                    for level in [ladder[5], ladder[i % 5]] {
                        assert_eq!(
                            d.doubt(&p, level, 0.75).to_bits(),
                            d.doubt(&twin, level, 0.75).to_bits(),
                            "{level}: {}",
                            p.text
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn discriminator_doubts_deep_approximation_more() {
        // Averaged over prompts, the cheapest rung draws more doubt than
        // full SD-XL — the judge tracks real quality loss directionally.
        let prompts = PromptGenerator::new(3).generate_batch(256);
        let d = OracleDiscriminator::new(42);
        let ladder = ApproxLevel::ladder(Strategy::Sm);
        let mean = |level: ApproxLevel| {
            prompts.iter().map(|p| d.doubt(p, level, 0.75)).sum::<f64>() / 256.0
        };
        assert!(mean(ladder[5]) > mean(ladder[0]));
    }

    #[test]
    fn discriminator_disagrees_with_the_ground_truth_oracle() {
        // The salt keeps the judge imperfect: its doubt ordering must not
        // be a pointwise replay of the true quality oracle.
        let prompts = PromptGenerator::new(3).generate_batch(128);
        let d = OracleDiscriminator::new(42);
        let truth = QualityOracle::new(42);
        let level = ApproxLevel::ladder(Strategy::Sm)[5];
        let disagreements = prompts
            .iter()
            .filter(|p| {
                let est = 1.0 - d.doubt(p, level, 0.75);
                let real = truth.score_with_similarity(p, level, 0.75) / truth.base_quality(p);
                (est - real).abs() > 0.01
            })
            .count();
        assert!(disagreements > 16, "{disagreements} of 128");
    }

    #[test]
    fn first_pass_runs_at_the_cheapest_rung() {
        let cfg = CascadeConfig::new();
        assert_eq!(cfg.first_pass_rung(6), 5);
        let ladder = ApproxLevel::ladder(Strategy::Sm);
        assert_eq!(
            ladder[cfg.first_pass_rung(ladder.len())],
            ApproxLevel::Sm(argus_models::ModelVariant::TinySd)
        );
    }

    #[test]
    fn policy_targets_the_first_pass_rung() {
        let p = CascadePolicy::new(usize::MAX);
        let switcher = StrategySwitcher::new();
        let ladder = p.active_ladder(&switcher);
        assert_eq!(ladder, ApproxLevel::ladder(Strategy::Sm));
        assert!(!p.cache_active(&switcher));
        assert!(!p.uses_classifier());
        assert!(!p.uses_cache_store());
        assert_eq!(p.name(), "Cascade");
    }
}
