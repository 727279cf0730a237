//! The Argus pipeline and its prompt-agnostic ablation (PAC, §5.1).

use argus_des::rng::weighted_index;
use argus_models::{ApproxLevel, Strategy};

use crate::switcher::StrategySwitcher;

use super::{
    CacheGate, Dispatcher, InitialPlacement, LevelPlanner, RouteCtx, ServingPolicy, TickAction,
    WorkerSelector,
};

/// Demand-estimate floor per allocator tick: Argus (and PAC, which reuses
/// its allocator) decays the estimate at most 15% per minute so
/// single-minute Poisson dips do not flap the allocation (§4.2).
const DEMAND_DECAY: f64 = 0.85;

/// Full Argus: classifier + solver + ODA/PASM + strategy switching.
#[derive(Debug, Clone, Copy, Default)]
pub struct ArgusPolicy;

impl LevelPlanner for ArgusPolicy {
    fn active_ladder(&self, switcher: &StrategySwitcher) -> Vec<ApproxLevel> {
        ApproxLevel::ladder(switcher.planning_strategy()).to_vec()
    }

    fn pick_target_level(&self, ctx: &mut RouteCtx<'_>, ladder: &[ApproxLevel]) -> usize {
        let table = ctx.switcher.planning_strategy() as usize;
        let predicted = ctx.classifiers[table]
            .predict(ctx.prompt)
            .min(ladder.len() - 1);
        ctx.predictors[table].record(predicted);
        ctx.pasm.sample(predicted, ctx.route_rng)
    }

    fn planning_strategy(&self, switcher: &StrategySwitcher) -> Strategy {
        switcher.planning_strategy()
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

impl CacheGate for ArgusPolicy {
    fn cache_active(&self, switcher: &StrategySwitcher) -> bool {
        switcher.cache_enabled()
    }

    fn uses_cache_store(&self) -> bool {
        true
    }
}

impl WorkerSelector for ArgusPolicy {}
impl Dispatcher for ArgusPolicy {}

impl ServingPolicy for ArgusPolicy {
    fn name(&self) -> &'static str {
        "Argus"
    }

    fn uses_classifier(&self) -> bool {
        true
    }

    fn uses_oda(&self) -> bool {
        true
    }

    fn switches_strategy(&self) -> bool {
        true
    }
}

/// Prompt-Agnostic Argus (§5.1): solver and AC/SM switching, but no
/// classifier and no ODA — prompts are redistributed proportionally to the
/// load distribution.
#[derive(Debug, Clone, Copy, Default)]
pub struct PacPolicy;

impl LevelPlanner for PacPolicy {
    fn active_ladder(&self, switcher: &StrategySwitcher) -> Vec<ApproxLevel> {
        ApproxLevel::ladder(switcher.planning_strategy()).to_vec()
    }

    fn pick_target_level(&self, ctx: &mut RouteCtx<'_>, _ladder: &[ApproxLevel]) -> usize {
        weighted_index(ctx.route_rng, ctx.omega_norm).unwrap_or(0)
    }

    fn planning_strategy(&self, switcher: &StrategySwitcher) -> Strategy {
        switcher.planning_strategy()
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

impl CacheGate for PacPolicy {
    fn cache_active(&self, switcher: &StrategySwitcher) -> bool {
        switcher.cache_enabled()
    }

    fn uses_cache_store(&self) -> bool {
        true
    }
}

impl WorkerSelector for PacPolicy {}
impl Dispatcher for PacPolicy {}

impl ServingPolicy for PacPolicy {
    fn name(&self) -> &'static str {
        "PAC"
    }

    fn switches_strategy(&self) -> bool {
        true
    }
}
