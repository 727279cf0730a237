//! Baseline pipelines: Proteus, Sommelier, NIRVANA and the Clipper
//! variants (§5.1, Table 1).

use argus_cluster::{Cluster, WorkerId};
use argus_des::rng::weighted_index;
use argus_models::{AcLevel, ApproxLevel, ModelVariant, Strategy};

use crate::switcher::StrategySwitcher;

use super::{
    least_backlogged_level, CacheGate, Dispatcher, InitialPlacement, LevelPlanner, RouteCtx,
    ServingPolicy, TickAction, WorkerSelector,
};

/// Proteus (ref. 23): SM-only accuracy scaling with a cluster-level solver,
/// prompt-agnostic routing. Re-solves each window from the raw observation
/// (no demand smoothing) and swaps the serving model in place (one HBM
/// slot) — the behaviours §5.7 charges with constant model switching.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProteusPolicy;

impl LevelPlanner for ProteusPolicy {
    fn active_ladder(&self, _switcher: &StrategySwitcher) -> Vec<ApproxLevel> {
        ApproxLevel::ladder(Strategy::Sm)
    }

    fn pick_target_level(&self, ctx: &mut RouteCtx<'_>, _ladder: &[ApproxLevel]) -> usize {
        weighted_index(ctx.route_rng, ctx.omega_norm).unwrap_or(0)
    }

    fn plan_tick(&self, observed_qpm: f64, _last_demand_qpm: f64) -> TickAction {
        TickAction::Reallocate {
            estimate_qpm: observed_qpm,
        }
    }

    fn initial_placement(&self) -> InitialPlacement {
        InitialPlacement::Solve
    }
}

impl CacheGate for ProteusPolicy {
    fn cache_active(&self, _switcher: &StrategySwitcher) -> bool {
        false
    }
}

impl WorkerSelector for ProteusPolicy {}
impl Dispatcher for ProteusPolicy {}

impl ServingPolicy for ProteusPolicy {
    fn name(&self) -> &'static str {
        "Proteus"
    }

    fn hbm_slots(&self) -> usize {
        1
    }
}

/// Sommelier (ref. 38): per-GPU model selection — each worker reacts to its own
/// backlog, stepping one variant faster when overloaded and one slower when
/// idle.
#[derive(Debug, Clone, Copy, Default)]
pub struct SommelierPolicy;

impl LevelPlanner for SommelierPolicy {
    fn active_ladder(&self, _switcher: &StrategySwitcher) -> Vec<ApproxLevel> {
        ApproxLevel::ladder(Strategy::Sm)
    }

    fn pick_target_level(&self, ctx: &mut RouteCtx<'_>, ladder: &[ApproxLevel]) -> usize {
        least_backlogged_level(ctx.cluster, ladder)
    }

    fn plan_tick(&self, _observed_qpm: f64, _last_demand_qpm: f64) -> TickAction {
        TickAction::AdaptPerWorker
    }

    fn initial_placement(&self) -> InitialPlacement {
        InitialPlacement::AllAtBase
    }

    fn adapt_worker_levels(
        &self,
        cluster: &Cluster,
        ladder: &[ApproxLevel],
    ) -> Vec<(WorkerId, ApproxLevel)> {
        let mut changes = Vec::new();
        for w in cluster.alive() {
            let worker = cluster.worker(w);
            let Some(current) = worker.pending_level().or(worker.level()) else {
                // Cold worker (initial or recovered): start at the base.
                changes.push((w, ladder[0]));
                continue;
            };
            let Some(i) = ladder.iter().position(|&l| l == current) else {
                changes.push((w, ladder[0]));
                continue;
            };
            let backlog = worker.backlog();
            if backlog > 3 && i + 1 < ladder.len() {
                changes.push((w, ladder[i + 1]));
            } else if backlog == 0 && i > 0 {
                changes.push((w, ladder[i - 1]));
            }
        }
        changes
    }
}

impl CacheGate for SommelierPolicy {
    fn cache_active(&self, _switcher: &StrategySwitcher) -> bool {
        false
    }
}

impl WorkerSelector for SommelierPolicy {}
impl Dispatcher for SommelierPolicy {}

impl ServingPolicy for SommelierPolicy {
    fn name(&self) -> &'static str {
        "Sommelier"
    }
}

/// NIRVANA (ref. 20) extended to a cluster: SD-XL + approximate caching on every
/// worker, per-prompt `K` from retrieval similarity, load-based spread, no
/// load-adaptive reallocation.
#[derive(Debug, Clone, Copy, Default)]
pub struct NirvanaPolicy;

impl LevelPlanner for NirvanaPolicy {
    fn active_ladder(&self, _switcher: &StrategySwitcher) -> Vec<ApproxLevel> {
        ApproxLevel::ladder(Strategy::Ac)
    }

    fn pick_target_level(&self, ctx: &mut RouteCtx<'_>, ladder: &[ApproxLevel]) -> usize {
        least_backlogged_level(ctx.cluster, ladder)
    }

    fn plan_tick(&self, _observed_qpm: f64, _last_demand_qpm: f64) -> TickAction {
        TickAction::Heal
    }

    fn initial_placement(&self) -> InitialPlacement {
        InitialPlacement::Heal
    }
}

impl CacheGate for NirvanaPolicy {
    fn cache_active(&self, _switcher: &StrategySwitcher) -> bool {
        true
    }

    fn uses_cache_store(&self) -> bool {
        true
    }

    fn ac_level_for_hit(&self, _assigned: AcLevel, similarity: f64) -> AcLevel {
        nirvana_k(similarity)
    }
}

impl WorkerSelector for NirvanaPolicy {}
impl Dispatcher for NirvanaPolicy {}

impl ServingPolicy for NirvanaPolicy {
    fn name(&self) -> &'static str {
        "NIRVANA"
    }
}

/// Clipper with a statically pinned model on every GPU: the most accurate
/// (SD-XL, Clipper-HA) or the fastest (Tiny-SD, Clipper-HT).
#[derive(Debug, Clone, Copy)]
pub struct ClipperPolicy {
    level: ApproxLevel,
    name: &'static str,
}

impl ClipperPolicy {
    /// Clipper-HA: SD-XL statically on all GPUs.
    pub fn highest_accuracy() -> Self {
        ClipperPolicy {
            level: ApproxLevel::Sm(ModelVariant::SdXl),
            name: "Clipper-HA",
        }
    }

    /// Clipper-HT: Tiny-SD statically on all GPUs.
    pub fn highest_throughput() -> Self {
        ClipperPolicy {
            level: ApproxLevel::Sm(ModelVariant::TinySd),
            name: "Clipper-HT",
        }
    }

    /// The pinned level.
    pub fn level(&self) -> ApproxLevel {
        self.level
    }
}

impl LevelPlanner for ClipperPolicy {
    fn active_ladder(&self, _switcher: &StrategySwitcher) -> Vec<ApproxLevel> {
        ApproxLevel::ladder(Strategy::Sm)
    }

    fn pick_target_level(&self, ctx: &mut RouteCtx<'_>, ladder: &[ApproxLevel]) -> usize {
        least_backlogged_level(ctx.cluster, ladder)
    }

    fn plan_tick(&self, _observed_qpm: f64, _last_demand_qpm: f64) -> TickAction {
        TickAction::Heal
    }

    fn initial_placement(&self) -> InitialPlacement {
        InitialPlacement::Heal
    }

    fn static_level(&self) -> ApproxLevel {
        self.level
    }
}

impl CacheGate for ClipperPolicy {
    fn cache_active(&self, _switcher: &StrategySwitcher) -> bool {
        false
    }
}

impl WorkerSelector for ClipperPolicy {}
impl Dispatcher for ClipperPolicy {}

impl ServingPolicy for ClipperPolicy {
    fn name(&self) -> &'static str {
        self.name
    }
}

/// NIRVANA's similarity-driven skip-step selection: closer cached
/// neighbours allow more aggressive reuse (ref. 20).
pub fn nirvana_k(similarity: f64) -> AcLevel {
    match similarity {
        s if s >= 0.92 => AcLevel(25),
        s if s >= 0.86 => AcLevel(20),
        s if s >= 0.78 => AcLevel(15),
        s if s >= 0.68 => AcLevel(10),
        s if s >= 0.55 => AcLevel(5),
        _ => AcLevel(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nirvana_k_mapping_is_monotone() {
        assert_eq!(nirvana_k(0.99), AcLevel(25));
        assert_eq!(nirvana_k(0.87), AcLevel(20));
        assert_eq!(nirvana_k(0.80), AcLevel(15));
        assert_eq!(nirvana_k(0.70), AcLevel(10));
        assert_eq!(nirvana_k(0.60), AcLevel(5));
        assert_eq!(nirvana_k(0.10), AcLevel(0));
    }

    #[test]
    fn clipper_variants_pin_their_levels() {
        assert_eq!(
            ClipperPolicy::highest_accuracy().static_level(),
            ApproxLevel::Sm(ModelVariant::SdXl)
        );
        assert_eq!(
            ClipperPolicy::highest_throughput().static_level(),
            ApproxLevel::Sm(ModelVariant::TinySd)
        );
    }
}
