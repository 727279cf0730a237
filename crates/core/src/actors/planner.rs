//! The planner stage: Eq. 1 allocation solving.
//!
//! The stage owns the solver state — the per-(architecture, strategy)
//! [`SolveCache`]s — and answers three queries: a full plan over
//! the fleet's pools ([`PlannerStage::plan`]), a single-pool re-solve for
//! the mid-minute demand re-split ([`PlannerStage::solve`]), and a
//! derated capacity probe ([`PlannerStage::capacity`]) for the
//! retrieval-spike re-split trigger. Each solved pool comes back as one
//! [`PoolPlan`]: the [`PoolSpec`] it was solved from plus the solve's
//! result.
//!
//! A plan fully specifies every pool's problem first, then solves the
//! pools in pool order, each through its own solve cache (pools are keyed
//! by architecture, so the caches are disjoint). Eq. 1 solving is a pure
//! function of the problem — warm-started searches are debug-asserted
//! bit-identical against cold ones — so the solve order cannot perturb
//! any result.

use argus_models::{latency, ApproxLevel, GpuArch, Strategy};
use argus_obs::StageCounters;

use crate::capacity::{CapacityCtx, CapacityModel};
use crate::solver::{AllocationProblem, SolveCache};
use std::sync::Arc;

/// One pool's solve inputs, as the driver sees them: the retrieval
/// overhead is resolved driver-side (the EWMA for AC strategies, zero for
/// SM) so the stage never reads mutable driver state.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PoolSpec {
    pub gpu: GpuArch,
    /// The ladder the pool serves: its strategy's.
    pub ladder: &'static [ApproxLevel],
    pub workers: usize,
    pub overhead: f64,
    /// Observed cascade escalation rate to price into Eq. 1 (`None` for
    /// every non-cascade run; see [`CapacityCtx::escalation`]).
    pub escalation: Option<f64>,
}

/// One architecture pool's share of an Eq. 1 solve: the spec it was
/// solved from and what the solve returned. The driver keeps the last
/// plan per pool for ω re-merging, mid-minute re-splitting and the
/// autoscaler's pool signals.
#[derive(Debug, Clone)]
pub(crate) struct PoolPlan {
    /// The pool's solve inputs at plan time. `overhead` is the baseline
    /// the mid-minute retrieval-spike trigger compares the live EWMA
    /// against.
    pub spec: PoolSpec,
    /// Derated maximum capacity (QPM) of the pool at plan time. The
    /// re-split scales this by the *current* alive count, so a fault that
    /// shrinks a pool mid-minute immediately shrinks the capacity the
    /// saturation check reasons with.
    pub cap_qpm: f64,
    /// Demand share (QPM) the pool was solved with.
    pub share_qpm: f64,
    /// Solved per-level load vector `ω` (QPM, per ladder index).
    pub omega_qpm: Vec<f64>,
    /// Solved per-level worker counts.
    pub workers_per_level: Vec<usize>,
}

impl PoolSpec {
    /// The strategy whose ladder the pool serves.
    pub(crate) fn strategy(&self) -> Strategy {
        self.ladder[0].strategy()
    }
}

impl PoolPlan {
    /// The plan's capacity scaled to the pool's current alive workers.
    pub(crate) fn current_cap_qpm(&self, alive_now: usize) -> f64 {
        self.cap_qpm * alive_now as f64 / self.spec.workers as f64
    }
}

/// The planner stage: Eq. 1 solver state, driven by plain method calls.
pub(crate) struct PlannerStage {
    capacity_model: Arc<dyn CapacityModel>,
    slo_secs: f64,
    max_batch: u32,
    load_aware: bool,
    /// Per-(architecture, strategy) solve caches.
    solve_caches: Vec<((GpuArch, Strategy), SolveCache)>,
    profile: StageCounters,
}

impl PlannerStage {
    /// A planner with empty solve caches; they fill on demand.
    pub(crate) fn new(
        capacity_model: Arc<dyn CapacityModel>,
        slo_secs: f64,
        max_batch: u32,
        load_aware: bool,
    ) -> Self {
        PlannerStage {
            capacity_model,
            slo_secs,
            max_batch,
            load_aware,
            solve_caches: Vec::new(),
            profile: StageCounters::default(),
        }
    }

    /// Solves the whole fleet for `total_demand` QPM and returns the
    /// cluster-wide saturation verdict with one plan per pool, in pool
    /// order. Every pool's problem is specified first; several pools split
    /// the demand proportionally to their derated capacity, a single pool
    /// (the paper's homogeneous testbed) takes it whole.
    pub(crate) fn plan(
        &mut self,
        pools: Vec<PoolSpec>,
        total_demand: f64,
    ) -> (bool, Vec<PoolPlan>) {
        self.profile.count(true);
        let problems: Vec<AllocationProblem> = pools
            .iter()
            .map(|pool| self.pool_problem(pool, 0.0))
            .collect();
        let total_cap: f64 = problems.iter().map(|p| p.max_capacity_qpm()).sum();
        let saturated = total_demand > total_cap + 1e-9;
        let single = problems.len() == 1;
        let plans = pools
            .into_iter()
            .zip(problems)
            .map(|(pool, mut problem)| {
                // The proportional share of a lone pool can miss the
                // demand in the last bit.
                problem.demand_qpm = if single {
                    total_demand
                } else if total_cap > 0.0 {
                    total_demand * problem.max_capacity_qpm() / total_cap
                } else {
                    0.0
                };
                self.solve_problem(pool, &problem)
            })
            .collect();
        (saturated, plans)
    }

    /// Re-solves one pool at an explicit demand share (mid-minute
    /// re-split).
    pub(crate) fn solve(&mut self, pool: PoolSpec, demand_qpm: f64) -> PoolPlan {
        self.profile.count(true);
        let problem = self.pool_problem(&pool, demand_qpm);
        self.solve_problem(pool, &problem)
    }

    /// The pool's derated maximum capacity (QPM) at the spec's overhead —
    /// the retrieval-spike trigger compares this against the plan-time
    /// share.
    pub(crate) fn capacity(&mut self, pool: &PoolSpec) -> f64 {
        self.profile.count(true);
        self.pool_problem(pool, 0.0).max_capacity_qpm()
    }

    /// Surrenders the stage profile at teardown (§12 telemetry).
    pub(crate) fn finish(&mut self) -> StageCounters {
        self.profile.count(true);
        self.profile
    }

    /// Solves one fully specified pool problem through the pool's solve
    /// cache.
    fn solve_problem(&mut self, spec: PoolSpec, problem: &AllocationProblem) -> PoolPlan {
        let allocation = problem.solve_cached(self.cache_for(spec.gpu, spec.strategy()));
        PoolPlan {
            spec,
            cap_qpm: problem.max_capacity_qpm(),
            share_qpm: problem.demand_qpm,
            omega_qpm: allocation.omega_qpm,
            workers_per_level: allocation.workers_per_level,
        }
    }

    /// Builds the Eq. 1 problem for one pool at `demand_qpm`: the run's
    /// [`CapacityModel`] answers the raw per-level peaks (under the batch
    /// bound and SLO), then SLO-aware queueing derating applies on top.
    fn pool_problem(&self, pool: &PoolSpec, demand_qpm: f64) -> AllocationProblem {
        let (ladder, strategy, gpu) = (pool.ladder, pool.strategy(), pool.gpu);
        let ctx = CapacityCtx {
            max_batch: self.max_batch,
            slo_secs: self.slo_secs,
            retrieval_overhead_secs: pool.overhead,
            escalation: pool.escalation,
        };
        // Queueing derating budgets against each level's *wall* latency —
        // for batched plans the full inflated pass, not the amortized
        // service time (Batch1Model: identical by definition). The
        // cascade escalation surcharge is a throughput-side price, not a
        // wall-latency one (the second pass is a separate dispatch), so
        // latencies are derived escalation-free.
        let wall_ctx = CapacityCtx {
            escalation: None,
            ..ctx
        };
        let latencies: Vec<f64> = ladder
            .iter()
            .map(|&lvl| self.capacity_model.job_latency_secs(lvl, gpu, &wall_ctx))
            .collect();
        let mut problem = AllocationProblem::from_capacity_model(
            self.capacity_model.as_ref(),
            ladder,
            gpu,
            &ctx,
            pool.workers,
            demand_qpm,
        )
        .with_slo_derating_latencies(self.slo_secs, &latencies);
        if self.load_aware && strategy == Strategy::Sm {
            // §6 ablation: charge each level's peak throughput with the
            // amortized load time of switching a worker to it.
            for lp in problem.levels.iter_mut() {
                let load =
                    latency::load_secs(lp.level.resident_model(), latency::Loader::Accelerate);
                let amortized = load / 60.0; // one potential switch per tick
                lp.peak_qpm = 60.0 / (60.0 / lp.peak_qpm + amortized) * 1.0;
            }
        }
        problem
    }

    fn cache_for(&mut self, gpu: GpuArch, strategy: Strategy) -> &mut SolveCache {
        let key = (gpu, strategy);
        if let Some(i) = self.solve_caches.iter().position(|(k, _)| *k == key) {
            return &mut self.solve_caches[i].1;
        }
        self.solve_caches.push((key, SolveCache::new()));
        &mut self.solve_caches.last_mut().expect("just pushed").1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capacity::Batch1Model;

    /// A lone pool takes the whole demand: the proportional share
    /// `d × cap / cap` can miss `d` in the last bit.
    #[test]
    fn a_single_pool_takes_the_demand_bit_for_bit() {
        let mut planner = PlannerStage::new(Arc::new(Batch1Model), 12.6, 1, false);
        let spec = PoolSpec {
            gpu: GpuArch::A100,
            ladder: ApproxLevel::ladder(Strategy::Ac),
            workers: 8,
            overhead: 0.02,
            escalation: None,
        };
        let cap = planner.capacity(&spec);
        let demands: Vec<f64> = (0..1000)
            .map(|k| 50.0 + 0.37 * k as f64)
            .filter(|&d| d * cap / cap != d)
            .take(16)
            .collect();
        assert!(!demands.is_empty(), "every demand survived d × cap / cap");
        for d in demands {
            let (_, plans) = planner.plan(vec![spec], d);
            assert_eq!(plans[0].share_qpm.to_bits(), d.to_bits(), "demand {d}");
        }
    }
}
