//! The planner stage: Eq. 1 allocation solving.
//!
//! The stage owns every piece of solver state the old loop kept inline —
//! the per-(architecture, strategy) [`SolveCache`]s and the memo of
//! derated level profiles — and answers three queries: a full plan over
//! the fleet's pools ([`PlannerStage::plan`]), a single-pool re-solve for
//! the mid-minute demand re-split ([`PlannerStage::solve`]), and a
//! derated capacity probe ([`PlannerStage::capacity`]) for the
//! retrieval-spike re-split trigger.
//!
//! Heterogeneous plans fully specify every pool's problem first, then
//! solve the pools in pool order, each through its own solve cache (pools
//! are keyed by architecture, so the caches are disjoint). Eq. 1 solving
//! is a pure function of the problem — cache hits are debug-asserted
//! bit-identical against fresh solves — so the solve order cannot perturb
//! any result.

use argus_models::{latency, ApproxLevel, GpuArch, Strategy};
use argus_obs::StageCounters;

use crate::capacity::{CapacityCtx, CapacityModel, EscalationCtx};
use crate::solver::{AllocationProblem, LevelProfile, SolveCache};
use std::sync::Arc;

/// Memoized per-architecture derated level profiles: heterogeneous runs
/// used to rebuild and re-derate every pool's Eq. 1 profiles on every
/// tick, although they only change when the ladder, the
/// retrieval-overhead estimate, or the §6 load-aware ablation change.
/// Keyed by the exact inputs, so a hit is bit-identical to a fresh
/// derivation (debug-asserted at the lookup site); cleared on fault
/// events as a hygiene bound.
#[derive(Debug, Default)]
struct DeratedCache {
    entries: Vec<(DerateKey, Vec<LevelProfile>)>,
}

/// Memo key of one derated profile set: `(architecture, strategy,
/// retrieval-overhead bits, load-aware-solver flag, cascade escalation
/// fingerprint)`. The fingerprint carries the exact rate bits and the
/// from/to levels, so two ticks with different observed escalation rates
/// never share a memo entry.
type DerateKey = (
    GpuArch,
    Strategy,
    u64,
    bool,
    Option<(u64, ApproxLevel, ApproxLevel)>,
);

/// The memo fingerprint of a pool's escalation context.
fn escalation_key(e: Option<EscalationCtx>) -> Option<(u64, ApproxLevel, ApproxLevel)> {
    e.map(|e| (e.rate.to_bits(), e.from, e.to))
}

/// Retained (architecture × strategy × overhead) profile sets.
const DERATED_CACHE_CAP: usize = 16;

/// One pool's solve inputs, as the driver sees them: the retrieval
/// overhead is resolved driver-side (the EWMA for AC strategies, zero for
/// SM) so the stage never reads mutable driver state.
#[derive(Debug, Clone)]
pub(crate) struct PoolSpec {
    pub gpu: GpuArch,
    pub strategy: Strategy,
    pub ladder: Vec<ApproxLevel>,
    pub workers: usize,
    pub overhead: f64,
    /// Observed cascade escalation demand to price into Eq. 1 (`None`
    /// for every non-cascade run).
    pub escalation: Option<EscalationCtx>,
}

/// One pool's solved allocation.
#[derive(Debug, Clone)]
pub(crate) struct PoolAllocation {
    /// Derated maximum capacity (QPM) at solve time.
    pub cap_qpm: f64,
    /// Demand share (QPM) the pool was solved with.
    pub share_qpm: f64,
    /// Solved per-level load vector (QPM).
    pub omega_qpm: Vec<f64>,
    /// Solved per-level worker counts.
    pub workers_per_level: Vec<usize>,
}

/// A full plan: per-pool allocations in pool order, plus the cluster-wide
/// saturation verdict.
pub(crate) struct Plan {
    pub saturated: bool,
    pub pools: Vec<PoolAllocation>,
}

/// The planner stage: Eq. 1 solver state, driven by plain method calls.
pub(crate) struct PlannerStage {
    capacity_model: Arc<dyn CapacityModel>,
    slo_secs: f64,
    max_batch: u32,
    load_aware: bool,
    /// Per-(architecture, strategy) solve caches.
    solve_caches: Vec<((GpuArch, Strategy), SolveCache)>,
    derated: DeratedCache,
    profile: StageCounters,
}

impl PlannerStage {
    /// A planner with empty memos; they fill on demand.
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
            derated: DeratedCache::default(),
            profile: StageCounters::default(),
        }
    }

    /// Solves the whole fleet for `total_demand` QPM: a single pool takes
    /// the demand unsplit (the paper's homogeneous testbed), several
    /// pools split it proportionally to their derated capacity and are
    /// solved one after another in pool order.
    pub(crate) fn plan(&mut self, pools: &[PoolSpec], total_demand: f64) -> Plan {
        self.profile.count(true);
        if let [pool] = pools {
            // Homogeneous fast path (the paper's testbed): no demand split.
            let problem = self.pool_problem(pool, total_demand);
            let (allocation, saturated) = self.solve_problem(pool, &problem);
            return Plan {
                saturated,
                pools: vec![allocation],
            };
        }
        // Heterogeneous: fully specify every pool's problem (shares
        // proportional to derated capacity), then solve each. Every solve
        // is a pure function of its problem, and pools are keyed by
        // architecture, so each uses its own solve cache.
        let mut problems: Vec<AllocationProblem> = pools
            .iter()
            .map(|pool| self.pool_problem(pool, 0.0))
            .collect();
        let total_cap: f64 = problems.iter().map(|p| p.max_capacity_qpm()).sum();
        let saturated = total_demand > total_cap + 1e-9;
        let solved = pools
            .iter()
            .zip(&mut problems)
            .map(|(pool, problem)| {
                problem.demand_qpm = if total_cap > 0.0 {
                    total_demand * problem.max_capacity_qpm() / total_cap
                } else {
                    0.0
                };
                self.solve_problem(pool, problem).0
            })
            .collect();
        Plan {
            saturated,
            pools: solved,
        }
    }

    /// Re-solves one pool at an explicit demand share (mid-minute
    /// re-split).
    pub(crate) fn solve(&mut self, pool: &PoolSpec, demand_qpm: f64) -> PoolAllocation {
        self.profile.count(true);
        let problem = self.pool_problem(pool, demand_qpm);
        self.solve_problem(pool, &problem).0
    }

    /// The pool's derated maximum capacity (QPM) at the spec's overhead —
    /// the retrieval-spike trigger compares this against the plan-time
    /// share.
    pub(crate) fn capacity(&mut self, pool: &PoolSpec) -> f64 {
        self.profile.count(true);
        self.pool_problem(pool, 0.0).max_capacity_qpm()
    }

    /// Fault hygiene: drops memoized derated profiles.
    pub(crate) fn invalidate(&mut self) {
        self.profile.count(false);
        self.derated.entries.clear();
    }

    /// Surrenders the stage profile at teardown (§12 telemetry).
    pub(crate) fn finish(&mut self) -> StageCounters {
        self.profile.count(true);
        self.profile
    }

    /// Solves one fully specified pool problem through the pool's solve
    /// cache, returning its allocation and the solver's saturation
    /// verdict.
    fn solve_problem(
        &mut self,
        pool: &PoolSpec,
        problem: &AllocationProblem,
    ) -> (PoolAllocation, bool) {
        let allocation = problem.solve_cached(self.cache_for(pool.gpu, pool.strategy));
        let solved = PoolAllocation {
            cap_qpm: problem.max_capacity_qpm(),
            share_qpm: problem.demand_qpm,
            omega_qpm: allocation.omega_qpm,
            workers_per_level: allocation.workers_per_level,
        };
        (solved, allocation.saturated)
    }

    /// Builds the Eq. 1 problem for one pool, with derated profiles
    /// memoized per (architecture, strategy, overhead, load-aware flag);
    /// debug builds assert each hit against a fresh derivation.
    fn pool_problem(&mut self, pool: &PoolSpec, demand_qpm: f64) -> AllocationProblem {
        let key = (
            pool.gpu,
            pool.strategy,
            pool.overhead.to_bits(),
            self.load_aware,
            escalation_key(pool.escalation),
        );
        let levels = match self
            .derated
            .entries
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.clone())
        {
            Some(cached) => {
                debug_assert_eq!(
                    cached,
                    self.derated_profiles(pool),
                    "memoized derated profiles diverged from a fresh derivation"
                );
                cached
            }
            None => {
                let fresh = self.derated_profiles(pool);
                if self.derated.entries.len() == DERATED_CACHE_CAP {
                    self.derated.entries.remove(0);
                }
                self.derated.entries.push((key, fresh.clone()));
                fresh
            }
        };
        AllocationProblem {
            levels,
            workers: pool.workers,
            demand_qpm,
        }
    }

    /// Derives one pool's derated Eq. 1 level profiles from scratch: the
    /// run's [`CapacityModel`] answers the raw per-level peaks (under the
    /// batch bound and SLO), then SLO-aware queueing derating applies on
    /// top.
    fn derated_profiles(&self, pool: &PoolSpec) -> Vec<LevelProfile> {
        let (ladder, strategy, gpu) = (&pool.ladder[..], pool.strategy, pool.gpu);
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
            1,
            0.0,
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
        problem.levels
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
