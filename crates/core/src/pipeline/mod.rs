//! The staged serving pipeline (§4): a pluggable control-plane API.
//!
//! The paper describes the control plane as composable stages — query
//! classification and level planning (§4.1–§4.3), Eq. 3 worker selection
//! (§4.4), cache gating (§4.6) and dispatch (§4.5). This module turns that
//! description into an explicit API: a [`ServingPolicy`] is the composition
//! of four stage traits, and the event loop in [`crate::system`] drives any
//! implementation generically:
//!
//! * [`LevelPlanner`] — which approximation ladder is active, which ladder
//!   index a prompt is assigned to, and what the allocator tick should do;
//! * [`CacheGate`] — whether approximate-cache retrieval is attempted and
//!   how a retrieval hit maps to an effective skip level;
//! * [`WorkerSelector`] — the Eq. 3 `argmin_w queue_w × t_proc` choice,
//!   including the §4.7 tail-latency spill; on per-pool-strategy fleets
//!   a rung resolves to each architecture's own level through the
//!   [`SelectCtx::pinned`] table;
//! * [`Dispatcher`] — how many queued same-level jobs a worker drains per
//!   start, using the Obs. 5 batching latency model.
//!
//! [`pipeline_for`] maps each built-in [`Policy`] to its implementation
//! ([`ArgusPolicy`], [`PacPolicy`], [`ProteusPolicy`], [`SommelierPolicy`],
//! [`NirvanaPolicy`], [`ClipperPolicy`]); custom pipelines plug in through
//! [`crate::system::RunConfig::with_policy_pipeline`]. With the default
//! batch bound of 1 every stage reproduces the pre-pipeline behaviour
//! bit-for-bit (pinned by `tests/batch_parity.rs`).

use std::fmt;
use std::sync::Arc;

use argus_classifier::Classifier;
use argus_cluster::{Cluster, WorkerId, MAX_RESIDENT_MODELS};
use argus_models::{AcLevel, ApproxLevel, GpuArch, Strategy};
use argus_prompts::Prompt;
use rand::rngs::StdRng;

use crate::oda::Pasm;
use crate::policy::Policy;
use crate::predictor::WorkloadDistributionPredictor;
use crate::scheduler::{eq3_worker, PinnedLadders};
use crate::switcher::StrategySwitcher;

mod argus;
mod baselines;

pub use argus::{ArgusPolicy, PacPolicy};
pub use baselines::{nirvana_k, ClipperPolicy, NirvanaPolicy, ProteusPolicy, SommelierPolicy};

pub use crate::capacity::TAIL_BUDGET_FRACTION;

/// What the event loop should do at an allocator tick (§4.7: solved every
/// minute).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TickAction {
    /// Re-solve Eq. 1 with this demand estimate (QPM, pre-burst-allowance).
    Reallocate {
        /// Smoothed demand estimate the policy plans for.
        estimate_qpm: f64,
    },
    /// Per-worker adaptation: apply [`LevelPlanner::adapt_worker_levels`].
    AdaptPerWorker,
    /// Static placement: only assign levels to recovered (level-less)
    /// workers, via [`LevelPlanner::static_level`].
    Heal,
}

/// How the cluster is placed before traffic starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitialPlacement {
    /// Solve Eq. 1 against the trace's opening demand.
    Solve,
    /// Assign every worker the policy's [`LevelPlanner::static_level`].
    Heal,
    /// Assign every worker the base (slowest) level of the active ladder.
    AllAtBase,
}

/// Mutable routing context handed to [`LevelPlanner::pick_target_level`]:
/// the per-prompt state of §4.1–§4.3 (classifier, predictor, PASM) plus the
/// deterministic routing RNG stream.
pub struct RouteCtx<'a> {
    /// The cluster (read-only; per-worker policies route by backlog).
    pub cluster: &'a Cluster,
    /// The AC↔SM switcher (read-only; selects the planning strategy).
    pub switcher: &'a StrategySwitcher,
    /// Per-strategy classifiers, indexed by `Strategy as usize` (AC, then
    /// SM); empty unless the policy trains them.
    pub classifiers: &'a [Classifier],
    /// Per-strategy workload-distribution predictors (classifier output
    /// histogram, §4.2), indexed like `classifiers`; mutable so the
    /// planner can record predictions.
    pub predictors: &'a mut [WorkloadDistributionPredictor],
    /// The current PASM (Argus) or proportional map (baselines).
    pub pasm: &'a Pasm,
    /// The normalized load distribution `ω` from the last allocation.
    pub omega_norm: &'a [f64],
    /// The deterministic routing RNG stream.
    pub route_rng: &'a mut StdRng,
    /// The prompt being routed (the classifier reads its carried tokens).
    pub prompt: &'a Prompt,
}

/// Read-only context for [`WorkerSelector`] and [`Dispatcher`] decisions.
pub struct SelectCtx<'a> {
    /// The cluster.
    pub cluster: &'a Cluster,
    /// The latency SLO in seconds (3× base SD-XL latency, §5.1).
    pub slo_secs: f64,
    /// Upper bound on jobs drained per worker start
    /// ([`crate::system::RunConfig::with_batching`]).
    pub max_batch: u32,
    /// The ladder each architecture pool serves
    /// ([`crate::system::RunConfig::with_pool_strategy`]); empty, so that
    /// every pool serves the active ladder, on runs without pins and for
    /// pipelines that do not solve Eq. 1 at set-up.
    pub pinned: &'a PinnedLadders,
}

/// Stage 1-2: ladder choice, per-prompt level assignment, tick planning.
pub trait LevelPlanner {
    /// The ladder the system currently plans and routes with.
    fn active_ladder(&self, switcher: &StrategySwitcher) -> Vec<ApproxLevel>;

    /// Chooses the ladder index a prompt is assigned to.
    fn pick_target_level(&self, ctx: &mut RouteCtx<'_>, ladder: &[ApproxLevel]) -> usize;

    /// The strategy the Eq. 1 solver plans for.
    fn planning_strategy(&self, _switcher: &StrategySwitcher) -> Strategy {
        Strategy::Sm
    }

    /// What the allocator tick should do, given the observed arrival rate
    /// and the previous demand estimate (both QPM). Solver policies return
    /// [`TickAction::Reallocate`] with their (possibly smoothed) estimate.
    fn plan_tick(&self, observed_qpm: f64, last_demand_qpm: f64) -> TickAction;

    /// How workers are placed before traffic starts.
    fn initial_placement(&self) -> InitialPlacement;

    /// The level statically (re)assigned to level-less workers under
    /// [`TickAction::Heal`] / [`InitialPlacement::Heal`].
    fn static_level(&self) -> ApproxLevel {
        ApproxLevel::Ac(AcLevel(0))
    }

    /// Per-worker level changes under [`TickAction::AdaptPerWorker`]
    /// (Sommelier's backlog stepping). Other policies never receive this
    /// call and keep the empty default.
    fn adapt_worker_levels(
        &self,
        _cluster: &Cluster,
        _ladder: &[ApproxLevel],
    ) -> Vec<(WorkerId, ApproxLevel)> {
        Vec::new()
    }
}

/// Stage 3: whether approximate-cache retrieval runs, and what a hit means.
///
/// The gate decides *whether* and *at which level* retrieval happens; it
/// is deliberately agnostic of *where* the index lives. The event loop
/// routes gated lookups through whichever retrieval plane the run
/// configured — the exact flat scan, the shared LSH index, or the sharded
/// cache plane (`RunConfig::with_sharded_cache`, [`crate::cacheplane`]) —
/// so every policy's gate gets sharding, replication and fault rebalance
/// for free.
pub trait CacheGate {
    /// Whether cache retrieval is attempted for new jobs right now.
    fn cache_active(&self, switcher: &StrategySwitcher) -> bool;

    /// Whether completed generations are persisted to the VDB/cache store
    /// for future reuse.
    fn uses_cache_store(&self) -> bool {
        false
    }

    /// The effective skip level when retrieval found a neighbour with the
    /// given similarity. Argus/PAC serve the worker's assigned level;
    /// NIRVANA derives `K` from the similarity.
    ///
    /// Contract: for a fixed `assigned` level, the skipped steps must be
    /// non-decreasing in `similarity`. The driver relies on it to skip
    /// retrieval entirely when even similarity 1 would skip no steps, as
    /// no neighbour the search could find would then be reused.
    fn ac_level_for_hit(&self, assigned: AcLevel, _similarity: f64) -> AcLevel {
        assigned
    }
}

/// Stage 4a: the Eq. 3 Worker-Selector.
pub trait WorkerSelector {
    /// Picks the worker (and the ladder index it is counted under) for a
    /// prompt assigned to `ladder[target]`. The default is the shared
    /// Eq. 3 argmin with the §4.7 tail-latency spill and the
    /// least-backlogged fallback; every built-in policy uses it.
    ///
    /// `proc_secs(rung, gpu)` is the per-image processing time at a rung
    /// on an architecture: a pure function of its arguments, positive and
    /// finite. The default relies on that: it reads the cluster's dispatch
    /// index and calls `proc_secs` once per (rung, architecture) group
    /// instead of once per worker.
    fn select_worker(
        &self,
        ctx: &SelectCtx<'_>,
        ladder: &[ApproxLevel],
        target: usize,
        proc_secs: &dyn Fn(usize, GpuArch) -> f64,
    ) -> Option<(WorkerId, usize)> {
        default_select_worker(ctx, ladder, target, proc_secs)
    }
}

/// Stage 4b: batched dispatch.
pub trait Dispatcher {
    /// How many queued jobs the worker drains into one batched start. The
    /// default grows the batch toward `ctx.max_batch` but stops where the
    /// Obs. 5 latency inflation would eat the tail budget; with
    /// `max_batch == 1` it is constant 1 (the paper's §4.5 operating
    /// point) and the dispatch path is bit-identical to unbatched serving.
    fn batch_size(&self, ctx: &SelectCtx<'_>, worker: WorkerId, level: ApproxLevel) -> u32 {
        default_batch_size(ctx, worker, level)
    }
}

/// A complete serving pipeline: the four stages plus the feature flags the
/// simulation consults when wiring a run (classifier training, cache
/// persistence, strategy switching, HBM residency).
pub trait ServingPolicy:
    LevelPlanner + CacheGate + WorkerSelector + Dispatcher + fmt::Debug + Send + Sync
{
    /// Display name (diagnostics only).
    fn name(&self) -> &'static str;

    /// Whether per-prompt classifiers are trained and consulted (§4.1).
    fn uses_classifier(&self) -> bool {
        false
    }

    /// Whether prompts are redistributed through ODA's PASM (§4.3) rather
    /// than the proportional map.
    fn uses_oda(&self) -> bool {
        false
    }

    /// Whether the policy adaptively switches between AC and SM (§4.6).
    fn switches_strategy(&self) -> bool {
        false
    }

    /// Co-resident model variants per GPU. Argus keeps two (§4.6
    /// dual-resident HBM); systems that swap the serving model in place run
    /// with one and pay a load on every switch.
    fn hbm_slots(&self) -> usize {
        MAX_RESIDENT_MODELS
    }
}

/// The built-in pipeline for a [`Policy`] — the only place a policy tag is
/// mapped to behaviour ([`Policy`] itself is just a name); the event loop
/// itself is policy-agnostic.
pub fn pipeline_for(policy: Policy) -> Arc<dyn ServingPolicy> {
    match policy {
        Policy::Argus => Arc::new(ArgusPolicy),
        Policy::Pac => Arc::new(PacPolicy),
        Policy::Proteus => Arc::new(ProteusPolicy),
        Policy::Sommelier => Arc::new(SommelierPolicy),
        Policy::Nirvana => Arc::new(NirvanaPolicy),
        Policy::ClipperHa => Arc::new(ClipperPolicy::highest_accuracy()),
        Policy::ClipperHt => Arc::new(ClipperPolicy::highest_throughput()),
    }
}

/// The shared Eq. 3 selection: the scheduler's argmin, then the §4.7
/// tail-latency spill (fall back to the globally fastest-draining worker
/// when the chosen worker's expected sojourn would eat most of the SLO
/// budget), then the least-backlogged fallback for mid-transition windows
/// where the ladder matches no worker. All three read the cluster's
/// dispatch index.
pub fn default_select_worker(
    ctx: &SelectCtx<'_>,
    ladder: &[ApproxLevel],
    target: usize,
    proc_secs: &dyn Fn(usize, GpuArch) -> f64,
) -> Option<(WorkerId, usize)> {
    let cluster = ctx.cluster;
    let mut choice = eq3_worker(cluster, ctx.pinned, ladder, target, proc_secs);
    if let Some((w, lvl)) = choice {
        let sojourn =
            (cluster.worker(w).backlog() as f64 + 1.0) * proc_secs(lvl, cluster.worker(w).gpu());
        if sojourn > TAIL_BUDGET_FRACTION * ctx.slo_secs {
            if let Some((w2, lvl2, cost2)) = spill_worker(cluster, ctx.pinned, ladder, proc_secs) {
                if cost2 + 1e-9 < sojourn {
                    choice = Some((w2, lvl2));
                }
            }
        }
    }
    choice.or_else(|| least_backlogged_worker(cluster).map(|w| (w, target)))
}

/// The §4.7 spill candidate: among dispatchable workers keyed by
/// `level().or(pending_level())` at a level on their pool's ladder
/// (`pinned.ladder(gpu, ladder)`), the least expected sojourn
/// `(backlog + 1) × t_proc`, ties to the lowest id. Returns the worker,
/// its ladder index and that sojourn.
///
/// Within one (level, architecture) serving group the sojourn rises with
/// the backlog, so only each group's head can win.
pub(crate) fn spill_worker(
    cluster: &Cluster,
    pinned: &PinnedLadders,
    ladder: &[ApproxLevel],
    proc_secs: &dyn Fn(usize, GpuArch) -> f64,
) -> Option<(WorkerId, usize, f64)> {
    cluster
        .serving_heads()
        .filter_map(|(level, gpu, backlog, id)| {
            let i = pinned
                .ladder(gpu, ladder)
                .iter()
                .position(|&x| x == level)?;
            let cost = (backlog as f64 + 1.0) * proc_secs(i, gpu);
            Some((id, i, cost))
        })
        .min_by(|a, b| {
            a.2.partial_cmp(&b.2)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        })
}

/// The least-backlogged dispatchable worker that serves or loads any
/// level, on the ladder or not, ties to the lowest id.
pub(crate) fn least_backlogged_worker(cluster: &Cluster) -> Option<WorkerId> {
    cluster
        .serving_heads()
        .map(|(_, _, backlog, id)| (backlog, id))
        .min()
        .map(|(_, id)| id)
}

/// The default batch-size choice: drain up to `max_batch` queued jobs, but
/// shrink the batch while the Obs. 5 pass-level latency inflation at the
/// worst-case member compute would exceed the tail budget — the paper's
/// throughput/latency trade-off (batch while the SLO slack allows it;
/// serve batch-1 when it does not, §4.5).
///
/// The cap plans with the worst case a member can realize, not the
/// assigned level's optimistic cost: an AC-level job whose retrieval
/// misses falls back to a full base-model generation, and the whole batch
/// completes together at that member's pace — so AC batches are budgeted
/// at `K = 0` compute. Under the default 3× SLO this keeps the AC ladder
/// at batch-1 (exactly the paper's §4.5 operating point); SM variants,
/// whose member cost is known up front, batch to their own slack.
pub fn default_batch_size(ctx: &SelectCtx<'_>, worker: WorkerId, level: ApproxLevel) -> u32 {
    if ctx.max_batch <= 1 {
        return 1;
    }
    let w = ctx.cluster.worker(worker);
    let queued = w.queue_len().min(ctx.max_batch as usize) as u32;
    if queued <= 1 {
        return 1;
    }
    // The SLO/worst-case-member cap is shared with the capacity models, so
    // the planner never counts on a batch this dispatcher would refuse.
    crate::capacity::slo_capped_batch(level, w.gpu(), queued, ctx.slo_secs)
}

/// Shared target choice for per-worker policies (Sommelier, NIRVANA,
/// Clipper): route to the least-backlogged worker's level; the ladder index
/// seeds the backlog-based fallback ordering. Reads the heads of the
/// serving groups whose level is on the ladder.
pub(crate) fn least_backlogged_level(cluster: &Cluster, ladder: &[ApproxLevel]) -> usize {
    cluster
        .serving_heads()
        .filter_map(|(level, _, backlog, id)| {
            let i = ladder.iter().position(|&l| l == level)?;
            Some((backlog, id, i))
        })
        .min()
        .map(|(_, _, i)| i)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use argus_models::{ModelVariant, AC_LEVELS};

    #[test]
    fn pipeline_for_covers_every_policy() {
        for p in Policy::ALL {
            assert_eq!(pipeline_for(p).name(), p.name());
        }
    }

    #[test]
    fn table1_feature_matrix() {
        // The Table 1 rows this reproduction implements, read off the
        // pipelines the way `tab01_system_matrix` prints them.
        let solver = |p| pipeline_for(p).initial_placement() == InitialPlacement::Solve;
        let classifier = |p| pipeline_for(p).uses_classifier();
        let oda = |p| pipeline_for(p).uses_oda();
        let switches = |p| pipeline_for(p).switches_strategy();
        let per_gpu = |p| pipeline_for(p).plan_tick(0.0, 0.0) == TickAction::AdaptPerWorker;
        let cache = |p| pipeline_for(p).uses_cache_store();
        let default_strategy =
            |p| pipeline_for(p).active_ladder(&StrategySwitcher::new())[0].strategy();

        assert!(solver(Policy::Argus));
        assert!(classifier(Policy::Argus));
        assert!(oda(Policy::Argus));
        assert!(switches(Policy::Argus));

        assert!(solver(Policy::Pac));
        assert!(!classifier(Policy::Pac));
        assert!(!oda(Policy::Pac));
        assert!(switches(Policy::Pac));

        assert!(solver(Policy::Proteus));
        assert!(!classifier(Policy::Proteus));
        assert!(!switches(Policy::Proteus));
        assert_eq!(default_strategy(Policy::Proteus), Strategy::Sm);

        assert!(per_gpu(Policy::Sommelier));
        assert!(!solver(Policy::Sommelier));

        assert!(!solver(Policy::Nirvana));
        assert!(cache(Policy::Nirvana));

        assert_eq!(
            pipeline_for(Policy::ClipperHa).static_level(),
            ApproxLevel::Sm(ModelVariant::SdXl)
        );
        assert_eq!(
            pipeline_for(Policy::ClipperHt).static_level(),
            ApproxLevel::Sm(ModelVariant::TinySd)
        );
        assert!(!cache(Policy::ClipperHa));
    }

    #[test]
    fn cache_gates_are_non_decreasing_in_similarity() {
        let mut pipes: Vec<Arc<dyn ServingPolicy>> =
            Policy::ALL.into_iter().map(pipeline_for).collect();
        pipes.push(Arc::new(crate::cascade::CascadePolicy::new(0)));
        // Similarity -1 to 1 in steps of 0.005, so every NIRVANA
        // threshold falls on or next to a grid point.
        let grid: Vec<f64> = (0..=400).map(|i| -1.0 + f64::from(i) / 200.0).collect();
        for pipe in &pipes {
            for &assigned in AC_LEVELS.iter() {
                let mut prev = 0;
                for &similarity in &grid {
                    let steps = pipe.ac_level_for_hit(assigned, similarity).skipped_steps();
                    assert!(
                        steps >= prev,
                        "{}: {assigned:?} at similarity {similarity} skips {steps} < {prev}",
                        pipe.name()
                    );
                    prev = steps;
                }
            }
        }
    }

    #[test]
    fn proteus_swaps_in_place() {
        assert_eq!(pipeline_for(Policy::Proteus).hbm_slots(), 1);
        assert_eq!(pipeline_for(Policy::Argus).hbm_slots(), MAX_RESIDENT_MODELS);
    }

    #[test]
    fn batch_size_is_one_without_batching() {
        let mut cluster = Cluster::new(1, GpuArch::A100);
        let lvl = ApproxLevel::Ac(AcLevel(25));
        cluster.preload(WorkerId(0), lvl);
        for j in 0..8 {
            cluster.enqueue(WorkerId(0), j);
        }
        let ctx = SelectCtx {
            cluster: &cluster,
            slo_secs: 12.6,
            max_batch: 1,
            pinned: &PinnedLadders::default(),
        };
        assert_eq!(default_batch_size(&ctx, WorkerId(0), lvl), 1);
    }

    #[test]
    fn batch_size_caps_at_queue_and_bound() {
        let mut cluster = Cluster::new(1, GpuArch::A100);
        let lvl = ApproxLevel::Sm(ModelVariant::TinySd);
        cluster.preload(WorkerId(0), lvl);
        for j in 0..3 {
            cluster.enqueue(WorkerId(0), j);
        }
        let ctx = SelectCtx {
            cluster: &cluster,
            slo_secs: 12.6,
            max_batch: 8,
            pinned: &PinnedLadders::default(),
        };
        // Tiny-SD at a short queue: the queue is the binding constraint.
        assert_eq!(default_batch_size(&ctx, WorkerId(0), lvl), 3);
    }

    #[test]
    fn batch_size_respects_the_tail_budget() {
        // SD-XL compute eats the tail budget almost immediately, so its
        // batch stays at 1 even with a deep queue and a generous bound;
        // Tiny-SD's slack admits a real batch.
        let mut cluster = Cluster::new(1, GpuArch::A100);
        let slow = ApproxLevel::Sm(ModelVariant::SdXl);
        cluster.preload(WorkerId(0), slow);
        for j in 0..16 {
            cluster.enqueue(WorkerId(0), j);
        }
        let ctx = SelectCtx {
            cluster: &cluster,
            slo_secs: 12.6,
            max_batch: 16,
            pinned: &PinnedLadders::default(),
        };
        let b_slow = default_batch_size(&ctx, WorkerId(0), slow);
        assert!(b_slow <= 2, "SD-XL batch {b_slow} exceeds the SLO budget");
        let fast = ApproxLevel::Sm(ModelVariant::TinySd);
        cluster.preload(WorkerId(0), fast);
        let ctx = SelectCtx {
            cluster: &cluster,
            slo_secs: 12.6,
            max_batch: 16,
            pinned: &PinnedLadders::default(),
        };
        let b_fast = default_batch_size(&ctx, WorkerId(0), fast);
        assert!(b_fast > b_slow, "fast {b_fast} vs slow {b_slow}");
    }

    #[test]
    fn ac_batches_are_budgeted_at_the_cache_miss_cost() {
        // A deep AC level looks cheap, but any member whose retrieval
        // misses generates in full — the cap must plan for that, which
        // keeps the AC ladder at batch-1 under the default 3× SLO (§4.5).
        let mut cluster = Cluster::new(1, GpuArch::A100);
        let lvl = ApproxLevel::Ac(AcLevel(25));
        cluster.preload(WorkerId(0), lvl);
        for j in 0..8 {
            cluster.enqueue(WorkerId(0), j);
        }
        let ctx = SelectCtx {
            cluster: &cluster,
            slo_secs: 12.6,
            max_batch: 8,
            pinned: &PinnedLadders::default(),
        };
        assert_eq!(default_batch_size(&ctx, WorkerId(0), lvl), 1);
        // With a loose SLO the same level batches again.
        let loose = SelectCtx {
            cluster: &cluster,
            slo_secs: 60.0,
            max_batch: 8,
            pinned: &PinnedLadders::default(),
        };
        assert!(default_batch_size(&loose, WorkerId(0), lvl) > 1);
    }
}
