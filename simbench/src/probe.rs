//! Timing decorators for the simulator's public seams.
//!
//! [`TimedPolicy`] wraps a [`ServingPolicy`] (installed through
//! `RunConfig::with_policy_pipeline`), [`TimedCapacity`] a
//! [`CapacityModel`] and [`TimedDiscriminator`] a cascade
//! [`Discriminator`]. Each delegates every trait method to the wrapped
//! value — `name()` included, since the planner memoises on it — and
//! counts calls and nanoseconds for the methods the traced run reports.
//! Delegation never changes an answer, so a decorated run's outcome is
//! identical to the plain run's; the benchmark's tests and every traced
//! run check it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use argus::cluster::{Cluster, WorkerId};
use argus::core::{
    pipeline_for, CacheGate, CapacityCtx, CapacityModel, CascadePolicy, Discriminator, Dispatcher,
    InitialPlacement, LevelPlanner, OracleDiscriminator, RouteCtx, RunConfig, SelectCtx,
    ServingPolicy, StrategySwitcher, TickAction, WorkerSelector,
};
use argus::models::{AcLevel, ApproxLevel, GpuArch, Strategy};
use argus::prompts::Prompt;

/// Calls and total nanoseconds spent in one seam method.
#[derive(Debug, Default)]
pub struct Tally {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl Tally {
    /// Runs `f`, counting the call and its wall time. The counters publish
    /// no other data, so relaxed ordering suffices.
    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.ns.fetch_add(ns, Ordering::Relaxed);
        out
    }

    fn count(&self) {
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Calls recorded so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Nanoseconds recorded so far.
    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }
}

/// Every tally the decorators of one traced run feed.
#[derive(Debug, Default)]
pub struct Probes {
    /// `LevelPlanner::pick_target_level` (classifier predict, PASM).
    pub pick_level: Tally,
    /// `WorkerSelector::select_worker` (Eq. 3 and the tail spill).
    pub select_worker: Tally,
    /// `Dispatcher::batch_size`.
    pub batch_size: Tally,
    /// `CacheGate::cache_active` (counted, not timed).
    pub cache_gate: Tally,
    /// Every `CapacityModel` method (`peak_qpm` and the times derived
    /// from it).
    pub capacity: Tally,
    /// `Discriminator::doubt`.
    pub doubt: Tally,
}

/// A [`ServingPolicy`] that times its wrapped policy's per-job stages.
#[derive(Debug)]
pub struct TimedPolicy {
    inner: Arc<dyn ServingPolicy>,
    probes: Arc<Probes>,
}

impl TimedPolicy {
    /// Wraps `inner`, feeding `probes`.
    pub fn new(inner: Arc<dyn ServingPolicy>, probes: Arc<Probes>) -> Self {
        TimedPolicy { inner, probes }
    }
}

impl LevelPlanner for TimedPolicy {
    fn active_ladder(&self, switcher: &StrategySwitcher) -> Vec<ApproxLevel> {
        self.inner.active_ladder(switcher)
    }

    fn pick_target_level(&self, ctx: &mut RouteCtx<'_>, ladder: &[ApproxLevel]) -> usize {
        self.probes
            .pick_level
            .time(|| self.inner.pick_target_level(ctx, ladder))
    }

    fn planning_strategy(&self, switcher: &StrategySwitcher) -> Strategy {
        self.inner.planning_strategy(switcher)
    }

    fn plan_tick(&self, observed_qpm: f64, last_demand_qpm: f64) -> TickAction {
        self.inner.plan_tick(observed_qpm, last_demand_qpm)
    }

    fn initial_placement(&self) -> InitialPlacement {
        self.inner.initial_placement()
    }

    fn static_level(&self) -> ApproxLevel {
        self.inner.static_level()
    }

    fn adapt_worker_levels(
        &self,
        cluster: &Cluster,
        ladder: &[ApproxLevel],
    ) -> Vec<(WorkerId, ApproxLevel)> {
        self.inner.adapt_worker_levels(cluster, ladder)
    }
}

impl CacheGate for TimedPolicy {
    fn cache_active(&self, switcher: &StrategySwitcher) -> bool {
        self.probes.cache_gate.count();
        self.inner.cache_active(switcher)
    }

    fn uses_cache_store(&self) -> bool {
        self.inner.uses_cache_store()
    }

    fn ac_level_for_hit(&self, assigned: AcLevel, similarity: f64) -> AcLevel {
        self.inner.ac_level_for_hit(assigned, similarity)
    }
}

impl WorkerSelector for TimedPolicy {
    fn select_worker(
        &self,
        ctx: &SelectCtx<'_>,
        ladder: &[ApproxLevel],
        target: usize,
        proc_secs: &dyn Fn(usize, GpuArch) -> f64,
    ) -> Option<(WorkerId, usize)> {
        self.probes
            .select_worker
            .time(|| self.inner.select_worker(ctx, ladder, target, proc_secs))
    }
}

impl Dispatcher for TimedPolicy {
    fn batch_size(&self, ctx: &SelectCtx<'_>, worker: WorkerId, level: ApproxLevel) -> u32 {
        self.probes
            .batch_size
            .time(|| self.inner.batch_size(ctx, worker, level))
    }
}

impl ServingPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn uses_classifier(&self) -> bool {
        self.inner.uses_classifier()
    }

    fn uses_oda(&self) -> bool {
        self.inner.uses_oda()
    }

    fn switches_strategy(&self) -> bool {
        self.inner.switches_strategy()
    }

    fn hbm_slots(&self) -> usize {
        self.inner.hbm_slots()
    }
}

/// A [`CapacityModel`] that times every call into its wrapped model.
#[derive(Debug)]
pub struct TimedCapacity {
    inner: Arc<dyn CapacityModel>,
    probes: Arc<Probes>,
}

impl TimedCapacity {
    /// Wraps `inner`, feeding `probes`.
    pub fn new(inner: Arc<dyn CapacityModel>, probes: Arc<Probes>) -> Self {
        TimedCapacity { inner, probes }
    }
}

impl CapacityModel for TimedCapacity {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn peak_qpm(&self, level: ApproxLevel, gpu: GpuArch, ctx: &CapacityCtx) -> f64 {
        self.probes
            .capacity
            .time(|| self.inner.peak_qpm(level, gpu, ctx))
    }

    fn service_secs(&self, level: ApproxLevel, gpu: GpuArch, ctx: &CapacityCtx) -> f64 {
        self.probes
            .capacity
            .time(|| self.inner.service_secs(level, gpu, ctx))
    }

    fn job_latency_secs(&self, level: ApproxLevel, gpu: GpuArch, ctx: &CapacityCtx) -> f64 {
        self.probes
            .capacity
            .time(|| self.inner.job_latency_secs(level, gpu, ctx))
    }

    fn planned_batch(&self, level: ApproxLevel, gpu: GpuArch, ctx: &CapacityCtx) -> u32 {
        self.probes
            .capacity
            .time(|| self.inner.planned_batch(level, gpu, ctx))
    }
}

/// A [`Discriminator`] that times its wrapped judge.
#[derive(Debug)]
pub struct TimedDiscriminator {
    inner: Arc<dyn Discriminator>,
    probes: Arc<Probes>,
}

impl TimedDiscriminator {
    /// Wraps `inner`, feeding `probes`.
    pub fn new(inner: Arc<dyn Discriminator>, probes: Arc<Probes>) -> Self {
        TimedDiscriminator { inner, probes }
    }
}

impl Discriminator for TimedDiscriminator {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn doubt(&self, prompt: &Prompt, level: ApproxLevel, similarity: f64) -> f64 {
        self.probes
            .doubt
            .time(|| self.inner.doubt(prompt, level, similarity))
    }
}

/// Installs the decorators on `cfg`: the run's own serving policy (the
/// custom pipeline, the cascade's policy or the built-in one, exactly as
/// `SystemSimulation::new` resolves it), its capacity model and, on
/// cascade runs, its discriminator.
pub fn decorate(cfg: &mut RunConfig, probes: &Arc<Probes>) {
    let policy: Arc<dyn ServingPolicy> = match (&cfg.custom_pipeline, &cfg.cascade) {
        (Some(p), _) => Arc::clone(p),
        (None, Some(cc)) => {
            let rungs = ApproxLevel::ladder(Strategy::Sm).len();
            Arc::new(CascadePolicy::new(cc.first_pass_rung(rungs)))
        }
        (None, None) => pipeline_for(cfg.policy),
    };
    cfg.custom_pipeline = Some(Arc::new(TimedPolicy::new(policy, Arc::clone(probes))));
    cfg.capacity_model = Arc::new(TimedCapacity::new(
        Arc::clone(&cfg.capacity_model),
        Arc::clone(probes),
    ));
    let seed = cfg.seed;
    if let Some(cc) = cfg.cascade.as_mut() {
        let judge = cc
            .discriminator
            .clone()
            .unwrap_or_else(|| Arc::new(OracleDiscriminator::new(seed)));
        cc.discriminator = Some(Arc::new(TimedDiscriminator::new(judge, Arc::clone(probes))));
    }
}
