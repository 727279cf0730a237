//! The end-to-end discrete-event system simulation (§4.7 testbed).
//!
//! One [`SystemSimulation`] binds a policy (Argus or a baseline), a
//! workload trace, the GPU cluster, the vector database + cache store, the
//! classifier, allocator, PASM and the strategy switcher into a single
//! event loop over virtual time. Every result in the paper's evaluation
//! (Figs. 16, 17, 18, 20, §5.4–§5.7) is a run of this simulation under a
//! different configuration.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use argus_cachestore::{CacheKey, CacheStore, NetworkModel, NetworkRegime};
use argus_classifier::{label_prompts, train, Classifier, DriftDetector, TrainerConfig};
use argus_cluster::{Cluster, WorkerId};
use argus_des::rng::RngFactory;
use argus_des::stats::WindowedRate;
use argus_des::{EventQueue, SimDuration, SimTime};
use argus_embed::embed;
use argus_models::{latency, ApproxLevel, GpuArch, Strategy, AC_LEVELS};
use argus_obs::{Recorder, SpanLog, StageProfile, TelemetryConfig, Timeline};
use argus_prompts::{DriftSchedule, Prompt, PromptGenerator};
use argus_quality::QualityOracle;
use argus_vdb::{FlatIndex, LshIndex};
use argus_workload::{ArrivalProcess, Trace};
use rand::rngs::StdRng;

use crate::actors::cacheplane::{CacheStage, Vdb};
use crate::actors::fleet::FleetStage;
use crate::actors::metrics::MetricsStage;
use crate::actors::planner::PlannerStage;
use crate::cacheplane::CachePlane;
use crate::capacity::{Batch1Model, CapacityModel};
use crate::cascade::{
    CascadeConfig, CascadePolicy, CascadeStats, Discriminator, OracleDiscriminator,
};
use crate::fleet::{AutoscaleController, AutoscalePolicy, CostReport, FleetStats, SpotPool};
use crate::metrics::{MetricsCollector, MinuteRecord, PoolStats, RetrievalStats, RunTotals};
use crate::oda::Pasm;
use crate::pipeline::{pipeline_for, InitialPlacement, ServingPolicy};
use crate::policy::Policy;
use crate::predictor::WorkloadDistributionPredictor;
use crate::scheduler::PoolView;
use crate::switcher::{StrategySwitcher, SwitcherConfig};

/// Allocator cadence (§4.7: "ILP-based load assignment is solved every
/// minute").
pub(crate) const TICK: SimDuration = SimDuration::from_micros(60_000_000);
/// Background network-probe cadence while in SM mode (§4.6).
pub(crate) const PROBE: SimDuration = SimDuration::from_micros(15_000_000);
/// Converts a demand estimate (QPM) into the provisioning target the
/// solver plans for: the estimate plus a 1σ Poisson burst allowance
/// (`√λ`), so minute-scale arrival fluctuations do not overload the
/// plan. Within-minute queueing headroom comes separately from the
/// solver's SLO-aware per-level derating.
pub(crate) fn provisioning_target(estimate_qpm: f64) -> f64 {
    (estimate_qpm + estimate_qpm.max(0.0).sqrt()).max(1.0)
}
/// Recent-prompt pool used for drift retraining and accuracy sampling.
pub(crate) const RECENT_POOL: usize = 3000;

/// A scheduled fault-injection event (§5.6).
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// The listed workers crash at the given minute.
    WorkerFail {
        /// Minute (from run start) of the crash.
        at_minute: f64,
        /// Worker indices to fail.
        workers: Vec<usize>,
    },
    /// The listed workers come back (cold) at the given minute.
    WorkerRecover {
        /// Minute of recovery.
        at_minute: f64,
        /// Worker indices to recover.
        workers: Vec<usize>,
    },
    /// A spot/preemptible instance reclaim: the listed workers receive a
    /// preemption notice at the given minute and disappear
    /// `warning_secs` later. During the warning window the dispatcher
    /// drains the doomed workers — queued jobs migrate to survivors
    /// immediately, the in-flight pass races the window. A zero warning
    /// degrades to an unwarned crash, bit-identical to
    /// [`FaultEvent::WorkerFail`].
    Preemption {
        /// Minute (from run start) of the preemption notice.
        at_minute: f64,
        /// Worker indices being reclaimed.
        workers: Vec<usize>,
        /// Seconds between the notice and the instance vanishing.
        warning_secs: f64,
    },
}

impl FaultEvent {
    fn at(&self) -> SimTime {
        let m = match self {
            FaultEvent::WorkerFail { at_minute, .. } => *at_minute,
            FaultEvent::WorkerRecover { at_minute, .. } => *at_minute,
            FaultEvent::Preemption { at_minute, .. } => *at_minute,
        };
        SimTime::from_minutes(m)
    }
}

/// Complete configuration of one experiment run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Policy under test.
    pub policy: Policy,
    /// Workload trace (per-minute QPM).
    pub trace: Trace,
    /// Cluster size (paper testbed: 8).
    pub workers: usize,
    /// GPU architecture (paper testbed: A100). For heterogeneous fleets
    /// this is the reference architecture; see [`RunConfig::pools`].
    pub gpu: GpuArch,
    /// Per-architecture worker pools. `None` means the homogeneous
    /// `workers`×`gpu` testbed; `Some` fleets mix generations and the
    /// allocator solves Eq. 1 per pool with that pool's latency tables.
    pub pools: Option<Vec<(GpuArch, usize)>>,
    /// Route cache lookups through the shared LSH index instead of the
    /// exact flat scan (§4.7's shared-VDB deployment at scale).
    pub lsh_cache: bool,
    /// Shard the retrieval index across worker-attached shards:
    /// `(shards, replication)`. `Some((1, 1))` is the external monolithic
    /// LSH deployment (bit-identical to [`RunConfig::with_lsh_cache`]);
    /// larger values distribute the cache plane (see
    /// [`crate::cacheplane`]). Takes precedence over `lsh_cache`.
    pub sharded_cache: Option<(usize, usize)>,
    /// Master seed.
    pub seed: u64,
    /// Prompt-stream drift schedule (Fig. 18 experiments).
    pub drift: Option<DriftSchedule>,
    /// Injected worker faults (Fig. 20a).
    pub faults: Vec<FaultEvent>,
    /// Network regime schedule for the cache store `(minute, regime)`
    /// (Fig. 11 / Fig. 20b).
    pub network_events: Vec<(f64, NetworkRegime)>,
    /// Offline classifier training-set size.
    pub classifier_train_size: usize,
    /// Classifier training epochs (swept in Fig. 19).
    pub classifier_epochs: usize,
    /// Whether drift triggers retraining (§4.1).
    pub retrain_on_drift: bool,
    /// Whether the AC↔SM switch is allowed (Fig. 20b's "no-switch" line
    /// disables it).
    pub allow_strategy_switch: bool,
    /// Vector-database capacity (recent-window retrieval index).
    pub vdb_capacity: usize,
    /// Ablation (§6): amortize model-load cost into the solver's level
    /// profiles so reallocations account for switch overheads.
    pub load_aware_solver: bool,
    /// Ablation (§6): continuously update the classifier with one SGD step
    /// per completion (online learning) instead of drift-triggered batch
    /// retraining.
    pub online_learning: bool,
    /// Upper bound on jobs a worker drains into one batched start (Obs. 5
    /// batching). The default of 1 is the paper's §4.5 operating point and
    /// reproduces unbatched serving bit-for-bit.
    pub max_batch: u32,
    /// Custom serving pipeline overriding the built-in policy behaviours
    /// (see [`RunConfig::with_policy_pipeline`]).
    pub custom_pipeline: Option<Arc<dyn ServingPolicy>>,
    /// The capacity model Eq. 1 plans with (see
    /// [`RunConfig::with_capacity_model`]). The default
    /// [`Batch1Model`] is bit-identical to the pre-refactor constants.
    pub capacity_model: Arc<dyn CapacityModel>,
    /// Per-architecture planning-strategy overrides
    /// ([`RunConfig::with_pool_strategy`]): pools listed here plan and
    /// serve the pinned strategy's ladder regardless of the global
    /// strategy or the AC↔SM switcher.
    pub pool_strategies: Vec<(GpuArch, Strategy)>,
    /// Mid-minute demand re-splitting between heterogeneous pools
    /// ([`RunConfig::with_demand_resplit`]).
    pub demand_resplit: bool,
    /// Elastic-fleet autoscale policy ([`RunConfig::with_autoscaler`]).
    /// `None` (the default) keeps the fixed-size fleet, bit-identical to
    /// pre-fleet runs.
    pub autoscaler: Option<AutoscalePolicy>,
    /// Spot/preemptible worker pools ([`RunConfig::with_spot_pool`]),
    /// appended to the on-demand fleet in declaration order.
    pub spot_pools: Vec<SpotPool>,
    /// Telemetry plane ([`RunConfig::with_telemetry`]). `None` (the
    /// default) records nothing and is bit-identical to builds without
    /// the plane; `Some` records job-lifecycle spans, the per-tick
    /// timeline and stage profiles into [`RunOutcome`].
    pub telemetry: Option<TelemetryConfig>,
    /// The query-aware cascade plane ([`RunConfig::with_cascade`]).
    /// `None` (the default) keeps the configured policy's pipeline and
    /// is bit-identical to the pre-cascade tree.
    pub cascade: Option<CascadeConfig>,
}

impl RunConfig {
    /// Creates a paper-testbed configuration (8×A100) for a policy and
    /// trace.
    pub fn new(policy: Policy, trace: Trace) -> Self {
        RunConfig {
            policy,
            trace,
            workers: 8,
            gpu: GpuArch::A100,
            pools: None,
            lsh_cache: false,
            sharded_cache: None,
            seed: 0,
            drift: None,
            faults: Vec::new(),
            network_events: Vec::new(),
            classifier_train_size: 6000,
            classifier_epochs: 8,
            retrain_on_drift: true,
            allow_strategy_switch: true,
            vdb_capacity: 768,
            load_aware_solver: false,
            online_learning: false,
            max_batch: 1,
            custom_pipeline: None,
            capacity_model: Arc::new(Batch1Model),
            pool_strategies: Vec::new(),
            demand_resplit: false,
            autoscaler: None,
            spot_pools: Vec::new(),
            telemetry: None,
            cascade: None,
        }
    }

    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the cluster size.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self.pools = None;
        self
    }

    /// Sets the GPU architecture of the (homogeneous) cluster.
    pub fn with_gpu(mut self, gpu: GpuArch) -> Self {
        self.gpu = gpu;
        self.pools = None;
        self
    }

    /// Configures a heterogeneous fleet from per-architecture worker
    /// counts. The total worker count and the reference architecture (the
    /// largest pool, for reporting) are derived from the pools.
    ///
    /// # Panics
    /// Panics if the pools sum to zero workers.
    pub fn with_heterogeneous_pools(mut self, pools: Vec<(GpuArch, usize)>) -> Self {
        let total: usize = pools.iter().map(|&(_, n)| n).sum();
        assert!(total > 0, "heterogeneous pools need at least one worker");
        self.workers = total;
        if let Some(&(gpu, _)) = pools.iter().max_by_key(|&&(_, n)| n) {
            self.gpu = gpu;
        }
        self.pools = Some(pools);
        self
    }

    /// Routes cache lookups through the shared LSH index (§4.7 shared-VDB
    /// deployment) instead of the exact flat scan.
    pub fn with_lsh_cache(mut self) -> Self {
        self.lsh_cache = true;
        self
    }

    /// Distributes the retrieval index across `shards` worker-attached
    /// shards with `replication`-way replication (the cache plane,
    /// [`crate::cacheplane`]). Lookups served by a replica on the
    /// requesting worker are charged local cost; everything else pays the
    /// remote round trip. `with_sharded_cache(1, 1)` is the external
    /// monolithic deployment, bit-identical to
    /// [`RunConfig::with_lsh_cache`].
    ///
    /// # Panics
    /// Panics if `shards == 0` or `replication == 0`.
    pub fn with_sharded_cache(mut self, shards: usize, replication: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        assert!(replication >= 1, "need at least one replica");
        self.sharded_cache = Some((shards, replication));
        self
    }

    /// The per-architecture pools this configuration resolves to.
    pub fn effective_pools(&self) -> Vec<(GpuArch, usize)> {
        match &self.pools {
            Some(p) => p.clone(),
            None => vec![(self.gpu, self.workers)],
        }
    }

    /// Adds fault-injection events.
    pub fn with_faults(mut self, faults: Vec<FaultEvent>) -> Self {
        self.faults = faults;
        self
    }

    /// Adds network regime changes.
    pub fn with_network_events(mut self, events: Vec<(f64, NetworkRegime)>) -> Self {
        self.network_events = events;
        self
    }

    /// Enables prompt drift.
    pub fn with_drift(mut self, drift: DriftSchedule) -> Self {
        self.drift = Some(drift);
        self
    }

    /// Overrides classifier training epochs (Fig. 19 sweep).
    pub fn with_classifier_epochs(mut self, epochs: usize) -> Self {
        self.classifier_epochs = epochs;
        self
    }

    /// Disables the adaptive AC↔SM switch.
    pub fn without_strategy_switch(mut self) -> Self {
        self.allow_strategy_switch = false;
        self
    }

    /// Disables drift-triggered retraining.
    pub fn without_retraining(mut self) -> Self {
        self.retrain_on_drift = false;
        self
    }

    /// Enables the load-cost-aware solver ablation (§6).
    pub fn with_load_aware_solver(mut self) -> Self {
        self.load_aware_solver = true;
        self
    }

    /// Enables continuous online classifier updates (§6 ablation).
    pub fn with_online_learning(mut self) -> Self {
        self.online_learning = true;
        self
    }

    /// Enables batched dispatch: workers drain up to `max_batch` queued
    /// same-level jobs per start, with the batch latency modelled by the
    /// Obs. 5 pass profile and the batch size capped where latency
    /// inflation would eat the SLO tail budget. `with_batching(1)` is
    /// bit-identical to the default unbatched serving.
    ///
    /// # Panics
    /// Panics if `max_batch == 0`.
    pub fn with_batching(mut self, max_batch: u32) -> Self {
        assert!(max_batch >= 1, "batch bound must be at least 1");
        self.max_batch = max_batch;
        self
    }

    /// Replaces the built-in pipeline for [`RunConfig::policy`] with a
    /// custom [`ServingPolicy`] — the escape hatch for policies outside
    /// the paper's six. The [`Policy`] tag is kept for reporting; every
    /// behavioural decision (ladders, routing, cache gating, tick
    /// planning, batching) comes from the custom pipeline.
    pub fn with_policy_pipeline(mut self, pipeline: Box<dyn ServingPolicy>) -> Self {
        self.custom_pipeline = Some(Arc::from(pipeline));
        self
    }

    /// Swaps the capacity model Eq. 1 plans with — the seam any capacity
    /// refinement plugs into. The default [`Batch1Model`] reproduces the
    /// paper's batch-1 profiles bit-for-bit; the
    /// [`crate::capacity::BatchedModel`] folds the Obs. 5 batching curve
    /// (under the run's [`RunConfig::with_batching`] bound and the SLO)
    /// into the planned per-level peaks, so the solver plans fewer
    /// workers per memory-amortizing level. Only the *planning* changes:
    /// dispatch-time batching is governed by `max_batch` either way.
    pub fn with_capacity_model(mut self, model: impl CapacityModel + 'static) -> Self {
        self.capacity_model = Arc::new(model);
        self
    }

    /// Pins one architecture pool's planning strategy (SM ladder on
    /// V100/A10G, AC on A100 — the Fig. 5/fig16 mixed-fleet remedy: AC's
    /// base model is disproportionately slow on older silicon, so
    /// AC-everywhere pays SLO violations at diurnal peaks). Pinned pools
    /// plan, serve and heal their own strategy's ladder; routing treats
    /// the ladder *index* as the common currency across pools (both
    /// ladders are six rungs, slowest first), and pinned pools are exempt
    /// from AC↔SM transitions. Meaningful for solver policies
    /// (Argus/PAC/Proteus); per-worker and static policies ignore it.
    pub fn with_pool_strategy(mut self, gpu: GpuArch, strategy: Strategy) -> Self {
        self.pool_strategies.retain(|&(g, _)| g != gpu);
        self.pool_strategies.push((gpu, strategy));
        self
    }

    /// Enables mid-minute demand re-splitting: when one heterogeneous
    /// pool's backlog exceeds what it can drain by the next allocator
    /// tick, the excess rate is re-split across the other pools
    /// proportionally to their remaining capacity and those pools are
    /// re-solved immediately (at most once per tick), so Eq. 3's spill
    /// finds real capacity instead of piling onto the saturated pool.
    pub fn with_demand_resplit(mut self) -> Self {
        self.demand_resplit = true;
        self
    }

    /// Enables the elastic-fleet autoscale controller: pools scale out on
    /// sustained saturation/re-split/backlog pressure and scale in on
    /// sustained idleness, within the policy's per-architecture bounds,
    /// with a provisioning delay and a per-pool cooldown. Scale-in only
    /// ever evicts workers with no in-flight pass. Runs stay
    /// bit-deterministic: the controller is a pure function of the
    /// per-tick planner signals.
    pub fn with_autoscaler(mut self, policy: AutoscalePolicy) -> Self {
        self.autoscaler = Some(policy);
        self
    }

    /// Appends a spot/preemptible pool: `workers` instances of `gpu`
    /// billed at `(1 - discount)` times the on-demand rate. Spot workers
    /// are ordinary cluster members (planned, routed, healed) that
    /// [`FaultEvent::Preemption`] schedules can reclaim with a warning
    /// window; their indices follow the on-demand fleet in declaration
    /// order.
    ///
    /// # Panics
    /// Panics if `workers == 0` or `discount` is outside `(0, 1]`.
    pub fn with_spot_pool(mut self, gpu: GpuArch, workers: usize, discount: f64) -> Self {
        assert!(workers >= 1, "a spot pool needs at least one worker");
        assert!(
            discount > 0.0 && discount <= 1.0,
            "spot discount must be in (0, 1]"
        );
        self.spot_pools.push(SpotPool {
            gpu,
            workers,
            discount,
        });
        self
    }

    /// Enables the telemetry plane: job-lifecycle spans, the per-tick
    /// time-series registry and control-plane stage profiles, recorded in
    /// sim-time and surfaced on [`RunOutcome`] (plus optional JSONL /
    /// Chrome-trace exports at the paths in `cfg`). Telemetry never
    /// perturbs the simulation: results are bit-identical with it on and
    /// off.
    pub fn with_telemetry(mut self, cfg: TelemetryConfig) -> Self {
        self.telemetry = Some(cfg);
        self
    }

    /// Enables the query-aware cascade serving plane
    /// ([`crate::cascade`]): every job runs a cheap first pass, a
    /// deterministic discriminator gates escalation, flagged jobs
    /// re-dispatch through the ordinary serving path at the escalation
    /// rung (keeping their original arrival time for SLO accounting),
    /// and the observed escalation rate is priced into Eq. 1. The
    /// [`Policy`] tag is kept for reporting; a custom pipeline
    /// ([`RunConfig::with_policy_pipeline`]) takes precedence over the
    /// cascade's own pipeline, but escalation gating still applies.
    pub fn with_cascade(mut self, cfg: CascadeConfig) -> Self {
        self.cascade = Some(cfg);
        self
    }

    /// The planning strategy override for an architecture pool, if any.
    pub fn pool_strategy_for(&self, gpu: GpuArch) -> Option<Strategy> {
        self.pool_strategies
            .iter()
            .find(|&&(g, _)| g == gpu)
            .map(|&(_, s)| s)
    }

    /// Builds and runs the simulation.
    pub fn run(self) -> RunOutcome {
        SystemSimulation::new(self).run()
    }
}

/// Results of one run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Per-minute telemetry.
    pub minutes: Vec<MinuteRecord>,
    /// Whole-run aggregates.
    pub totals: RunTotals,
    /// Mean cluster utilization at the end of the run (§5.7).
    pub mean_utilization: f64,
    /// Strategy switches `(AC→SM, SM→AC)`.
    pub switches: (u64, u64),
    /// Minutes in which drift-triggered retraining fired (Fig. 18).
    pub retrain_minutes: Vec<u64>,
    /// Classifier exact-match accuracy sampled per allocator tick
    /// `(minute, accuracy)` (Fig. 18).
    pub classifier_accuracy: Vec<(u64, f64)>,
    /// Completions per approximation level actually executed.
    pub level_completions: Vec<(ApproxLevel, u64)>,
    /// Reservoir sample of `(score, base_score)` pairs from in-SLO
    /// completions, for the human-perception study (§5.4).
    pub quality_samples: Vec<(f64, f64)>,
    /// Minutes in which the solver reported demand beyond maximum cluster
    /// capacity — the §6 saturation (scale-out) signal.
    pub saturated_minutes: u64,
    /// Wall-clock span of the run in seconds: from start to the later of
    /// the trace horizon and the final event (under saturation, queued
    /// work drains past the horizon). The denominator of per-GPU-second
    /// throughput comparisons (the `fig_batching` guard).
    pub makespan_secs: f64,
    /// Retrieval-plane telemetry: per-level cache hit/miss/failure counts
    /// and the retrieval-latency mean/p99, so cache-plane experiments are
    /// measurable without re-running.
    pub retrieval: RetrievalStats,
    /// Per-architecture pool telemetry (one entry per configured pool, in
    /// pool order), so heterogeneous experiments stop inferring pool
    /// behaviour from aggregates. Jobs lost before reaching a worker have
    /// no pool and are excluded from the per-pool violation counts.
    pub pools: Vec<PoolStats>,
    /// Mid-minute demand re-splits triggered
    /// ([`RunConfig::with_demand_resplit`]).
    pub demand_resplits: u64,
    /// Elastic-fleet telemetry: scale events, preemptions ridden vs.
    /// lost, peak billed workers and the billed-membership log.
    pub fleet: FleetStats,
    /// Dollar-denominated accounting integrated from the membership log
    /// at fixed per-architecture on-demand/spot rates.
    pub cost: CostReport,
    /// Per-tick time-series timeline ([`RunConfig::with_telemetry`]);
    /// `None` when telemetry was off.
    pub timeline: Option<Timeline>,
    /// Sampled job-lifecycle spans; `None` when telemetry (or span
    /// recording) was off.
    pub spans: Option<SpanLog>,
    /// Control-plane stage profiles in order (planner, cache-plane,
    /// metrics, fleet); empty when telemetry was off.
    pub stage_profiles: Vec<StageProfile>,
    /// Cascade accounting ([`RunConfig::with_cascade`]): first-pass /
    /// escalated / accepted counts per level, the final escalation-rate
    /// EWMA and the mean quality gain of second passes. `None` when the
    /// cascade was off.
    pub cascade: Option<CascadeStats>,
}

impl RunOutcome {
    /// The deterministic JSONL telemetry document (empty sections for
    /// whatever the run did not record). See DESIGN.md §12 for the line
    /// schema.
    pub fn telemetry_jsonl(&self) -> String {
        let sample = self.spans.as_ref().map_or(0, |s| s.sample_every);
        argus_obs::jsonl_document(
            sample,
            self.spans.as_ref(),
            self.timeline.as_ref(),
            &self.stage_profiles,
        )
    }

    /// The Chrome trace-event document (`chrome://tracing` / Perfetto)
    /// for the run's recorded spans and timeline.
    pub fn chrome_trace(&self) -> String {
        argus_obs::chrome_trace_document(self.spans.as_ref(), self.timeline.as_ref())
    }
}

/// What actually executed for an in-flight job.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Exec {
    pub(crate) level: ApproxLevel,
    pub(crate) similarity: Option<f64>,
}

/// Driver-side cascade state ([`RunConfig::with_cascade`]): the resolved
/// rungs, the discriminator, per-job escalation flags and the latest
/// first-pass escalation rate read from the metrics stage.
pub(crate) struct CascadeState {
    /// Escalate when doubt ≥ threshold.
    pub(crate) threshold: f64,
    /// Whether the observed rate feeds Eq. 1 (s65 ablation knob).
    pub(crate) price_escalations: bool,
    pub(crate) discriminator: Arc<dyn Discriminator>,
    /// The configured first-pass level (pricing anchor; spill may serve
    /// first passes elsewhere).
    pub(crate) first_level: ApproxLevel,
    /// The level escalated jobs re-run at, and its ladder index.
    pub(crate) escalate_level: ApproxLevel,
    pub(crate) escalate_rung: usize,
    /// Per-job escalation flag: set when the discriminator flags the
    /// first pass, so the re-dispatch targets the escalation rung and
    /// the second completion is final.
    pub(crate) escalated: Vec<bool>,
    /// Per-job first-pass relative quality (score/base), kept for the
    /// quality-delta accounting of escalated jobs.
    pub(crate) first_ratio: Vec<f64>,
    /// The escalation-rate EWMA at `first_level`, as of the last
    /// allocator tick (read from the metrics stage each tick).
    pub(crate) first_pass_rate: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Event {
    Arrive(u32),
    /// Completion of a specific job on a worker; the job id detects events
    /// made stale by a failure that drained the worker.
    Finish(WorkerId, u32),
    LoadDone(WorkerId),
    Tick,
    Probe,
    Fault(u32),
    /// A scale-out's provisioning delay elapsed: the worker joins the
    /// serving set.
    Provision(u32),
    /// A preemption warning expired: the worker disappears now.
    Preempt(u32),
}

/// The discrete-event simulation of the full serving system.
///
/// The struct is the **driver** of the staged control plane
/// ([`crate::actors`]): it owns the event queue, the cluster, routing and
/// the strategy switcher, and owns the planner, cache-plane, metrics and
/// fleet stages, whose methods it calls directly. Construction (this
/// module) pre-warms the cache plane and builds the stages; the event
/// pump and every handler live in [`crate::actors::driver`].
pub struct SystemSimulation {
    pub(crate) cfg: RunConfig,
    pub(crate) pipeline: Arc<dyn ServingPolicy>,
    pub(crate) queue: EventQueue<Event>,
    pub(crate) cluster: Cluster,
    pub(crate) oracle: QualityOracle,
    pub(crate) prompts: Vec<Prompt>,
    pub(crate) arrivals: Vec<SimTime>,
    pub(crate) switcher: StrategySwitcher,
    pub(crate) classifiers: HashMap<Strategy, Classifier>,
    pub(crate) predictors: HashMap<Strategy, WorkloadDistributionPredictor>,
    pub(crate) pasm: Pasm,
    pub(crate) omega_norm: Vec<f64>,
    /// The run's SLO (the metrics stage owns the collector; the driver
    /// keeps the one scalar it branches on).
    pub(crate) slo: SimDuration,
    pub(crate) route_rng: StdRng,
    pub(crate) service_rng: StdRng,
    pub(crate) arrival_rate: WindowedRate,
    /// Per-worker execution records for the in-flight (possibly batched)
    /// pass, in batch start order.
    pub(crate) exec_info: HashMap<usize, Vec<Exec>>,
    pub(crate) drift_detector: DriftDetector,
    pub(crate) retrain_minutes: Vec<u64>,
    pub(crate) recent: VecDeque<u32>,
    pub(crate) horizon: SimTime,
    pub(crate) saturated_minutes: u64,
    pub(crate) retrieval_ewma: f64,
    pub(crate) last_demand: f64,
    /// Per-pool plan state from the last (re-)allocation: what each
    /// architecture pool was solved with, for ω re-merging and mid-minute
    /// re-splitting.
    pub(crate) pool_plans: Vec<PoolPlan>,
    /// Cached per-architecture ladder view for per-pool-strategy runs;
    /// `None` on single-strategy runs and for policies that never
    /// reallocate.
    pub(crate) pool_view: Option<PoolView>,
    /// Whether the re-split already fired in the current allocator tick
    /// (at most one per tick).
    pub(crate) resplit_done: bool,
    pub(crate) demand_resplits: u64,
    /// Planner stage: Eq. 1 solving and the derated-profile memo.
    pub(crate) planner: PlannerStage,
    /// Cache-plane stage: the retrieval index and the blob store.
    pub(crate) cache: CacheStage,
    /// Metrics stage: every accounting sink of the run.
    pub(crate) metrics: MetricsStage,
    /// Fleet stage: the autoscale controller and cost accounting.
    pub(crate) fleet: FleetStage,
    /// Per-worker spot discount, indexed by worker id; `None` means
    /// on-demand. Grows with the cluster (scale-outs are on-demand).
    pub(crate) worker_spot: Vec<Option<f64>>,
    /// Workers provisioned by a scale-out whose delay has not elapsed.
    pub(crate) provisioning: Vec<usize>,
    /// Whether the last allocator solve reported saturation — the
    /// autoscale controller's primary pressure signal.
    pub(crate) tick_saturated: bool,
    /// Telemetry recorder ([`RunConfig::with_telemetry`]); `None` keeps
    /// the run bit-identical to a build without the plane.
    pub(crate) recorder: Option<Recorder>,
    /// Monotone id stamped on every batched dispatch's spans.
    pub(crate) batch_seq: u32,
    /// Cascade plane state ([`RunConfig::with_cascade`]); `None` keeps
    /// the run bit-identical to the pre-cascade tree.
    pub(crate) cascade: Option<CascadeState>,
}

/// Retrieval-latency histogram bounds (seconds) for the telemetry plane.
pub(crate) const RETRIEVAL_BOUNDS: &[f64] = &[0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0];
/// End-to-end job-latency histogram bounds (seconds).
pub(crate) const E2E_BOUNDS: &[f64] = &[1.0, 2.5, 5.0, 10.0, 20.0, 40.0, 80.0, 160.0];
/// Counter series the driver maintains, in registration order.
pub(crate) const OBS_COUNTERS: [&str; 7] = [
    "arrivals",
    "completions",
    "violations",
    "lost",
    "resplits",
    "spot_drains",
    "model_loads",
];
/// Gauge series the driver samples every tick, in registration order.
pub(crate) const OBS_GAUGES: [&str; 8] = [
    "backlog",
    "saturated",
    "fleet_alive",
    "draining",
    "dollars_per_hour",
    "alloc_v100",
    "alloc_a10g",
    "alloc_a100",
];

/// The per-pool allocation gauge for an architecture.
pub(crate) fn alloc_gauge_name(gpu: GpuArch) -> &'static str {
    match gpu {
        GpuArch::V100 => "alloc_v100",
        GpuArch::A10G => "alloc_a10g",
        GpuArch::A100 => "alloc_a100",
    }
}

/// One architecture pool's share of the last Eq. 1 solve: the inputs the
/// mid-minute re-split needs to grow an unsaturated pool's plan without
/// re-deriving the whole allocation.
#[derive(Debug, Clone)]
pub(crate) struct PoolPlan {
    pub(crate) gpu: GpuArch,
    pub(crate) strategy: Strategy,
    pub(crate) ladder: Vec<ApproxLevel>,
    /// Alive workers the pool was solved with.
    pub(crate) workers: usize,
    /// Derated maximum capacity (QPM) of the pool at plan time. The
    /// re-split scales this by the *current* alive count, so a fault that
    /// shrinks a pool mid-minute immediately shrinks the capacity the
    /// saturation check reasons with.
    pub(crate) cap_qpm: f64,
    /// Demand share (QPM) the pool was solved with.
    pub(crate) share_qpm: f64,
    /// The pool's solved load vector `ω` (per ladder index).
    pub(crate) omega: Vec<f64>,
    /// Retrieval overhead (seconds) the pool's derating was planned with —
    /// the baseline the mid-minute retrieval-spike trigger compares the
    /// live EWMA against.
    pub(crate) overhead: f64,
}

impl PoolPlan {
    /// The plan's capacity scaled to the pool's current alive workers.
    pub(crate) fn current_cap_qpm(&self, alive_now: usize) -> f64 {
        self.cap_qpm * alive_now as f64 / self.workers as f64
    }
}

impl SystemSimulation {
    /// Builds the simulation: generates the workload, trains classifiers
    /// offline, pre-warms the cache with the training images, and places
    /// the initial allocation.
    pub fn new(cfg: RunConfig) -> Self {
        let pipeline: Arc<dyn ServingPolicy> = match (&cfg.custom_pipeline, &cfg.cascade) {
            (Some(p), _) => Arc::clone(p),
            (None, Some(cc)) => {
                let rungs = ApproxLevel::ladder(Strategy::Sm).len();
                Arc::new(CascadePolicy::new(cc.first_pass_rung(rungs)))
            }
            (None, None) => pipeline_for(cfg.policy),
        };
        let factory = RngFactory::new(cfg.seed);

        // Workload: arrival instants + matching prompt stream.
        let arrivals: Vec<SimTime> = ArrivalProcess::new(&cfg.trace, cfg.seed ^ 0xA11).collect();
        let mut generator = PromptGenerator::new(cfg.seed ^ 0x9E0);
        if let Some(d) = cfg.drift {
            generator = generator.with_drift(d);
        }
        let prompts = generator.generate_batch(arrivals.len());

        let oracle = QualityOracle::new(cfg.seed ^ 0x0AC1E);

        // Offline training pool (no drift — the pre-deployment data).
        let offline =
            PromptGenerator::new(cfg.seed ^ 0x0FF11E).generate_batch(cfg.classifier_train_size);

        // Classifiers per strategy (Argus needs both for switching).
        let mut classifiers = HashMap::new();
        if pipeline.uses_classifier() {
            for strategy in [Strategy::Ac, Strategy::Sm] {
                let ladder = ApproxLevel::ladder(strategy);
                let samples = label_prompts(&oracle, &offline, &ladder);
                let (clf, _) = train(
                    &samples,
                    ladder.len(),
                    &TrainerConfig {
                        epochs: cfg.classifier_epochs,
                        seed: cfg.seed,
                        ..TrainerConfig::default()
                    },
                );
                classifiers.insert(strategy, clf);
            }
        }

        // Cache store with the configured network schedule; pre-warmed
        // with the offline pool (those images were generated during
        // training, so their states exist).
        let mut network = NetworkModel::new(factory);
        for &(minute, regime) in &cfg.network_events {
            network = network.with_event(SimTime::from_minutes(minute), regime);
        }
        let mut store = CacheStore::with_network(network);
        let mut vdb = if let Some((shards, replication)) = cfg.sharded_cache {
            // The cache plane: per-shard LSH replicas at the same 8-bit
            // knee and the same total capacity as the monolithic index
            // (shards = 1, replication = 1 reproduces it bit-for-bit).
            Vdb::Sharded(CachePlane::new(
                shards,
                replication,
                cfg.workers,
                cfg.seed ^ 0x15B,
                cfg.vdb_capacity.max(1),
            ))
        } else if cfg.lsh_cache {
            // 8 hyperplanes ≈ 3.5% of the corpus probed per query at the
            // default cache capacity — the recall/scan-cost knee (see
            // `tests/lsh_cache.rs`).
            Vdb::Lsh(LshIndex::with_capacity_limit(
                8,
                cfg.seed ^ 0x15B,
                cfg.vdb_capacity.max(1),
            ))
        } else {
            Vdb::Flat(FlatIndex::with_capacity_limit(cfg.vdb_capacity.max(1)))
        };
        const OFFLINE_BASE: u64 = 1 << 40;
        for (i, p) in offline.iter().enumerate() {
            let id = OFFLINE_BASE + i as u64;
            // Pre-deployment warm-up writes are not charged to the run.
            vdb.insert(None, embed(&p.text), id);
            for k in AC_LEVELS.iter().skip(1) {
                store.put(
                    CacheKey {
                        prompt_id: id,
                        k: k.skipped_steps(),
                    },
                    SimTime::ZERO,
                );
            }
        }

        let predictors = [Strategy::Ac, Strategy::Sm]
            .into_iter()
            .map(|s| (s, WorkloadDistributionPredictor::new(6, 1000)))
            .collect();

        let horizon = SimTime::from_minutes(cfg.trace.len_minutes() as f64);
        // The SLO references the slowest architecture in the fleet (for the
        // homogeneous testbed that is just `cfg.gpu`): a latency target no
        // pool can meet would make heterogeneity trivially lossy. Spot
        // pools are ordinary cluster members appended after the on-demand
        // fleet; the cache plane keeps striping over the on-demand workers
        // only (`cfg.workers`), so adding spot capacity never re-stripes.
        let mut pools = cfg.effective_pools();
        for sp in &cfg.spot_pools {
            pools.push((sp.gpu, sp.workers));
        }
        let slo_arch = pools
            .iter()
            .filter(|&&(_, n)| n > 0)
            .map(|&(gpu, _)| gpu)
            .max_by(|a, b| {
                latency::inference_secs(argus_models::ModelVariant::SdXl, *a)
                    .partial_cmp(&latency::inference_secs(
                        argus_models::ModelVariant::SdXl,
                        *b,
                    ))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .unwrap_or(cfg.gpu);
        let base_latency = SimDuration::from_secs(latency::inference_secs(
            argus_models::ModelVariant::SdXl,
            slo_arch,
        ));

        // §4.6 dual-resident HBM is an Argus design feature (kept by PAC,
        // which reuses Argus' serving stack). Proteus swaps the serving
        // model in place, so every cross-model switch pays a load — the
        // overhead §5.7 measures.
        let mut cluster = Cluster::heterogeneous(&pools);
        let hbm_slots = pipeline.hbm_slots();
        if hbm_slots != argus_cluster::MAX_RESIDENT_MODELS {
            for id in 0..cluster.len() {
                cluster.worker_mut(WorkerId(id)).set_hbm_slots(hbm_slots);
            }
        }

        // Build the control-plane stages around the pre-warmed state. The
        // collector moves into the metrics stage (the driver keeps only the
        // SLO scalar); the warmed index and store move into the cache-plane
        // stage; the planner starts empty and builds its memos on demand.
        let collector = MetricsCollector::new(base_latency);
        let slo = collector.slo();
        let metrics = MetricsStage::new(collector, factory.stream("samples"));
        let cache = CacheStage::new(vdb, store);
        let planner = PlannerStage::new(
            Arc::clone(&cfg.capacity_model),
            slo.as_secs(),
            cfg.max_batch,
            cfg.load_aware_solver,
        );
        // The autoscale controller's per-architecture bounds default off
        // the initial pool sizes (spot workers count toward them).
        let mut initial_pools: Vec<(GpuArch, usize)> = Vec::new();
        for &(gpu, n) in &pools {
            match initial_pools.iter_mut().find(|(g, _)| *g == gpu) {
                Some(e) => e.1 += n,
                None => initial_pools.push((gpu, n)),
            }
        }
        let controller = cfg
            .autoscaler
            .clone()
            .map(|p| AutoscaleController::new(p, &initial_pools));
        let fleet = FleetStage::new(controller);
        // Per-worker spot discounts in cluster id order: the on-demand
        // pools first, then each spot pool.
        let mut worker_spot: Vec<Option<f64>> = vec![None; cfg.workers];
        for sp in &cfg.spot_pools {
            worker_spot.extend(std::iter::repeat_n(Some(sp.discount), sp.workers));
        }

        // Telemetry: pre-register every series up front so each tick
        // sample carries an identical vector layout from minute zero
        // (DESIGN.md §12).
        let recorder = cfg.telemetry.clone().map(|tc| {
            let mut r = Recorder::new(tc);
            for name in OBS_COUNTERS {
                r.registry.counter_add(name, 0);
            }
            for name in OBS_GAUGES {
                r.registry.gauge_set(name, 0.0);
            }
            // Cascade series exist only on cascade runs, so the default
            // export stays byte-identical to the pre-cascade tree.
            if cfg.cascade.is_some() {
                r.registry.counter_add("escalations", 0);
                r.registry.gauge_set("escalation_rate", 0.0);
            }
            r.registry
                .hist_register("retrieval_latency_secs", RETRIEVAL_BOUNDS);
            r.registry.hist_register("e2e_latency_secs", E2E_BOUNDS);
            r
        });

        // Cascade plane: resolve the configured rungs against the SM
        // ladder and seed the built-in discriminator off the run seed.
        let cascade = cfg.cascade.clone().map(|cc| {
            let ladder = ApproxLevel::ladder(Strategy::Sm);
            let first_rung = cc.first_pass_rung(ladder.len());
            let escalate_rung = cc.escalate_rung(ladder.len());
            CascadeState {
                threshold: cc.threshold,
                price_escalations: cc.price_escalations,
                discriminator: cc
                    .discriminator
                    .unwrap_or_else(|| Arc::new(OracleDiscriminator::new(cfg.seed))),
                first_level: ladder[first_rung],
                escalate_level: ladder[escalate_rung],
                escalate_rung,
                escalated: vec![false; arrivals.len()],
                first_ratio: vec![0.0; arrivals.len()],
                first_pass_rate: 0.0,
            }
        });

        let mut sim = SystemSimulation {
            cluster,
            queue: EventQueue::new(),
            oracle,
            prompts,
            arrivals,
            switcher: StrategySwitcher::new(SwitcherConfig::default()),
            classifiers,
            predictors,
            pasm: Pasm::identity(6),
            omega_norm: {
                let mut v = vec![0.0; 6];
                v[0] = 1.0;
                v
            },
            slo,
            route_rng: factory.stream("route"),
            service_rng: factory.stream("service"),
            arrival_rate: WindowedRate::new(SimDuration::from_minutes(1.0)),
            exec_info: HashMap::new(),
            drift_detector: DriftDetector::new(400, 5, 0.35),
            retrain_minutes: Vec::new(),
            recent: VecDeque::with_capacity(RECENT_POOL),
            horizon,
            saturated_minutes: 0,
            retrieval_ewma: 0.02,
            last_demand: cfg.trace.qpm_at(0),
            pool_plans: Vec::new(),
            pool_view: None,
            resplit_done: false,
            demand_resplits: 0,
            planner,
            cache,
            metrics,
            fleet,
            worker_spot,
            provisioning: Vec::new(),
            tick_saturated: false,
            recorder,
            batch_seq: 0,
            cascade,
            pipeline,
            cfg,
        };

        // Schedule the workload and periodic events.
        for (i, &at) in sim.arrivals.iter().enumerate() {
            sim.queue.schedule(at, Event::Arrive(i as u32));
        }
        // Periodic events only make sense inside the horizon; a
        // zero-duration trace schedules nothing and terminates immediately.
        if SimTime::ZERO + TICK <= sim.horizon {
            sim.queue.schedule(SimTime::ZERO + TICK, Event::Tick);
        }
        if SimTime::ZERO + PROBE <= sim.horizon {
            sim.queue.schedule(SimTime::ZERO + PROBE, Event::Probe);
        }
        for (i, f) in sim.cfg.faults.clone().iter().enumerate() {
            sim.queue.schedule(f.at(), Event::Fault(i as u32));
        }

        // Initial placement, per the pipeline: solver policies consult
        // Eq. 1 with the trace's opening demand; static policies pin their
        // level; per-worker policies start on the base model.
        match sim.pipeline.initial_placement() {
            InitialPlacement::Solve => {
                let d0 = provisioning_target(sim.cfg.trace.qpm_at(0));
                sim.reallocate(SimTime::ZERO, d0, 1.0);
            }
            InitialPlacement::Heal => {
                sim.heal_unassigned(SimTime::ZERO);
            }
            InitialPlacement::AllAtBase => {
                let base = sim.pipeline.active_ladder(&sim.switcher)[0];
                for w in sim.cluster.alive() {
                    sim.assign_and_schedule(w, base, SimTime::ZERO);
                }
            }
        }
        // Pre-deployment warm-up: initial loads complete before traffic
        // starts (production clusters do not serve cold, §4.7).
        for w in sim.cluster.alive() {
            if let Some(l) = sim.cluster.worker(w).pending_level() {
                sim.cluster.worker_mut(w).preload(l);
            }
        }
        sim.sample_pool_allocation();
        // Anchor the cost integral: the billed membership in force at t=0.
        sim.record_membership(SimTime::ZERO);
        sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use argus_workload::steady;

    fn quick(policy: Policy, qpm: f64, minutes: usize) -> RunOutcome {
        RunConfig::new(policy, steady(qpm, minutes))
            .with_seed(7)
            .run()
    }

    #[test]
    fn argus_serves_a_light_steady_load() {
        let out = quick(Policy::Argus, 60.0, 8);
        let expected = 60.0 * 8.0;
        assert!(
            (out.totals.completed as f64) > 0.9 * expected,
            "completed {} of ~{expected}",
            out.totals.completed
        );
        assert!(out.totals.slo_violation_ratio() < 0.05, "{:?}", out.totals);
        assert!(out.totals.effective_accuracy() > 19.0);
        assert_eq!(out.switches, (0, 0));
    }

    #[test]
    fn argus_survives_heavy_load_via_approximation() {
        let out = quick(Policy::Argus, 180.0, 10);
        assert!(
            out.totals.mean_throughput_qpm(10.0) > 150.0,
            "throughput {}",
            out.totals.mean_throughput_qpm(10.0)
        );
        assert!(out.totals.slo_violation_ratio() < 0.15, "{:?}", out.totals);
        // Approximated levels must have been used.
        let deep: u64 = out
            .level_completions
            .iter()
            .filter(|(l, _)| matches!(l, ApproxLevel::Ac(k) if k.skipped_steps() > 0))
            .map(|&(_, c)| c)
            .sum();
        assert!(
            deep > 100,
            "deep completions {deep} ({:?})",
            out.level_completions
        );
    }

    #[test]
    fn clipper_ha_violates_under_load_clipper_ht_degrades_quality() {
        let ha = quick(Policy::ClipperHa, 160.0, 8);
        let ht = quick(Policy::ClipperHt, 160.0, 8);
        // HA cannot keep up: violations pile up.
        assert!(ha.totals.slo_violation_ratio() > 0.3, "{:?}", ha.totals);
        // HT keeps up but at the lowest quality.
        assert!(ht.totals.slo_violation_ratio() < 0.1, "{:?}", ht.totals);
        assert!(ht.totals.effective_accuracy() < 18.0, "{:?}", ht.totals);
        assert!(ha.totals.effective_accuracy() > ht.totals.effective_accuracy() + 2.0);
    }

    #[test]
    fn all_policies_run_without_stalling() {
        for policy in Policy::ALL {
            let out = RunConfig::new(policy, steady(90.0, 5)).with_seed(3).run();
            assert!(
                out.totals.completed > 300,
                "{policy}: completed {}",
                out.totals.completed
            );
            assert!(
                out.totals.completed <= out.totals.offered,
                "{policy}: completed more than offered"
            );
        }
    }

    #[test]
    fn network_outage_triggers_strategy_switch() {
        let out = RunConfig::new(Policy::Argus, steady(100.0, 14))
            .with_seed(5)
            .with_network_events(vec![
                (4.0, NetworkRegime::Outage),
                (8.0, NetworkRegime::Normal),
            ])
            .run();
        assert!(out.switches.0 >= 1, "no AC→SM switch: {:?}", out.switches);
        assert!(
            out.switches.1 >= 1,
            "no SM→AC switch back: {:?}",
            out.switches
        );
    }

    #[test]
    fn no_switch_flag_keeps_ac_through_outage() {
        let out = RunConfig::new(Policy::Argus, steady(100.0, 10))
            .with_seed(5)
            .with_network_events(vec![(4.0, NetworkRegime::Outage)])
            .without_strategy_switch()
            .run();
        assert_eq!(out.switches, (0, 0));
    }

    #[test]
    fn gpu_failure_is_absorbed() {
        let out = RunConfig::new(Policy::Argus, steady(100.0, 12))
            .with_seed(9)
            .with_faults(vec![
                FaultEvent::WorkerFail {
                    at_minute: 4.0,
                    workers: vec![0, 1, 2, 3],
                },
                FaultEvent::WorkerRecover {
                    at_minute: 8.0,
                    workers: vec![0, 1, 2, 3],
                },
            ])
            .run();
        // The system keeps serving (reduced capacity, deeper approximation).
        assert!(
            out.totals.completed as f64 > 0.75 * out.totals.offered as f64,
            "{:?}",
            out.totals
        );
    }

    #[test]
    fn saturation_is_signalled_beyond_capacity() {
        let out = quick(Policy::Argus, 300.0, 6);
        assert!(out.saturated_minutes >= 3, "{}", out.saturated_minutes);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = quick(Policy::Argus, 80.0, 5);
        let b = quick(Policy::Argus, 80.0, 5);
        assert_eq!(a.totals, b.totals);
        assert_eq!(a.minutes.len(), b.minutes.len());
        assert_eq!(a.level_completions, b.level_completions);
    }

    #[test]
    fn online_learning_mode_runs() {
        let out = RunConfig::new(Policy::Argus, steady(100.0, 8))
            .with_seed(21)
            .with_online_learning()
            .run();
        assert!(out.totals.completed > 600);
        // Online mode replaces batch retraining entirely.
        assert!(out.retrain_minutes.is_empty());
        assert!(out.totals.slo_violation_ratio() < 0.05);
    }

    #[test]
    fn moderate_steady_load_is_violation_free() {
        // With SLO-aware derating, Poisson burst margin and the tail spill,
        // sustained load below the derated capacity serves clean.
        let out = quick(Policy::Argus, 150.0, 12);
        assert!(out.totals.slo_violation_ratio() < 0.01, "{:?}", out.totals);
    }

    #[test]
    fn sommelier_adapts_per_worker() {
        // Sommelier steps variants per backlog; under a hot load it must
        // leave the base model on most workers.
        let out = quick(Policy::Sommelier, 170.0, 12);
        let fast: u64 = out
            .level_completions
            .iter()
            .filter(
                |(l, _)| matches!(l, ApproxLevel::Sm(v) if *v != argus_models::ModelVariant::SdXl),
            )
            .map(|&(_, c)| c)
            .sum();
        assert!(fast > 200, "{:?}", out.level_completions);
        assert!(out.totals.model_loads > 8, "no per-worker switching");
    }

    #[test]
    fn heterogeneous_fleet_serves_end_to_end() {
        let out = RunConfig::new(Policy::Argus, steady(90.0, 8))
            .with_heterogeneous_pools(vec![
                (GpuArch::A100, 4),
                (GpuArch::A10G, 2),
                (GpuArch::V100, 2),
            ])
            .with_seed(13)
            .run();
        assert!(
            out.totals.completed as f64 > 0.85 * out.totals.offered as f64,
            "{:?}",
            out.totals
        );
        assert!(out.totals.effective_accuracy() > 17.0, "{:?}", out.totals);
    }

    #[test]
    fn heterogeneous_fleet_is_bit_deterministic() {
        let run = || {
            RunConfig::new(Policy::Argus, steady(90.0, 6))
                .with_heterogeneous_pools(vec![(GpuArch::A100, 4), (GpuArch::V100, 4)])
                .with_seed(21)
                .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.totals, b.totals);
        assert_eq!(a.minutes, b.minutes);
        assert_eq!(a.level_completions, b.level_completions);
        assert_eq!(a.quality_samples, b.quality_samples);
    }

    #[test]
    fn older_gpus_saturate_earlier() {
        // The same demand that a 8×A100 fleet absorbs easily saturates a
        // 8×V100 fleet — with_gpu must actually rewire the latency tables.
        let a100 = quick(Policy::Argus, 150.0, 6);
        let v100 = RunConfig::new(Policy::Argus, steady(150.0, 6))
            .with_gpu(GpuArch::V100)
            .with_seed(7)
            .run();
        assert_eq!(a100.saturated_minutes, 0, "{a100:?}");
        assert!(v100.saturated_minutes >= 3, "{}", v100.saturated_minutes);
    }

    #[test]
    fn lsh_cache_mode_runs_and_is_deterministic() {
        let run = || {
            RunConfig::new(Policy::Argus, steady(80.0, 6))
                .with_lsh_cache()
                .with_seed(5)
                .run()
        };
        let a = run();
        assert!(a.totals.completed > 350, "{:?}", a.totals);
        let b = run();
        assert_eq!(a.totals, b.totals);
    }

    #[test]
    fn sharded_cache_mode_runs_and_is_deterministic() {
        let run = || {
            RunConfig::new(Policy::Argus, steady(80.0, 6))
                .with_sharded_cache(4, 2)
                .with_seed(5)
                .run()
        };
        let a = run();
        assert!(a.totals.completed > 350, "{:?}", a.totals);
        assert!(a.retrieval.lookups > 0, "{:?}", a.retrieval);
        assert!(a.retrieval.hits() > 0, "{:?}", a.retrieval);
        let b = run();
        assert_eq!(a.totals, b.totals);
        assert_eq!(a.retrieval, b.retrieval);
        assert_eq!(a.level_completions, b.level_completions);
    }

    #[test]
    fn batching_keeps_saturated_throughput_at_least_unbatched() {
        // Obs. 5: diffusion batches amortize the fixed pass overhead, so a
        // saturated cluster completes at least as much work with batching
        // enabled, while batch sizes stay within the SLO budget.
        let unbatched = RunConfig::new(Policy::Argus, steady(300.0, 8))
            .with_seed(7)
            .run();
        let batched = RunConfig::new(Policy::Argus, steady(300.0, 8))
            .with_seed(7)
            .with_batching(4)
            .run();
        assert!(
            batched.totals.completed >= unbatched.totals.completed,
            "batched {} < unbatched {}",
            batched.totals.completed,
            unbatched.totals.completed
        );
    }

    #[test]
    fn batch_one_is_bit_identical_to_default() {
        for policy in Policy::ALL {
            let a = RunConfig::new(policy, steady(120.0, 5)).with_seed(3).run();
            let b = RunConfig::new(policy, steady(120.0, 5))
                .with_seed(3)
                .with_batching(1)
                .run();
            assert_eq!(a.totals, b.totals, "{policy}");
            assert_eq!(a.level_completions, b.level_completions, "{policy}");
        }
    }

    #[test]
    fn custom_pipeline_escape_hatch_matches_builtin() {
        let builtin = quick(Policy::Nirvana, 90.0, 5);
        let custom = RunConfig::new(Policy::Nirvana, steady(90.0, 5))
            .with_seed(7)
            .with_policy_pipeline(Box::new(crate::pipeline::NirvanaPolicy))
            .run();
        assert_eq!(builtin.totals, custom.totals);
        assert_eq!(builtin.level_completions, custom.level_completions);
    }
}
