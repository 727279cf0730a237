//! The end-to-end discrete-event system simulation (§4.7 testbed).
//!
//! One [`SystemSimulation`] binds a policy (Argus or a baseline), a
//! workload trace, the GPU cluster, the vector database + retrieval
//! network, the classifier, allocator, PASM and the strategy switcher into
//! a single event loop over virtual time. Every result in the paper's
//! evaluation (Figs. 16, 17, 18, 20, §5.4–§5.7) is a run of this
//! simulation under a different configuration.

use std::collections::VecDeque;
use std::iter::Peekable;
use std::sync::Arc;

use argus_cachestore::{NetworkModel, NetworkRegime};
use argus_classifier::{label_prompts, train, Classifier, DriftDetector, TrainerConfig};
use argus_cluster::{Cluster, JobId, WorkerId};
use argus_des::rng::RngFactory;
use argus_des::stats::WindowedRate;
use argus_des::{EventQueue, SimDuration, SimTime};
use argus_embed::{embed, Embedding};
use argus_models::{latency, ApproxLevel, GpuArch, Strategy, RUNGS};
use argus_obs::{Recorder, SpanLog, StageProfile, TelemetryConfig, Timeline};
use argus_prompts::{DriftSchedule, Prompt, PromptGenerator};
use argus_quality::QualityOracle;
use argus_vdb::{FlatIndex, LshIndex};
use argus_workload::{ArrivalProcess, Trace};
use rand::rngs::StdRng;

use crate::actors::cacheplane::{CacheStage, Vdb};
use crate::actors::fleet::FleetStage;
use crate::actors::metrics::MetricsStage;
use crate::actors::planner::{PlannerStage, PoolPlan};
use crate::cacheplane::CachePlane;
use crate::capacity::{Batch1Model, CapacityModel};
use crate::cascade::{
    CascadeConfig, CascadePolicy, CascadeStats, Discriminator, OracleDiscriminator,
};
use crate::fleet::{AutoscaleController, AutoscalePolicy, CostReport, FleetStats, SpotPool};
use crate::metrics::{MinuteRecord, PoolStats, RetrievalStats, RunTotals, SLO_MULTIPLIER};
use crate::oda::Pasm;
use crate::pipeline::{pipeline_for, InitialPlacement, ServingPolicy};
use crate::policy::Policy;
use crate::predictor::WorkloadDistributionPredictor;
use crate::scheduler::PinnedLadders;
use crate::switcher::StrategySwitcher;

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
/// Recent-prompt pool used for drift retraining and accuracy sampling:
/// the last this-many arrivals (see [`JobWindow::recent`]).
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
    /// Per-architecture worker pools. `None` means the homogeneous
    /// `workers`×A100 testbed; `Some` fleets choose their architectures
    /// (one pool for a homogeneous non-A100 fleet, several to mix
    /// generations) and the allocator solves Eq. 1 per pool with that
    /// pool's latency tables.
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
    /// Network regime schedule for cache retrieval `(minute, regime)`
    /// (Fig. 11 / Fig. 20b).
    pub network_events: Vec<(f64, NetworkRegime)>,
    /// Offline classifier training-set size.
    pub classifier_train_size: usize,
    /// Classifier training epochs (swept in Fig. 19).
    pub classifier_epochs: usize,
    /// How the classifier follows the prompt stream during the run:
    /// drift-triggered retraining (§4.1, the default), per-completion
    /// online updates (§6 ablation), or not at all.
    pub classifier_updates: ClassifierUpdates,
    /// Whether the AC↔SM switch is allowed (Fig. 20b's "no-switch" line
    /// disables it).
    pub allow_strategy_switch: bool,
    /// Vector-database capacity (recent-window retrieval index).
    pub vdb_capacity: usize,
    /// Ablation (§6): amortize model-load cost into the solver's level
    /// profiles so reallocations account for switch overheads.
    pub load_aware_solver: bool,
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
            pools: None,
            lsh_cache: false,
            sharded_cache: None,
            seed: 0,
            drift: None,
            faults: Vec::new(),
            network_events: Vec::new(),
            classifier_train_size: 6000,
            classifier_epochs: 8,
            classifier_updates: ClassifierUpdates::OnDrift,
            allow_strategy_switch: true,
            vdb_capacity: 768,
            load_aware_solver: false,
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

    /// Sets the cluster size: a homogeneous A100 fleet of `workers`.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self.pools = None;
        self
    }

    /// Configures the fleet from per-architecture worker counts; a single
    /// pool is a homogeneous fleet of that architecture. The total worker
    /// count is derived from the pools.
    ///
    /// # Panics
    /// Panics if the pools sum to zero workers.
    pub fn with_heterogeneous_pools(mut self, pools: Vec<(GpuArch, usize)>) -> Self {
        let total: usize = pools.iter().map(|&(_, n)| n).sum();
        assert!(total > 0, "heterogeneous pools need at least one worker");
        self.workers = total;
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
            None => vec![(GpuArch::A100, self.workers)],
        }
    }

    /// The whole fleet by architecture, in order of first appearance:
    /// every on-demand and spot pool of one architecture summed into one
    /// entry. The autoscaler's default bounds and
    /// [`RunOutcome::pools`] both read it.
    pub(crate) fn fleet_by_arch(&self) -> Vec<(GpuArch, usize)> {
        let spot = self.spot_pools.iter().map(|sp| (sp.gpu, sp.workers));
        let mut fleet: Vec<(GpuArch, usize)> = Vec::new();
        for (gpu, n) in self.effective_pools().into_iter().chain(spot) {
            match fleet.iter_mut().find(|(g, _)| *g == gpu) {
                Some(e) => e.1 += n,
                None => fleet.push((gpu, n)),
            }
        }
        fleet
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

    /// Freezes the offline classifier: no drift-triggered retraining
    /// and no online updates ([`ClassifierUpdates::Frozen`]).
    pub fn without_retraining(mut self) -> Self {
        self.classifier_updates = ClassifierUpdates::Frozen;
        self
    }

    /// Enables the load-cost-aware solver ablation (§6).
    pub fn with_load_aware_solver(mut self) -> Self {
        self.load_aware_solver = true;
        self
    }

    /// Replaces drift-triggered retraining with continuous online
    /// classifier updates (§6 ablation, [`ClassifierUpdates::Online`]).
    pub fn with_online_learning(mut self) -> Self {
        self.classifier_updates = ClassifierUpdates::Online;
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
    /// ladders have [`argus_models::RUNGS`] rungs, slowest first), and
    /// pinned pools are exempt from AC↔SM transitions. Read only by
    /// pipelines that solve Eq. 1 at set-up (Argus/PAC/Proteus and the
    /// cascade); per-worker and static policies ignore it.
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

    /// Enables the telemetry plane: job-lifecycle spans (sampled at
    /// `cfg`'s rate), the per-tick time-series registry and control-plane
    /// stage profiles, recorded in sim-time and returned on
    /// [`RunOutcome`]. The run writes no file: the caller exports the
    /// outcome ([`RunOutcome::write_telemetry_jsonl`],
    /// [`RunOutcome::chrome_trace`]). Telemetry never perturbs the
    /// simulation: results are bit-identical with it on and off.
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

/// How the §4.1 classifier follows the prompt stream during a run
/// ([`RunConfig::classifier_updates`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClassifierUpdates {
    /// Batch retraining whenever the drift detector fires (§4.1).
    #[default]
    OnDrift,
    /// One SGD step per labelled completion instead of drift-triggered
    /// retraining (§6 ablation, [`RunConfig::with_online_learning`]).
    Online,
    /// The offline classifier, never updated
    /// ([`RunConfig::without_retraining`]).
    Frozen,
}

/// Results of one run. Everything the run recorded, telemetry included,
/// comes back here; the run itself reads and writes no file.
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
    /// Per-architecture pool telemetry (one entry per architecture in
    /// the fleet, its on-demand and spot workers summed, in order of
    /// first appearance), so heterogeneous experiments stop inferring
    /// pool behaviour from aggregates. Jobs lost before reaching a
    /// worker have no pool and are excluded from the per-pool violation
    /// counts.
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
    /// whatever the run did not record) as a `String`: the bytes
    /// [`RunOutcome::write_telemetry_jsonl`] writes. See DESIGN.md §12
    /// for the line schema.
    pub fn telemetry_jsonl(&self) -> String {
        argus_obs::jsonl_document(
            self.span_sample(),
            self.spans.as_ref(),
            self.timeline.as_ref(),
            &self.stage_profiles,
        )
    }

    /// Writes the JSONL telemetry document into `out` line by line and
    /// flushes it (pass a buffered file to export a long run without
    /// holding the rendered document). Returns the sink's first I/O
    /// error.
    pub fn write_telemetry_jsonl(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        argus_obs::write_jsonl(
            out,
            self.span_sample(),
            self.spans.as_ref(),
            self.timeline.as_ref(),
            &self.stage_profiles,
        )
    }

    /// The span sampling rate the JSONL header declares (0 when no span
    /// was recorded).
    fn span_sample(&self) -> u32 {
        self.spans.as_ref().map_or(0, |s| s.sample_every)
    }

    /// The Chrome trace-event document (`chrome://tracing` / Perfetto)
    /// for the run's recorded spans and timeline.
    pub fn chrome_trace(&self) -> String {
        argus_obs::chrome_trace_document(self.spans.as_ref(), self.timeline.as_ref())
    }
}

/// What actually executed for a job's pass: the level after the cache
/// gate, and the similarity of the reused neighbour.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Exec {
    pub(crate) level: ApproxLevel,
    pub(crate) similarity: Option<f64>,
}

/// Driver-side cascade state ([`RunConfig::with_cascade`]): the
/// discriminator and the latest first-pass escalation rate read from the
/// metrics stage. The rungs are constants (`cascade::FIRST_PASS_LEVEL`,
/// `cascade::ESCALATION_LEVEL`); the per-job escalation state lives in
/// each job's [`JobSlot`].
pub(crate) struct CascadeState {
    /// Escalate when doubt ≥ threshold.
    pub(crate) threshold: f64,
    /// Whether the observed rate feeds Eq. 1 (s65 ablation knob).
    pub(crate) price_escalations: bool,
    pub(crate) discriminator: Arc<dyn Discriminator>,
    /// The escalation-rate EWMA at the first-pass level, as of the last
    /// allocator tick (read from the metrics stage each tick).
    pub(crate) first_pass_rate: f64,
}

/// The trace, streamed into the event loop: arrival instants come off the
/// arrival process as they fall due, and each job's prompt is generated
/// when the job arrives, so nothing of the trace is held ahead of time.
/// Jobs are numbered in arrival order; the generator is sequential, so
/// the prompts are those a batch generated up front would hold.
pub(crate) struct TraceCursor<I: Iterator<Item = SimTime> = ArrivalProcess> {
    instants: Peekable<I>,
    prompts: PromptGenerator,
    next_job: u32,
}

impl<I: Iterator<Item = SimTime>> TraceCursor<I> {
    pub(crate) fn new(instants: I, prompts: PromptGenerator) -> Self {
        TraceCursor {
            instants: instants.peekable(),
            prompts,
            next_job: 0,
        }
    }

    /// Delivers the next arrival `(instant, job, prompt)` if it is due: at
    /// or before the earliest event pending in `queue`, whose clock it
    /// then advances. An arrival thus wins an exact tie with any heap
    /// event, and same-instant arrivals come in job order — the order of a
    /// queue that scheduled every arrival up front, ahead of every other
    /// event.
    pub(crate) fn next_due<E>(
        &mut self,
        queue: &mut EventQueue<E>,
    ) -> Option<(SimTime, u32, Prompt)> {
        let pending = queue.peek_time();
        let at = self
            .instants
            .next_if(|&at| pending.is_none_or(|p| at <= p))?;
        queue.advance(at);
        let job = self.next_job;
        self.next_job += 1;
        Some((at, job, self.prompts.generate()))
    }
}

/// One job's state, from its arrival until it can no longer be read.
pub(crate) struct JobSlot {
    pub(crate) prompt: Prompt,
    pub(crate) arrival: SimTime,
    /// Cascade: set once the discriminator escalates the first pass, to
    /// that pass's relative quality (score/base) for the quality-delta
    /// accounting. An escalated job's re-dispatch targets the escalation
    /// rung, and its second completion is final.
    pub(crate) first_ratio: Option<f64>,
    /// The execution record of the job's current pass: written when the
    /// pass starts, read when it finishes. A later start (a reroute after
    /// a failure, or a cascade escalation) overwrites it.
    pub(crate) exec: Option<Exec>,
    /// The prompt's embedding, kept from the job's first cache lookup:
    /// a later lookup reads it and the cache insert moves it out, so a
    /// prompt is embedded at most once. Boxed, so a slot that never
    /// looks up grows by one pointer only.
    pub(crate) embedding: Option<Box<Embedding>>,
    retired: bool,
}

/// Per-job state keyed by job id, held only while something can still
/// read it: while the job is live, and while it is among the last
/// [`RECENT_POOL`] arrivals that drift retraining and the accuracy sample
/// read. A job is retired at its final completion or when dispatch loses
/// it; retired slots are freed from the front once older than the recent
/// arrivals, so the window spans the oldest live job or the recent
/// arrivals, whichever reaches further back.
#[derive(Default)]
pub(crate) struct JobWindow {
    /// Id of the front slot.
    first: usize,
    slots: VecDeque<JobSlot>,
}

impl JobWindow {
    /// Opens the slot of `job`, the next arrival.
    pub(crate) fn arrive(&mut self, job: usize, prompt: Prompt, arrival: SimTime) {
        debug_assert_eq!(
            job,
            self.first + self.slots.len(),
            "jobs arrive in id order"
        );
        self.slots.push_back(JobSlot {
            prompt,
            arrival,
            first_ratio: None,
            exec: None,
            embedding: None,
            retired: false,
        });
        self.free();
    }

    pub(crate) fn get(&self, job: usize) -> &JobSlot {
        &self.slots[job - self.first]
    }

    pub(crate) fn get_mut(&mut self, job: usize) -> &mut JobSlot {
        &mut self.slots[job - self.first]
    }

    /// Marks `job` done (its final completion, or a loss): its slot is
    /// freed once it is older than the recent arrivals.
    pub(crate) fn retire(&mut self, job: usize) {
        let slot = self.get_mut(job);
        debug_assert!(!slot.retired, "job {job} retired twice");
        slot.retired = true;
        slot.embedding = None;
        self.free();
    }

    /// Prompts of the last `min(arrivals, RECENT_POOL)` arrivals, oldest
    /// first (none before the first arrival).
    pub(crate) fn recent(&self) -> impl DoubleEndedIterator<Item = &Prompt> + ExactSizeIterator {
        let from = self.slots.len().saturating_sub(RECENT_POOL);
        self.slots.range(from..).map(|s| &s.prompt)
    }

    fn free(&mut self) {
        while self.slots.len() > RECENT_POOL && self.slots.front().is_some_and(|s| s.retired) {
            self.slots.pop_front();
            self.first += 1;
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Event {
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
    /// A preemption warning expired: the worker disappears now, if it is
    /// still in the drain the warning announced (worker, drain number:
    /// [`argus_cluster::Worker::drains_begun`] when the warning came).
    Preempt(u32, u32),
}

/// The discrete-event simulation of the full serving system.
///
/// The struct is the **driver** of the staged control plane
/// (`crate::actors`): it owns the event queue, the cluster, routing and
/// the strategy switcher, and owns the planner, cache-plane, metrics and
/// fleet stages, whose methods it calls directly. Construction (this
/// module) pre-warms the cache plane and builds the stages; the event
/// pump and every handler live in `crate::actors::driver`.
pub struct SystemSimulation {
    pub(crate) cfg: RunConfig,
    pub(crate) pipeline: Arc<dyn ServingPolicy>,
    pub(crate) queue: EventQueue<Event>,
    pub(crate) cluster: Cluster,
    pub(crate) oracle: QualityOracle,
    /// Arrivals not yet delivered, merged ahead of `queue`.
    pub(crate) trace: TraceCursor,
    /// Per-job state of live and recent jobs.
    pub(crate) jobs: JobWindow,
    pub(crate) switcher: StrategySwitcher,
    /// Per-strategy classifiers, indexed by `Strategy as usize` (AC,
    /// then SM); empty unless the pipeline trains them.
    pub(crate) classifiers: Vec<Classifier>,
    /// Per-strategy workload-distribution predictors, indexed like
    /// `classifiers`.
    pub(crate) predictors: [WorkloadDistributionPredictor; 2],
    pub(crate) pasm: Pasm,
    pub(crate) omega_norm: Vec<f64>,
    /// The run's SLO, [`SLO_MULTIPLIER`] × the slowest pool's SD-XL
    /// latency. The metrics stage judges completions against its copy;
    /// routing and batching read this one.
    pub(crate) slo: SimDuration,
    pub(crate) route_rng: StdRng,
    pub(crate) service_rng: StdRng,
    pub(crate) arrival_rate: WindowedRate,
    pub(crate) drift_detector: DriftDetector,
    pub(crate) retrain_minutes: Vec<u64>,
    pub(crate) horizon: SimTime,
    /// Minutes (`t / TICK`) in which a solve reported saturation, and the
    /// last of them: a minute's tick and its switch re-solves count once.
    pub(crate) saturated_minutes: u64,
    pub(crate) last_saturated_minute: Option<u64>,
    pub(crate) retrieval_ewma: f64,
    pub(crate) last_demand: f64,
    /// Per-pool plan state from the last (re-)allocation: what each
    /// architecture pool was solved with, for ω re-merging and mid-minute
    /// re-splitting.
    pub(crate) pool_plans: Vec<PoolPlan>,
    /// The ladder each architecture pool serves, resolved once from
    /// [`RunConfig::pool_strategies`]; empty unless the pipeline solves
    /// Eq. 1 at set-up.
    pub(crate) pinned: PinnedLadders,
    /// Whether the re-split already fired in the current allocator tick
    /// (at most one per tick).
    pub(crate) resplit_done: bool,
    pub(crate) demand_resplits: u64,
    /// Planner stage: Eq. 1 solving and its warm-start seeds.
    pub(crate) planner: PlannerStage,
    /// Cache-plane stage: the retrieval index and the retrieval network.
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
    /// The jobs of the pass being finished; one buffer for every finish.
    pub(crate) finished: Vec<JobId>,
    /// Per-pool (backlog drain rate, capacity) of the re-split check; one
    /// buffer for every arrival.
    pub(crate) resplit_pressure: Vec<(f64, f64)>,
    /// Cascade plane state ([`RunConfig::with_cascade`]); `None` keeps
    /// the run bit-identical to the pre-cascade tree.
    pub(crate) cascade: Option<CascadeState>,
}

/// Retrieval-latency histogram bounds (seconds) for the telemetry plane.
pub(crate) const RETRIEVAL_BOUNDS: &[f64] = &[0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0];
/// End-to-end job-latency histogram bounds (seconds).
pub(crate) const E2E_BOUNDS: &[f64] = &[1.0, 2.5, 5.0, 10.0, 20.0, 40.0, 80.0, 160.0];
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

impl SystemSimulation {
    /// Builds the simulation: trains classifiers offline, pre-warms the
    /// cache with the training images, and places the initial allocation.
    /// The workload is generated as it arrives, during [`Self::run`].
    pub fn new(cfg: RunConfig) -> Self {
        let pipeline: Arc<dyn ServingPolicy> = match (&cfg.custom_pipeline, &cfg.cascade) {
            (Some(p), _) => Arc::clone(p),
            (None, Some(cc)) => Arc::new(CascadePolicy::new(cc.first_pass_rung(RUNGS))),
            (None, None) => pipeline_for(cfg.policy),
        };
        // Pool pins resolve once, for pipelines that solve Eq. 1 at
        // set-up; per-worker and static policies plan no pool, and a pin
        // leaves their routing as it is.
        let pinned = if pipeline.initial_placement() == InitialPlacement::Solve {
            PinnedLadders::new(|gpu| cfg.pool_strategy_for(gpu))
        } else {
            PinnedLadders::default()
        };
        let factory = RngFactory::new(cfg.seed);

        // Workload: arrival instants + matching prompt stream, both drawn
        // as jobs arrive.
        let mut generator = PromptGenerator::new(cfg.seed ^ 0x9E0);
        if let Some(d) = cfg.drift {
            generator = generator.with_drift(d);
        }
        let trace = TraceCursor::new(ArrivalProcess::new(&cfg.trace, cfg.seed ^ 0xA11), generator);

        let oracle = QualityOracle::new(cfg.seed ^ 0x0AC1E);

        // Offline training pool (no drift — the pre-deployment data).
        let offline =
            PromptGenerator::new(cfg.seed ^ 0x0FF11E).generate_batch(cfg.classifier_train_size);

        // Classifiers per strategy (Argus needs both for switching), built
        // in AC, SM order so `Strategy as usize` indexes them.
        const _: () = assert!(Strategy::Ac as usize == 0 && Strategy::Sm as usize == 1);
        let mut classifiers = Vec::new();
        if pipeline.uses_classifier() {
            for strategy in [Strategy::Ac, Strategy::Sm] {
                let ladder = ApproxLevel::ladder(strategy);
                let samples = label_prompts(&oracle, &offline, ladder);
                let (clf, _) = train(
                    &samples,
                    ladder.len(),
                    &TrainerConfig {
                        epochs: cfg.classifier_epochs,
                        seed: cfg.seed,
                    },
                );
                classifiers.push(clf);
            }
        }

        // The retrieval network with the configured regime schedule.
        let mut network = NetworkModel::new(factory);
        for &(minute, regime) in &cfg.network_events {
            network = network.with_event(SimTime::from_minutes(minute), regime);
        }
        // One shard with one replica (after the clamp to the cluster size)
        // is no plane but the monolithic off-cluster index: remote from
        // every worker and untouched by worker faults.
        let plane = cfg
            .sharded_cache
            .filter(|&(shards, replication)| shards != 1 || replication.min(cfg.workers) != 1);
        let mut vdb = if let Some((shards, replication)) = plane {
            // The cache plane: per-shard LSH replicas at the same 8-bit
            // knee and the same total capacity as the monolithic index.
            Vdb::Sharded(CachePlane::new(
                shards,
                replication,
                cfg.workers,
                cfg.seed ^ 0x15B,
                cfg.vdb_capacity.max(1),
            ))
        } else if cfg.lsh_cache || cfg.sharded_cache.is_some() {
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
        // The index is pre-warmed with the offline pool: those images were
        // generated during training, so their states exist at every
        // capture step. Pre-deployment warm-up writes are not charged to
        // the run.
        const OFFLINE_BASE: u64 = 1 << 40;
        for (i, p) in offline.iter().enumerate() {
            vdb.insert(None, embed(p), OFFLINE_BASE + i as u64);
        }

        let predictors =
            [Strategy::Ac, Strategy::Sm].map(|_| WorkloadDistributionPredictor::new(RUNGS, 1000));

        let horizon = SimTime::from_minutes(cfg.trace.len_minutes() as f64);
        // The SLO references the slowest architecture in the fleet (for the
        // homogeneous testbed that is just the A100): a latency target no
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
            .unwrap_or(GpuArch::A100);
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
                cluster.set_hbm_slots(WorkerId(id), hbm_slots);
            }
        }

        // Build the control-plane stages around the pre-warmed state. The
        // metrics stage judges completions against the SLO (§5.1: a
        // multiple of the base model's latency); the warmed index and the
        // network move into the cache-plane stage; the planner starts empty
        // and builds its solve caches on demand.
        let slo = base_latency * SLO_MULTIPLIER;
        let metrics = MetricsStage::new(slo, factory.stream("samples"));
        let cache = CacheStage::new(vdb, network);
        let planner = PlannerStage::new(
            Arc::clone(&cfg.capacity_model),
            slo.as_secs(),
            cfg.max_batch,
            cfg.load_aware_solver,
        );
        // The autoscale controller's per-architecture bounds default off
        // the initial pool sizes (spot workers count toward them).
        let controller = cfg
            .autoscaler
            .clone()
            .map(|p| AutoscaleController::new(p, &cfg.fleet_by_arch()));
        let fleet = FleetStage::new(controller);
        // Per-worker spot discounts in cluster id order: the on-demand
        // pools first, then each spot pool.
        let mut worker_spot: Vec<Option<f64>> = vec![None; cfg.workers];
        for sp in &cfg.spot_pools {
            worker_spot.extend(std::iter::repeat_n(Some(sp.discount), sp.workers));
        }

        // Telemetry: pre-register every series up front so each tick
        // sample carries an identical vector layout from minute zero
        // (DESIGN.md §12). The counters register once the stages they are
        // read from exist (`obs_set_counters` below).
        let recorder = cfg.telemetry.map(|tc| {
            let mut r = Recorder::new(tc);
            for name in OBS_GAUGES {
                r.registry.gauge_set(name, 0.0);
            }
            // Cascade series exist only on cascade runs, so the default
            // export stays byte-identical to the pre-cascade tree.
            if cfg.cascade.is_some() {
                r.registry.gauge_set("escalation_rate", 0.0);
            }
            r.registry
                .hist_register("retrieval_latency_secs", RETRIEVAL_BOUNDS);
            r.registry.hist_register("e2e_latency_secs", E2E_BOUNDS);
            r
        });

        // Cascade plane: the built-in discriminator seeded off the run
        // seed judges first passes on the fixed rungs.
        let cascade = cfg.cascade.clone().map(|cc| CascadeState {
            threshold: cc.threshold,
            price_escalations: cc.price_escalations,
            discriminator: cc
                .discriminator
                .unwrap_or_else(|| Arc::new(OracleDiscriminator::new(cfg.seed))),
            first_pass_rate: 0.0,
        });

        let mut sim = SystemSimulation {
            cluster,
            queue: EventQueue::new(),
            oracle,
            trace,
            jobs: JobWindow::default(),
            switcher: StrategySwitcher::new(),
            classifiers,
            predictors,
            pasm: Pasm::identity(RUNGS),
            omega_norm: {
                let mut v = vec![0.0; RUNGS];
                v[0] = 1.0;
                v
            },
            slo,
            route_rng: factory.stream("route"),
            service_rng: factory.stream("service"),
            arrival_rate: WindowedRate::new(SimDuration::from_minutes(1.0)),
            drift_detector: DriftDetector::new(400, 5, 0.35),
            retrain_minutes: Vec::new(),
            horizon,
            saturated_minutes: 0,
            last_saturated_minute: None,
            retrieval_ewma: 0.02,
            last_demand: cfg.trace.qpm_at(0),
            pool_plans: Vec::new(),
            pinned,
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
            finished: Vec::new(),
            resplit_pressure: Vec::new(),
            cascade,
            pipeline,
            cfg,
        };
        sim.obs_set_counters();

        // Schedule the periodic events (arrivals stream in through
        // `trace`). Periodic events only make sense inside the horizon; a
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
                sim.reallocate(SimTime::ZERO, d0);
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
                sim.cluster.preload(w, l);
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

    /// Drains `queue` with `trace` merged ahead of it, as the driver does,
    /// labelling arrivals by job id.
    fn drain_merged(
        trace: &mut TraceCursor<std::vec::IntoIter<SimTime>>,
        queue: &mut EventQueue<&'static str>,
    ) -> Vec<(SimTime, String)> {
        let mut order = Vec::new();
        loop {
            if let Some((t, job, prompt)) = trace.next_due(queue) {
                assert_eq!(prompt.id.0, u64::from(job), "prompts follow job order");
                order.push((t, format!("job {job}")));
                continue;
            }
            let Some((t, ev)) = queue.pop() else { break };
            order.push((t, ev.to_string()));
        }
        order
    }

    #[test]
    fn arrivals_win_exact_ties_and_same_instant_arrivals_keep_job_order() {
        let at = SimTime::from_secs;
        let instants = vec![at(1.0), at(1.0), at(2.0), at(3.0)];
        let heap = [(at(0.5), "early"), (at(1.0), "tie"), (at(3.0), "last tie")];

        let mut queue = EventQueue::new();
        for &(t, ev) in &heap {
            queue.schedule(t, ev);
        }
        let mut trace = TraceCursor::new(instants.clone().into_iter(), PromptGenerator::new(5));
        let merged = drain_merged(&mut trace, &mut queue);
        let expected = [
            (at(0.5), "early"),
            (at(1.0), "job 0"),
            (at(1.0), "job 1"),
            (at(1.0), "tie"),
            (at(2.0), "job 2"),
            (at(3.0), "job 3"),
            (at(3.0), "last tie"),
        ];
        let expected: Vec<_> = expected.iter().map(|&(t, e)| (t, e.to_string())).collect();
        assert_eq!(merged, expected);
        // Delivered arrivals advance the clock and count as processed.
        assert_eq!(queue.events_processed(), 7);
        assert_eq!(queue.now(), at(3.0));

        // The same order as a queue that schedules every arrival first.
        let mut upfront: EventQueue<String> = EventQueue::new();
        for (job, &t) in instants.iter().enumerate() {
            upfront.schedule(t, format!("job {job}"));
        }
        for &(t, ev) in &heap {
            upfront.schedule(t, ev.to_string());
        }
        let reference: Vec<_> = std::iter::from_fn(|| upfront.pop()).collect();
        assert_eq!(merged, reference);
    }

    #[test]
    fn job_window_keeps_the_recent_arrivals_and_live_stragglers() {
        let mut prompts = PromptGenerator::new(9);
        let mut window = JobWindow::default();
        let ids = |w: &JobWindow| w.recent().map(|p| p.id.0).collect::<Vec<_>>();

        // Fewer arrivals than the pool: everything stays, retired or not.
        for job in 0..10 {
            window.arrive(job, prompts.generate(), SimTime::from_secs(job as f64));
            window.retire(job);
        }
        assert_eq!(ids(&window), (0..10).collect::<Vec<_>>());

        // Job 10 stays live while 2×RECENT_POOL more arrive and retire.
        let n = 11 + 2 * RECENT_POOL;
        window.arrive(10, prompts.generate(), SimTime::from_secs(10.0));
        for job in 11..n {
            window.arrive(job, prompts.generate(), SimTime::from_secs(job as f64));
            window.retire(job);
        }
        // The recent slice is the last RECENT_POOL arrivals, oldest first.
        let recent_from = (n - RECENT_POOL) as u64;
        assert_eq!(ids(&window), (recent_from..n as u64).collect::<Vec<_>>());
        // The straggler stays addressable, so nothing behind it is freed;
        // only the retired slots in front of it went.
        assert_eq!(window.get(10).arrival, SimTime::from_secs(10.0));
        assert_eq!(window.get(10).prompt.id.0, 10);
        assert_eq!((window.first, window.slots.len()), (10, n - 10));

        // Its final retirement frees it and everything retired behind it
        // that is older than the recent arrivals.
        window.retire(10);
        assert_eq!(
            (window.first, window.slots.len()),
            (n - RECENT_POOL, RECENT_POOL)
        );
        assert_eq!(ids(&window), (recent_from..n as u64).collect::<Vec<_>>());
    }

    #[test]
    fn job_window_frees_from_the_front_whatever_the_retire_order() {
        let mut prompts = PromptGenerator::new(3);
        let mut window = JobWindow::default();
        let n = 2 * RECENT_POOL;
        for job in 0..n {
            window.arrive(job, prompts.generate(), SimTime::ZERO);
        }
        // Newest first: every slot but the front one retires, and none can
        // be freed while job 0 is live in front of them.
        for job in (1..n).rev() {
            window.retire(job);
        }
        assert_eq!(window.slots.len(), n);
        window.get_mut(0).first_ratio = Some(0.5);
        assert_eq!(window.get(0).first_ratio, Some(0.5));
        window.retire(0);
        assert_eq!(
            (window.first, window.slots.len()),
            (RECENT_POOL, RECENT_POOL)
        );
    }

    #[test]
    fn slo_is_three_times_base_latency() {
        // SD-XL takes 4.2 s on the default single-A100 fleet (§5.1).
        let sim = SystemSimulation::new(RunConfig::new(Policy::ClipperHa, steady(60.0, 1)));
        assert!((sim.slo.as_secs() - 12.6).abs() < 1e-9);
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
        // 8×V100 fleet — a single V100 pool must actually rewire the
        // latency tables.
        let a100 = quick(Policy::Argus, 150.0, 6);
        let v100 = RunConfig::new(Policy::Argus, steady(150.0, 6))
            .with_heterogeneous_pools(vec![(GpuArch::V100, 8)])
            .with_seed(7)
            .run();
        assert_eq!(a100.saturated_minutes, 0, "{a100:?}");
        // Set-up and all six ticks saturate; the totals pin the V100
        // tables end to end.
        assert_eq!(v100.saturated_minutes, 7);
        let t = &v100.totals;
        assert_eq!((t.offered, t.completed, t.in_slo), (896, 896, 73));
        assert_eq!((t.violations, t.model_loads), (823, 8));
        assert_eq!(t.quality_sum.to_bits(), 0x4094c38b89d201e7);
        assert_eq!(t.relative_quality_sum.to_bits(), 0x404f74399bda7264);
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
