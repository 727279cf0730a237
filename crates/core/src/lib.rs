//! # argus-core — the Argus control plane and end-to-end system
//!
//! This crate assembles the full serving system of the paper on top of the
//! substrate crates:
//!
//! * [`solver`] — the Eq. 1 allocator: which approximation level each
//!   worker runs and what load fraction each level serves, via an exact
//!   specialized search and the paper's MILP formulation (cross-validated
//!   against each other);
//! * [`predictor`] — the Workload Distribution Predictor: the look-back
//!   window of classifier outputs yielding the affinity histogram `φ(v)`;
//! * [`mod@oda`] — the Optimized Distribution Aligner (Algorithm 1) producing
//!   the Probabilistic Approximation Shift Map (PASM);
//! * [`capacity`] — the pluggable [`CapacityModel`] behind Eq. 1's
//!   `peak(v)`: the batch-1 paper profile and the Obs. 5 batching-aware
//!   profile, swappable per run (`RunConfig::with_capacity_model`);
//! * [`cacheplane`] — the sharded retrieval plane: the vector index
//!   partitioned across worker-attached shards with replication, lookup
//!   locality and fault-driven rebalance
//!   (`RunConfig::with_sharded_cache`);
//! * [`cascade`] — the query-aware cascade serving plane: cheap-first
//!   dispatch, a deterministic discriminator gating escalation, and the
//!   observed escalation rate priced into Eq. 1
//!   (`RunConfig::with_cascade`);
//! * [`pipeline`] — the staged serving-pipeline API: a [`ServingPolicy`]
//!   composes `LevelPlanner`/`CacheGate`/`WorkerSelector`/`Dispatcher`
//!   stages that the event loop drives generically, with one
//!   implementation per policy and batched dispatch on top;
//! * [`scheduler`] — the Prompt Scheduler and Worker-Selector (Eq. 3);
//! * [`switcher`] — the AC ↔ SM strategy switch driven by cache-retrieval
//!   latency monitoring (§4.6);
//! * [`fleet`] — the elastic fleet subsystem: the autoscale controller,
//!   spot pools with warning-window preemption, and cost-aware
//!   accounting (`RunConfig::with_autoscaler` / `with_spot_pool`);
//! * [`metrics`] — the per-minute and whole-run result types of the
//!   throughput / effective accuracy / SLO violation metrics (§5.1);
//! * telemetry (the `argus_obs` crate) — opt-in job-lifecycle spans,
//!   the per-tick time-series registry and control-plane stage profiles,
//!   wired through `RunConfig::with_telemetry` (§12);
//! * [`system`] — the discrete-event simulation binding everything to the
//!   GPU cluster, vector DB, cache store and workload traces; its driver
//!   owns the planner, cache-plane, metrics and fleet stages as plain
//!   structs and calls them directly;
//! * [`policy`] — the names of Argus and every baseline the paper
//!   compares against (PAC, Proteus, Sommelier, NIRVANA, Clipper-HA/HT);
//!   [`pipeline_for`] maps each to its pipeline.
//!
//! # Example
//!
//! ```
//! use argus_core::{Policy, RunConfig};
//! use argus_workload::steady;
//!
//! let cfg = RunConfig::new(Policy::Argus, steady(100.0, 5)).with_seed(1);
//! let outcome = cfg.run();
//! assert!(outcome.totals.completed > 300);
//! assert!(outcome.totals.slo_violation_ratio() < 0.2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod actors;
pub mod cacheplane;
pub mod capacity;
pub mod cascade;
pub mod fleet;
pub mod metrics;
pub mod oda;
pub mod pipeline;
pub mod policy;
pub mod predictor;
pub mod scheduler;
#[cfg(test)]
mod select_reference;
pub mod solver;
pub mod switcher;
pub mod system;

pub use cacheplane::{CachePlane, InsertReceipt};
pub use capacity::{Batch1Model, BatchedModel, CapacityCtx, CapacityModel, TAIL_BUDGET_FRACTION};
pub use cascade::{CascadeConfig, CascadePolicy, CascadeStats, Discriminator, OracleDiscriminator};
pub use fleet::{
    on_demand_hourly, preemption_events, AutoscalePolicy, CostReport, FleetStats, MembershipSample,
    SpotPool,
};
pub use metrics::{LevelCacheCounts, MinuteRecord, PoolStats, RetrievalStats, RunTotals};
pub use oda::{emd_aligner, oda, Pasm, PasmError};
pub use pipeline::{
    pipeline_for, ArgusPolicy, CacheGate, ClipperPolicy, Dispatcher, InitialPlacement,
    LevelPlanner, NirvanaPolicy, PacPolicy, ProteusPolicy, RouteCtx, SelectCtx, ServingPolicy,
    SommelierPolicy, TickAction, WorkerSelector,
};
pub use policy::Policy;
pub use predictor::WorkloadDistributionPredictor;
pub use scheduler::PoolView;
pub use solver::{Allocation, AllocationProblem, LevelProfile, SolveCache};
pub use switcher::{StrategySwitcher, SwitcherState};
pub use system::{ClassifierUpdates, FaultEvent, RunConfig, RunOutcome, SystemSimulation};

// Telemetry vocabulary, re-exported so downstream code can configure
// `RunConfig::with_telemetry` and consume `RunOutcome::{timeline, spans,
// stage_profiles}` without naming the obs crate.
pub use argus_obs::{
    SpanEvent, SpanKind, SpanLog, StageCounters, StageProfile, TelemetryConfig, TickSample,
    Timeline,
};
