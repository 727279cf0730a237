//! The staged control plane.
//!
//! The control plane decomposes the former monolithic tick loop into
//! stages, each a plain struct owning exactly its own state, which the
//! driver calls directly:
//!
//! * [`planner`] — owns the Eq. 1 solver state (the
//!   [`crate::solver::SolveCache`]s) and answers allocation queries,
//!   solving heterogeneous pools one after another in pool order;
//! * [`cacheplane`] — owns the retrieval index (flat / LSH / sharded) and
//!   the [`argus_cachestore::NetworkModel`]: retrieval (and the one rule
//!   that decides what a fetch found), index inserts, network probes and
//!   the sharded plane's fault hooks;
//! * [`metrics`] — the run's one ledger: the per-minute roll-up, the
//!   run totals, the retrieval tallies, level-completion counts, the
//!   quality reservoir, per-pool outcomes, classifier-accuracy sampling
//!   and cascade verdicts, with one SLO test per completion, whose
//!   verdict it returns;
//! * [`fleet`] — owns the autoscale controller and the billed-membership
//!   cost integral;
//! * [`driver`] — the event pump: pops virtual-time events, with the
//!   trace's arrivals merged ahead of the heap, and drives the cluster,
//!   routing, the strategy switcher, the per-job state window and the
//!   stages. Rebuilds [`crate::system::SystemSimulation::run`] on top of
//!   the stages.
//!
//! # Determinism
//!
//! The simulation is one sequential control loop: the driver is the only
//! caller of every stage, so each stage runs its operations in exactly
//! the order the driver issues them — the old synchronous loop's call
//! order. Stage state (RNG draw sequences, f64 accumulation order, FIFO
//! evictions) is therefore bit-identical to the pre-stage implementation.
//! No stage reads the wall clock; virtual time travels in the arguments.
//!
//! Each stage counts its calls in an [`argus_obs::StageCounters`]
//! (`processed` per call, `replies` per call that returns a value) and
//! surrenders it at teardown for the §12 stage profiles.

pub(crate) mod cacheplane;
pub(crate) mod driver;
pub(crate) mod fleet;
pub(crate) mod metrics;
pub(crate) mod planner;
