//! # Argus — quality-aware high-throughput text-to-image inference serving
//!
//! A full-system reproduction of *"Argus: Quality-Aware High-Throughput
//! Text-to-Image Inference Serving System"* (ACM Middleware 2025) in pure
//! Rust, with every hardware/data dependency replaced by a calibrated
//! simulator (see `DESIGN.md` for the substitution map).
//!
//! This meta-crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `argus-core` | allocator (Eq. 1 solver), ODA/PASM, scheduler, strategy switcher, end-to-end simulation, baselines |
//! | [`models`] | `argus-models` | model catalog, latency/loading/batching/roofline models, AC levels |
//! | [`quality`] | `argus-quality` | PickScore oracle, degradation profiles, rater panel |
//! | [`classifier`] | `argus-classifier` | approximation-level predictor + drift detection |
//! | [`prompts`] | `argus-prompts` | synthetic DiffusionDB-like prompt stream |
//! | [`workload`] | `argus-workload` | Twitter/SysX/bursty/ramp traces, arrival processes |
//! | [`cluster`] | `argus-cluster` | GPU worker state machines |
//! | [`obs`] | `argus-obs` | telemetry: lifecycle spans, time-series registry, stage profiles, JSONL/Chrome-trace exporters |
//! | [`vdb`] | `argus-vdb` | vector index substrate |
//! | [`cachestore`] | `argus-cachestore` | retrieval network model (the cache store keeps no state) |
//! | [`embed`] | `argus-embed` | deterministic text embeddings |
//! | [`ilp`] | `argus-ilp` | simplex LP + branch-and-bound MILP |
//! | [`des`] | `argus-des` | discrete-event engine, RNG streams, statistics |
//!
//! # Quickstart
//!
//! ```
//! use argus::core::{Policy, RunConfig};
//! use argus::workload::twitter_like;
//!
//! // Serve a 30-minute Twitter-shaped trace with full Argus on 8×A100.
//! let outcome = RunConfig::new(Policy::Argus, twitter_like(42, 30))
//!     .with_seed(42)
//!     .run();
//! println!(
//!     "throughput {:.1} QPM, quality {:.2}, SLO violations {:.2}%",
//!     outcome.totals.mean_throughput_qpm(30.0),
//!     outcome.totals.effective_accuracy(),
//!     100.0 * outcome.totals.slo_violation_ratio(),
//! );
//! assert!(outcome.totals.completed > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use argus_cachestore as cachestore;
pub use argus_classifier as classifier;
pub use argus_cluster as cluster;
pub use argus_core as core;
pub use argus_des as des;
pub use argus_embed as embed;
pub use argus_ilp as ilp;
pub use argus_models as models;
pub use argus_obs as obs;
pub use argus_prompts as prompts;
pub use argus_quality as quality;
pub use argus_vdb as vdb;
pub use argus_workload as workload;
