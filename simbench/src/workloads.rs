//! The four benchmark workloads.
//!
//! Each workload is a complete [`RunConfig`]: a per-minute demand shape, a
//! fleet and the features switched on. The demand *shape* of every
//! workload is fixed (a constant shape seed), so every seed offers about
//! the same load; the benchmark's `--seed` drives everything the run draws
//! from it — the Poisson arrival instants, the prompt stream, classifier
//! training, the quality oracle, routing, service jitter, the preemption
//! storm's victims and the cascade discriminator. Arrivals are open-loop in
//! simulated time, so queues grow under saturation.
//!
//! README.md in this directory records why each workload exists and which
//! layers it loads or bypasses.

use argus::cachestore::NetworkRegime;
use argus::core::{
    preemption_events, AutoscalePolicy, BatchedModel, CascadeConfig, FaultEvent, Policy, RunConfig,
    TelemetryConfig,
};
use argus::models::GpuArch;
use argus::prompts::DriftSchedule;
use argus::workload::{preemption_storm, sysx_like, twitter_like, Trace};

/// Workload names in the order `--workload all` runs them.
pub const NAMES: [&str; 4] = ["steady-256", "testbed-8", "elastic-hetero", "cascade-80"];

/// Seed of every workload's per-minute demand shape.
const SHAPE_SEED: u64 = 42;

/// How much of a workload to run: the benchmark's full size, or a short
/// slice of the same configuration for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured size.
    Full,
    /// A few simulated minutes of the same configuration.
    #[cfg_attr(not(test), allow(dead_code))]
    Reduced,
}

impl Scale {
    fn minutes(self, full: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Reduced => (full / 12).max(12),
        }
    }
}

/// The workload's configuration at `seed`, or `None` for an unknown name.
pub fn config(name: &str, seed: u64, scale: Scale) -> Option<RunConfig> {
    let cfg = match name {
        "steady-256" => steady_256(seed, scale),
        "testbed-8" => testbed_8(seed, scale),
        "elastic-hetero" => elastic_hetero(seed, scale),
        "cascade-80" => cascade_80(seed, scale),
        _ => return None,
    };
    Some(cfg)
}

/// The s62 control-plane configuration (256×A100, shared LSH retrieval,
/// retraining off, 800-prompt classifier) on the Twitter-like shape at
/// ×10 demand.
fn steady_256(seed: u64, scale: Scale) -> RunConfig {
    let trace = twitter_like(SHAPE_SEED, scale.minutes(120)).scale(10.0);
    let mut cfg = RunConfig::new(Policy::Argus, trace)
        .with_seed(seed)
        .with_workers(256)
        .with_lsh_cache()
        .without_retraining();
    cfg.classifier_train_size = 800;
    cfg
}

/// The paper testbed with default Argus settings (8×A100, exact flat
/// retrieval, drift-triggered retraining, 6000-prompt classifier), plus
/// prompt drift from a third of the stream and a 30-minute congested
/// retrieval window.
fn testbed_8(seed: u64, scale: Scale) -> RunConfig {
    let minutes = scale.minutes(360);
    let trace = twitter_like(SHAPE_SEED, minutes);
    let jobs = trace.total_queries() as u64;
    let congested_from = minutes as f64 * 0.5;
    RunConfig::new(Policy::Argus, trace)
        .with_seed(seed)
        .with_drift(DriftSchedule {
            start_at: jobs / 3,
            ramp: jobs / 6,
            max_fraction: 0.65,
        })
        .with_network_events(vec![
            (congested_from, NetworkRegime::Congested),
            (congested_from + 30.0, NetworkRegime::Normal),
        ])
}

/// A heterogeneous elastic fleet with everything on: V100×8, A10G×8 and
/// A100×16 on demand plus 8 spot A10G; a sharded 8×2 cache plane; demand
/// re-split; batching 4 planned by the batching-aware capacity model; the
/// autoscaler; a worker failure and recovery; a warned preemption storm on
/// the spot pool; full in-memory telemetry. Retraining is off.
fn elastic_hetero(seed: u64, scale: Scale) -> RunConfig {
    let minutes = scale.minutes(120);
    let trace: Trace = sysx_like(SHAPE_SEED, minutes).scale(6.0);
    let on_demand = vec![(GpuArch::V100, 8), (GpuArch::A10G, 8), (GpuArch::A100, 16)];
    let spot_start: usize = on_demand.iter().map(|&(_, n)| n).sum();
    let m = minutes as f64;
    let mut faults = vec![
        FaultEvent::WorkerFail {
            at_minute: m * 0.25,
            workers: vec![0, 8, 16],
        },
        FaultEvent::WorkerRecover {
            at_minute: m * 0.25 + 20.0,
            workers: vec![0, 8, 16],
        },
    ];
    let storm = preemption_storm(seed, spot_start, 8, 0.5, m * 0.6);
    faults.extend(preemption_events(&storm, 30.0));
    let mut autoscale = AutoscalePolicy::default()
        .with_step(2)
        .with_cooldown(120.0)
        .with_bounds(GpuArch::A100, 8, 32);
    autoscale.scale_out_after = 1;
    autoscale.scale_in_after = 3;
    autoscale.idle_utilization = 0.6;
    let mut cfg = RunConfig::new(Policy::Argus, trace)
        .with_seed(seed)
        .with_heterogeneous_pools(on_demand)
        .with_spot_pool(GpuArch::A10G, 8, 0.6)
        .with_sharded_cache(8, 2)
        .with_demand_resplit()
        .with_batching(4)
        .with_capacity_model(BatchedModel)
        .with_autoscaler(autoscale)
        .with_faults(faults)
        .with_telemetry(TelemetryConfig::full())
        .without_retraining();
    cfg.classifier_train_size = 800;
    cfg
}

/// A priced DiffServe-style cascade on 80×A100 over the Twitter-like shape
/// normalised to 45–125 QPM and scaled ×10. No classifier, no embedding,
/// no retrieval: per-job cost is Eq. 3, the discriminator and the event
/// pump.
fn cascade_80(seed: u64, scale: Scale) -> RunConfig {
    let trace = twitter_like(SHAPE_SEED, scale.minutes(480))
        .normalize_to(45.0, 125.0)
        .scale(10.0);
    let mut cfg = RunConfig::new(Policy::Argus, trace)
        .with_seed(seed)
        .with_workers(80)
        .with_cascade(CascadeConfig::new());
    cfg.classifier_train_size = 800;
    cfg
}
