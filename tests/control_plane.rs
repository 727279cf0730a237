//! The staged control plane's determinism and bugfix contract:
//!
//! * a seeded run through the planner, cache-plane, metrics and fleet
//!   stages is **bit-identical across repeats**, including the retrieval
//!   plane's counters, on every retrieval plane (flat scan, shared LSH,
//!   sharded with replication);
//! * batch-1 default runs reproduce the golden fingerprint captured on the
//!   synchronous loop before the stage decomposition, i.e. the
//!   decomposition changed the code's structure and nothing else;
//! * the mid-minute re-split fires on a **retrieval-overhead spike** (a
//!   degraded cache plane inflating AC service times), not just on the
//!   backlog drain-rate trigger it shipped with, and the re-split
//!   measurably recovers SLO violations on the spike window.

use argus::cachestore::NetworkRegime;
use argus::core::{Policy, RunConfig, RunOutcome};
use argus::models::{GpuArch, Strategy};
use argus::workload::{steady, twitter_like};

fn cfg(policy: Policy, trace: argus::workload::Trace, seed: u64) -> RunConfig {
    let mut c = RunConfig::new(policy, trace).with_seed(seed);
    c.classifier_train_size = 800;
    c
}

/// Full-outcome equality: every counter, every per-minute record, every
/// bit of the float aggregates.
fn assert_identical(a: &RunOutcome, b: &RunOutcome, what: &str) {
    assert_eq!(a.totals, b.totals, "{what}: totals diverged");
    assert_eq!(a.minutes, b.minutes, "{what}: minute records diverged");
    assert_eq!(
        a.level_completions, b.level_completions,
        "{what}: level completions diverged"
    );
    assert_eq!(
        a.quality_samples, b.quality_samples,
        "{what}: quality samples diverged"
    );
    assert_eq!(a.pools, b.pools, "{what}: pool stats diverged");
    assert_eq!(
        a.retrieval.per_level, b.retrieval.per_level,
        "{what}: retrieval outcomes diverged"
    );
    assert_eq!(
        (
            a.retrieval.lookups,
            a.retrieval.inserts,
            a.retrieval.replica_writes
        ),
        (
            b.retrieval.lookups,
            b.retrieval.inserts,
            b.retrieval.replica_writes
        ),
        "{what}: retrieval counters diverged"
    );
    assert_eq!(
        a.retrieval.mean_latency.to_bits(),
        b.retrieval.mean_latency.to_bits(),
        "{what}: retrieval latency aggregation diverged"
    );
    assert_eq!(a.switches, b.switches, "{what}: switch counts diverged");
    assert_eq!(
        a.makespan_secs.to_bits(),
        b.makespan_secs.to_bits(),
        "{what}: makespan diverged"
    );
}

#[test]
fn actor_plane_seeded_repeats_are_bit_identical() {
    // One configuration per retrieval plane, so every cache-stage variant
    // (flat scan, shared LSH, sharded with replication) repeats
    // deterministically.
    let trace = twitter_like(19, 8);
    type Wire = fn(RunConfig) -> RunConfig;
    let variants: [(&str, Wire); 3] = [
        ("flat", |c| c),
        ("lsh", RunConfig::with_lsh_cache),
        ("sharded", |c| c.with_sharded_cache(4, 2)),
    ];
    for (name, wire) in variants {
        let a = wire(cfg(Policy::Argus, trace.clone(), 19)).run();
        let b = wire(cfg(Policy::Argus, trace.clone(), 19)).run();
        assert_identical(&a, &b, name);
    }
}

#[test]
fn actor_plane_reproduces_the_pre_actor_golden() {
    // The Argus golden from `tests/capacity_model.rs`, captured on the
    // synchronous tick loop before the stage decomposition. Asserted
    // here independently: splitting the loop into planner, cache-plane,
    // metrics and fleet stages must not move a single bit of the
    // observable outcome.
    let out = cfg(Policy::Argus, twitter_like(11, 6), 11).run();
    assert_eq!(out.totals.offered, 609);
    assert_eq!(out.totals.completed, 609);
    assert_eq!(out.totals.violations, 234);
    assert_eq!(out.totals.in_slo, 375);
    assert_eq!(out.totals.model_loads, 8);
    assert_eq!(out.totals.quality_sum.to_bits(), 0x40bd510e9b2f72d6);
    assert_eq!(
        out.totals.relative_quality_sum.to_bits(),
        0x4076533a7c3778ed
    );
    assert_eq!(out.makespan_secs.to_bits(), 0x4076fde2ad3e920c);
}

/// A mixed fleet with the V100 pool pinned to SM: the AC (A100) pool pays
/// retrieval on every job, the SM pool does not — so a cache-plane
/// degradation inflates service times on exactly one pool while the
/// other keeps its planned capacity. Congestion starts 15 s into
/// minute 5 — after the allocator priced retrieval at the healthy EWMA —
/// and lifts at minute 12.
fn spike_cfg(qpm: f64, congested: bool, resplit: bool) -> RunConfig {
    let mut c = cfg(Policy::Argus, steady(qpm, 18), 21)
        .with_heterogeneous_pools(vec![(GpuArch::A100, 5), (GpuArch::V100, 3)])
        .with_pool_strategy(GpuArch::V100, Strategy::Sm)
        // Pin the strategy so the switcher cannot leave AC mode — the
        // spike must be absorbed by re-splitting, not by abandoning the
        // cache (which is the §4.6 escape hatch, tested elsewhere).
        .without_strategy_switch();
    if congested {
        c = c.with_network_events(vec![
            (5.25, NetworkRegime::Congested),
            (12.0, NetworkRegime::Normal),
        ]);
    }
    if resplit {
        c = c.with_demand_resplit();
    }
    c
}

#[test]
fn retrieval_spike_triggers_the_midminute_resplit() {
    // 130 QPM sits inside the fleet's healthy envelope (the no-congestion
    // control below finishes with zero violations and never re-splits),
    // so every re-split the congested run fires is attributable to the
    // retrieval-overhead trigger, not the backlog drain-rate one.
    let spiked = spike_cfg(130.0, true, true).run();
    assert!(
        spiked.demand_resplits > 0,
        "a congested cache plane must trigger the overhead-spike re-split"
    );
    let healthy = spike_cfg(130.0, false, true).run();
    assert_eq!(
        healthy.demand_resplits, 0,
        "healthy-network run must not re-split"
    );
    assert_eq!(
        healthy.totals.violations, 0,
        "control must hold the SLO without congestion"
    );
}

#[test]
fn retrieval_spike_resplit_recovers_violations() {
    // 115 QPM leaves the SM pool real headroom during the congestion
    // window, so re-deriving the split at the spiked EWMA shifts load off
    // the degraded AC pool instead of merely re-solving a saturated plan.
    let plain = spike_cfg(115.0, true, false).run();
    let resplit = spike_cfg(115.0, true, true).run();
    assert_eq!(plain.demand_resplits, 0);
    assert!(resplit.demand_resplits > 0);
    assert_eq!(
        plain.totals.completed, resplit.totals.completed,
        "both runs must serve the full trace"
    );
    assert!(
        resplit.totals.slo_violation_ratio() < 0.75 * plain.totals.slo_violation_ratio(),
        "shifting load off the degraded AC pool should recover violations: \
         {:.3} (re-split) vs {:.3} (stale plan)",
        resplit.totals.slo_violation_ratio(),
        plain.totals.slo_violation_ratio()
    );
}

#[test]
fn resplit_runs_with_spike_trigger_are_bit_deterministic() {
    let a = spike_cfg(130.0, true, true).run();
    let b = spike_cfg(130.0, true, true).run();
    assert_eq!(a.demand_resplits, b.demand_resplits);
    assert_identical(&a, &b, "spike re-split");
}
