//! The `CapacityModel` refactor's compatibility and correctness contract:
//!
//! * `Batch1Model` (the default) is **bit-identical to the pre-refactor
//!   solver constants** — pinned two ways: whole-run golden fingerprints
//!   captured on the pre-refactor tree for all seven policies (plus a
//!   heterogeneous fleet), and profile/solve parity against the legacy
//!   `peak = 60 / (t + overhead)` construction at W ∈ {8, 64, 128};
//! * per-pool-strategy and demand-re-split runs are bit-deterministic,
//!   and both features actually move their target metric on the scenarios
//!   they were built for (Fig. 5/fig16 mixed-fleet SLO recovery; fault-
//!   driven intra-tick saturation);
//! * `BatchedModel` capacity is monotone non-decreasing in the batch
//!   bound and never plans below batch-1 feasibility (property-tested);
//! * the satellite telemetry (per-pool stats, replica-write hop counters)
//!   is internally consistent.

use argus::cachestore::NetworkRegime;
use argus::core::{
    AllocationProblem, Batch1Model, BatchedModel, CapacityCtx, CapacityModel, FaultEvent,
    LevelProfile, Policy, RunConfig, RunOutcome,
};
use argus::models::{ApproxLevel, GpuArch, Strategy};
use argus::workload::{steady, twitter_like, Trace};
use proptest::prelude::*;

fn cfg(policy: Policy, trace: Trace, seed: u64) -> RunConfig {
    let mut c = RunConfig::new(policy, trace).with_seed(seed);
    c.classifier_train_size = 800;
    c
}

/// Whole-run fingerprint: every counter plus the bit patterns of the
/// float aggregates, so a single changed RNG draw or reordered float op
/// fails loudly.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    offered: u64,
    completed: u64,
    violations: u64,
    in_slo: u64,
    model_loads: u64,
    quality_bits: u64,
    relative_bits: u64,
    makespan_bits: u64,
    switches: (u64, u64),
}

fn fingerprint(out: &RunOutcome) -> Golden {
    Golden {
        offered: out.totals.offered,
        completed: out.totals.completed,
        violations: out.totals.violations,
        in_slo: out.totals.in_slo,
        model_loads: out.totals.model_loads,
        quality_bits: out.totals.quality_sum.to_bits(),
        relative_bits: out.totals.relative_quality_sum.to_bits(),
        makespan_bits: out.makespan_secs.to_bits(),
        switches: out.switches,
    }
}

/// Captured on the pre-refactor tree (PR 4 head) with
/// `twitter_like(11, 6)`, seed 11, `classifier_train_size = 800`.
fn pre_refactor_goldens() -> Vec<(&'static str, Golden)> {
    vec![
        (
            "Argus",
            Golden {
                offered: 609,
                completed: 609,
                violations: 234,
                in_slo: 375,
                model_loads: 8,
                quality_bits: 0x40bd510e9b2f72d6,
                relative_bits: 0x4076533a7c3778ed,
                makespan_bits: 0x4076fde2ad3e920c,
                switches: (0, 0),
            },
        ),
        (
            "PAC",
            Golden {
                offered: 609,
                completed: 609,
                violations: 228,
                in_slo: 381,
                model_loads: 8,
                quality_bits: 0x40bdd063cb76e8fe,
                relative_bits: 0x4076b31e87f961ab,
                makespan_bits: 0x407700f0e1b4bb5e,
                switches: (0, 0),
            },
        ),
        (
            "Proteus",
            Golden {
                offered: 609,
                completed: 609,
                violations: 45,
                in_slo: 564,
                model_loads: 19,
                quality_bits: 0x40c518b5c662950b,
                relative_bits: 0x40800d336c3ac72e,
                makespan_bits: 0x4076d6d01f31f46f,
                switches: (0, 0),
            },
        ),
        (
            "Sommelier",
            Golden {
                offered: 609,
                completed: 609,
                violations: 308,
                in_slo: 301,
                model_loads: 24,
                quality_bits: 0x40b8c1acc005c874,
                relative_bits: 0x4072d8622468d0eb,
                makespan_bits: 0x407a01f80dc33722,
                switches: (0, 0),
            },
        ),
        (
            "NIRVANA",
            Golden {
                offered: 609,
                completed: 609,
                violations: 151,
                in_slo: 458,
                model_loads: 8,
                quality_bits: 0x40c15f3bacc10f1b,
                relative_bits: 0x407a7199fe81a855,
                makespan_bits: 0x4077bc5b8fde2ef5,
                switches: (0, 0),
            },
        ),
        (
            "Clipper-HA",
            Golden {
                offered: 609,
                completed: 609,
                violations: 308,
                in_slo: 301,
                model_loads: 8,
                quality_bits: 0x40b8c1acc005c874,
                relative_bits: 0x4072d8622468d0eb,
                makespan_bits: 0x407a8e8827b6fe2e,
                switches: (0, 0),
            },
        ),
        (
            "Clipper-HT",
            Golden {
                offered: 609,
                completed: 609,
                violations: 0,
                in_slo: 609,
                model_loads: 8,
                quality_bits: 0x40c4573f0f8062bb,
                relative_bits: 0x407eefa0f45bd5a6,
                makespan_bits: 0x40769f86d938151a,
                switches: (0, 0),
            },
        ),
    ]
}

#[test]
fn batch1_default_runs_match_pre_refactor_goldens() {
    let trace = twitter_like(11, 6);
    for (policy, golden) in Policy::ALL.into_iter().zip(pre_refactor_goldens()) {
        assert_eq!(policy.name(), golden.0);
        let out = cfg(policy, trace.clone(), 11).run();
        assert_eq!(fingerprint(&out), golden.1, "{policy} diverged");
    }
}

#[test]
fn heterogeneous_batch1_run_matches_pre_refactor_golden() {
    let out = cfg(Policy::Argus, twitter_like(11, 6), 11)
        .with_heterogeneous_pools(vec![
            (GpuArch::A100, 4),
            (GpuArch::A10G, 2),
            (GpuArch::V100, 2),
        ])
        .run();
    let golden = Golden {
        offered: 609,
        completed: 609,
        violations: 195,
        in_slo: 414,
        model_loads: 8,
        quality_bits: 0x40bf61fbeb47f23b,
        relative_bits: 0x4077e6504ff74b53,
        makespan_bits: 0x4079862f901083dc,
        switches: (0, 0),
    };
    assert_eq!(fingerprint(&out), golden);
}

#[test]
fn explicit_batch1_model_is_the_default() {
    let trace = twitter_like(11, 6);
    for policy in [Policy::Argus, Policy::Proteus, Policy::ClipperHt] {
        let default = cfg(policy, trace.clone(), 11).run();
        let explicit = cfg(policy, trace.clone(), 11)
            .with_capacity_model(Batch1Model)
            .run();
        assert_eq!(
            fingerprint(&default),
            fingerprint(&explicit),
            "{policy}: explicit Batch1Model diverged from the default"
        );
    }
}

/// The pre-refactor profile construction, verbatim: `peak = 60 / (t +
/// retrieval overhead for AC)`.
fn legacy_profiles(ladder: &[ApproxLevel], gpu: GpuArch, overhead: f64) -> Vec<LevelProfile> {
    ladder
        .iter()
        .map(|&level| {
            let mut secs = level.compute_secs(gpu);
            if level.strategy() == Strategy::Ac {
                secs += overhead.max(0.0);
            }
            LevelProfile {
                level,
                quality: level.profiled_quality(),
                peak_qpm: 60.0 / secs,
            }
        })
        .collect()
}

#[test]
fn batch1_profiles_and_solves_match_the_legacy_solver_at_scale() {
    for strategy in [Strategy::Ac, Strategy::Sm] {
        let ladder = ApproxLevel::ladder(strategy);
        for gpu in [GpuArch::A100, GpuArch::V100] {
            let overhead = if strategy == Strategy::Ac { 0.02 } else { 0.0 };
            for workers in [8usize, 64, 128] {
                for demand in [0.0, 120.0, 900.0, 2600.0] {
                    let legacy = AllocationProblem {
                        levels: legacy_profiles(ladder, gpu, overhead),
                        workers,
                        demand_qpm: demand,
                    };
                    let modelled = AllocationProblem::from_capacity_model(
                        &Batch1Model,
                        ladder,
                        gpu,
                        &CapacityCtx::batch1(overhead),
                        workers,
                        demand,
                    );
                    assert_eq!(
                        legacy, modelled,
                        "{strategy} W={workers} {gpu:?}: profiles diverged"
                    );
                    // Same problem, bit for bit, therefore the same
                    // allocation bit for bit — still worth pinning
                    // through the solver at every scale tier (exact
                    // enumeration at 8, branch-and-bound at 64/128).
                    assert_eq!(
                        legacy.solve(),
                        modelled.solve(),
                        "{strategy} W={workers} demand={demand}: allocations diverged"
                    );
                }
            }
        }
    }
}

fn mixed_fleet() -> Vec<(GpuArch, usize)> {
    vec![(GpuArch::A100, 4), (GpuArch::A10G, 2), (GpuArch::V100, 2)]
}

fn per_pool_cfg(seed: u64) -> RunConfig {
    cfg(
        Policy::Argus,
        twitter_like(7, 30).normalize_to(60.0, 200.0),
        seed,
    )
    .with_heterogeneous_pools(mixed_fleet())
    .with_pool_strategy(GpuArch::V100, Strategy::Sm)
    .with_pool_strategy(GpuArch::A10G, Strategy::Sm)
}

#[test]
fn per_pool_strategy_runs_are_bit_deterministic() {
    let a = per_pool_cfg(7).run();
    let b = per_pool_cfg(7).run();
    assert_eq!(a.totals, b.totals);
    assert_eq!(a.minutes, b.minutes);
    assert_eq!(a.level_completions, b.level_completions);
    assert_eq!(a.quality_samples, b.quality_samples);
    assert_eq!(a.pools, b.pools);
}

/// What a pinned-pool run routed: the totals (floats as bits), the
/// completions per level, each pool's tallies and the switch counts. The
/// two goldens below were captured while routing still rebuilt a
/// per-architecture ladder view at every solve; the pinned-ladder table
/// that replaced it routes the same.
fn routing_fingerprint(out: &RunOutcome) -> String {
    let t = &out.totals;
    let mut s = format!(
        "totals {} {} {} {} {} {:#x} {:#x}\nswitches {:?}\n",
        t.offered,
        t.completed,
        t.violations,
        t.in_slo,
        t.model_loads,
        t.quality_sum.to_bits(),
        t.relative_quality_sum.to_bits(),
        out.switches
    );
    for (level, n) in &out.level_completions {
        s += &format!("{level} {n}\n");
    }
    for p in &out.pools {
        s += &format!(
            "{} {} {} {} {:#x}\n",
            p.gpu,
            p.workers,
            p.completions,
            p.violations,
            p.mean_allocated_workers.to_bits()
        );
    }
    s
}

#[test]
fn per_pool_strategy_run_matches_its_routing_golden() {
    let out = per_pool_cfg(7).run();
    assert_eq!(
        routing_fingerprint(&out),
        "totals 3470 3470 282 3188 29 0x40ed12e827e90257 0x40a628dab3abec0e\n\
         switches (0, 0)\n\
         AC/K=0 261\nAC/K=5 111\nAC/K=10 212\nAC/K=15 332\nAC/K=20 68\nAC/K=25 1325\n\
         SM/SD-XL 41\nSM/SD-2.0 37\nSM/SD-1.5 25\nSM/Small-SD 167\nSM/Tiny-SD 891\n\
         A100 4 2309 187 0x4010000000000000\n\
         A10G 2 633 51 0x4000000000000000\n\
         V100 2 528 44 0x4000000000000000\n"
    );
}

/// A mixed fleet with only V100 pinned to SM, whose network outage
/// switches the unpinned pools AC→SM at minute 8 and back after 18.
fn pinned_switch_cfg() -> RunConfig {
    cfg(Policy::Argus, steady(100.0, 26), 13)
        .with_heterogeneous_pools(mixed_fleet())
        .with_pool_strategy(GpuArch::V100, Strategy::Sm)
        .with_network_events(vec![
            (8.0, NetworkRegime::Outage),
            (18.0, NetworkRegime::Normal),
        ])
}

#[test]
fn a_pinned_pool_rides_through_a_strategy_switch_on_its_routing_golden() {
    let out = pinned_switch_cfg().run();
    assert!(
        out.switches.0 > 0 && out.switches.1 > 0,
        "{:?}",
        out.switches
    );
    assert_eq!(
        routing_fingerprint(&out),
        "totals 2643 2643 0 2643 36 0x40e88e37d93b341b 0x40a2b250808ed889\n\
         switches (1, 1)\n\
         AC/K=0 12\nAC/K=5 40\nAC/K=10 266\nAC/K=15 548\nAC/K=20 54\nAC/K=25 359\n\
         SM/SD-XL 216\nSM/SD-2.0 19\nSM/SD-1.5 13\nSM/Small-SD 266\nSM/Tiny-SD 850\n\
         A100 4 1830 0 0x4010000000000000\n\
         A10G 2 396 0 0x4000000000000000\n\
         V100 2 417 0 0x4000000000000000\n"
    );
}

#[test]
fn per_pool_strategies_serve_both_ladders_and_cut_violations() {
    // Fig. 5 / fig16: AC's base model is disproportionately slow on
    // V100/A10G, so AC-everywhere pays SLO violations at diurnal peaks
    // that SM-pinning the old pools recovers.
    let ac_everywhere = cfg(
        Policy::Argus,
        twitter_like(7, 30).normalize_to(60.0, 200.0),
        7,
    )
    .with_heterogeneous_pools(mixed_fleet())
    .run();
    let per_pool = per_pool_cfg(7).run();
    assert_eq!(
        ac_everywhere.totals.completed, per_pool.totals.completed,
        "both configurations must serve the full trace"
    );
    assert!(
        per_pool.totals.slo_violation_ratio() < 0.5 * ac_everywhere.totals.slo_violation_ratio(),
        "per-pool strategies should at least halve peak violations: {:.3} vs {:.3}",
        per_pool.totals.slo_violation_ratio(),
        ac_everywhere.totals.slo_violation_ratio()
    );
    // Both strategies actually executed: AC levels on the A100 pool, SM
    // variants on the pinned pools.
    let ac_jobs: u64 = per_pool
        .level_completions
        .iter()
        .filter(|(l, _)| l.strategy() == Strategy::Ac)
        .map(|&(_, c)| c)
        .sum();
    let sm_jobs: u64 = per_pool
        .level_completions
        .iter()
        .filter(|(l, _)| l.strategy() == Strategy::Sm)
        .map(|&(_, c)| c)
        .sum();
    assert!(ac_jobs > 500, "AC pool starved: {ac_jobs}");
    assert!(sm_jobs > 500, "pinned SM pools starved: {sm_jobs}");
}

fn resplit_cfg(seed: u64, resplit: bool) -> RunConfig {
    let mut c = cfg(Policy::Argus, steady(100.0, 16), seed)
        .with_heterogeneous_pools(mixed_fleet())
        .with_faults(vec![
            FaultEvent::WorkerFail {
                at_minute: 5.2,
                workers: vec![0, 1, 2],
            },
            FaultEvent::WorkerRecover {
                at_minute: 9.2,
                workers: vec![0, 1, 2],
            },
        ]);
    if resplit {
        c = c.with_demand_resplit();
    }
    c
}

#[test]
fn demand_resplit_runs_are_bit_deterministic() {
    let a = resplit_cfg(3, true).run();
    let b = resplit_cfg(3, true).run();
    assert!(a.demand_resplits > 0, "re-split never fired");
    assert_eq!(a.demand_resplits, b.demand_resplits);
    assert_eq!(a.totals, b.totals);
    assert_eq!(a.minutes, b.minutes);
    assert_eq!(a.level_completions, b.level_completions);
    assert_eq!(a.quality_samples, b.quality_samples);
    assert_eq!(a.pools, b.pools);
}

#[test]
fn demand_resplit_recovers_mid_minute_fault_violations() {
    // A fault 12 s into minute 5 drowns the A100 pool intra-tick; without
    // re-splitting the other pools keep serving their stale (now too
    // slow) plans until the next tick and violations pile up.
    let plain = resplit_cfg(3, false).run();
    let resplit = resplit_cfg(3, true).run();
    assert_eq!(plain.demand_resplits, 0);
    assert_eq!(plain.totals.completed, resplit.totals.completed);
    assert!(
        resplit.totals.slo_violation_ratio() < 0.75 * plain.totals.slo_violation_ratio(),
        "re-split should recover fault-window violations: {:.3} vs {:.3}",
        resplit.totals.slo_violation_ratio(),
        plain.totals.slo_violation_ratio()
    );
}

#[test]
fn pool_strategy_override_is_inert_for_non_solver_policies() {
    // Per-worker and static policies never reallocate, so a pool pin
    // must not perturb routing (their pinned-ladder table is empty).
    for policy in [Policy::ClipperHa, Policy::Nirvana, Policy::Sommelier] {
        let base = cfg(policy, steady(90.0, 6), 4)
            .with_heterogeneous_pools(vec![(GpuArch::A100, 4), (GpuArch::V100, 2)])
            .run();
        let pinned = cfg(policy, steady(90.0, 6), 4)
            .with_heterogeneous_pools(vec![(GpuArch::A100, 4), (GpuArch::V100, 2)])
            .with_pool_strategy(GpuArch::V100, Strategy::Sm)
            .run();
        assert_eq!(base.totals, pinned.totals, "{policy}: override not inert");
        assert_eq!(base.level_completions, pinned.level_completions, "{policy}");
    }
}

#[test]
fn pool_stats_are_consistent_with_run_totals() {
    let out = per_pool_cfg(7).run();
    assert_eq!(out.pools.len(), 3);
    let pool_completions: u64 = out.pools.iter().map(|p| p.completions).sum();
    assert_eq!(pool_completions, out.totals.completed);
    let pool_violations: u64 = out.pools.iter().map(|p| p.violations).sum();
    // Lost jobs count in the run totals but belong to no pool.
    assert!(pool_violations <= out.totals.violations);
    for p in &out.pools {
        assert!(p.completions > 0, "{:?} pool idle", p.gpu);
        assert!(p.mean_allocated_workers > 0.0);
        assert!(p.mean_allocated_workers <= p.workers as f64 + 1e-9);
        assert!(p.violation_ratio() <= 1.0);
    }
}

#[test]
fn a_repeated_architecture_is_reported_as_one_pool() {
    // Two A100 pools make one A100 fleet of eight workers: one entry,
    // whose completions are the run's, not one copy per listing.
    let out = cfg(Policy::Argus, steady(90.0, 6), 13)
        .with_heterogeneous_pools(vec![(GpuArch::A100, 4), (GpuArch::A100, 4)])
        .run();
    let pools: Vec<(GpuArch, usize)> = out.pools.iter().map(|p| (p.gpu, p.workers)).collect();
    assert_eq!(pools, [(GpuArch::A100, 8)]);
    let pool_completions: u64 = out.pools.iter().map(|p| p.completions).sum();
    assert_eq!(pool_completions, out.totals.completed);
    assert!(out.totals.completed > 0);
}

#[test]
fn replica_write_hops_follow_the_replication_factor() {
    let sharded = cfg(Policy::Argus, twitter_like(5, 6), 5)
        .with_sharded_cache(4, 2)
        .run();
    let r = &sharded.retrieval;
    assert!(r.inserts > 0);
    // No faults: every insert writes all R = 2 replicas…
    assert_eq!(r.replica_writes, 2 * r.inserts);
    // …one copy may land on the producing worker (free), the rest hop.
    assert!(r.remote_write_hops < r.replica_writes);
    assert!(r.remote_write_hops >= r.inserts);

    // The monolithic index is off-cluster: every insert is one remote
    // write, and (1, 1) sharding is the same external deployment.
    let mono = cfg(Policy::Argus, twitter_like(5, 6), 5).run();
    assert_eq!(mono.retrieval.replica_writes, mono.retrieval.inserts);
    assert_eq!(mono.retrieval.remote_write_hops, mono.retrieval.inserts);
    let external = cfg(Policy::Argus, twitter_like(5, 6), 5)
        .with_sharded_cache(1, 1)
        .run();
    assert_eq!(
        external.retrieval.remote_write_hops,
        external.retrieval.inserts
    );
}

fn level_at(strategy: Strategy, idx: usize) -> ApproxLevel {
    ApproxLevel::ladder(strategy)[idx]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `BatchedModel` peak capacity is monotone non-decreasing in the
    /// batch bound, for every rung, architecture and SLO.
    #[test]
    fn prop_batched_capacity_monotone_in_batch_bound(
        strategy_ac in 0usize..2,
        idx in 0usize..6,
        gpu_idx in 0usize..3,
        slo in 5.0f64..40.0,
        overhead in 0.0f64..0.2,
        b_lo in 1u32..16,
        b_hi in 1u32..16,
    ) {
        let strategy = if strategy_ac == 0 { Strategy::Ac } else { Strategy::Sm };
        let level = level_at(strategy, idx);
        let gpu = [GpuArch::A100, GpuArch::A10G, GpuArch::V100][gpu_idx];
        let (lo, hi) = (b_lo.min(b_hi), b_lo.max(b_hi));
        let ctx = |b| CapacityCtx { max_batch: b, slo_secs: slo, retrieval_overhead_secs: overhead, escalation: None };
        let p_lo = BatchedModel.peak_qpm(level, gpu, &ctx(lo));
        let p_hi = BatchedModel.peak_qpm(level, gpu, &ctx(hi));
        prop_assert!(p_lo.is_finite() && p_lo > 0.0);
        prop_assert!(p_hi + 1e-9 >= p_lo, "{level} on {gpu:?}: B {lo}→{hi} lost capacity");
        // Never below batch-1 feasibility.
        let p1 = Batch1Model.peak_qpm(level, gpu, &ctx(1));
        prop_assert!(p_lo + 1e-9 >= p1, "{level}: batched peak below batch-1");
    }

    /// A batching-aware problem never plans below batch-1 feasibility:
    /// its capacity and served load dominate the batch-1 problem's.
    #[test]
    fn prop_batched_problem_dominates_batch1(
        workers in 1usize..24,
        demand in 0.0f64..600.0,
        max_batch in 1u32..12,
        slo in 8.0f64..30.0,
    ) {
        let ladder = ApproxLevel::ladder(Strategy::Sm);
        let ctx = CapacityCtx { max_batch, slo_secs: slo, retrieval_overhead_secs: 0.0, escalation: None };
        let b1 = AllocationProblem::from_capacity_model(
            &Batch1Model, ladder, GpuArch::A100, &ctx, workers, demand);
        let batched = AllocationProblem::from_capacity_model(
            &BatchedModel, ladder, GpuArch::A100, &ctx, workers, demand);
        prop_assert!(batched.max_capacity_qpm() + 1e-9 >= b1.max_capacity_qpm());
        let served_b1 = b1.solve().served_qpm;
        let served_batched = batched.solve().served_qpm;
        prop_assert!(served_batched + 1e-6 >= served_b1,
            "batched plan served less: {served_batched} < {served_b1}");
    }
}
