//! The elastic-fleet subsystem's contract (autoscaling, spot pools,
//! cost accounting — DESIGN.md §11):
//!
//! * the default path (no autoscaler, no spot pools) is **bit-identical
//!   to the pre-fleet tree**, pinned by the PR 7 golden fingerprint;
//! * autoscaled and preemption-storm runs are bit-deterministic;
//! * scale-in never evicts a worker with in-flight jobs (the driver
//!   asserts it; these runs exercise the assert);
//! * the `CostReport` reconciles with the membership telemetry: the
//!   dollar totals re-derived from the `MembershipSample` step function
//!   match the stage's own integral;
//! * the workspace still lints clean under `argus_lint` (D1–D5).

use argus::core::{
    on_demand_hourly, preemption_events, AutoscalePolicy, Policy, RunConfig, RunOutcome,
};
use argus::models::GpuArch;
use argus::workload::{preemption_storm, twitter_like, Trace};

fn cfg(policy: Policy, trace: Trace, seed: u64) -> RunConfig {
    let mut c = RunConfig::new(policy, trace).with_seed(seed);
    c.classifier_train_size = 800;
    c
}

/// A surge-then-trough trace: 12 minutes far above the static fleet's
/// capacity, then 18 minutes of near-idle — enough sustained pressure to
/// scale out and enough sustained idleness to scale back in.
fn surge_trace() -> Trace {
    let mut qpm = vec![260.0; 12];
    qpm.extend(std::iter::repeat_n(8.0, 18));
    Trace::from_qpm(qpm)
}

fn autoscaled_cfg(seed: u64) -> RunConfig {
    cfg(Policy::Argus, surge_trace(), seed).with_autoscaler(AutoscalePolicy::default())
}

/// A spot pool losing 3 of its 4 workers inside one minute, with a 30 s
/// reclaim warning.
fn storm_cfg(seed: u64) -> RunConfig {
    let schedule = preemption_storm(seed, 8, 4, 0.75, 10.0);
    cfg(Policy::Argus, twitter_like(seed, 24), seed)
        .with_spot_pool(GpuArch::A10G, 4, 0.6)
        .with_faults(preemption_events(&schedule, 30.0))
}

#[test]
fn default_path_matches_pr7_golden() {
    // The Argus golden from `tests/capacity_model.rs`, captured before
    // the fleet subsystem existed: the fleet stage's membership telemetry
    // must not perturb a single RNG draw or event on the default path.
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
    // Fleet telemetry exists but records a static fleet.
    assert_eq!(out.fleet.scale_out_events, 0);
    assert_eq!(out.fleet.scale_in_events, 0);
    assert_eq!(out.fleet.preemptions_ridden + out.fleet.preemptions_lost, 0);
    assert_eq!(out.fleet.peak_workers, 8);
    // A static 8×A100 fleet bills flat on-demand for the whole run.
    let expected = 8.0 * on_demand_hourly(GpuArch::A100) * out.makespan_secs / 3600.0;
    assert!(
        (out.cost.total_dollars - expected).abs() < 1e-9 * expected,
        "static-fleet cost {} vs {}",
        out.cost.total_dollars,
        expected
    );
    assert_eq!(out.cost.spot_dollars, 0.0);
}

fn assert_bit_identical(a: &RunOutcome, b: &RunOutcome, label: &str) {
    assert_eq!(a.totals, b.totals, "{label}: totals");
    assert_eq!(a.minutes, b.minutes, "{label}: minutes");
    assert_eq!(a.level_completions, b.level_completions, "{label}: levels");
    assert_eq!(a.fleet, b.fleet, "{label}: fleet stats");
    assert_eq!(a.cost, b.cost, "{label}: cost report");
}

#[test]
fn autoscaled_runs_are_bit_deterministic_and_actually_scale() {
    let a = autoscaled_cfg(17).run();
    let b = autoscaled_cfg(17).run();
    assert_bit_identical(&a, &b, "autoscaled");
    // The surge drives scale-out, the trough drives scale-in; a run where
    // neither fires would not exercise the subsystem (or the driver's
    // scale-in-never-evicts-in-flight assertion).
    assert!(a.fleet.scale_out_events > 0, "{:?}", a.fleet);
    assert!(a.fleet.scale_in_events > 0, "{:?}", a.fleet);
    assert!(a.fleet.workers_added > 0);
    assert!(a.fleet.workers_retired > 0);
    assert!(a.fleet.peak_workers > 8, "never grew: {:?}", a.fleet);
    // Different seeds still diverge (the fleet plane must not have
    // collapsed the run into something seed-independent).
    let c = autoscaled_cfg(18).run();
    assert_ne!(a.totals, c.totals);
}

#[test]
fn autoscale_respects_configured_bounds() {
    let bounded = cfg(Policy::Argus, surge_trace(), 17)
        .with_autoscaler(AutoscalePolicy::default().with_bounds(GpuArch::A100, 8, 10))
        .run();
    assert!(bounded.fleet.peak_workers <= 10, "{:?}", bounded.fleet);
    // With min == the starting size, scale-in can never shrink below it:
    // retired workers never exceed added ones.
    assert!(bounded.fleet.workers_retired <= bounded.fleet.workers_added);
}

#[test]
fn spot_storm_runs_are_bit_deterministic_and_count_preemptions() {
    let a = storm_cfg(21).run();
    let b = storm_cfg(21).run();
    assert_bit_identical(&a, &b, "storm");
    // 3 of the 4 spot workers were reclaimed.
    assert_eq!(a.fleet.preemptions_ridden + a.fleet.preemptions_lost, 3);
    assert!(a.cost.spot_dollars > 0.0, "{:?}", a.cost);
    assert!(a.cost.on_demand_dollars > 0.0);
    // The spot pool shows up in the per-architecture GPU-minute split.
    let a10g = a
        .cost
        .gpu_minutes
        .iter()
        .find(|(g, _, _)| *g == GpuArch::A10G)
        .expect("A10G pool missing from gpu_minutes");
    assert!(a10g.2 > 0.0, "no spot minutes: {:?}", a.cost.gpu_minutes);
    assert_eq!(a10g.1, 0.0, "A10G pool is spot-only: {:?}", a.cost);
}

/// Re-derives the dollar and GPU-minute integrals from the membership
/// step function and checks them against the stage's own accounting.
fn reconcile(out: &RunOutcome, label: &str) {
    let samples = &out.fleet.samples;
    assert!(!samples.is_empty(), "{label}: no membership samples");
    assert_eq!(samples[0].t_secs, 0.0, "{label}: first sample not at t=0");
    let mut dollars = 0.0;
    let mut od_minutes: Vec<(GpuArch, f64)> = Vec::new();
    let mut spot_minutes: Vec<(GpuArch, f64)> = Vec::new();
    for (i, s) in samples.iter().enumerate() {
        let until = samples
            .get(i + 1)
            .map(|n| n.t_secs)
            .unwrap_or(out.makespan_secs);
        let dt = until - s.t_secs;
        assert!(dt >= 0.0, "{label}: samples out of order");
        for &(gpu, discount, n) in &s.counts {
            let gpu_mins = n as f64 * dt / 60.0;
            dollars += on_demand_hourly(gpu) * (1.0 - discount) * n as f64 * dt / 3600.0;
            let bucket = if discount > 0.0 {
                &mut spot_minutes
            } else {
                &mut od_minutes
            };
            match bucket.iter_mut().find(|(g, _)| *g == gpu) {
                Some(e) => e.1 += gpu_mins,
                None => bucket.push((gpu, gpu_mins)),
            }
        }
    }
    let rel = (dollars - out.cost.total_dollars).abs() / out.cost.total_dollars.max(1e-12);
    assert!(
        rel < 1e-6,
        "{label}: cost integral {} vs report {}",
        dollars,
        out.cost.total_dollars
    );
    let split = out.cost.on_demand_dollars + out.cost.spot_dollars;
    assert!(
        (split - out.cost.total_dollars).abs() < 1e-9 * out.cost.total_dollars.max(1.0),
        "{label}: split does not add up"
    );
    for &(gpu, od, spot) in &out.cost.gpu_minutes {
        let want_od = od_minutes
            .iter()
            .find(|(g, _)| *g == gpu)
            .map(|&(_, m)| m)
            .unwrap_or(0.0);
        let want_spot = spot_minutes
            .iter()
            .find(|(g, _)| *g == gpu)
            .map(|&(_, m)| m)
            .unwrap_or(0.0);
        assert!(
            (od - want_od).abs() < 1e-6 * want_od.max(1.0),
            "{label}: {gpu:?} on-demand minutes {od} vs {want_od}"
        );
        assert!(
            (spot - want_spot).abs() < 1e-6 * want_spot.max(1.0),
            "{label}: {gpu:?} spot minutes {spot} vs {want_spot}"
        );
    }
    // $/1k-images is a pure quotient of the two headline numbers.
    if out.totals.completed > 0 {
        let want = out.cost.total_dollars * 1000.0 / out.totals.completed as f64;
        assert_eq!(out.cost.dollars_per_1k_images, want, "{label}");
    }
}

#[test]
fn cost_report_reconciles_with_membership_telemetry() {
    reconcile(&cfg(Policy::Argus, twitter_like(11, 6), 11).run(), "static");
    reconcile(&autoscaled_cfg(17).run(), "autoscaled");
    reconcile(&storm_cfg(21).run(), "storm");
}

#[test]
fn workspace_lints_clean_with_the_fleet_stage() {
    // D1, D2, D4 and D5 must stay green with the fleet stage wired into
    // the control plane: no wall clock, unordered iteration, thread or
    // unseeded RNG in its accounting.
    let root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let rep = argus_lint::run(&argus_lint::Config::for_repo(root)).expect("workspace scan");
    let denies: Vec<_> = rep
        .deny()
        .map(|f| format!("{} {}:{} {}", f.rule_id, f.file, f.line, f.message))
        .collect();
    assert_eq!(rep.deny_count(), 0, "{denies:#?}");
}
