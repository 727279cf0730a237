//! Cross-crate integration: fault handling (§5.6 / Fig. 20).

use argus::cachestore::NetworkRegime;
use argus::core::{FaultEvent, Policy, RunConfig, RunOutcome, SwitcherState};
use argus::workload::steady;

fn cfg(policy: Policy, trace: argus::workload::Trace, seed: u64) -> RunConfig {
    let mut c = RunConfig::new(policy, trace).with_seed(seed);
    c.classifier_train_size = 1500;
    c
}

#[test]
fn half_cluster_failure_degrades_quality_not_throughput_at_moderate_load() {
    // Fig. 20a first failure: at moderate load the solver re-allocates
    // within a minute and throughput barely dips — quality absorbs the hit
    // via deeper approximation.
    let trace = steady(90.0, 24);
    let faults = vec![
        FaultEvent::WorkerFail {
            at_minute: 8.0,
            workers: vec![0, 1, 2, 3],
        },
        FaultEvent::WorkerRecover {
            at_minute: 16.0,
            workers: vec![0, 1, 2, 3],
        },
    ];
    let out = cfg(Policy::Argus, trace, 11).with_faults(faults).run();
    let healthy: Vec<_> = out.minutes.iter().filter(|m| m.minute < 8).collect();
    let failed: Vec<_> = out
        .minutes
        .iter()
        .filter(|m| (9..16).contains(&m.minute))
        .collect();
    let throughput = |ms: &[&argus::core::MinuteRecord]| {
        ms.iter().map(|m| m.completed).sum::<u64>() as f64 / ms.len() as f64
    };
    let quality = |ms: &[&argus::core::MinuteRecord]| {
        let in_slo: u64 = ms.iter().map(|m| m.in_slo).sum();
        let q: f64 = ms.iter().map(|m| m.quality_sum).sum();
        q / in_slo.max(1) as f64
    };
    // Throughput holds within 15%; quality visibly drops.
    assert!(
        throughput(&failed) > 0.85 * throughput(&healthy),
        "throughput collapsed: {} vs {}",
        throughput(&failed),
        throughput(&healthy)
    );
    assert!(
        quality(&failed) < quality(&healthy) - 0.4,
        "quality did not degrade: {} vs {}",
        quality(&failed),
        quality(&healthy)
    );
}

#[test]
fn high_load_failure_pushes_violations_up() {
    // Fig. 20a second failure: with load near half-cluster capacity,
    // violations rise sharply during the outage.
    let trace = steady(150.0, 24);
    let faults = vec![FaultEvent::WorkerFail {
        at_minute: 10.0,
        workers: vec![0, 1, 2, 3],
    }];
    let out = cfg(Policy::Argus, trace, 12).with_faults(faults).run();
    let before: u64 = out
        .minutes
        .iter()
        .filter(|m| m.minute < 10)
        .map(|m| m.violations)
        .sum();
    let after: u64 = out
        .minutes
        .iter()
        .filter(|m| m.minute >= 12)
        .map(|m| m.violations)
        .sum();
    assert!(after > 3 * before.max(1), "before {before} after {after}");
}

#[test]
fn outage_switches_to_sm_and_back() {
    let trace = steady(100.0, 30);
    let out = cfg(Policy::Argus, trace, 13)
        .with_network_events(vec![
            (8.0, NetworkRegime::Outage),
            (18.0, NetworkRegime::Normal),
        ])
        .run();
    assert!(
        out.switches.0 >= 1,
        "never switched to SM: {:?}",
        out.switches
    );
    assert!(
        out.switches.1 >= 1,
        "never switched back: {:?}",
        out.switches
    );
    // SM-mode completions (small-model variants) must exist.
    let sm_completions: u64 = out
        .level_completions
        .iter()
        .filter(|(l, _)| matches!(l, argus::models::ApproxLevel::Sm(_)))
        .map(|&(_, c)| c)
        .sum();
    assert!(sm_completions > 50, "sm completions {sm_completions}");
}

#[test]
fn a_switch_re_solve_does_not_count_its_saturated_minute_twice() {
    // Far beyond capacity, every solve saturates: set-up (minute 0), six
    // ticks (minutes 1–6) and the re-solves of the AC→SM switch in
    // minute 1 and the SM→AC switch in minute 3. Seven minutes saturated,
    // not nine solves.
    for qpm in [600.0, 900.0, 1200.0] {
        let mut c = RunConfig::new(Policy::Argus, steady(qpm, 6)).with_seed(7);
        c.classifier_train_size = 600;
        let out = c
            .with_network_events(vec![
                (1.5, NetworkRegime::Outage),
                (3.5, NetworkRegime::Normal),
            ])
            .run();
        assert_eq!(out.switches, (1, 1), "{qpm} QPM");
        assert_eq!(out.saturated_minutes, 7, "{qpm} QPM");
    }
}

#[test]
fn frozen_strategy_suffers_through_congestion() {
    // Fig. 20b's black line: with switching disabled, congested retrieval
    // inflates every AC request; the adaptive system does better.
    let trace = steady(130.0, 26);
    let events = vec![(6.0, NetworkRegime::Congested)];
    let adaptive = cfg(Policy::Argus, trace.clone(), 14)
        .with_network_events(events.clone())
        .run();
    let frozen = cfg(Policy::Argus, trace, 14)
        .with_network_events(events)
        .without_strategy_switch()
        .run();
    assert!(
        frozen.totals.slo_violation_ratio() > adaptive.totals.slo_violation_ratio() + 0.05,
        "adaptive {:.3} vs frozen {:.3}",
        adaptive.totals.slo_violation_ratio(),
        frozen.totals.slo_violation_ratio()
    );
}

#[test]
fn total_cluster_failure_loses_but_accounts_for_queries() {
    let trace = steady(60.0, 8);
    let out = cfg(Policy::Argus, trace, 15)
        .with_faults(vec![FaultEvent::WorkerFail {
            at_minute: 3.0,
            workers: (0..8).collect(),
        }])
        .run();
    // Everything offered after the failure is a violation, not a hang.
    assert!(out.totals.violations > 0);
    assert!(out.totals.completed < out.totals.offered);
    assert!(out.totals.slo_violation_ratio() > 0.4);
}

#[test]
fn recover_of_never_failed_worker_is_inert() {
    // A recover aimed at healthy workers is the documented no-op: the run
    // must be bit-identical to one with no fault schedule at all.
    let trace = steady(90.0, 12);
    let base = cfg(Policy::Argus, trace.clone(), 11).run();
    let recovered = cfg(Policy::Argus, trace, 11)
        .with_faults(vec![FaultEvent::WorkerRecover {
            at_minute: 5.3,
            workers: vec![2, 3],
        }])
        .run();
    assert_eq!(base.totals, recovered.totals);
    assert_eq!(base.minutes, recovered.minutes);
    assert_eq!(base.level_completions, recovered.level_completions);
}

#[test]
fn duplicate_same_minute_faults_are_idempotent() {
    // Failing an already-failed worker is absorbed: the duplicate event
    // must not lose extra jobs, double-count, or perturb determinism.
    let trace = steady(90.0, 12);
    let single = cfg(Policy::Argus, trace.clone(), 11)
        .with_faults(vec![FaultEvent::WorkerFail {
            at_minute: 5.3,
            workers: vec![0, 1],
        }])
        .run();
    let duplicated = cfg(Policy::Argus, trace, 11)
        .with_faults(vec![
            FaultEvent::WorkerFail {
                at_minute: 5.3,
                workers: vec![0, 1],
            },
            FaultEvent::WorkerFail {
                at_minute: 5.3,
                workers: vec![1],
            },
        ])
        .run();
    assert_eq!(single.totals, duplicated.totals);
    assert_eq!(single.minutes, duplicated.minutes);
    assert_eq!(single.level_completions, duplicated.level_completions);
}

#[test]
fn zero_warning_preemption_degrades_to_worker_fail() {
    // `warning_secs: 0` is an unwarned reclaim: counted in the preemption
    // tallies, but the serving outcome is bit-identical to a WorkerFail
    // of the same workers at the same instant.
    let trace = steady(90.0, 12);
    let failed = cfg(Policy::Argus, trace.clone(), 11)
        .with_faults(vec![FaultEvent::WorkerFail {
            at_minute: 5.3,
            workers: vec![0, 1, 2],
        }])
        .run();
    let preempted = cfg(Policy::Argus, trace, 11)
        .with_faults(vec![FaultEvent::Preemption {
            at_minute: 5.3,
            workers: vec![0, 1, 2],
            warning_secs: 0.0,
        }])
        .run();
    assert_eq!(failed.totals, preempted.totals);
    assert_eq!(failed.minutes, preempted.minutes);
    assert_eq!(failed.level_completions, preempted.level_completions);
    // Only the telemetry differs.
    assert_eq!(
        preempted.fleet.preemptions_ridden + preempted.fleet.preemptions_lost,
        3
    );
    assert_eq!(
        failed.fleet.preemptions_ridden + failed.fleet.preemptions_lost,
        0
    );
}

/// Argus on 8×A100 at 90 QPM for 8 minutes (seed 11, a 600-prompt
/// classifier) under `faults`.
fn spot_run(faults: Vec<FaultEvent>) -> RunOutcome {
    let mut c = RunConfig::new(Policy::Argus, steady(90.0, 8))
        .with_seed(11)
        .with_faults(faults);
    c.classifier_train_size = 600;
    c.run()
}

#[test]
fn zero_warning_preemption_of_a_failed_worker_is_not_a_preemption() {
    // Worker 1 crashes at minute 3; an unwarned reclaim of it at minute 5
    // finds nothing to take: no preemption is tallied, and the serving
    // outcome is the crash-only run's.
    let crash = FaultEvent::WorkerFail {
        at_minute: 3.0,
        workers: vec![1],
    };
    let failed = spot_run(vec![crash.clone()]);
    let reclaimed = spot_run(vec![
        crash,
        FaultEvent::Preemption {
            at_minute: 5.0,
            workers: vec![1],
            warning_secs: 0.0,
        },
    ]);
    assert_eq!(
        (
            reclaimed.fleet.preemptions_ridden,
            reclaimed.fleet.preemptions_lost
        ),
        (0, 0)
    );
    assert_eq!(failed.totals, reclaimed.totals);
    assert_eq!(failed.minutes, reclaimed.minutes);
}

/// Billed GPU-minutes over every architecture, on-demand and spot.
fn billed_gpu_minutes(out: &RunOutcome) -> f64 {
    out.cost
        .gpu_minutes
        .iter()
        .map(|&(_, on_demand, spot)| on_demand + spot)
        .sum()
}

/// A 30 s warning for worker 1 at `at_minute`.
fn warn_worker_1(at_minute: f64) -> FaultEvent {
    FaultEvent::Preemption {
        at_minute,
        workers: vec![1],
        warning_secs: 30.0,
    }
}

#[test]
fn a_recover_during_the_warning_cancels_the_preemption() {
    // Worker 1 is warned at minute 5 and recovered at minute 5.2: the
    // warning was a false alarm. When it expires at 5.5 it reclaims
    // nothing, and the fleet bills as in the fault-free run: all eight
    // workers to the end. (The drain's migration moves the last
    // completion, so the two runs end about a second apart.)
    let eight_to_the_end = |out: &RunOutcome| {
        let billed = billed_gpu_minutes(out);
        let expected = 8.0 * out.makespan_secs / 60.0;
        assert!(
            (billed - expected).abs() < 1e-6,
            "{billed} GPU-minutes billed, {expected} for 8 workers to the end"
        );
    };
    let cancelled = spot_run(vec![
        warn_worker_1(5.0),
        FaultEvent::WorkerRecover {
            at_minute: 5.2,
            workers: vec![1],
        },
    ]);
    assert_eq!(
        (
            cancelled.fleet.preemptions_ridden,
            cancelled.fleet.preemptions_lost
        ),
        (0, 0)
    );
    eight_to_the_end(&cancelled);
    eight_to_the_end(&spot_run(vec![]));
}

#[test]
fn a_worker_warned_again_after_a_recover_goes_when_the_second_warning_expires() {
    // The first warning (minute 5) is cancelled by the recover at 5.2; a
    // second one at 5.4 takes worker 1 when it expires at 5.9, not when
    // the first would have expired, at 5.5.
    let out = spot_run(vec![
        warn_worker_1(5.0),
        FaultEvent::WorkerRecover {
            at_minute: 5.2,
            workers: vec![1],
        },
        warn_worker_1(5.4),
    ]);
    assert_eq!(out.fleet.preemptions_ridden + out.fleet.preemptions_lost, 1);
    // Eight workers billed to the end of the run, less worker 1 from 5.9.
    let end = out.makespan_secs / 60.0;
    let expected = 8.0 * end - (end - 5.9);
    let billed = billed_gpu_minutes(&out);
    assert!(
        (billed - expected).abs() < 1e-6,
        "{billed} GPU-minutes billed, {expected} if reclaimed at minute 5.9"
    );
}

#[test]
fn switcher_state_machine_is_exposed() {
    // The switcher type is part of the public API for operators.
    use argus::core::StrategySwitcher;
    let s = StrategySwitcher::new();
    assert_eq!(s.state(), SwitcherState::Ac);
}
