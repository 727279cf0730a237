//! The cascade serving plane's contract (DESIGN.md §13):
//!
//! * cascade **off** (the default) leaves `RunOutcome::cascade` empty —
//!   bit-identity with the pre-cascade tree is pinned by the goldens in
//!   `tests/observability.rs` / `tests/fleet.rs`;
//! * cascade **on** surfaces [`CascadeStats`] whose counts balance the
//!   run totals exactly;
//! * degenerate configurations behave degenerately: a first pass at the
//!   escalation rung never escalates, threshold `0.0` escalates every
//!   first pass below the escalation rung, threshold `1.0` never
//!   escalates;
//! * escalated jobs keep their **original arrival time**: SLO violation
//!   accounting charges the full first-pass + queue + second-pass
//!   latency, pinned through the span log.

use argus::core::{CascadeConfig, Policy, RunConfig, SpanKind, TelemetryConfig};
use argus::models::{ApproxLevel, GpuArch, Strategy};
use argus::workload::twitter_like;

fn cascade_cfg(seed: u64, minutes: usize, cc: CascadeConfig) -> RunConfig {
    let mut c = RunConfig::new(Policy::Argus, twitter_like(seed, minutes))
        .with_seed(seed)
        .with_cascade(cc);
    c.classifier_train_size = 800;
    c
}

/// The run SLO in integer microseconds: three times the base model's
/// (SD-XL, SM rung 0) compute time on the default single-A100 fleet —
/// the same constant `SystemSimulation::new` derives for the metrics
/// stage.
fn slo_us() -> u64 {
    let base = ApproxLevel::ladder(Strategy::Sm)[0].compute_secs(GpuArch::A100);
    (3.0 * base * 1e6).round() as u64
}

#[test]
fn cascade_stats_balance_the_run_totals() {
    let out = cascade_cfg(11, 8, CascadeConfig::new()).run();
    let stats = out.cascade.as_ref().expect("cascade run carries stats");
    // The default threshold escalates a visible share of first passes.
    assert!(stats.escalated_total() > 0, "{stats:?}");
    assert!(stats.accepted_total() > 0, "{stats:?}");
    // Every judged first pass is either accepted or escalated.
    assert_eq!(
        stats.first_pass_total(),
        stats.accepted_total() + stats.escalated_total(),
        "{stats:?}"
    );
    // Exactly one completion per job, at its final pass: accepted first
    // passes plus completed second passes is the run's completion count.
    assert_eq!(
        stats.accepted_total() + stats.escalated_completed,
        out.totals.completed,
        "{stats:?}"
    );
    // The EWMA the planner prices with tracked the observed escalations
    // at the configured first-pass rung (the cheapest, Tiny-SD).
    let first_level = ApproxLevel::ladder(Strategy::Sm)[5];
    assert!(
        stats
            .escalation_rate
            .get(&first_level)
            .copied()
            .unwrap_or(0.0)
            > 0.0,
        "{stats:?}"
    );
    // The second pass buys quality on average (SD-XL vs the cheap rung).
    assert!(stats.quality_delta > 0.0, "{stats:?}");

    // And a cascade-off run carries no cascade artifacts at all.
    let mut off = RunConfig::new(Policy::Argus, twitter_like(11, 8)).with_seed(11);
    off.classifier_train_size = 800;
    assert!(off.run().cascade.is_none());
}

#[test]
fn first_pass_at_the_escalation_rung_is_a_no_op() {
    // First pass and escalation target the same rung: there is nothing
    // above the first pass to escalate to, so the discriminator verdict
    // degenerates to accept for every job.
    let cc = CascadeConfig::new()
        .with_first_pass(0)
        .with_escalate_to(0)
        .with_threshold(0.0);
    let out = cascade_cfg(7, 6, cc).run();
    let stats = out.cascade.as_ref().unwrap();
    assert_eq!(stats.escalated_total(), 0, "{stats:?}");
    assert_eq!(stats.escalated_completed, 0, "{stats:?}");
    assert_eq!(stats.quality_delta, 0.0, "{stats:?}");
    assert_eq!(stats.accepted_total(), out.totals.completed);
}

#[test]
fn threshold_zero_escalates_every_first_pass_below_the_top() {
    // Doubt is non-negative, so `doubt >= 0.0` always holds: every first
    // pass *not executed at the escalation rung* (Eq. 3 spill can place
    // first passes on any staffed rung, including the top) escalates.
    let out = cascade_cfg(11, 6, CascadeConfig::new().with_threshold(0.0)).run();
    let stats = out.cascade.as_ref().unwrap();
    let top = ApproxLevel::ladder(Strategy::Sm)[0];
    assert!(stats.escalated_total() > 0, "{stats:?}");
    for (level, n) in &stats.accepted {
        assert!(
            *level == top || *n == 0,
            "accepted {n} first passes at {level:?} under threshold 0.0"
        );
    }
    for (level, n) in &stats.first_pass {
        if *level != top {
            assert_eq!(stats.escalated.get(level), Some(n), "{level:?}");
        }
    }
}

#[test]
fn threshold_one_never_escalates() {
    // Doubt is clamped below 1.0, so `doubt >= 1.0` never holds.
    let out = cascade_cfg(11, 6, CascadeConfig::new().with_threshold(1.0)).run();
    let stats = out.cascade.as_ref().unwrap();
    assert_eq!(stats.escalated_total(), 0, "{stats:?}");
    assert_eq!(stats.escalated_completed, 0, "{stats:?}");
    assert_eq!(stats.accepted_total(), stats.first_pass_total());
    assert_eq!(stats.first_pass_total(), out.totals.completed);
}

#[test]
fn escalated_jobs_keep_their_original_arrival_for_slo_accounting() {
    // Saturate the fleet so escalated jobs queue twice, then check the
    // span log: each escalated job's terminal verdict is computed from
    // its *original* arrival, and at least one SLO violation exists that
    // the second pass alone would not explain — the violation is the
    // preserved first-pass latency.
    let trace = twitter_like(11, 8).normalize_to(60.0, 150.0);
    let mut c = RunConfig::new(Policy::Argus, trace)
        .with_seed(11)
        .with_cascade(CascadeConfig::new().with_threshold(0.05))
        .with_telemetry(TelemetryConfig::full());
    c.classifier_train_size = 800;
    let out = c.run();
    let spans = out.spans.as_ref().unwrap();
    let slo = slo_us();

    let mut arrive = std::collections::BTreeMap::new();
    let mut escalate = std::collections::BTreeMap::new();
    let mut terminal = std::collections::BTreeMap::new();
    for e in &spans.events {
        match e.kind {
            SpanKind::Arrive => {
                arrive.insert(e.job, e.t_us);
            }
            SpanKind::Escalate => {
                escalate.insert(e.job, e.t_us);
            }
            k if k.is_terminal() => {
                terminal.insert(e.job, (e.t_us, e.kind));
            }
            _ => {}
        }
    }
    assert!(!escalate.is_empty(), "no escalations in the scenario");
    assert!(!SpanKind::Escalate.is_terminal());

    let mut second_pass_within_slo_violations = 0u64;
    for (&job, &t_esc) in &escalate {
        let t_arr = arrive[&job];
        assert!(t_esc > t_arr, "job {job}: escalation precedes arrival");
        let Some(&(t_term, kind)) = terminal.get(&job) else {
            continue; // stranded/lost second pass
        };
        if kind == SpanKind::Lost {
            continue;
        }
        // The verdict charges the full two-pass latency from the
        // original arrival — not from the escalation re-dispatch.
        let e2e = t_term - t_arr;
        let expect = if e2e > slo {
            SpanKind::Violation
        } else {
            SpanKind::Complete
        };
        assert_eq!(kind, expect, "job {job}: e2e {e2e}us vs slo {slo}us");
        if kind == SpanKind::Violation && t_term - t_esc <= slo {
            second_pass_within_slo_violations += 1;
        }
    }
    // At least one violation is attributable only to the preserved
    // arrival: its second pass alone sat within the SLO.
    assert!(
        second_pass_within_slo_violations > 0,
        "no violation demonstrates original-arrival accounting"
    );
}
