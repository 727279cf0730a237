//! s65_cascade — the query-aware cascade serving plane guards.
//!
//! Three claims over a diurnal trace whose peaks saturate the two-pass
//! cascade, each asserted (CI fails on regression):
//!
//! 1. **Throughput at quality** (DESIGN.md §13): the cascade — every
//!    job's first pass on the cheap rung, the discriminator escalating
//!    doubtful outputs to SD-XL through the ordinary dispatch path —
//!    completes at least as many jobs as the Argus ladder baseline,
//!    with mean relative quality within 0.05. The cascade spends compute
//!    *per query* where the ladder spends it *per minute*, so under
//!    saturation it must not lose throughput to buy its quality.
//! 2. **Escalation pricing pays**: feeding the escalation-rate EWMA
//!    into Eq. 1 (capacity derate on the first-pass rung) keeps SLO
//!    violations from regressing against the unpriced ablation
//!    (`with_escalation_pricing(false)`), which plans as if second
//!    passes were free.
//! 3. **Determinism**: a same-seed repeat of the cascade run is
//!    bit-identical — the D1–D5 contract extends to the escalation
//!    plane.
//!
//! Results land in `BENCH_cascade.json` at the repo root.

use argus_bench::{banner, f, print_table, BenchReport};
use argus_core::{CascadeConfig, Policy, RunConfig, RunOutcome};
use argus_workload::{twitter_like, Trace};

fn cascade_run(trace: &Trace, pricing: bool) -> RunOutcome {
    let mut c = RunConfig::new(Policy::Argus, trace.clone())
        .with_seed(11)
        .with_cascade(CascadeConfig::new().with_escalation_pricing(pricing));
    c.classifier_train_size = 800;
    c.run()
}

fn main() {
    banner(
        "S65",
        "Cascade serving plane guards",
        "DESIGN.md §13 / DiffServe-style discriminator cascade",
    );
    let mut guard_failures: Vec<String> = Vec::new();

    // Diurnal trace scaled so the *cascade* saturates at the peaks (the
    // second passes roughly add half the offered load again) while the
    // single-pass ladder still clears it — the regime where escalation
    // pricing has headroom to matter.
    let trace = twitter_like(11, 30).normalize_to(45.0, 125.0);

    let mut ladder_cfg = RunConfig::new(Policy::Argus, trace.clone()).with_seed(11);
    ladder_cfg.classifier_train_size = 800;
    let ladder = ladder_cfg.run();
    let priced = cascade_run(&trace, true);
    let unpriced = cascade_run(&trace, false);

    let stats = priced.cascade.as_ref().expect("cascade run carries stats");
    let mut rows = Vec::new();
    for (name, out) in [
        ("Argus ladder", &ladder),
        ("cascade (priced)", &priced),
        ("cascade (unpriced)", &unpriced),
    ] {
        rows.push(vec![
            name.to_string(),
            out.totals.completed.to_string(),
            f(out.totals.relative_quality(), 3),
            f(out.totals.slo_violation_ratio(), 3),
        ]);
    }
    print_table(&["plan", "completed", "quality", "viol ratio"], &rows);
    println!(
        "cascade: {} first passes, {} escalated ({} completed), quality delta {:+.3}",
        stats.first_pass_total(),
        stats.escalated_total(),
        stats.escalated_completed,
        stats.quality_delta,
    );

    // ---------------------------------------------------------------- //
    // Guard 1: completions >= ladder, quality within 0.05.
    // ---------------------------------------------------------------- //
    if priced.totals.completed < ladder.totals.completed {
        guard_failures.push(format!(
            "cascade completed {} < ladder {}",
            priced.totals.completed, ladder.totals.completed
        ));
    }
    let quality_gap = ladder.totals.relative_quality() - priced.totals.relative_quality();
    if quality_gap > 0.05 {
        guard_failures.push(format!(
            "cascade quality trails the ladder by {quality_gap:.4} (budget 0.05)"
        ));
    }
    if stats.escalated_total() == 0 {
        guard_failures.push("the discriminator never escalated — the cascade is idle".into());
    }

    // ---------------------------------------------------------------- //
    // Guard 2: escalation pricing keeps violations from regressing
    //          against the unpriced ablation.
    // ---------------------------------------------------------------- //
    if priced.totals.violations > unpriced.totals.violations {
        guard_failures.push(format!(
            "priced cascade violated {} > unpriced {}",
            priced.totals.violations, unpriced.totals.violations
        ));
    }

    // ---------------------------------------------------------------- //
    // Guard 3: a same-seed repeat is bit-identical.
    // ---------------------------------------------------------------- //
    let repeat = cascade_run(&trace, true);
    if repeat.totals != priced.totals
        || repeat.minutes != priced.minutes
        || repeat.cascade != priced.cascade
    {
        guard_failures.push("cascade run diverged on a same-seed repeat".into());
    }

    BenchReport::new("s65_cascade")
        .uint("ladder_completed", ladder.totals.completed)
        .uint("cascade_completed", priced.totals.completed)
        .uint("unpriced_completed", unpriced.totals.completed)
        .float("ladder_quality", ladder.totals.relative_quality(), 4)
        .float("cascade_quality", priced.totals.relative_quality(), 4)
        .uint("ladder_violations", ladder.totals.violations)
        .uint("cascade_violations", priced.totals.violations)
        .uint("unpriced_violations", unpriced.totals.violations)
        .uint("first_pass_total", stats.first_pass_total())
        .uint("escalated_total", stats.escalated_total())
        .uint("escalated_completed", stats.escalated_completed)
        .float("quality_delta", stats.quality_delta, 4)
        .float("budget_quality_gap", 0.05, 2)
        .write("BENCH_cascade.json");

    assert!(
        guard_failures.is_empty(),
        "s65_cascade guard failed:\n{}",
        guard_failures.join("\n")
    );
    println!(
        "\nguard ok: cascade completes >= ladder at quality within 0.05, escalation pricing does not regress violations, bit-identical on a same-seed repeat"
    );
}
