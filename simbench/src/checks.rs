//! Output checks run on every simulated run.
//!
//! A run that fails any check has all its offered jobs counted as failed,
//! so a broken output can never pass as a fast one.

use argus::core::RunOutcome;

/// Conservation laws and sanity bounds on one outcome. Returns one line per
/// broken law; empty means the run passed.
pub fn conservation(out: &RunOutcome) -> Vec<String> {
    let mut broken = Vec::new();
    let t = &out.totals;
    // Every offered job ends exactly once: completed in the SLO, completed
    // late, or lost — and late completions plus lost jobs are the
    // violations. So offered = completed + lost reads in_slo + violations.
    if t.completed > t.offered {
        broken.push(format!("completed {} > offered {}", t.completed, t.offered));
    }
    if t.in_slo + t.violations != t.offered {
        broken.push(format!(
            "offered {} != in-SLO {} + violations (late + lost) {}",
            t.offered, t.in_slo, t.violations
        ));
    }
    let minute_sum =
        |f: fn(&argus::core::MinuteRecord) -> u64| -> u64 { out.minutes.iter().map(f).sum() };
    for (what, per_minute, total) in [
        ("offered", minute_sum(|m| m.offered), t.offered),
        ("completed", minute_sum(|m| m.completed), t.completed),
        ("violations", minute_sum(|m| m.violations), t.violations),
        ("in-SLO", minute_sum(|m| m.in_slo), t.in_slo),
    ] {
        if per_minute != total {
            broken.push(format!("per-minute {what} {per_minute} != total {total}"));
        }
    }
    let pool_completions: u64 = out.pools.iter().map(|p| p.completions).sum();
    if pool_completions != t.completed {
        broken.push(format!(
            "per-pool completions {pool_completions} != completed {}",
            t.completed
        ));
    }
    if let Some(c) = &out.cascade {
        let (first, accepted, escalated) = (
            c.first_pass_total(),
            c.accepted_total(),
            c.escalated_total(),
        );
        if first != accepted + escalated {
            broken.push(format!(
                "cascade first passes {first} != accepted {accepted} + escalated {escalated}"
            ));
        }
    }
    let cost = &out.cost;
    let dollars = [
        cost.total_dollars,
        cost.on_demand_dollars,
        cost.spot_dollars,
        cost.dollars_per_1k_images,
    ];
    if dollars.iter().any(|d| !d.is_finite() || *d < 0.0) {
        broken.push(format!("cost not finite and non-negative: {dollars:?}"));
    }
    if cost
        .gpu_minutes
        .iter()
        .any(|&(_, od, sp)| !od.is_finite() || !sp.is_finite() || od < 0.0 || sp < 0.0)
    {
        broken.push(format!(
            "GPU-minutes not finite and non-negative: {:?}",
            cost.gpu_minutes
        ));
    }
    let rq = t.relative_quality();
    if !(rq.is_finite() && rq > 0.0 && rq <= 1.5) {
        broken.push(format!("relative quality {rq} out of range"));
    }
    broken
}

/// Whether two runs of one configuration and seed produced the same
/// outcome: totals, per-minute records, makespan, level mix, retrieval,
/// fleet, cost and cascade accounting. Returns the first difference.
pub fn same_outcome(a: &RunOutcome, b: &RunOutcome) -> Option<String> {
    if a.totals != b.totals {
        return Some(format!("totals differ: {:?} vs {:?}", a.totals, b.totals));
    }
    if a.minutes != b.minutes {
        return Some("per-minute records differ".into());
    }
    if a.makespan_secs.to_bits() != b.makespan_secs.to_bits() {
        return Some(format!(
            "makespan differs: {} vs {}",
            a.makespan_secs, b.makespan_secs
        ));
    }
    if a.level_completions != b.level_completions {
        return Some("level completions differ".into());
    }
    if a.retrieval != b.retrieval {
        return Some("retrieval stats differ".into());
    }
    if a.fleet != b.fleet || a.cost != b.cost {
        return Some("fleet or cost accounting differs".into());
    }
    if a.cascade != b.cascade {
        return Some("cascade accounting differs".into());
    }
    None
}
