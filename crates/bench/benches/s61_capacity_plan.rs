//! s61_capacity_plan — the pluggable `CapacityModel` guards.
//!
//! Three claims, each asserted (CI fails on regression):
//!
//! 1. **Batching-aware Eq. 1** (`BatchedModel`): on the saturated
//!    Tiny-SD-class diurnal trace (Proteus' SM solver with dispatch
//!    batching enabled), planning with the Obs. 5 curve completes at
//!    least as many jobs as batch-1 planning, lifts effective accuracy
//!    (the batched headroom is spent on slower, higher-quality levels),
//!    and stops over-reporting saturation (the §6 scale-out signal now
//!    reflects what the batched fleet can actually absorb). The known
//!    trade — also printed — is a higher violation ratio at the peaks:
//!    the plan holds quality levels where batch-1 planning would have
//!    fled to Tiny-SD everywhere.
//! 2. **Per-pool strategies** on a mixed V100/A10G/A100 fleet: pinning
//!    the SM ladder on the old architectures (AC stays on A100) at least
//!    halves the diurnal-peak SLO violations of AC-everywhere at equal
//!    completions — the Fig. 5/fig16 recovery.
//! 3. **Solver budget**: building batching-aware profiles and solving
//!    Eq. 1 at 128 workers stays under the §5.7 100 ms allocation
//!    budget.

use std::time::Instant;

use argus_bench::{banner, f, print_table, BenchReport};
use argus_core::{
    AllocationProblem, Batch1Model, BatchedModel, CapacityCtx, CapacityModel, Policy, RunConfig,
};
use argus_models::{ApproxLevel, GpuArch, Strategy};
use argus_workload::twitter_like;

fn main() {
    banner(
        "S61",
        "Capacity-model planning guards",
        "Eq. 1 / Obs. 5 / Fig. 5 / §5.7",
    );
    let mut guard_failures: Vec<String> = Vec::new();

    // ---------------------------------------------------------------- //
    // 1. Batching-aware planning vs batch-1 planning (saturated Tiny-SD
    //    diurnal trace, dispatch batching B = 4 in both runs).
    // ---------------------------------------------------------------- //
    let trace = twitter_like(11, 30).normalize_to(120.0, 280.0);
    let batch1 = RunConfig::new(Policy::Proteus, trace.clone())
        .with_seed(11)
        .with_batching(4)
        .run();
    let aware = RunConfig::new(Policy::Proteus, trace.clone())
        .with_seed(11)
        .with_batching(4)
        .with_capacity_model(BatchedModel)
        .run();
    let mut rows = Vec::new();
    for (name, out) in [("batch-1 plan", &batch1), ("batching-aware", &aware)] {
        rows.push(vec![
            name.to_string(),
            out.totals.completed.to_string(),
            f(out.totals.effective_accuracy(), 3),
            f(out.totals.slo_violation_ratio(), 3),
            out.saturated_minutes.to_string(),
            f(out.makespan_secs, 0),
        ]);
    }
    print_table(
        &[
            "planner",
            "completed",
            "quality",
            "viol",
            "sat-min",
            "makespan",
        ],
        &rows,
    );
    if aware.totals.completed < batch1.totals.completed {
        guard_failures.push(format!(
            "batching-aware plan completed {} < batch-1 plan {}",
            aware.totals.completed, batch1.totals.completed
        ));
    }
    if aware.totals.effective_accuracy() <= batch1.totals.effective_accuracy() {
        guard_failures.push(format!(
            "batching-aware plan should lift quality: {:.3} vs {:.3}",
            aware.totals.effective_accuracy(),
            batch1.totals.effective_accuracy()
        ));
    }
    if aware.saturated_minutes >= batch1.saturated_minutes {
        guard_failures.push(format!(
            "batching-aware plan should report less saturation: {} vs {}",
            aware.saturated_minutes, batch1.saturated_minutes
        ));
    }

    // ---------------------------------------------------------------- //
    // 2. Per-pool strategies on the mixed fleet.
    // ---------------------------------------------------------------- //
    let fleet = vec![(GpuArch::A100, 4), (GpuArch::A10G, 2), (GpuArch::V100, 2)];
    let trace2 = twitter_like(7, 30).normalize_to(60.0, 200.0);
    let ac_everywhere = RunConfig::new(Policy::Argus, trace2.clone())
        .with_heterogeneous_pools(fleet.clone())
        .with_seed(7)
        .run();
    let per_pool = RunConfig::new(Policy::Argus, trace2)
        .with_heterogeneous_pools(fleet)
        .with_pool_strategy(GpuArch::V100, Strategy::Sm)
        .with_pool_strategy(GpuArch::A10G, Strategy::Sm)
        .with_seed(7)
        .run();
    let mut rows = Vec::new();
    for (name, out) in [
        ("AC everywhere", &ac_everywhere),
        ("SM on V100/A10G", &per_pool),
    ] {
        rows.push(vec![
            name.to_string(),
            out.totals.completed.to_string(),
            f(out.totals.effective_accuracy(), 3),
            f(out.totals.slo_violation_ratio(), 3),
            out.pools
                .iter()
                .map(|p| format!("{:?}:{}", p.gpu, p.violations))
                .collect::<Vec<_>>()
                .join(" "),
        ]);
    }
    print_table(
        &[
            "mixed fleet",
            "completed",
            "quality",
            "viol",
            "per-pool violations",
        ],
        &rows,
    );
    if per_pool.totals.completed != ac_everywhere.totals.completed {
        guard_failures.push("per-pool run served a different job count".to_string());
    }
    if per_pool.totals.slo_violation_ratio() > 0.5 * ac_everywhere.totals.slo_violation_ratio() {
        guard_failures.push(format!(
            "per-pool strategies should at least halve peak violations: {:.3} vs {:.3}",
            per_pool.totals.slo_violation_ratio(),
            ac_everywhere.totals.slo_violation_ratio()
        ));
    }

    // ---------------------------------------------------------------- //
    // 3. Solver budget at 128 workers with batching-aware profiles.
    // ---------------------------------------------------------------- //
    let ladder = ApproxLevel::ladder(Strategy::Sm);
    let ctx = CapacityCtx {
        max_batch: 8,
        slo_secs: 12.6,
        retrieval_overhead_secs: 0.0,
        escalation: None,
    };
    let mut worst_ms = 0.0f64;
    for demand in [800.0, 2400.0, 4200.0] {
        let start = Instant::now();
        let latencies: Vec<f64> = ladder
            .iter()
            .map(|&l| BatchedModel.job_latency_secs(l, GpuArch::A100, &ctx))
            .collect();
        let problem = AllocationProblem::from_capacity_model(
            &BatchedModel,
            ladder,
            GpuArch::A100,
            &ctx,
            128,
            demand,
        )
        .with_slo_derating_latencies(12.6, &latencies);
        let allocation = problem.solve();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        worst_ms = worst_ms.max(ms);
        println!(
            "128 workers, demand {demand:>6.0} QPM: solved in {ms:>7.2} ms (served {:.0}, saturated {})",
            allocation.served_qpm, allocation.saturated
        );
        // Sanity: the batching-aware problem must dominate batch-1.
        let b1 = AllocationProblem::from_capacity_model(
            &Batch1Model,
            ladder,
            GpuArch::A100,
            &ctx,
            128,
            demand,
        );
        if problem.max_capacity_qpm() + 1e-9 < b1.max_capacity_qpm() {
            guard_failures.push("batched capacity fell below batch-1 at 128 workers".to_string());
        }
    }
    if worst_ms >= 100.0 {
        guard_failures.push(format!(
            "batching-aware solve at 128 workers took {worst_ms:.1} ms (budget 100 ms)"
        ));
    }

    BenchReport::new("s61_capacity_plan")
        .uint("batch1_completed", batch1.totals.completed)
        .uint("aware_completed", aware.totals.completed)
        .float("batch1_quality", batch1.totals.effective_accuracy(), 4)
        .float("aware_quality", aware.totals.effective_accuracy(), 4)
        .uint("batch1_saturated_minutes", batch1.saturated_minutes as u64)
        .uint("aware_saturated_minutes", aware.saturated_minutes as u64)
        .float(
            "ac_everywhere_violation_ratio",
            ac_everywhere.totals.slo_violation_ratio(),
            4,
        )
        .float(
            "per_pool_violation_ratio",
            per_pool.totals.slo_violation_ratio(),
            4,
        )
        .float("worst_solve_ms", worst_ms, 2)
        .float("budget_solve_ms", 100.0, 1)
        .write("BENCH_capacity_plan.json");

    assert!(
        guard_failures.is_empty(),
        "s61_capacity_plan guard failed:\n{}",
        guard_failures.join("\n")
    );
    println!(
        "\nguard ok: batching-aware plan completes >= batch-1 with higher quality and less reported saturation; per-pool strategies halve mixed-fleet violations; 128-worker batching-aware solve {worst_ms:.1} ms < 100 ms"
    );
}
