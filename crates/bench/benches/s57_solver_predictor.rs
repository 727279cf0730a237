//! §5.7 — solver scalability and workload-distribution-predictor accuracy.
//!
//! Expected shape (paper): the ILP computes placements in <100 ms even for
//! clusters of tens of GPUs; the predictor reaches L2 error ≤ 0.01–0.05
//! with a 1000-prompt look-back window.

use argus_bench::{banner, f, print_table};
use argus_core::{AllocationProblem, WorkloadDistributionPredictor};
use argus_models::{ApproxLevel, GpuArch, Strategy};
use argus_prompts::PromptGenerator;
use argus_quality::QualityOracle;
use std::time::Instant;

fn main() {
    banner(
        "S5.7c",
        "Solver scalability & predictor accuracy",
        "§5.7 / §6",
    );
    let ladder = ApproxLevel::ladder(Strategy::Ac);

    println!("solver wall-clock (median of 5 solves, demand = 0.8×capacity):");
    let mut rows = Vec::new();
    for workers in [8usize, 16, 24, 32, 48, 64] {
        let problem = AllocationProblem::from_ladder(
            ladder,
            GpuArch::A100,
            0.02,
            workers,
            0.8 * 26.9 * workers as f64,
        );
        let time_exact = median_ms(5, || {
            let _ = problem.solve_exact();
        });
        let milp_ms = if workers <= 16 {
            f(
                median_ms(3, || {
                    let _ = problem.solve_milp();
                }),
                1,
            )
        } else {
            "-".to_string()
        };
        rows.push(vec![workers.to_string(), f(time_exact, 2), milp_ms]);
    }
    print_table(
        &["workers", "exact solver (ms)", "paper-form MILP (ms)"],
        &rows,
    );

    println!("\npredictor L2 error vs look-back window:");
    let oracle = QualityOracle::new(59);
    let mut generator = PromptGenerator::new(59);
    let reference = oracle.optimal_choice_histogram(&generator.generate_batch(20_000), ladder);
    let mut rows = Vec::new();
    for window in [100usize, 300, 1000, 3000] {
        let mut p = WorkloadDistributionPredictor::new(ladder.len(), window);
        for prompt in generator.generate_batch(window) {
            p.record(oracle.optimal_level(&prompt, ladder));
        }
        rows.push(vec![window.to_string(), f(p.l2_error(&reference), 4)]);
    }
    print_table(&["window", "L2 error"], &rows);
    println!("\npaper anchors: <100 ms at tens of GPUs; L2 ≈ 0.01 at window 1000.");
}

fn median_ms(n: usize, mut op: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..n)
        .map(|_| {
            let start = Instant::now();
            op();
            start.elapsed().as_secs_f64() * 1000.0
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[n / 2]
}
