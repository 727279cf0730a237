//! Fig. 10 — aligning the affinity distribution φ with the solver's load
//! distribution ω: ODA vs random redistribution vs the (infeasible) ideal.
//!
//! Expected shape (paper, with production workload data): ideal
//! (affinity-respecting) assignment ≈ 20.9 PickScore; random
//! redistribution drops to ≈ 17.8; ODA recovers to ≈ 19.5.

use argus_bench::{banner, f, print_table};
use argus_core::AllocationProblem;
use argus_core::{oda, Pasm};
use argus_models::{ApproxLevel, GpuArch, Strategy};
use argus_prompts::PromptGenerator;
use argus_quality::QualityOracle;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    banner("F10", "ODA vs random redistribution quality", "Fig. 10");
    let oracle = QualityOracle::new(10);
    let ladder = ApproxLevel::ladder(Strategy::Ac);
    let prompts = PromptGenerator::new(10).generate_batch(12_000);

    // φ: true affinity; ω: what a loaded 8-worker cluster must serve
    // (demand beyond exact-serving capacity forces deeper levels).
    let phi = oracle.optimal_choice_histogram(&prompts, ladder);
    let problem = AllocationProblem::from_ladder(ladder, GpuArch::A100, 0.02, 8, 185.0);
    let allocation = problem.solve_exact();
    let omega = allocation.omega_normalized();

    println!("affinity φ(v) vs target load ω(v):");
    let rows: Vec<Vec<String>> = ladder
        .iter()
        .enumerate()
        .map(|(i, l)| vec![l.to_string(), f(100.0 * phi[i], 1), f(100.0 * omega[i], 1)])
        .collect();
    print_table(&["level", "φ %", "ω %"], &rows);

    // Evaluate realized quality per plan by sampling assignments.
    let pasm_oda = oda(&phi, &omega).expect("oda");
    let pasm_rand = Pasm::proportional(&omega).expect("proportional");
    let mut rng = StdRng::seed_from_u64(1010);
    let mut eval = |plan: Option<&Pasm>| -> f64 {
        let mut total = 0.0;
        for p in &prompts {
            let opt = oracle.optimal_level(p, ladder);
            let serve = match plan {
                Some(map) => map.sample(opt, &mut rng),
                None => opt, // the infeasible ideal
            };
            total += oracle.score(p, ladder[serve]);
        }
        total / prompts.len() as f64
    };

    let ideal = eval(None);
    let oda_q = eval(Some(&pasm_oda));
    let rand_q = eval(Some(&pasm_rand));
    println!("\nmean PickScore under each redistribution plan:");
    print_table(
        &["plan", "mean PickScore"],
        &[
            vec!["ideal (infeasible)".into(), f(ideal, 2)],
            vec!["ODA (PASM)".into(), f(oda_q, 2)],
            vec!["random (proportional)".into(), f(rand_q, 2)],
        ],
    );
    println!(
        "\npaper anchors: ideal 20.9, ODA 19.5, random 17.8 — the ordering\n\
         and the ~2:1 split of the recovery gap are the reproduction target."
    );
}
