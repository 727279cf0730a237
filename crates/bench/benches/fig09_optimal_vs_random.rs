//! Fig. 9 — average PickScore under optimal vs random prompt assignment,
//! per level, plus PickScore-per-latency.
//!
//! Expected shape (paper): for the approximated levels, assigning only
//! prompts whose optimal model is that level scores far higher than
//! random assignment (e.g. Small-SD: 17.4 random vs 20.6 optimal), and
//! deeper levels win on PickScore-per-latency.

use argus_bench::{banner, f, print_table};
use argus_models::{ApproxLevel, GpuArch, Strategy};
use argus_prompts::PromptGenerator;
use argus_quality::QualityOracle;

fn main() {
    banner("F9", "Optimal vs random assignment per level", "Fig. 9");
    let oracle = QualityOracle::new(9);
    let prompts = PromptGenerator::new(9).generate_batch(12_000);

    for strategy in [Strategy::Sm, Strategy::Ac] {
        println!("\n[{strategy} ladder]");
        let ladder = ApproxLevel::ladder(strategy);
        let optimal_idx: Vec<usize> = prompts
            .iter()
            .map(|p| oracle.optimal_level(p, ladder))
            .collect();
        let rows: Vec<Vec<String>> = ladder
            .iter()
            .enumerate()
            .map(|(i, &lvl)| {
                let random_mean = prompts.iter().map(|p| oracle.score(p, lvl)).sum::<f64>()
                    / prompts.len() as f64;
                let own: Vec<f64> = prompts
                    .iter()
                    .zip(&optimal_idx)
                    .filter(|&(_, &o)| o == i)
                    .map(|(p, _)| oracle.score(p, lvl))
                    .collect();
                let optimal_mean = if own.is_empty() {
                    f64::NAN
                } else {
                    own.iter().sum::<f64>() / own.len() as f64
                };
                let lat = lvl.compute_secs(GpuArch::A100);
                vec![
                    lvl.to_string(),
                    f(random_mean, 2),
                    if own.is_empty() {
                        "n/a".into()
                    } else {
                        f(optimal_mean, 2)
                    },
                    f(optimal_mean / lat, 2),
                    f(100.0 * own.len() as f64 / prompts.len() as f64, 1),
                ]
            })
            .collect();
        print_table(
            &[
                "level",
                "random mean",
                "optimal mean",
                "PickScore/latency",
                "% optimal here",
            ],
            &rows,
        );
    }
}
