//! Fig. 6 — per-prompt image quality across approximate-caching levels.
//!
//! Expected shape (paper): simple prompts ("a red apple lying on a table")
//! hold quality through K=20; compositional prompts ("kids walking with a
//! dog") lose content beyond K=15 — per-prompt tolerance varies, which is
//! the premise of prompt-aware scheduling.

use argus_bench::{banner, f, print_table};
use argus_models::{AcLevel, ApproxLevel, GpuArch};
use argus_prompts::{Prompt, PromptId};
use argus_quality::QualityOracle;

fn main() {
    banner(
        "F6",
        "Quality across AC levels for example prompts",
        "Fig. 6",
    );
    let oracle = QualityOracle::new(2024);
    // Fig. 6's four prompts, with structural complexity mirroring them.
    let examples = [
        ("a red apple lying on a table", 0.18),
        ("photo of a happy man", 0.22),
        ("photo of kids walking with a dog", 0.56),
        ("photo of a bear", 0.20),
    ];
    let ks = [0u32, 10, 15, 20, 25];
    let mut rows = Vec::new();
    for (i, &(text, complexity)) in examples.iter().enumerate() {
        let p = Prompt::from_text(PromptId(i as u64), text, complexity, 0);
        let mut row = vec![text.to_string()];
        for &k in &ks {
            let lvl = ApproxLevel::Ac(AcLevel(k));
            row.push(format!(
                "{} ({}s)",
                f(oracle.score(&p, lvl), 1),
                f(lvl.compute_secs(GpuArch::A100), 1)
            ));
        }
        row.push(f(oracle.tolerance(&p), 2));
        rows.push(row);
    }
    print_table(
        &["prompt", "K=0", "K=10", "K=15", "K=20", "K=25", "tolerance"],
        &rows,
    );
    println!(
        "\ncompositional prompts (low tolerance) degrade visibly at high K;\n\
         simple prompts stay within the optimal-quality band (θ=0.9)."
    );
}
