//! Fig. 19 — classifier training quality translates into image quality:
//! lower training loss ⇒ higher PickScore.
//!
//! Expected shape (paper): training loss 1.0 → 0.1 raises routing-driven
//! PickScore ≈ 18.0 → 20.6. We sweep training epochs, report the loss and
//! the end-to-end effective accuracy of an Argus run using that
//! classifier, plus the §5.5 classifier-vs-random comparison.

use argus_bench::{banner, f, print_table};
use argus_classifier::{evaluate, label_prompts, train, TrainerConfig};
use argus_core::{Policy, RunConfig};
use argus_models::{ApproxLevel, Strategy};
use argus_prompts::PromptGenerator;
use argus_quality::QualityOracle;
use argus_workload::steady;

fn main() {
    banner("F19", "Classifier loss vs routing quality", "Fig. 19");

    // Offline view: loss and accuracy per epoch count.
    let ladder = ApproxLevel::ladder(Strategy::Ac);
    let oracle = QualityOracle::new(19);
    let (train_prompts, test_prompts) = (
        PromptGenerator::new(19).generate_batch(4000),
        PromptGenerator::new(191).generate_batch(1500),
    );
    let train_set = label_prompts(&oracle, &train_prompts, ladder);
    let test_set = label_prompts(&oracle, &test_prompts, ladder);

    let mut rows = Vec::new();
    for epochs in [0usize, 1, 2, 4, 8, 16] {
        let (clf, report) = train(
            &train_set,
            ladder.len(),
            &TrainerConfig {
                epochs,
                ..TrainerConfig::default()
            },
        );
        let eval = evaluate(&clf, &test_set);
        // End-to-end: Argus run with this epoch budget.
        let out = RunConfig::new(Policy::Argus, steady(150.0, 30))
            .with_seed(19)
            .with_classifier_epochs(epochs)
            .run();
        rows.push(vec![
            if epochs == 0 {
                "0 (untrained)".into()
            } else {
                epochs.to_string()
            },
            if report.epoch_losses.is_empty() {
                "-".into()
            } else {
                f(report.final_loss(), 3)
            },
            f(100.0 * eval.accuracy, 1),
            f(100.0 * eval.within_one, 1),
            f(out.totals.effective_accuracy(), 2),
        ]);
    }
    print_table(
        &[
            "epochs",
            "train loss",
            "accuracy %",
            "within-1 %",
            "system PickScore",
        ],
        &rows,
    );

    // §5.5: classifier routing vs random variant selection.
    println!("\n§5.5 — classifier vs random variant selection (30-min runs @150 QPM):");
    let argus = RunConfig::new(Policy::Argus, steady(150.0, 30))
        .with_seed(19)
        .run();
    let random = RunConfig::new(Policy::Pac, steady(150.0, 30))
        .with_seed(19)
        .run();
    print_table(
        &["routing", "effective PickScore"],
        &[
            vec![
                "classifier + ODA (Argus)".into(),
                f(argus.totals.effective_accuracy(), 2),
            ],
            vec![
                "random (PAC)".into(),
                f(random.totals.effective_accuracy(), 2),
            ],
        ],
    );
    println!("paper anchors: AC classifier 20.8 vs random 17.6 (−15.4%)");
}
