//! Ablations of Argus' design choices (beyond the paper's minimum):
//!
//! 1. **ODA vs EMD vs random aligner** — substantiates the §4.3 claim
//!    that symmetric Earth-Mover's alignment is inadequate because the
//!    quality cost of shifts is asymmetric.
//! 2. **Load-cost-aware solver** (§6 future work) — charging the SM
//!    solver for amortized model-load time reduces switch churn on
//!    jittery load.
//! 3. **Strategy-switch ablation** — Argus with the AC↔SM switch frozen
//!    (the Fig. 20b black line) under congestion.
//! 4. **Classifier-epoch budget** — quality sensitivity to the predictor
//!    (companion of Fig. 19).
//! 5. **Online learning** (§6 future work) — per-completion SGD updates
//!    vs drift-triggered batch retraining under prompt drift.
//! 6. **Mixed-mode ladder** — the paper declines a combined AC+SM ladder
//!    because a `n × m`-class classifier needs far more data (§4.1); this
//!    quantifies the accuracy hit and the (small) quality headroom it
//!    would buy.

use argus_bench::{banner, f, print_table};
use argus_cachestore::NetworkRegime;
use argus_core::{emd_aligner, oda, AllocationProblem, Pasm, Policy, RunConfig};
use argus_models::{ApproxLevel, GpuArch, Strategy};
use argus_prompts::PromptGenerator;
use argus_quality::{DegradationProfile, QualityOracle};
use argus_workload::sysx_like;

fn main() {
    banner("ABL", "Design-choice ablations", "§4.3 / §6 / Fig. 20b");

    // --- 1. aligner comparison on profiled degradation -------------------
    println!("[1] aligner comparison (Eq. 2 expected degradation, AC ladder):");
    let oracle = QualityOracle::new(99);
    let ladder = ApproxLevel::ladder(Strategy::Ac);
    let prompts = PromptGenerator::new(99).generate_batch(8000);
    let profile = DegradationProfile::profile(&oracle, &prompts, ladder);
    let phi = oracle.optimal_choice_histogram(&prompts, ladder);
    let mut rows = Vec::new();
    for demand in [140.0, 175.0, 205.0] {
        let omega = AllocationProblem::from_ladder(ladder, GpuArch::A100, 0.02, 8, demand)
            .solve_exact()
            .omega_normalized();
        let oda_cost = oda(&phi, &omega)
            .unwrap()
            .expected_degradation(&phi, &profile);
        let emd_cost = emd_aligner(&phi, &omega)
            .unwrap()
            .expected_degradation(&phi, &profile);
        let rand_cost = Pasm::proportional(&omega)
            .unwrap()
            .expected_degradation(&phi, &profile);
        rows.push(vec![
            f(demand, 0),
            f(oda_cost, 3),
            f(emd_cost, 3),
            f(rand_cost, 3),
        ]);
    }
    print_table(&["demand QPM", "ODA", "EMD (symmetric)", "random"], &rows);

    // --- 2. load-aware solver --------------------------------------------
    println!("\n[2] load-cost-aware solver (Proteus-style SM scaling, jittery SysX):");
    let trace = sysx_like(99, 300);
    let plain = RunConfig::new(Policy::Proteus, trace.clone())
        .with_seed(99)
        .run();
    let aware = RunConfig::new(Policy::Proteus, trace.clone())
        .with_seed(99)
        .with_load_aware_solver()
        .run();
    print_table(
        &["solver", "model loads", "QPM", "SLO viol %", "quality"],
        &[
            vec![
                "baseline".into(),
                plain.totals.model_loads.to_string(),
                f(plain.totals.mean_throughput_qpm(300.0), 1),
                f(100.0 * plain.totals.slo_violation_ratio(), 2),
                f(plain.totals.effective_accuracy(), 2),
            ],
            vec![
                "load-aware (§6)".into(),
                aware.totals.model_loads.to_string(),
                f(aware.totals.mean_throughput_qpm(300.0), 1),
                f(100.0 * aware.totals.slo_violation_ratio(), 2),
                f(aware.totals.effective_accuracy(), 2),
            ],
        ],
    );

    // --- 3. frozen-switch under congestion --------------------------------
    println!("\n[3] AC↔SM switch ablation under a 40-minute congestion window:");
    let events = vec![
        (100.0, NetworkRegime::Congested),
        (140.0, NetworkRegime::Normal),
    ];
    let adaptive = RunConfig::new(Policy::Argus, trace.clone())
        .with_seed(99)
        .with_network_events(events.clone())
        .run();
    let frozen = RunConfig::new(Policy::Argus, trace.clone())
        .with_seed(99)
        .with_network_events(events)
        .without_strategy_switch()
        .run();
    print_table(
        &["variant", "QPM", "SLO viol %", "switches"],
        &[
            vec![
                "adaptive".into(),
                f(adaptive.totals.mean_throughput_qpm(300.0), 1),
                f(100.0 * adaptive.totals.slo_violation_ratio(), 2),
                format!("{:?}", adaptive.switches),
            ],
            vec![
                "frozen AC".into(),
                f(frozen.totals.mean_throughput_qpm(300.0), 1),
                f(100.0 * frozen.totals.slo_violation_ratio(), 2),
                format!("{:?}", frozen.switches),
            ],
        ],
    );

    // --- 4. classifier budget ---------------------------------------------
    println!("\n[4] classifier epoch budget (Argus, 100-minute SysX prefix):");
    let short_trace = sysx_like(99, 100);
    let mut rows = Vec::new();
    for epochs in [1usize, 4, 8] {
        let out = RunConfig::new(Policy::Argus, short_trace.clone())
            .with_seed(99)
            .with_classifier_epochs(epochs)
            .run();
        rows.push(vec![
            epochs.to_string(),
            f(out.totals.effective_accuracy(), 2),
            f(100.0 * out.totals.slo_violation_ratio(), 2),
        ]);
    }
    print_table(&["epochs", "quality", "SLO viol %"], &rows);

    // --- 5. online learning under drift -----------------------------------
    println!("\n[5] online learning vs drift-triggered retraining (drifting stream):");
    let drift = argus_prompts::DriftSchedule {
        start_at: 4_000,
        ramp: 3_000,
        max_fraction: 0.6,
    };
    let steady_trace = argus_workload::steady(120.0, 150);
    let batch = RunConfig::new(Policy::Argus, steady_trace.clone())
        .with_seed(99)
        .with_drift(drift)
        .run();
    let online = RunConfig::new(Policy::Argus, steady_trace.clone())
        .with_seed(99)
        .with_drift(drift)
        .with_online_learning()
        .run();
    let frozen = RunConfig::new(Policy::Argus, steady_trace)
        .with_seed(99)
        .with_drift(drift)
        .without_retraining()
        .run();
    let last_acc = |o: &argus_core::RunOutcome| {
        o.classifier_accuracy
            .last()
            .map(|&(_, a)| 100.0 * a)
            .unwrap_or(0.0)
    };
    print_table(
        &[
            "adaptation",
            "quality",
            "final classifier acc %",
            "retrains",
        ],
        &[
            vec![
                "drift-triggered batch".into(),
                f(batch.totals.effective_accuracy(), 2),
                f(last_acc(&batch), 1),
                batch.retrain_minutes.len().to_string(),
            ],
            vec![
                "online SGD (§6)".into(),
                f(online.totals.effective_accuracy(), 2),
                f(last_acc(&online), 1),
                "continuous".into(),
            ],
            vec![
                "frozen".into(),
                f(frozen.totals.effective_accuracy(), 2),
                f(last_acc(&frozen), 1),
                "0".into(),
            ],
        ],
    );

    // --- 6. mixed-mode ladder ----------------------------------------------
    println!("\n[6] mixed-mode AC+SM ladder: classifier accuracy vs data budget:");
    use argus_classifier::{evaluate, label_prompts, train, TrainerConfig};
    let mut combined = [
        ApproxLevel::ladder(Strategy::Ac),
        ApproxLevel::ladder(Strategy::Sm),
    ]
    .concat();
    // Order the combined ladder by peak throughput (slowest first), as a
    // real mixed scheduler would.
    combined.sort_by(|a, b| {
        a.peak_throughput_per_min(GpuArch::A100)
            .partial_cmp(&b.peak_throughput_per_min(GpuArch::A100))
            .unwrap()
    });
    let mut rows = Vec::new();
    for train_n in [1000usize, 3000, 8000] {
        let pool = PromptGenerator::new(6).generate_batch(train_n);
        let test = PromptGenerator::new(66).generate_batch(1500);
        let mut cells = vec![train_n.to_string()];
        for (name, ladder) in [
            ("AC", ApproxLevel::ladder(Strategy::Ac)),
            ("mixed", &combined),
        ] {
            let tr = label_prompts(&oracle, &pool, ladder);
            let te = label_prompts(&oracle, &test, ladder);
            let (clf, _) = train(&tr, ladder.len(), &TrainerConfig::default());
            let acc = evaluate(&clf, &te).accuracy;
            // Quality achievable when routing by this classifier's pick.
            let routed: f64 = test
                .iter()
                .map(|p| oracle.score(p, ladder[clf.predict(&p.text).min(ladder.len() - 1)]))
                .sum::<f64>()
                / test.len() as f64;
            cells.push(format!("{name}: acc {:.0}% q {:.2}", 100.0 * acc, routed));
        }
        rows.push(cells);
    }
    print_table(&["train size", "6-class (AC)", "12-class (mixed)"], &rows);
    println!(
        "\nthe mixed ladder needs several times the data to match the\n\
         6-class accuracy — the paper's reason for avoiding mixed mode."
    );
}
