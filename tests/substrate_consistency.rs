//! Cross-crate consistency of the substrates: the numbers one crate
//! publishes must be the numbers its consumers assume.

use argus::embed::{cosine, embed};
use argus::models::{latency, AcLevel, ApproxLevel, GpuArch, ModelVariant, Strategy};
use argus::prompts::PromptGenerator;
use argus::quality::{QualityOracle, OPTIMAL_QUALITY_THETA};
use argus::vdb::FlatIndex;

#[test]
fn solver_profiles_match_model_catalog() {
    use argus::core::AllocationProblem;
    let ladder = ApproxLevel::ladder(Strategy::Ac);
    let p = AllocationProblem::from_ladder(ladder, GpuArch::A100, 0.0, 8, 100.0);
    for (lp, lvl) in p.levels.iter().zip(ladder) {
        assert_eq!(lp.quality, lvl.profiled_quality());
        assert!((lp.peak_qpm - lvl.peak_throughput_per_min(GpuArch::A100)).abs() < 1e-9);
    }
}

#[test]
fn oracle_population_means_track_solver_qualities() {
    // The solver plans with q_v; the oracle must deliver those averages,
    // or the plan systematically over/under-promises.
    let oracle = QualityOracle::new(31);
    let prompts = PromptGenerator::new(31).generate_batch(8000);
    for strategy in [Strategy::Ac, Strategy::Sm] {
        for &lvl in ApproxLevel::ladder(strategy) {
            let mean: f64 =
                prompts.iter().map(|p| oracle.score(p, lvl)).sum::<f64>() / prompts.len() as f64;
            assert!(
                (mean - lvl.profiled_quality()).abs() < 0.5,
                "{lvl}: oracle {mean:.2} vs profiled {:.2}",
                lvl.profiled_quality()
            );
        }
    }
}

#[test]
fn embeddings_round_trip_through_the_vdb() {
    let mut index = FlatIndex::new();
    let prompts = PromptGenerator::new(32).generate_batch(100);
    for (i, p) in prompts.iter().enumerate() {
        index.insert(embed(&p.text), i);
    }
    for (i, p) in prompts.iter().enumerate().take(20) {
        let hit = index.nearest(&embed(&p.text)).expect("non-empty");
        assert_eq!(hit.payload, i, "self-lookup failed for {:?}", p.text);
        assert!(hit.similarity > 0.999);
    }
}

#[test]
fn similar_prompts_help_ac_quality_through_the_whole_path() {
    // embedding similarity → oracle similarity modulation, end to end.
    let oracle = QualityOracle::new(33);
    let mut generator = PromptGenerator::new(33);
    let p = generator.generate();
    let k20 = ApproxLevel::Ac(AcLevel(20));
    let exact_sim = cosine(&embed(&p.text), &embed(&p.text)) as f64;
    let close = oracle.score_with_similarity(&p, k20, exact_sim);
    let far = oracle.score_with_similarity(&p, k20, 0.2);
    assert!(close >= far);
}

#[test]
fn theta_rule_matches_paper_definition() {
    // §3: optimal quality = within 0.9 of the best score.
    assert_eq!(OPTIMAL_QUALITY_THETA, 0.9);
    let oracle = QualityOracle::new(34);
    let ladder = ApproxLevel::ladder(Strategy::Sm);
    for p in PromptGenerator::new(34).generate_batch(300) {
        let idx = oracle.optimal_level(&p, ladder);
        let scores = oracle.scores(&p, ladder);
        let best = scores.iter().cloned().fold(f64::MIN, f64::max);
        assert!(scores[idx] >= 0.9 * best);
    }
}

#[test]
fn cluster_capacity_constants_are_consistent() {
    // The Fig. 1 / Fig. 17 narratives depend on these two capacities.
    let exact = 8.0 * latency::peak_throughput_per_min(ModelVariant::SdXl, GpuArch::A100);
    let deepest = 8.0 * AcLevel(25).peak_throughput_per_min(GpuArch::A100);
    assert!((exact - 114.3).abs() < 1.0, "exact {exact}");
    assert!(deepest > 210.0 && deepest < 230.0, "deepest {deepest}");
    assert!(deepest / exact > 1.8, "approximation headroom ratio");
}

#[test]
fn loading_times_explain_the_ac_preference() {
    // Obs. 4's arithmetic: an SM switch costs ~an image-worth of time per
    // queued request at minimum; an AC level change costs nothing.
    use argus::models::latency::Loader;
    let load = latency::load_secs(ModelVariant::Sd15, Loader::Accelerate);
    let image = latency::inference_secs(ModelVariant::Sd15, GpuArch::A100);
    assert!(load > image, "load {load} vs image {image}");
    let xl = ApproxLevel::Sm(ModelVariant::SdXl);
    for k in [0u32, 5, 10, 15, 20, 25] {
        assert!(!xl.requires_model_switch(ApproxLevel::Ac(AcLevel(k))));
    }
}
