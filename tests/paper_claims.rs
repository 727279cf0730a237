//! Cross-crate checks of the paper's quantitative claims, at test scale.
//! The full-scale numbers live in the bench harnesses (EXPERIMENTS.md);
//! these tests pin the *relationships* so regressions are caught by
//! `cargo test`.

use argus::core::{oda, AllocationProblem, Pasm, Policy, RunConfig};
use argus::models::{latency, ApproxLevel, GpuArch, ModelVariant, Strategy};
use argus::prompts::PromptGenerator;
use argus::quality::{simulate_suitability, DegradationProfile, QualityOracle};
use argus::workload::{steady, twitter_like};

fn cfg(policy: Policy, trace: argus::workload::Trace, seed: u64) -> RunConfig {
    let mut c = RunConfig::new(policy, trace).with_seed(seed);
    c.classifier_train_size = 1500;
    c
}

#[test]
fn fig1_sdxl_cluster_cannot_meet_trace_peaks() {
    let trace = twitter_like(21, 100);
    let capacity = 8.0 * latency::peak_throughput_per_min(ModelVariant::SdXl, GpuArch::A100);
    assert!(trace.peak() > 1.3 * capacity, "trace peak under capacity");
    assert!(trace.trough() < 0.6 * capacity, "trace trough too high");
}

#[test]
fn fig10_oda_recovers_most_of_the_random_redistribution_loss() {
    let oracle = QualityOracle::new(22);
    let ladder = ApproxLevel::ladder(Strategy::Ac);
    let prompts = PromptGenerator::new(22).generate_batch(6000);
    let phi = oracle.optimal_choice_histogram(&prompts, ladder);
    let omega = AllocationProblem::from_ladder(ladder, GpuArch::A100, 0.02, 8, 185.0)
        .solve_exact()
        .omega_normalized();
    let profile = DegradationProfile::profile(&oracle, &prompts, ladder);
    let oda_cost = oda(&phi, &omega)
        .unwrap()
        .expected_degradation(&phi, &profile);
    let rand_cost = Pasm::proportional(&omega)
        .unwrap()
        .expected_degradation(&phi, &profile);
    assert!(
        oda_cost < 0.75 * rand_cost,
        "oda {oda_cost:.3} vs random {rand_cost:.3}"
    );
}

#[test]
fn s55_classifier_routing_beats_random_routing() {
    // §5.5: random variant selection degrades quality vs the classifier.
    let trace = steady(160.0, 15);
    let argus = cfg(Policy::Argus, trace.clone(), 23).run();
    let pac = cfg(Policy::Pac, trace, 23).run();
    assert!(
        argus.totals.effective_accuracy() > pac.totals.effective_accuracy() + 0.15,
        "argus {:.2} vs pac {:.2}",
        argus.totals.effective_accuracy(),
        pac.totals.effective_accuracy()
    );
}

#[test]
fn s54_suitability_study_ordering() {
    // §5.4 ordering at test scale: Argus > Proteus > Clipper-HT.
    let trace = steady(150.0, 15);
    let rate = |p: Policy| {
        let out = cfg(p, trace.clone(), 24).run();
        simulate_suitability(&out.quality_samples, 186).prompt_relevance
    };
    let argus = rate(Policy::Argus);
    let proteus = rate(Policy::Proteus);
    let ht = rate(Policy::ClipperHt);
    assert!(argus > proteus, "argus {argus:.3} vs proteus {proteus:.3}");
    assert!(proteus > ht, "proteus {proteus:.3} vs ht {ht:.3}");
    assert!(argus > 0.60, "argus suitability {argus:.3}");
    assert!(ht < 0.55, "ht suitability {ht:.3}");
}

#[test]
fn s57_utilization_beats_peak_provisioning() {
    let trace = twitter_like(25, 60);
    let argus = cfg(Policy::Argus, trace.clone(), 25).run();
    let peak_workers = (trace.peak() / 14.28).ceil() as usize;
    let peak = cfg(Policy::ClipperHa, trace, 25)
        .with_workers(peak_workers)
        .run();
    assert!(
        argus.mean_utilization > 1.3 * peak.mean_utilization,
        "argus {:.2} vs peak-provisioned {:.2}",
        argus.mean_utilization,
        peak.mean_utilization
    );
}

#[test]
fn s57_solver_under_100ms_at_tens_of_workers() {
    let ladder = ApproxLevel::ladder(Strategy::Ac);
    let problem = AllocationProblem::from_ladder(ladder, GpuArch::A100, 0.02, 32, 500.0);
    // lint: allow(wall-clock) — the §5.7 solver-overhead claim is a
    // wall-clock budget; nothing simulated depends on this read.
    let start = std::time::Instant::now();
    let _ = problem.solve_exact();
    let elapsed = start.elapsed();
    // Debug-build generosity: the §5.7 claim is <100 ms in release; allow
    // 1 s here so the regression guard still bites on quadratic blowups.
    assert!(elapsed.as_millis() < 1000, "solver took {elapsed:?}");
}

#[test]
fn fig17_saturation_appears_only_past_capacity() {
    let below = cfg(Policy::Argus, steady(150.0, 8), 26).run();
    let above = cfg(Policy::Argus, steady(280.0, 8), 26).run();
    assert_eq!(below.saturated_minutes, 0, "premature saturation");
    assert!(above.saturated_minutes >= 4, "no saturation signal");
}

#[test]
fn obs5_batching_would_not_help_the_serving_cluster() {
    // Observation 5 end-to-end: the throughput gain from batch-2 serving
    // would be under 10% for SD-XL while doubling latency — batch 1 wins
    // under a latency SLO.
    use argus::models::batching::unet_pass_profile;
    let p = unet_pass_profile(ModelVariant::SdXl);
    let speedup = p.throughput_speedup(GpuArch::A100, 2);
    let inflation = p.latency_inflation(GpuArch::A100, 2);
    assert!(speedup < 1.1, "speedup {speedup}");
    assert!(inflation > 1.8, "inflation {inflation}");
}

#[test]
fn ac_and_sm_ladders_cover_the_same_throughput_span() {
    // The switcher can substitute SM for AC (and back) without losing the
    // ability to meet load: their fastest levels are within 10%.
    let gpu = GpuArch::A100;
    let ac_max = ApproxLevel::ladder(Strategy::Ac)
        .iter()
        .map(|l| l.peak_throughput_per_min(gpu))
        .fold(0.0f64, f64::max);
    let sm_max = ApproxLevel::ladder(Strategy::Sm)
        .iter()
        .map(|l| l.peak_throughput_per_min(gpu))
        .fold(0.0f64, f64::max);
    assert!(
        (ac_max - sm_max).abs() / sm_max < 0.10,
        "ac {ac_max} sm {sm_max}"
    );
}
