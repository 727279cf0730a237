//! Approximation depth: the scalar severity of each approximation level.
//!
//! Depth is the oracle's internal coordinate: 0 for exact SD-XL generation,
//! 1 for the most aggressive approximation in either strategy. The mapping
//! is calibrated so that the per-level mean scores land on the profiled
//! quality anchors of `argus-models` (which in turn come from the paper's
//! Fig. 9 / Fig. 13 / §5.5).

use argus_models::{AcLevel, ApproxLevel, ModelVariant};

/// The approximation depth of a level in `[0, 1]`.
///
/// For AC levels the returned value is the depth at nominal cache-neighbour
/// similarity ([`crate::DEFAULT_AC_SIMILARITY`]); retrieval similarity
/// modulates effective depth in the oracle.
pub fn approximation_depth(level: ApproxLevel) -> f64 {
    match level {
        ApproxLevel::Sm(v) => sm_depth(v),
        ApproxLevel::Ac(k) => ac_depth(k),
    }
}

fn sm_depth(v: ModelVariant) -> f64 {
    match v {
        ModelVariant::SdXl => 0.0,
        ModelVariant::Sd20 => 0.38,
        ModelVariant::Sd15 => 0.50,
        ModelVariant::Sd14 => 0.55,
        ModelVariant::SmallSd => 0.90,
        ModelVariant::TinySd => 1.00,
    }
}

fn ac_depth(k: AcLevel) -> f64 {
    // Linear in skipped steps; slightly gentler than the SM endpoint at the
    // matched-throughput point (K=25 ≈ Tiny speed), per Fig. 13's Pareto
    // dominance of AC.
    k.skipped_steps() as f64 / 25.0 * 0.88
}

#[cfg(test)]
mod tests {
    use super::*;
    use argus_models::{GpuArch, Strategy, AC_LEVELS};

    #[test]
    fn depth_bounds_and_anchors() {
        assert_eq!(
            approximation_depth(ApproxLevel::Sm(ModelVariant::SdXl)),
            0.0
        );
        assert_eq!(
            approximation_depth(ApproxLevel::Sm(ModelVariant::TinySd)),
            1.0
        );
        assert_eq!(approximation_depth(ApproxLevel::Ac(AcLevel(0))), 0.0);
        for s in [Strategy::Ac, Strategy::Sm] {
            for &l in ApproxLevel::ladder(s) {
                let d = approximation_depth(l);
                assert!((0.0..=1.0).contains(&d), "{l}: depth {d}");
            }
        }
    }

    #[test]
    fn depth_increases_along_both_ladders() {
        for s in [Strategy::Ac, Strategy::Sm] {
            let depths: Vec<f64> = ApproxLevel::ladder(s)
                .iter()
                .map(|&l| approximation_depth(l))
                .collect();
            assert!(depths.windows(2).all(|w| w[0] < w[1]), "{s}: {depths:?}");
        }
    }

    #[test]
    fn ac_is_gentler_than_sm_at_matched_throughput() {
        // K=25 runs at ~Tiny-SD speed but at lower depth (higher quality).
        let ac = approximation_depth(ApproxLevel::Ac(AcLevel(25)));
        let tiny = approximation_depth(ApproxLevel::Sm(ModelVariant::TinySd));
        let tp_ac = ApproxLevel::Ac(AcLevel(25)).peak_throughput_per_min(GpuArch::A100);
        let tp_tiny = ApproxLevel::Sm(ModelVariant::TinySd).peak_throughput_per_min(GpuArch::A100);
        assert!((tp_ac - tp_tiny).abs() / tp_tiny < 0.05, "speeds diverge");
        assert!(ac < tiny);
    }

    #[test]
    fn depth_tracks_slowdown_ordering() {
        // Within a ladder, deeper approximation must mean faster serving.
        for s in [Strategy::Ac, Strategy::Sm] {
            let ladder = ApproxLevel::ladder(s);
            for w in ladder.windows(2) {
                assert!(
                    w[1].peak_throughput_per_min(GpuArch::A100)
                        > w[0].peak_throughput_per_min(GpuArch::A100)
                );
            }
        }
    }

    #[test]
    fn ac_depth_for_all_standard_levels() {
        let ds: Vec<f64> = AC_LEVELS
            .iter()
            .map(|&k| approximation_depth(ApproxLevel::Ac(k)))
            .collect();
        assert!((ds[5] - 0.88).abs() < 1e-12);
        assert!((ds[1] - 0.176).abs() < 1e-12);
    }
}
