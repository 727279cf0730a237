//! Approximate-caching (AC) levels.
//!
//! AC resumes SD-XL denoising from a cached intermediate noise state at step
//! `K` of `N = 50`, skipping the first `K` iterations (§2.1). Larger `K`
//! means more reuse, lower latency, and lower quality. The worker never
//! reloads weights — adjusting `K` is free — which is why Argus prefers AC
//! by default (Obs. 4).

use std::fmt;

use crate::{latency, GpuArch, ModelVariant};

/// Total denoising steps of the base SD-XL pipeline (`N`, §5.1).
pub const TOTAL_DENOISE_STEPS: u32 = 50;

/// The AC approximation ladder used in the evaluation (§5.1), least
/// approximate first.
pub const AC_LEVELS: [AcLevel; 6] = [
    AcLevel(0),
    AcLevel(5),
    AcLevel(10),
    AcLevel(15),
    AcLevel(20),
    AcLevel(25),
];

/// An approximate-caching level: the number of denoising steps skipped by
/// resuming from a cached intermediate state.
///
/// `AcLevel(0)` is exact SD-XL generation (no cache reuse).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AcLevel(pub u32);

impl AcLevel {
    /// Creates a level, validating `k < N`.
    ///
    /// # Errors
    /// Returns `Err` if `k >= TOTAL_DENOISE_STEPS` (nothing left to denoise).
    pub fn new(k: u32) -> Result<Self, InvalidAcLevel> {
        if k >= TOTAL_DENOISE_STEPS {
            Err(InvalidAcLevel { k })
        } else {
            Ok(AcLevel(k))
        }
    }

    /// Steps skipped (`K`).
    pub fn skipped_steps(self) -> u32 {
        self.0
    }

    /// Steps still executed (`N − K`).
    pub fn remaining_steps(self) -> u32 {
        TOTAL_DENOISE_STEPS - self.0
    }

    /// Compute-time per image in seconds on `gpu`, excluding cache
    /// retrieval. Modeled as a fixed pipeline cost (text encode, VAE decode)
    /// plus the per-step denoising cost scaled by remaining steps; this
    /// reproduces the paper's Fig. 6 measurements (K=0 → 4.2 s,
    /// K=20 → ~2.6 s on A100) within the published spread.
    pub fn compute_secs(self, gpu: GpuArch) -> f64 {
        let base = latency::inference_secs(ModelVariant::SdXl, gpu);
        // ~5% of the pipeline is step-independent (encoder + VAE).
        let fixed = 0.05 * base;
        let denoise = base - fixed;
        fixed + denoise * self.remaining_steps() as f64 / TOTAL_DENOISE_STEPS as f64
    }

    /// Peak serving throughput at this level in images/minute, excluding
    /// retrieval overhead.
    pub fn peak_throughput_per_min(self, gpu: GpuArch) -> f64 {
        60.0 / self.compute_secs(gpu)
    }

    /// Profiled mean PickScore under *random* prompt assignment — the `q_v`
    /// for the solver, calibrated to §5.5 (AC random ≈ 17.6 overall) and the
    /// Fig. 13 observation that AC variants Pareto-dominate same-speed
    /// small models.
    pub fn profiled_quality(self) -> f64 {
        // Piecewise-linear through the profiled anchors; extrapolated with
        // the terminal slope beyond K=25.
        const ANCHORS: [(u32, f64); 6] = [
            (0, 21.0),
            (5, 20.7),
            (10, 20.1),
            (15, 19.3),
            (20, 18.2),
            (25, 17.6),
        ];
        let k = self.0;
        for w in ANCHORS.windows(2) {
            let (k0, q0) = w[0];
            let (k1, q1) = w[1];
            if k <= k1 {
                let frac = (k - k0) as f64 / (k1 - k0) as f64;
                return q0 + (q1 - q0) * frac;
            }
        }
        let (k_last, q_last) = ANCHORS[5];
        let slope = (ANCHORS[5].1 - ANCHORS[4].1) / (ANCHORS[5].0 - ANCHORS[4].0) as f64;
        q_last + slope * (k - k_last) as f64
    }

    /// Size of a cached intermediate noise state in bytes (§4.7: 144 KB).
    pub const STATE_BYTES: usize = 144 * 1024;
}

/// Error returned by [`AcLevel::new`] for an out-of-range `K`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidAcLevel {
    k: u32,
}

impl fmt::Display for InvalidAcLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid approximate-caching level K={} (must be < {})",
            self.k, TOTAL_DENOISE_STEPS
        )
    }
}

impl std::error::Error for InvalidAcLevel {}

impl fmt::Display for AcLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "K={}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(AcLevel::new(0).is_ok());
        assert!(AcLevel::new(49).is_ok());
        let err = AcLevel::new(50).unwrap_err();
        assert!(err.to_string().contains("K=50"));
    }

    #[test]
    fn k0_equals_base_model() {
        let base = latency::inference_secs(ModelVariant::SdXl, GpuArch::A100);
        assert!((AcLevel(0).compute_secs(GpuArch::A100) - base).abs() < 1e-9);
        assert_eq!(AcLevel(0).remaining_steps(), 50);
    }

    #[test]
    fn latency_decreases_with_k() {
        let ts: Vec<f64> = AC_LEVELS
            .iter()
            .map(|l| l.compute_secs(GpuArch::A100))
            .collect();
        assert!(ts.windows(2).all(|w| w[0] > w[1]), "{ts:?}");
        // Fig. 6 spread: K=20 around 2.2–2.7 s on A100.
        let k20 = AcLevel(20).compute_secs(GpuArch::A100);
        assert!(k20 > 2.0 && k20 < 3.0, "K=20 latency {k20}");
    }

    #[test]
    fn quality_decreases_with_k() {
        let qs: Vec<f64> = AC_LEVELS.iter().map(|l| l.profiled_quality()).collect();
        assert!(qs.windows(2).all(|w| w[0] > w[1]), "{qs:?}");
        // §5.5 anchor: K=20 random ≈ 17.6–18.4 band, K=0 = SD-XL 21.0.
        assert_eq!(AcLevel(0).profiled_quality(), 21.0);
    }

    #[test]
    fn ac_pareto_dominates_sm_at_matched_speed() {
        // Fig. 13: at comparable throughput AC achieves higher quality than
        // a distilled model. Compare K=25 (~2.2 s) against Tiny-SD (2.18 s).
        let ac_q = AcLevel(25).profiled_quality();
        let tiny_q = ModelVariant::TinySd.spec().profiled_quality;
        assert!(ac_q > tiny_q);
    }

    #[test]
    fn interpolated_quality_for_custom_levels() {
        let q12 = AcLevel(12).profiled_quality();
        assert!(q12 < AcLevel(10).profiled_quality());
        assert!(q12 > AcLevel(15).profiled_quality());
    }

    #[test]
    fn state_size_matches_paper() {
        assert_eq!(AcLevel::STATE_BYTES, 147_456); // 144 KB (§4.7)
    }

    #[test]
    fn display_format() {
        assert_eq!(AcLevel(15).to_string(), "K=15");
    }
}
