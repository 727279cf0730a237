//! The roofline model of Fig. 15.
//!
//! Attainable performance at arithmetic intensity `I` on a GPU with peak
//! compute `P` and bandwidth `B` is `min(P, I·B)` (Jouppi et al., the
//! paper's ref. 48). Diffusion UNets land on the flat (compute-bound) roof;
//! YOLO/ResNet/GPT-decode land on the slanted (bandwidth-bound) part.

use crate::{GpuArch, ModelVariant};

/// A point on the roofline plot: a named workload with its arithmetic
/// intensity and attainable throughput.
#[derive(Debug, Clone, PartialEq)]
pub struct RooflinePoint {
    /// Workload label.
    pub name: String,
    /// Arithmetic intensity in FLOP/byte (X axis, log scale in the paper).
    pub arithmetic_intensity: f64,
    /// Attainable TFLOPS on the target GPU (Y axis).
    pub attainable_tflops: f64,
    /// Whether the workload is compute-bound on the target GPU.
    pub compute_bound: bool,
}

/// Attainable TFLOPS at arithmetic intensity `ai` on `gpu`.
pub fn attainable_tflops(gpu: GpuArch, ai: f64) -> f64 {
    debug_assert!(ai >= 0.0, "negative arithmetic intensity");
    gpu.peak_tflops().min(ai * gpu.mem_bw_gbps() / 1000.0)
}

/// Builds the full Fig. 15 point set: the four DM UNets plus the four
/// reference models, evaluated on `gpu`.
pub fn figure15_points(gpu: GpuArch) -> Vec<RooflinePoint> {
    let ridge = gpu.ridge_point();
    let mut points = Vec::new();
    for v in [
        ModelVariant::TinySd,
        ModelVariant::SmallSd,
        ModelVariant::Sd20,
        ModelVariant::SdXl,
    ] {
        let ai = v.spec().unet().arithmetic_intensity;
        points.push(RooflinePoint {
            name: v.name().to_string(),
            arithmetic_intensity: ai,
            attainable_tflops: attainable_tflops(gpu, ai),
            compute_bound: ai > ridge,
        });
    }
    for m in crate::nondm::NonDmModel::ALL {
        let ai = m.arithmetic_intensity();
        points.push(RooflinePoint {
            name: m.name().to_string(),
            arithmetic_intensity: ai,
            attainable_tflops: attainable_tflops(gpu, ai),
            compute_bound: ai > ridge,
        });
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roofline_shape() {
        let gpu = GpuArch::A100;
        // Below the ridge: linear in AI.
        assert!((attainable_tflops(gpu, 10.0) - 10.0 * gpu.mem_bw_gbps() / 1000.0).abs() < 1e-9);
        // Above the ridge: clamped at peak.
        assert_eq!(attainable_tflops(gpu, 10_000.0), gpu.peak_tflops());
        // Continuous at the ridge.
        let r = gpu.ridge_point();
        assert!((attainable_tflops(gpu, r) - gpu.peak_tflops()).abs() < 1e-6);
    }

    #[test]
    fn figure15_partitions_dms_from_others() {
        let pts = figure15_points(GpuArch::A100);
        assert_eq!(pts.len(), 8);
        for p in &pts {
            let is_dm = ["Tiny-SD", "Small-SD", "SD-2.0", "SD-XL"].contains(&p.name.as_str());
            assert_eq!(
                p.compute_bound, is_dm,
                "{}: compute_bound={} (AI {})",
                p.name, p.compute_bound, p.arithmetic_intensity
            );
        }
    }

    #[test]
    fn compute_bound_points_hit_the_roof() {
        for p in figure15_points(GpuArch::A100) {
            if p.compute_bound {
                assert_eq!(p.attainable_tflops, GpuArch::A100.peak_tflops());
            } else {
                assert!(p.attainable_tflops < GpuArch::A100.peak_tflops());
            }
        }
    }
}
