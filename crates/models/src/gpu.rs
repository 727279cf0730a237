//! GPU architectures referenced by the paper's evaluation (Fig. 5, §4.7).

use std::fmt;

/// An NVIDIA data-center GPU architecture.
///
/// Peak numbers are FP16 tensor-core throughput and HBM bandwidth from the
/// public datasheets; the paper's testbed is 8× A100-80GiB (§4.7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GpuArch {
    /// Tesla V100 (16 GiB HBM2).
    V100,
    /// A10G (24 GiB GDDR6), the AWS G5 instance GPU.
    A10G,
    /// A100 80 GiB HBM2e — the paper's serving GPU.
    A100,
}

impl GpuArch {
    /// All supported architectures, oldest first.
    pub const ALL: [GpuArch; 3] = [GpuArch::V100, GpuArch::A10G, GpuArch::A100];

    /// Peak FP16 tensor throughput in TFLOPS.
    pub fn peak_tflops(self) -> f64 {
        match self {
            GpuArch::V100 => 112.0,
            GpuArch::A10G => 125.0,
            GpuArch::A100 => 312.0,
        }
    }

    /// Peak memory bandwidth in GB/s.
    pub fn mem_bw_gbps(self) -> f64 {
        match self {
            GpuArch::V100 => 900.0,
            GpuArch::A10G => 600.0,
            GpuArch::A100 => 2039.0,
        }
    }

    /// On-device memory in GiB. Determines how many model variants can be
    /// resident simultaneously during strategy switches (§4.6).
    pub fn hbm_gib(self) -> f64 {
        match self {
            GpuArch::V100 => 16.0,
            GpuArch::A10G => 24.0,
            GpuArch::A100 => 80.0,
        }
    }

    /// The roofline ridge point in FLOP/byte: arithmetic intensities above
    /// this are compute-bound, below are memory-bound (Fig. 15).
    pub fn ridge_point(self) -> f64 {
        self.peak_tflops() * 1e12 / (self.mem_bw_gbps() * 1e9)
    }

    /// Human-readable name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            GpuArch::V100 => "V100",
            GpuArch::A10G => "A10G",
            GpuArch::A100 => "A100",
        }
    }
}

impl fmt::Display for GpuArch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn newer_gpus_are_faster() {
        assert!(GpuArch::A100.peak_tflops() > GpuArch::A10G.peak_tflops());
        assert!(GpuArch::A100.peak_tflops() > GpuArch::V100.peak_tflops());
        assert!(GpuArch::A100.mem_bw_gbps() > GpuArch::V100.mem_bw_gbps());
    }

    #[test]
    fn a100_holds_two_sdxl_class_models() {
        // §4.6: 80 GB HBM can hold SD-XL (~15 GB serving footprint incl.
        // activations) plus a smaller variant during switches.
        assert!(GpuArch::A100.hbm_gib() >= 2.0 * 15.0);
    }

    #[test]
    fn ridge_points_are_plausible() {
        // A100 ridge ≈ 153 FLOP/byte, the dotted line of Fig. 15.
        let r = GpuArch::A100.ridge_point();
        assert!((r - 153.0).abs() < 5.0, "ridge {r}");
        for g in GpuArch::ALL {
            assert!(g.ridge_point() > 0.0);
        }
    }

    #[test]
    fn display_matches_paper_labels() {
        assert_eq!(GpuArch::A100.to_string(), "A100");
        assert_eq!(GpuArch::A10G.to_string(), "A10G");
        assert_eq!(GpuArch::V100.to_string(), "V100");
    }
}
