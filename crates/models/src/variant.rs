//! The six serving model variants and their full specifications.
//!
//! These are the "smaller model" (SM) approximation ladder of §5.1: Tiny-SD,
//! Small-SD, SD-1.4, SD-1.5, SD-2.0 and SD-XL from HuggingFace. Component
//! profiles come from Table 3; sizes and loading times from Table 2.

use std::fmt;

use crate::component::{component, ComponentSpec};
use crate::RUNGS;

/// A diffusion model variant deployable on a worker.
///
/// Ordered from most approximate (fastest, lowest quality) to least
/// approximate (slowest, highest quality); `ModelVariant::SdXl` is the
/// paper's base model M1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ModelVariant {
    /// Tiny-SD: the fastest distilled variant (Clipper-HT's model).
    TinySd,
    /// Small-SD distilled variant.
    SmallSd,
    /// Stable Diffusion 1.4.
    Sd14,
    /// Stable Diffusion 1.5.
    Sd15,
    /// Stable Diffusion 2.0.
    Sd20,
    /// Stable Diffusion XL — the base (teacher) model, M1 in the paper.
    SdXl,
}

/// The SM approximation ladder, slowest/highest-quality first
/// (SD-XL → … → Tiny-SD). This is the ordering ODA iterates over.
pub const SM_LADDER: [ModelVariant; RUNGS] = [
    ModelVariant::SdXl,
    ModelVariant::Sd20,
    ModelVariant::Sd15,
    ModelVariant::Sd14,
    ModelVariant::SmallSd,
    ModelVariant::TinySd,
];

impl ModelVariant {
    /// All variants, fastest first (enum order).
    pub const ALL: [ModelVariant; 6] = [
        ModelVariant::TinySd,
        ModelVariant::SmallSd,
        ModelVariant::Sd14,
        ModelVariant::Sd15,
        ModelVariant::Sd20,
        ModelVariant::SdXl,
    ];

    /// HuggingFace-style display name.
    pub fn name(self) -> &'static str {
        match self {
            ModelVariant::TinySd => "Tiny-SD",
            ModelVariant::SmallSd => "Small-SD",
            ModelVariant::Sd14 => "SD-1.4",
            ModelVariant::Sd15 => "SD-1.5",
            ModelVariant::Sd20 => "SD-2.0",
            ModelVariant::SdXl => "SD-XL",
        }
    }

    /// The full specification of this variant.
    pub fn spec(self) -> &'static ModelSpec {
        &SPECS[self as usize]
    }
}

impl fmt::Display for ModelVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Full specification of one model variant.
#[derive(Debug, Clone)]
pub struct ModelSpec {
    /// Which variant this describes.
    pub variant: ModelVariant,
    /// Pipeline components (text encoder, UNet, VAE decoder) — Table 3.
    pub components: Vec<ComponentSpec>,
    /// Serialized checkpoint size in GiB (Table 2 "Size" column).
    pub size_gib: f64,
    /// Number of denoising iterations per image (`N = 50` for SD models).
    pub denoise_steps: u32,
    /// Profiled mean PickScore under *random* prompt assignment — the
    /// `q_v` input of the solver's objective (Eq. 1), calibrated to Fig. 9
    /// and §5.5 of the paper.
    pub profiled_quality: f64,
}

impl ModelSpec {
    /// Total FLOPs to generate one image, in GFLOPs: the UNet runs once per
    /// denoising step; encoder and decoder run once.
    pub fn gflops_per_image(&self) -> f64 {
        self.components
            .iter()
            .map(|c| {
                if c.name == "UNet" {
                    c.gflops * self.denoise_steps as f64
                } else {
                    c.gflops
                }
            })
            .sum()
    }

    /// The UNet component (the compute bottleneck, §3.2).
    pub fn unet(&self) -> &ComponentSpec {
        self.components
            .iter()
            .find(|c| c.name == "UNet")
            .expect("every variant has a UNet")
    }

    /// Effective arithmetic intensity of image generation: total FLOPs over
    /// total bytes across all component invocations.
    pub fn effective_arithmetic_intensity(&self) -> f64 {
        let flops: f64 = self.gflops_per_image() * 1e9;
        let bytes: f64 = self
            .components
            .iter()
            .map(|c| {
                let invocations = if c.name == "UNet" {
                    self.denoise_steps as f64
                } else {
                    1.0
                };
                c.bytes_per_invocation() * invocations
            })
            .sum();
        flops / bytes
    }

    /// Total parameters in billions.
    pub fn params_b(&self) -> f64 {
        self.components.iter().map(|c| c.params_b).sum()
    }
}

fn spec(
    variant: ModelVariant,
    components: Vec<ComponentSpec>,
    size_gib: f64,
    profiled_quality: f64,
) -> ModelSpec {
    ModelSpec {
        variant,
        components,
        size_gib,
        denoise_steps: 50,
        profiled_quality,
    }
}

// Table 3 rows (paper verbatim for Tiny, Small, SD-2.0, SD-XL).
// SD-1.4/SD-1.5 share the SD-v1 architecture (0.86 B UNet, CLIP ViT-L text
// encoder); their component profile is interpolated from the SD-2.0 row.
// The quality anchors follow Fig. 9 / Fig. 13 / §5.5: SD-XL ≈ 21.0 and
// Tiny-SD ≈ 17.4 under random assignment.
static SPECS: std::sync::LazyLock<[ModelSpec; 6]> = std::sync::LazyLock::new(|| {
    [
        spec(
            ModelVariant::TinySd,
            vec![
                component("Text Encoder", 0.123, 0.229, 7.208, 29.287),
                component("UNet", 0.323, 0.602, 409.334, 632.890),
                component("VAE Decoder", 0.050, 0.092, 2481.078, 25066.363),
            ],
            0.63,
            16.9,
        ),
        spec(
            ModelVariant::SmallSd,
            vec![
                component("Text Encoder", 0.123, 0.229, 7.208, 29.287),
                component("UNet", 0.579, 1.079, 446.639, 385.442),
                component("VAE Decoder", 0.050, 0.092, 2481.078, 25066.363),
            ],
            2.32,
            17.4,
        ),
        spec(
            ModelVariant::Sd14,
            vec![
                component("Text Encoder", 0.340, 0.634, 24.482, 35.962),
                component("UNet", 0.860, 1.602, 671.000, 389.500),
                component("VAE Decoder", 0.050, 0.092, 2481.078, 25066.363),
            ],
            3.44,
            19.0,
        ),
        spec(
            ModelVariant::Sd15,
            vec![
                component("Text Encoder", 0.340, 0.634, 24.482, 35.962),
                component("UNet", 0.860, 1.602, 671.000, 389.500),
                component("VAE Decoder", 0.050, 0.092, 2481.078, 25066.363),
            ],
            3.44,
            19.3,
        ),
        spec(
            ModelVariant::Sd20,
            vec![
                component("Text Encoder", 0.340, 0.634, 24.482, 35.962),
                component("UNet", 0.866, 1.613, 676.668, 390.726),
                component("VAE Decoder", 0.050, 0.092, 2481.078, 25066.363),
            ],
            3.52,
            19.8,
        ),
        spec(
            ModelVariant::SdXl,
            vec![
                component("Text Encoder", 0.123, 0.229, 7.208, 29.287),
                component("UNet", 2.567, 4.782, 11958.197, 2328.796),
                component("VAE Decoder", 0.050, 0.092, 2481.078, 25066.363),
            ],
            5.14,
            21.0,
        ),
    ]
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_orders_quality_and_size() {
        // Quality must rise monotonically from Tiny to XL (approximation
        // monotonicity, the premise of the approximation ladder).
        let q: Vec<f64> = ModelVariant::ALL
            .iter()
            .map(|v| v.spec().profiled_quality)
            .collect();
        assert!(q.windows(2).all(|w| w[0] < w[1]), "quality {q:?}");
        let s: Vec<f64> = ModelVariant::ALL
            .iter()
            .map(|v| v.spec().size_gib)
            .collect();
        assert!(s.windows(2).all(|w| w[0] <= w[1]), "sizes {s:?}");
    }

    #[test]
    fn sm_ladder_is_reverse_of_all() {
        let mut rev = ModelVariant::ALL;
        rev.reverse();
        assert_eq!(SM_LADDER, rev);
    }

    #[test]
    fn table3_values_survive() {
        let xl = ModelVariant::SdXl.spec();
        assert_eq!(xl.unet().gflops, 11958.197);
        assert_eq!(xl.unet().arithmetic_intensity, 2328.796);
        assert_eq!(xl.denoise_steps, 50);
        let tiny = ModelVariant::TinySd.spec();
        assert_eq!(tiny.unet().params_b, 0.323);
    }

    #[test]
    fn unet_dominates_total_flops() {
        // §3.2: "Over 90% of generation time is spent in the compute-bound
        // UNet" — at 50 iterations the UNet dominates per-image FLOPs.
        for v in ModelVariant::ALL {
            let s = v.spec();
            let unet_total = s.unet().gflops * s.denoise_steps as f64;
            assert!(
                unet_total / s.gflops_per_image() > 0.80,
                "{v}: UNet share {:.3}",
                unet_total / s.gflops_per_image()
            );
        }
    }

    #[test]
    fn effective_intensity_is_compute_bound_on_a100() {
        // Fig. 15: all DMs sit right of the A100 ridge point.
        for v in ModelVariant::ALL {
            let ai = v.spec().effective_arithmetic_intensity();
            assert!(ai > crate::GpuArch::A100.ridge_point(), "{v}: AI {ai}");
        }
    }

    #[test]
    fn sdxl_size_matches_table2() {
        assert!((ModelVariant::SdXl.spec().size_gib - 5.14).abs() < 1e-9);
        assert!((ModelVariant::TinySd.spec().size_gib - 0.63).abs() < 1e-9);
    }

    #[test]
    fn params_total_is_sum_of_components() {
        let xl = ModelVariant::SdXl.spec();
        assert!((xl.params_b() - (0.123 + 2.567 + 0.050)).abs() < 1e-12);
    }

    #[test]
    fn display_names() {
        assert_eq!(ModelVariant::SdXl.to_string(), "SD-XL");
        assert_eq!(ModelVariant::TinySd.to_string(), "Tiny-SD");
    }
}
