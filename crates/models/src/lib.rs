//! # argus-models — the diffusion-model substrate catalog
//!
//! Argus never looks inside a diffusion model: every scheduling decision is a
//! function of profiled *latency*, *memory footprint*, *loading time* and
//! *average quality* per approximation level. This crate reproduces that
//! profile surface from the numbers published in the paper:
//!
//! * [`GpuArch`] — V100 / A10G / A100 peak compute, bandwidth and HBM.
//! * [`ModelVariant`] + [`ModelSpec`] — the six serving variants (Tiny-SD,
//!   Small-SD, SD-1.4, SD-1.5, SD-2.0, SD-XL) with per-component parameter
//!   counts, sizes, FLOPs and arithmetic intensity (paper Table 3).
//! * [`latency`] — per-GPU inference latency (paper Fig. 5 / Table 2) and
//!   model loading times for both the PyTorch and Accelerate loaders
//!   (Table 2).
//! * [`AcLevel`] — approximate-caching levels `K ∈ {0,5,10,15,20,25}` with
//!   the resume-from-step-K latency model (§2.1, Fig. 6).
//! * [`ApproxLevel`] — the unified "approximation level" abstraction the
//!   allocator optimises over, covering both strategies.
//! * [`batching`] — the compute-vs-memory-bound batching model behind the
//!   paper's Observation 5 (Fig. 14).
//! * [`roofline`] — attainable-FLOPS roofline (Fig. 15) for DMs and
//!   reference non-diffusion models ([`nondm`]).
//! * [`extended`] — the 17-model catalog (A–Q) of Fig. 13.
//!
//! # Example
//!
//! ```
//! use argus_models::{GpuArch, ModelVariant, latency};
//!
//! let t = latency::inference_secs(ModelVariant::SdXl, GpuArch::A100);
//! assert!((t - 4.2).abs() < 1e-9); // §5.1: 4.2 s per image on A100
//! let qpm = latency::peak_throughput_per_min(ModelVariant::SdXl, GpuArch::A100);
//! assert!(qpm > 14.0 && qpm < 15.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ac;
mod approx;
pub mod batching;
mod component;
pub mod extended;
mod gpu;
pub mod latency;
pub mod nondm;
pub mod roofline;
mod variant;

pub use ac::{AcLevel, AC_LEVELS, TOTAL_DENOISE_STEPS};
pub use approx::{ApproxLevel, Strategy, RUNGS};
pub use component::ComponentSpec;
pub use gpu::GpuArch;
pub use variant::{ModelSpec, ModelVariant, SM_LADDER};
