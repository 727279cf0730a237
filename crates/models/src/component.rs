//! Per-component model specifications (paper Table 3).

/// One component of a diffusion pipeline (text encoder, UNet, VAE decoder)
/// with the compute profile from the paper's Table 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentSpec {
    /// Component name ("Text Encoder", "UNet", "VAE Decoder").
    pub name: &'static str,
    /// Parameter count in billions.
    pub params_b: f64,
    /// Weight size in GiB.
    pub size_gib: f64,
    /// FLOPs per invocation, in GFLOPs (the paper's "FLOPs (B)" column).
    pub gflops: f64,
    /// Arithmetic intensity in FLOP/byte.
    pub arithmetic_intensity: f64,
}

impl ComponentSpec {
    /// Bytes moved per invocation, derived from FLOPs and arithmetic
    /// intensity (`bytes = flops / AI`).
    pub fn bytes_per_invocation(&self) -> f64 {
        self.gflops * 1e9 / self.arithmetic_intensity
    }
}

/// Builds a [`ComponentSpec`]; internal helper for the static catalogs.
pub(crate) const fn component(
    name: &'static str,
    params_b: f64,
    size_gib: f64,
    gflops: f64,
    arithmetic_intensity: f64,
) -> ComponentSpec {
    ComponentSpec {
        name,
        params_b,
        size_gib,
        gflops,
        arithmetic_intensity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_bytes_are_consistent() {
        let c = component("UNet", 2.567, 4.782, 11958.197, 2328.796);
        let bytes = c.bytes_per_invocation();
        // flops / bytes must reproduce the stated arithmetic intensity.
        assert!((c.gflops * 1e9 / bytes - c.arithmetic_intensity).abs() < 1e-6);
    }
}
