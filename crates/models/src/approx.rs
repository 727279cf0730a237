//! The unified approximation-level abstraction.
//!
//! The allocator, ODA and PASM are agnostic to which approximation strategy
//! is active (§4.6: "all the internal components and the workflow
//! fundamentally remain identical across these two strategies"). This module
//! provides the common currency: an [`ApproxLevel`] with a profiled latency,
//! quality and peak throughput, and a [`Strategy`] tag.

use std::fmt;

use crate::{latency, AcLevel, GpuArch, ModelVariant, AC_LEVELS, SM_LADDER};

/// Which approximation strategy a ladder of levels belongs to (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Approximate caching: one SD-XL model, variable skip step `K`.
    Ac,
    /// Smaller/distilled model variants.
    Sm,
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Strategy::Ac => "AC",
            Strategy::Sm => "SM",
        })
    }
}

/// One approximation level: either a model variant (SM) or an AC skip level.
///
/// The derived `Ord` (SM variants before AC levels, each in declaration
/// order) exists so levels can key deterministic `BTreeMap` accounting;
/// ladder and reporting order remain [`ApproxLevel::ordinal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ApproxLevel {
    /// A smaller-model variant.
    Sm(ModelVariant),
    /// An approximate-caching level on the base SD-XL model.
    Ac(AcLevel),
}

impl ApproxLevel {
    /// The standard ladder for a strategy, least approximate (slowest,
    /// highest quality) first — the ordering ODA iterates over (§4.3).
    pub fn ladder(strategy: Strategy) -> Vec<ApproxLevel> {
        match strategy {
            Strategy::Ac => AC_LEVELS.iter().copied().map(ApproxLevel::Ac).collect(),
            Strategy::Sm => SM_LADDER.iter().copied().map(ApproxLevel::Sm).collect(),
        }
    }

    /// Which strategy this level belongs to.
    pub fn strategy(self) -> Strategy {
        match self {
            ApproxLevel::Sm(_) => Strategy::Sm,
            ApproxLevel::Ac(_) => Strategy::Ac,
        }
    }

    /// The model variant resident on a worker serving this level.
    ///
    /// For AC this is always SD-XL (the base model); for SM it is the
    /// variant itself.
    pub fn resident_model(self) -> ModelVariant {
        match self {
            ApproxLevel::Sm(v) => v,
            ApproxLevel::Ac(_) => ModelVariant::SdXl,
        }
    }

    /// Mean compute latency per image in seconds on `gpu`, excluding any
    /// cache-retrieval overhead (which is a property of the network state,
    /// not the level).
    pub fn compute_secs(self, gpu: GpuArch) -> f64 {
        match self {
            ApproxLevel::Sm(v) => latency::inference_secs(v, gpu),
            ApproxLevel::Ac(k) => k.compute_secs(gpu),
        }
    }

    /// Profiled peak throughput in images per minute on `gpu` — the
    /// `peak(v)` input of Eq. 1.
    pub fn peak_throughput_per_min(self, gpu: GpuArch) -> f64 {
        60.0 / self.compute_secs(gpu)
    }

    /// Profiled mean quality under random prompt assignment — the `q_v`
    /// input of Eq. 1.
    pub fn profiled_quality(self) -> f64 {
        match self {
            ApproxLevel::Sm(v) => v.spec().profiled_quality,
            ApproxLevel::Ac(k) => k.profiled_quality(),
        }
    }

    /// Whether moving from `self` to `other` requires loading different
    /// weights on the worker (the switching overhead of Obs. 4).
    pub fn requires_model_switch(self, other: ApproxLevel) -> bool {
        self.resident_model() != other.resident_model()
    }

    /// A cheap total order for reporting: AC levels first (by skip step,
    /// shallowest first), then SM variants in ladder (slowest-first)
    /// order. Sorting by this key avoids formatting a `String` per
    /// comparison and keeps each ladder in approximation order.
    pub fn ordinal(self) -> (u8, u32) {
        match self {
            ApproxLevel::Ac(k) => (0, k.skipped_steps()),
            ApproxLevel::Sm(v) => {
                let idx = SM_LADDER
                    .iter()
                    .position(|&x| x == v)
                    .unwrap_or(SM_LADDER.len());
                (1, idx as u32)
            }
        }
    }
}

impl fmt::Display for ApproxLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApproxLevel::Sm(v) => write!(f, "SM/{v}"),
            ApproxLevel::Ac(k) => write!(f, "AC/{k}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladders_are_slowest_first() {
        for strategy in [Strategy::Ac, Strategy::Sm] {
            let ladder = ApproxLevel::ladder(strategy);
            assert_eq!(ladder.len(), 6);
            let peaks: Vec<f64> = ladder
                .iter()
                .map(|l| l.peak_throughput_per_min(GpuArch::A100))
                .collect();
            assert!(
                peaks.windows(2).all(|w| w[0] < w[1]),
                "{strategy}: {peaks:?}"
            );
            let quals: Vec<f64> = ladder.iter().map(|l| l.profiled_quality()).collect();
            assert!(
                quals.windows(2).all(|w| w[0] > w[1]),
                "{strategy}: {quals:?}"
            );
        }
    }

    #[test]
    fn ac_never_switches_models() {
        let ladder = ApproxLevel::ladder(Strategy::Ac);
        for a in &ladder {
            for b in &ladder {
                assert!(!a.requires_model_switch(*b));
            }
            assert_eq!(a.resident_model(), ModelVariant::SdXl);
        }
    }

    #[test]
    fn ordinal_orders_each_ladder_in_approximation_order() {
        for strategy in [Strategy::Ac, Strategy::Sm] {
            let ladder = ApproxLevel::ladder(strategy);
            let ords: Vec<(u8, u32)> = ladder.iter().map(|l| l.ordinal()).collect();
            let mut sorted = ords.clone();
            sorted.sort();
            assert_eq!(ords, sorted, "{strategy}: {ords:?}");
        }
        // AC sorts before SM, and within AC by skip step (K5 before K10 —
        // unlike the lexicographic Display order).
        assert!(
            ApproxLevel::Ac(AcLevel(25)).ordinal() < ApproxLevel::Sm(ModelVariant::SdXl).ordinal()
        );
        assert!(ApproxLevel::Ac(AcLevel(5)).ordinal() < ApproxLevel::Ac(AcLevel(10)).ordinal());
    }

    #[test]
    fn sm_switching_is_required_between_variants() {
        let a = ApproxLevel::Sm(ModelVariant::SdXl);
        let b = ApproxLevel::Sm(ModelVariant::TinySd);
        assert!(a.requires_model_switch(b));
        assert!(!a.requires_model_switch(a));
        // Cross-strategy: SM/SD-XL and any AC level share weights.
        assert!(!a.requires_model_switch(ApproxLevel::Ac(AcLevel(10))));
    }

    #[test]
    fn strategy_tagging() {
        assert_eq!(ApproxLevel::Ac(AcLevel(5)).strategy(), Strategy::Ac);
        assert_eq!(ApproxLevel::Sm(ModelVariant::Sd15).strategy(), Strategy::Sm);
        assert_eq!(Strategy::Ac.to_string(), "AC");
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(ApproxLevel::Ac(AcLevel(15)).to_string(), "AC/K=15");
        assert_eq!(ApproxLevel::Sm(ModelVariant::Sd15).to_string(), "SM/SD-1.5");
    }
}
