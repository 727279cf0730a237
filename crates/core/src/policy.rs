//! Serving policies: Argus and every baseline of §5.1.
//!
//! A [`Policy`] is a name. What it does is its pipeline, which
//! [`crate::pipeline::pipeline_for`] builds: the one policy→behaviour map.

use std::fmt;

/// A serving policy — the system under test in an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Full Argus: classifier + solver + ODA/PASM + strategy switching.
    Argus,
    /// Prompt-Agnostic Argus (§5.1): solver and AC/SM switching, but no
    /// classifier and no ODA — prompts are redistributed proportionally to
    /// the load distribution, like Proteus.
    Pac,
    /// Proteus (ref. 23): SM-only accuracy scaling with a cluster-level solver,
    /// prompt-agnostic routing.
    Proteus,
    /// Sommelier (ref. 38): per-GPU model selection — each worker reacts to its
    /// own backlog by stepping its model variant up or down.
    Sommelier,
    /// NIRVANA (ref. 20) extended to a cluster: SD-XL + approximate caching on
    /// every worker, per-prompt K from retrieval similarity, uniform
    /// load spread, no load-adaptive reallocation.
    Nirvana,
    /// Clipper-HA: the most accurate model (SD-XL) statically on all GPUs.
    ClipperHa,
    /// Clipper-HT: the fastest model (Tiny-SD) statically on all GPUs.
    ClipperHt,
}

impl Policy {
    /// All policies in the paper's comparison order.
    pub const ALL: [Policy; 7] = [
        Policy::Argus,
        Policy::Pac,
        Policy::Proteus,
        Policy::Sommelier,
        Policy::Nirvana,
        Policy::ClipperHa,
        Policy::ClipperHt,
    ];

    /// Display name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            Policy::Argus => "Argus",
            Policy::Pac => "PAC",
            Policy::Proteus => "Proteus",
            Policy::Sommelier => "Sommelier",
            Policy::Nirvana => "NIRVANA",
            Policy::ClipperHa => "Clipper-HA",
            Policy::ClipperHt => "Clipper-HT",
        }
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_display() {
        for p in Policy::ALL {
            assert!(!p.name().is_empty());
            assert_eq!(p.to_string(), p.name());
        }
    }
}
