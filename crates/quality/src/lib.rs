//! # argus-quality — the synthetic PickScore oracle
//!
//! The paper measures image quality with PickScore (ref. 50), a learned
//! preference model over (prompt, image) pairs, and defines a prompt's
//! **optimal model** as the fastest approximation level whose score is
//! within `θ = 0.9` of the best achievable score (§3). Neither the images
//! nor PickScore exist offline, so this crate supplies the *quality
//! landscape* directly: a deterministic oracle mapping
//! `(prompt, approximation level)` to a PickScore-scale value.
//!
//! The oracle is calibrated against every number the paper publishes:
//!
//! * SD-XL mean ≈ 21.0; Small-SD mean under random assignment ≈ 17.4 vs
//!   ≈ 20.6 under optimal assignment (Fig. 9);
//! * AC classifier-routed 20.8 vs random 17.6, SM 20.6 vs 18.2 (§5.5);
//! * a majority of prompts tolerate some approximation while a solid
//!   minority requires the base model (Fig. 8);
//! * degradation grows super-linearly with the speed gap between levels
//!   (§4.3), which is what makes ODA's nearest-neighbour shifting optimal.
//!
//! Mechanism: each prompt carries a latent *tolerance* `t ∈ [0, 1]`
//! (derived from its structural complexity plus noise). Each approximation
//! level has a *depth* `a ∈ [0, 1]`. Quality is approximately
//! `base − λ·a − κ·(max(0, a − t))² − noise`: approximation is nearly free
//! until depth exceeds tolerance, then cost grows quadratically.
//!
//! Every quantity of one prompt derives from one hash of its text and id
//! plus the prompt's base-quality and severity draws: its
//! [`PromptTerms`]. [`QualityOracle::terms`] computes them once, so a
//! caller that needs a score *and* the base it is judged against (a
//! completion, a discriminator judgement) or a whole ladder's scores
//! hashes the text once; the oracle's per-quantity methods are shorthands
//! that compute the terms for one read.
//!
//! # Example
//!
//! ```
//! use argus_prompts::PromptGenerator;
//! use argus_quality::QualityOracle;
//! use argus_models::ApproxLevel;
//!
//! let oracle = QualityOracle::new(42);
//! let p = PromptGenerator::new(1).generate();
//! let ladder = ApproxLevel::ladder(argus_models::Strategy::Sm);
//! let optimal = oracle.optimal_level(&p, &ladder);
//! let score = oracle.score(&p, ladder[optimal]);
//! assert!(score >= 0.9 * oracle.scores(&p, &ladder).into_iter().fold(f64::MIN, f64::max));
//! assert!(optimal < ladder.len());
//!
//! // One hash of the text serves a score and its base.
//! let terms = oracle.terms(&p);
//! assert_eq!(terms.score(ladder[optimal], 0.75), score);
//! assert_eq!(terms.base_quality(), oracle.base_quality(&p));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod degradation;
mod depth;
mod oracle;
mod rater;

pub use degradation::DegradationProfile;
pub use depth::approximation_depth;
pub use oracle::{PromptTerms, QualityOracle, DEFAULT_AC_SIMILARITY, OPTIMAL_QUALITY_THETA};
pub use rater::{simulate_suitability, RaterPanel};
