//! The pluggable capacity model behind Eq. 1 — what one worker is worth.
//!
//! The allocator's level profiles used to be constants derived from the
//! batch-1 latency tables: `peak(v) = 60 / t_v`. That made every capacity
//! refinement invisible to the planner — batched dispatch (Obs. 5, PR 3)
//! raised the *served* throughput of memory-amortizing variants without
//! changing what the solver *planned*, and heterogeneous pools (PR 2) all
//! shared the one formula. This module makes the capacity estimate a
//! first-class, swappable interface: a [`CapacityModel`] answers, for one
//! worker, *"serving `level` on `gpu` under this batch bound and SLO, what
//! peak QPM can you plan on?"* — and everything downstream (the Eq. 1
//! solver, SLO derating, per-architecture pools, the `s61_capacity_plan`
//! guard) consumes that answer instead of reimplementing it.
//!
//! Two built-in models:
//!
//! * [`Batch1Model`] — the paper's profile: one job per pass, so peak QPM
//!   is `60 / (t_compute + t_retrieval)`. **Bit-identical** to the
//!   pre-refactor constants (pinned by `tests/capacity_model.rs`).
//! * [`BatchedModel`] — folds the Obs. 5 `latency_inflation(B)` curve into
//!   the profile: the planned batch is capped exactly like the
//!   dispatcher's (SLO tail budget, worst-case-member compute — an AC
//!   member can miss the cache into a full generation, so the AC ladder
//!   plans batch-1 under the default SLO, the paper's §4.5 operating
//!   point), and the per-job service time divides by the Obs. 5
//!   throughput speed-up. Tiny-SD-class levels gain real planned
//!   capacity; compute-bound SD-XL gains almost nothing — the solver now
//!   sees the same asymmetry the dispatcher exploits.
//!
//! Any future capacity source — measured profiles, derating from health
//! signals, autoscaling predictions — plugs in through
//! [`crate::system::RunConfig::with_capacity_model`] without touching the
//! solver.

use std::fmt;

use argus_models::batching::unet_pass_profile;
use argus_models::{AcLevel, ApproxLevel, GpuArch, Strategy};

/// Fraction of the latency SLO a single worker visit may consume before
/// the scheduler spills to a faster-draining worker (§4.7 tail guard),
/// before the dispatcher stops growing a batch, and before the
/// [`BatchedModel`] stops planning one (Obs. 5 latency inflation). Shared
/// so the planner's batch cap and the dispatcher's batch cap can never
/// disagree.
pub const TAIL_BUDGET_FRACTION: f64 = 0.66;

/// The serving context a capacity estimate is conditioned on: everything
/// about the *run* (as opposed to the level/architecture pair) that
/// changes what one worker is worth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityCtx {
    /// Upper bound on jobs a worker drains into one batched start
    /// ([`crate::system::RunConfig::with_batching`]).
    pub max_batch: u32,
    /// The end-to-end latency SLO in seconds (3× base SD-XL latency,
    /// §5.1) — the budget batch sizing must respect.
    pub slo_secs: f64,
    /// Mean cache-retrieval overhead in seconds, charged to AC levels
    /// (the network state the allocator observed, not a property of the
    /// level).
    pub retrieval_overhead_secs: f64,
    /// The escalation demand a cascade feeds into Eq. 1: the observed
    /// (EWMA) fraction of first-pass jobs the discriminator re-enqueues
    /// at the escalation level, in `[0, 1]`. `None` on every non-cascade
    /// path — the pricing branch is never taken and the estimate is
    /// bit-identical to the pre-cascade tree.
    ///
    /// A model prices the rate as a **uniform capacity tax** of
    /// `1 + rate` — every escalation is one extra planned job, so the
    /// fleet plans as if demand were `(1 + rate) × λ` (DESIGN.md §13).
    /// Two rejected alternatives, both measured worse in `s65_cascade`:
    /// charging `rate × service(escalation level)` on the first-pass rung
    /// alone distorts Eq. 1's quality trade (the cheap rung stops looking
    /// cheap, the solver drifts to slower rungs and violations *rise*);
    /// anchoring a uniform tax at the escalation-to-first-pass service
    /// ratio over-cools the plan by an order of magnitude (Tiny-SD →
    /// SD-XL is a ~20× service ratio), collapsing every first pass onto
    /// the cheapest rung and giving the escalation feedback loop more
    /// doubt to chew on. The level-neutral `1 + rate` leaves the quality
    /// trade untouched and provisions just enough headroom for the second
    /// passes.
    pub escalation: Option<f64>,
}

impl CapacityCtx {
    /// The paper's batch-1 context: no batching, so the SLO never enters
    /// the capacity estimate (only the retrieval overhead does).
    pub fn batch1(retrieval_overhead_secs: f64) -> Self {
        CapacityCtx {
            max_batch: 1,
            slo_secs: f64::INFINITY,
            retrieval_overhead_secs,
            escalation: None,
        }
    }

    /// The uniform escalation capacity tax — `1 + rate` — or `None`
    /// when no escalation demand is present. Shared by both built-in
    /// models so their Eq. 1 pricing can never disagree.
    fn escalation_tax(&self) -> Option<f64> {
        let rate = self.escalation?;
        if rate > 0.0 {
            Some(1.0 + rate.min(1.0))
        } else {
            None
        }
    }
}

/// A pluggable estimate of one worker's serving capacity — the `peak(v)`
/// input of Eq. 1, as a function of the level, the silicon, and the run's
/// batching/SLO context.
///
/// Contract (property-tested in `tests/capacity_model.rs`):
///
/// * `peak_qpm` is finite and positive for every ladder level;
/// * capacity is **monotone non-decreasing in the batch bound** — raising
///   `max_batch` can only add planning headroom;
/// * capacity never drops below batch-1 feasibility: for any context,
///   `peak_qpm(ctx) ≥ peak_qpm(batch1 ctx)` with the same overhead — a
///   plan that was feasible without batching stays feasible with it.
pub trait CapacityModel: fmt::Debug + Send + Sync {
    /// Display name (diagnostics and memo keys).
    fn name(&self) -> &'static str;

    /// Effective peak serving throughput of one worker at `level` on
    /// `gpu`, in queries per minute, under `ctx`.
    fn peak_qpm(&self, level: ApproxLevel, gpu: GpuArch, ctx: &CapacityCtx) -> f64;

    /// Per-job service time in seconds implied by the peak —
    /// `60 / peak_qpm` — the throughput-side number Eq. 1 reasons in.
    fn service_secs(&self, level: ApproxLevel, gpu: GpuArch, ctx: &CapacityCtx) -> f64 {
        60.0 / self.peak_qpm(level, gpu, ctx)
    }

    /// Per-job *wall-clock* latency in seconds — what one job actually
    /// waits for its pass. For batch-1 models this equals
    /// [`CapacityModel::service_secs`]; for batched models it is the full
    /// inflated pass time `t₁ × latency_inflation(B*)` (a batch of `B*`
    /// jobs finishes together), which is strictly larger than the
    /// amortized service time. The SLO queueing derating must budget
    /// against *this* number, or batched plans run hotter than their
    /// latency slack allows.
    fn job_latency_secs(&self, level: ApproxLevel, gpu: GpuArch, ctx: &CapacityCtx) -> f64 {
        self.service_secs(level, gpu, ctx)
    }

    /// The batch size the model plans `level` to run at under `ctx`
    /// (diagnostics; 1 for batch-agnostic models).
    fn planned_batch(&self, _level: ApproxLevel, _gpu: GpuArch, _ctx: &CapacityCtx) -> u32 {
        1
    }
}

/// The worst-case per-member compute of a batch at `level`: an AC member
/// whose retrieval misses generates in full, and the batch completes
/// together at that member's pace — so AC capacity is budgeted at the
/// `K = 0` cost. Shared by the dispatcher's batch cap and the
/// [`BatchedModel`].
pub fn worst_case_member_secs(level: ApproxLevel, gpu: GpuArch) -> f64 {
    match level {
        ApproxLevel::Ac(_) => ApproxLevel::Ac(AcLevel(0)).compute_secs(gpu),
        sm @ ApproxLevel::Sm(_) => sm.compute_secs(gpu),
    }
}

/// The largest batch `level` can run on `gpu` without the Obs. 5 latency
/// inflation at the worst-case member compute eating the SLO tail budget
/// — the dispatcher's cap without the queue-depth constraint. Returns 1
/// when `max_batch <= 1`.
pub fn slo_capped_batch(level: ApproxLevel, gpu: GpuArch, max_batch: u32, slo_secs: f64) -> u32 {
    if max_batch <= 1 {
        return 1;
    }
    let base = worst_case_member_secs(level, gpu);
    let profile = unet_pass_profile(level.resident_model());
    let budget = TAIL_BUDGET_FRACTION * slo_secs;
    let mut b = max_batch;
    while b > 1 && base * profile.latency_inflation(gpu, b) > budget {
        b -= 1;
    }
    b
}

/// The paper's batch-1 capacity profile: one job per pass, peak QPM is
/// `60 / (compute + retrieval overhead for AC)`. Bit-identical to the
/// constants the solver planned with before the [`CapacityModel`]
/// refactor (the parity pin of `tests/capacity_model.rs`), and the
/// default model of every run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Batch1Model;

impl CapacityModel for Batch1Model {
    fn name(&self) -> &'static str {
        "batch1"
    }

    fn peak_qpm(&self, level: ApproxLevel, gpu: GpuArch, ctx: &CapacityCtx) -> f64 {
        let mut secs = level.compute_secs(gpu);
        if level.strategy() == Strategy::Ac {
            secs += ctx.retrieval_overhead_secs.max(0.0);
        }
        if let Some(tax) = ctx.escalation_tax() {
            secs *= tax;
        }
        60.0 / secs
    }
}

/// The batching-aware Eq. 1 profile (Obs. 5): a worker planned at batch
/// `B*` serves `B*` jobs per `t₁ × latency_inflation(B*)` pass, so its
/// per-job service time divides by the throughput speed-up
/// `B* / inflation(B*)`.
///
/// `B*` is the [`slo_capped_batch`]: grown toward the run's batch bound
/// but stopped where the inflation at the *worst-case member* compute
/// would exceed the SLO tail budget — exactly the dispatcher's rule, so
/// the planner never counts on a batch the dispatcher would refuse to
/// form. Consequences:
///
/// * AC levels are budgeted at the cache-miss (`K = 0`, full SD-XL)
///   cost, which keeps the AC ladder planned at batch-1 under the
///   default 3× SLO — the paper's §4.5 operating point survives the
///   refactor untouched;
/// * the AC retrieval overhead stays charged per job (each member does
///   its own lookup and the batch waits on the slowest — fan-out does
///   not amortize the store round trip);
/// * with `max_batch = 1` every estimate degenerates to [`Batch1Model`]
///   bit-for-bit (`inflation(1) = 1`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchedModel;

impl CapacityModel for BatchedModel {
    fn name(&self) -> &'static str {
        "batched"
    }

    fn peak_qpm(&self, level: ApproxLevel, gpu: GpuArch, ctx: &CapacityCtx) -> f64 {
        let b = self.planned_batch(level, gpu, ctx);
        let profile = unet_pass_profile(level.resident_model());
        let mut secs = level.compute_secs(gpu) * profile.latency_inflation(gpu, b) / b as f64;
        if level.strategy() == Strategy::Ac {
            secs += ctx.retrieval_overhead_secs.max(0.0);
        }
        if let Some(tax) = ctx.escalation_tax() {
            secs *= tax;
        }
        60.0 / secs
    }

    fn planned_batch(&self, level: ApproxLevel, gpu: GpuArch, ctx: &CapacityCtx) -> u32 {
        slo_capped_batch(level, gpu, ctx.max_batch, ctx.slo_secs)
    }

    fn job_latency_secs(&self, level: ApproxLevel, gpu: GpuArch, ctx: &CapacityCtx) -> f64 {
        // The Obs. 5 batch is *queue-drain* batching: the dispatcher only
        // forms one when the queue already holds ≥ 2 jobs, so a job
        // arriving at the planned (sub-saturated) operating point starts
        // an ordinary un-batched pass — its wall latency is the batch-1
        // pass, and that is what the queueing derating must budget. The
        // batched drain rate shows up in `peak_qpm` (the throughput side);
        // the worst a *backlogged* pass can stretch to is separately
        // bounded by the dispatcher's tail budget (`slo_capped_batch`).
        let mut secs = level.compute_secs(gpu);
        if level.strategy() == Strategy::Ac {
            secs += ctx.retrieval_overhead_secs.max(0.0);
        }
        secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use argus_models::ModelVariant;

    const SLO: f64 = 12.6;

    fn ctx(max_batch: u32) -> CapacityCtx {
        CapacityCtx {
            max_batch,
            slo_secs: SLO,
            retrieval_overhead_secs: 0.02,
            escalation: None,
        }
    }

    #[test]
    fn batch1_model_matches_the_legacy_formula() {
        for strategy in [Strategy::Ac, Strategy::Sm] {
            for &level in ApproxLevel::ladder(strategy) {
                for gpu in [GpuArch::A100, GpuArch::A10G, GpuArch::V100] {
                    let mut secs = level.compute_secs(gpu);
                    if level.strategy() == Strategy::Ac {
                        secs += 0.02;
                    }
                    let legacy = 60.0 / secs;
                    assert_eq!(
                        Batch1Model.peak_qpm(level, gpu, &ctx(1)).to_bits(),
                        legacy.to_bits(),
                        "{level} on {gpu:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_model_at_bound_one_is_batch1() {
        for strategy in [Strategy::Ac, Strategy::Sm] {
            for &level in ApproxLevel::ladder(strategy) {
                let a = Batch1Model.peak_qpm(level, GpuArch::A100, &ctx(1));
                let b = BatchedModel.peak_qpm(level, GpuArch::A100, &ctx(1));
                assert_eq!(a.to_bits(), b.to_bits(), "{level}");
            }
        }
    }

    #[test]
    fn ac_ladder_plans_batch_one_under_the_default_slo() {
        // §4.5: any AC member can miss into a full SD-XL generation, whose
        // inflation eats the 3× SLO tail budget immediately.
        for &level in ApproxLevel::ladder(Strategy::Ac) {
            assert_eq!(
                BatchedModel.planned_batch(level, GpuArch::A100, &ctx(8)),
                1,
                "{level}"
            );
        }
    }

    #[test]
    fn tiny_sd_gains_planned_capacity_sdxl_does_not() {
        let tiny = ApproxLevel::Sm(ModelVariant::TinySd);
        let xl = ApproxLevel::Sm(ModelVariant::SdXl);
        let gain = |level| {
            BatchedModel.peak_qpm(level, GpuArch::A100, &ctx(8))
                / Batch1Model.peak_qpm(level, GpuArch::A100, &ctx(8))
        };
        assert!(gain(tiny) > 1.1, "tiny gain {}", gain(tiny));
        assert!(gain(xl) < 1.05, "xl gain {}", gain(xl));
        assert!(BatchedModel.planned_batch(tiny, GpuArch::A100, &ctx(8)) >= 4);
        assert_eq!(BatchedModel.planned_batch(xl, GpuArch::A100, &ctx(8)), 1);
    }

    #[test]
    fn capacity_is_monotone_in_the_batch_bound() {
        for strategy in [Strategy::Ac, Strategy::Sm] {
            for &level in ApproxLevel::ladder(strategy) {
                for gpu in [GpuArch::A100, GpuArch::A10G, GpuArch::V100] {
                    let mut last = 0.0f64;
                    for b in 1..=16u32 {
                        let p = BatchedModel.peak_qpm(level, gpu, &ctx(b));
                        assert!(
                            p + 1e-9 >= last,
                            "{level} on {gpu:?}: peak fell raising B to {b}"
                        );
                        last = p;
                    }
                }
            }
        }
    }

    #[test]
    fn service_secs_inverts_peak() {
        let level = ApproxLevel::Sm(ModelVariant::TinySd);
        let p = BatchedModel.peak_qpm(level, GpuArch::A100, &ctx(8));
        let s = BatchedModel.service_secs(level, GpuArch::A100, &ctx(8));
        assert!((s * p - 60.0).abs() < 1e-9);
    }

    #[test]
    fn batch1_ctx_ignores_the_slo() {
        let a = Batch1Model.peak_qpm(
            ApproxLevel::Ac(AcLevel(10)),
            GpuArch::A100,
            &CapacityCtx::batch1(0.05),
        );
        let b = Batch1Model.peak_qpm(
            ApproxLevel::Ac(AcLevel(10)),
            GpuArch::A100,
            &CapacityCtx {
                max_batch: 1,
                slo_secs: 1.0,
                retrieval_overhead_secs: 0.05,
                escalation: None,
            },
        );
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn escalation_pricing_is_a_uniform_capacity_tax() {
        let tiny = ApproxLevel::Sm(ModelVariant::TinySd);
        let base = ctx(1);
        let priced = CapacityCtx {
            escalation: Some(0.2),
            ..base
        };
        // Every level pays the same `1 + rate` factor — the quality
        // trade between rungs is untouched, the whole fleet just plans
        // as if demand were `(1 + rate) × λ`.
        let tax = 1.2;
        for &level in ApproxLevel::ladder(Strategy::Sm) {
            let cold = Batch1Model.peak_qpm(level, GpuArch::A100, &base);
            let warm = Batch1Model.peak_qpm(level, GpuArch::A100, &priced);
            // Same factor on every rung (up to rounding in 60/(s·tax)).
            let ratio = cold / warm;
            assert!(
                (ratio - tax).abs() < 1e-12 * tax,
                "{level}: {ratio} vs {tax}"
            );
        }
        // A zero rate is a no-op, bit for bit.
        let zero = CapacityCtx {
            escalation: Some(0.0),
            ..base
        };
        assert_eq!(
            Batch1Model.peak_qpm(tiny, GpuArch::A100, &zero).to_bits(),
            Batch1Model.peak_qpm(tiny, GpuArch::A100, &base).to_bits()
        );
        // The batched model taxes its own (batched) service times and
        // stays monotone: more escalation, less peak.
        let b8 = CapacityCtx {
            max_batch: 8,
            ..priced
        };
        let hot = CapacityCtx {
            escalation: Some(0.5),
            ..b8
        };
        let p_cold = BatchedModel.peak_qpm(
            tiny,
            GpuArch::A100,
            &CapacityCtx {
                escalation: None,
                ..b8
            },
        );
        let p_warm = BatchedModel.peak_qpm(tiny, GpuArch::A100, &b8);
        let p_hot = BatchedModel.peak_qpm(tiny, GpuArch::A100, &hot);
        assert!(
            p_cold > p_warm && p_warm > p_hot,
            "{p_cold} {p_warm} {p_hot}"
        );
    }
}
