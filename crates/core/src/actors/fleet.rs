//! The fleet stage: elastic-membership bookkeeping.
//!
//! The stage owns the [`AutoscaleController`] and every fleet accounting
//! sink: the billed-membership telemetry (a piecewise-constant log of
//! per-(architecture, discount) billed worker counts), the GPU-second
//! integrals the [`crate::fleet::CostReport`] is computed from, and the
//! scale/preemption event counters. The driver is the stage's only
//! caller, so the integral accumulates f64 terms in exactly the order the
//! membership changed.
//!
//! Two calls return a value: [`FleetStage::tick`] (the controller's
//! decisions gate the driver's scale actions this minute) and
//! [`FleetStage::finish`] at teardown. Everything else is accounting.

use argus_des::SimTime;
use argus_models::GpuArch;
use argus_obs::StageCounters;

use crate::fleet::{
    hourly_rate, AutoscaleController, FleetStats, MembershipSample, PoolSignal, ScaleAction,
};

/// Everything the fleet stage accumulated, returned at teardown. The
/// driver folds in the completion count (owned by the metrics stage) to
/// finish the [`crate::fleet::CostReport`].
pub(crate) struct FleetReport {
    pub stats: FleetStats,
    /// Billed GPU-minutes by `(architecture, on-demand, spot)`.
    pub gpu_minutes: Vec<(GpuArch, f64, f64)>,
    pub on_demand_dollars: f64,
    pub spot_dollars: f64,
    /// Call counters for the stage profile (§12 telemetry).
    pub profile: StageCounters,
}

/// The fleet stage: the autoscale controller and cost accounting, driven
/// by plain method calls.
pub(crate) struct FleetStage {
    controller: Option<AutoscaleController>,
    stats: FleetStats,
    /// Last membership change: the counts in force since `last_t`.
    last_t: SimTime,
    last_counts: Vec<(GpuArch, f64, u32)>,
    /// Accrued billed GPU-seconds by `(architecture, spot?)` — a Vec in
    /// first-seen order (D2: no unordered-map iteration).
    gpu_secs: Vec<(GpuArch, bool, f64)>,
    on_demand_dollars: f64,
    spot_dollars: f64,
    profile: StageCounters,
}

impl FleetStage {
    /// A fleet stage. `controller` is `None` when the run has no
    /// autoscaler — the stage then only does accounting.
    pub(crate) fn new(controller: Option<AutoscaleController>) -> Self {
        FleetStage {
            controller,
            stats: FleetStats::default(),
            last_t: SimTime::ZERO,
            last_counts: Vec::new(),
            gpu_secs: Vec::new(),
            on_demand_dollars: 0.0,
            spot_dollars: 0.0,
            profile: StageCounters::default(),
        }
    }

    /// The billed membership changed (or a minute boundary sampled it):
    /// per-(architecture, discount) billed worker counts in force from
    /// `t` onward. Closes the previous accrual interval.
    pub(crate) fn membership(&mut self, t: SimTime, counts: Vec<(GpuArch, f64, u32)>) {
        self.profile.count(false);
        self.accrue_until(t);
        let total: u32 = counts.iter().map(|&(_, _, n)| n).sum();
        self.stats.peak_workers = self.stats.peak_workers.max(total);
        // Log only actual changes: the telemetry stays piecewise-constant
        // and minimal for reconciliation.
        if self.stats.samples.last().map(|s| &s.counts) != Some(&counts) {
            self.stats.samples.push(MembershipSample {
                t_secs: t.as_secs(),
                counts: counts.clone(),
            });
        }
        self.last_counts = counts;
    }

    /// Allocator-tick controller step: per-pool pressure/idle signals
    /// in, scale actions out.
    pub(crate) fn tick(&mut self, t: SimTime, signals: &[PoolSignal]) -> Vec<ScaleAction> {
        self.profile.count(true);
        let actions = match self.controller.as_mut() {
            Some(ctl) => ctl.on_tick(t.as_secs(), signals),
            None => Vec::new(),
        };
        for a in &actions {
            match *a {
                ScaleAction::Out { n, .. } => {
                    self.stats.scale_out_events += 1;
                    self.stats.workers_added += n as u64;
                }
                ScaleAction::In { .. } => {
                    self.stats.scale_in_events += 1;
                    // workers_retired arrives via `retired` once the
                    // driver knows how many idle victims existed.
                }
            }
        }
        actions
    }

    /// A preemption warning expired: the instance went away clean
    /// (`ridden`) or with an in-flight pass on board (`lost`).
    pub(crate) fn preempt(&mut self, ridden: u64, lost: u64) {
        self.profile.count(false);
        self.stats.preemptions_ridden += ridden;
        self.stats.preemptions_lost += lost;
    }

    /// Workers a scale-in action actually evicted (bounded by how many
    /// idle victims existed when it fired).
    pub(crate) fn retired(&mut self, n: u64) {
        self.profile.count(false);
        self.stats.workers_retired += n;
    }

    /// Closes the accrual integral at `end` and hands everything back.
    pub(crate) fn finish(&mut self, end: SimTime) -> FleetReport {
        self.profile.count(true);
        self.accrue_until(end);
        let gpu_minutes: Vec<(GpuArch, f64, f64)> = GpuArch::ALL
            .iter()
            .filter_map(|&gpu| {
                // `+ 0.0` flushes the `-0.0` an empty sum yields, so an
                // all-on-demand pool reports `0.0` spot minutes, not a
                // signed zero.
                let od: f64 = self
                    .gpu_secs
                    .iter()
                    .filter(|&&(g, spot, _)| g == gpu && !spot)
                    .map(|&(_, _, s)| s)
                    .sum::<f64>()
                    + 0.0;
                let spot: f64 = self
                    .gpu_secs
                    .iter()
                    .filter(|&&(g, spot, _)| g == gpu && spot)
                    .map(|&(_, _, s)| s)
                    .sum::<f64>()
                    + 0.0;
                (od > 0.0 || spot > 0.0).then_some((gpu, od / 60.0, spot / 60.0))
            })
            .collect();
        FleetReport {
            stats: std::mem::take(&mut self.stats),
            gpu_minutes,
            on_demand_dollars: self.on_demand_dollars,
            spot_dollars: self.spot_dollars,
            profile: self.profile,
        }
    }

    /// Accrues GPU-seconds and dollars for the interval `[last_t, t)` at
    /// the membership in force over it.
    fn accrue_until(&mut self, t: SimTime) {
        let secs = (t - self.last_t).as_secs();
        if secs > 0.0 {
            for &(gpu, discount, n) in &self.last_counts {
                if n == 0 {
                    continue;
                }
                let gpu_s = secs * n as f64;
                let spot = discount > 0.0;
                match self
                    .gpu_secs
                    .iter_mut()
                    .find(|(g, s, _)| *g == gpu && *s == spot)
                {
                    Some(slot) => slot.2 += gpu_s,
                    None => self.gpu_secs.push((gpu, spot, gpu_s)),
                }
                let dollars = hourly_rate(gpu, discount) * gpu_s / 3600.0;
                if spot {
                    self.spot_dollars += dollars;
                } else {
                    self.on_demand_dollars += dollars;
                }
            }
        }
        self.last_t = t;
    }
}
