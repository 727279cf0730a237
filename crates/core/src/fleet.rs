//! The elastic fleet subsystem: autoscaling policy, spot pricing and
//! cost-aware accounting (ROADMAP direction 1).
//!
//! The paper's §6 saturation signal (`RunOutcome::saturated_minutes`) is
//! explicitly a *scale-out* signal with no machinery behind it. This
//! module supplies the machinery, in three parts:
//!
//! * an [`AutoscalePolicy`] + [`AutoscaleController`] pair — a
//!   deterministic hysteresis controller that grows a pool after
//!   sustained saturation/re-split/backlog pressure and shrinks it after
//!   sustained idleness, with a cloud provisioning delay, a per-pool
//!   cooldown and per-architecture min/max bounds;
//! * spot-pool configuration ([`SpotPool`]) and the preemption-schedule
//!   helper [`preemption_events`], which turns the seeded storm schedules
//!   of `argus_workload` into [`crate::system::FaultEvent::Preemption`]
//!   events whose warning window lets the dispatcher drain work off the
//!   doomed instance;
//! * cost accounting ([`FleetStats`], [`CostReport`]) — per-architecture
//!   on-demand/spot $/GPU-hour rates integrated over the billed-worker
//!   membership telemetry, so elasticity experiments are measurable in
//!   dollars without re-running.
//!
//! Everything here is pure data + arithmetic: the controller is a pure
//! function of the signal sequence it is fed, so same-seed runs stay
//! bit-identical (`tests/fleet.rs` pins it).

use argus_des::SimDuration;
use argus_models::GpuArch;

use crate::system::FaultEvent;

/// Published on-demand price per GPU-hour, by architecture — indicative
/// cloud list prices (p3/g5/p4d single-GPU shares), fixed constants so
/// cost reports are reproducible.
pub fn on_demand_hourly(gpu: GpuArch) -> f64 {
    match gpu {
        GpuArch::V100 => 3.06,
        GpuArch::A10G => 1.21,
        GpuArch::A100 => 4.10,
    }
}

/// The effective hourly rate for a worker: the on-demand price, reduced
/// by the spot discount when the worker is preemptible (`discount` in
/// `(0, 1]`; `0.0` means on-demand).
pub fn hourly_rate(gpu: GpuArch, discount: f64) -> f64 {
    on_demand_hourly(gpu) * (1.0 - discount)
}

/// A preemptible worker pool ([`crate::system::RunConfig::with_spot_pool`]):
/// `workers` instances of `gpu` billed at `(1 - discount)` times the
/// on-demand rate, exposed to [`crate::system::FaultEvent::Preemption`]
/// schedules.
#[derive(Debug, Clone, PartialEq)]
pub struct SpotPool {
    /// Architecture of the pool.
    pub gpu: GpuArch,
    /// Number of spot workers.
    pub workers: usize,
    /// Spot discount off the on-demand rate, in `(0, 1]`.
    pub discount: f64,
}

/// Autoscale controller configuration
/// ([`crate::system::RunConfig::with_autoscaler`]).
///
/// The controller acts once per allocator tick (one virtual minute). A
/// pool scales **out** after [`AutoscalePolicy::scale_out_after`]
/// consecutive pressured ticks (solver saturation, a mid-minute re-split
/// firing, or backlog beyond the planned capacity) and **in** after
/// [`AutoscalePolicy::scale_in_after`] consecutive idle ticks (demand
/// share and backlog drain rate both below
/// [`AutoscalePolicy::idle_utilization`] of capacity). New instances
/// come up after [`AutoscalePolicy::provisioning_delay_secs`]; any action
/// starts a per-pool cooldown of [`AutoscalePolicy::cooldown_secs`].
#[derive(Debug, Clone, PartialEq)]
pub struct AutoscalePolicy {
    /// Consecutive pressured ticks before a scale-out.
    pub scale_out_after: u32,
    /// Consecutive idle ticks before a scale-in.
    pub scale_in_after: u32,
    /// Workers added/removed per action.
    pub step: usize,
    /// Cloud provisioning delay (seconds) before a new worker serves.
    pub provisioning_delay_secs: f64,
    /// Minimum seconds between actions on the same pool.
    pub cooldown_secs: f64,
    /// Idle threshold: an unpressured pool is idle when its demand share
    /// and its backlog drain rate are both below this fraction of its
    /// planned capacity.
    pub idle_utilization: f64,
    /// Per-architecture `(min, max)` worker bounds. Architectures not
    /// listed default to `min 1, max 2 × initial pool size`.
    pub bounds: Vec<(GpuArch, usize, usize)>,
}

impl Default for AutoscalePolicy {
    fn default() -> Self {
        AutoscalePolicy {
            scale_out_after: 2,
            scale_in_after: 5,
            step: 1,
            provisioning_delay_secs: 90.0,
            cooldown_secs: 180.0,
            idle_utilization: 0.30,
            bounds: Vec::new(),
        }
    }
}

impl AutoscalePolicy {
    /// Sets the `(min, max)` worker bounds for one architecture pool.
    ///
    /// # Panics
    /// Panics if `min == 0` or `min > max`.
    pub fn with_bounds(mut self, gpu: GpuArch, min: usize, max: usize) -> Self {
        assert!(min >= 1 && min <= max, "invalid autoscale bounds");
        self.bounds.retain(|&(g, _, _)| g != gpu);
        self.bounds.push((gpu, min, max));
        self
    }

    /// Sets the per-action worker step.
    ///
    /// # Panics
    /// Panics if `step == 0`.
    pub fn with_step(mut self, step: usize) -> Self {
        assert!(step >= 1, "autoscale step must be at least 1");
        self.step = step;
        self
    }

    /// Sets the provisioning delay in seconds.
    pub fn with_provisioning_delay(mut self, secs: f64) -> Self {
        assert!(secs >= 0.0 && secs.is_finite(), "invalid delay");
        self.provisioning_delay_secs = secs;
        self
    }

    /// Sets the per-pool cooldown in seconds.
    pub fn with_cooldown(mut self, secs: f64) -> Self {
        assert!(secs >= 0.0 && secs.is_finite(), "invalid cooldown");
        self.cooldown_secs = secs;
        self
    }
}

/// One pool's controller inputs for a tick, as the driver observes them.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PoolSignal {
    pub(crate) gpu: GpuArch,
    /// Saturation, a re-split firing, or backlog beyond planned capacity.
    pub(crate) pressured: bool,
    /// The backlog as the drain rate (QPM) that clears it within one tick.
    pub(crate) backlog_qpm: f64,
    /// The plan's capacity (QPM) at the pool's current size.
    pub(crate) cap_qpm: f64,
    /// The pool's planned demand share (QPM).
    pub(crate) share_qpm: f64,
    /// Dispatchable workers right now.
    pub(crate) alive: usize,
    /// Workers already provisioning toward this pool.
    pub(crate) pending: usize,
}

/// A scaling decision the driver must carry out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ScaleAction {
    /// Provision `n` new on-demand workers on `gpu`, serving after `delay`.
    Out {
        gpu: GpuArch,
        n: usize,
        delay: SimDuration,
    },
    /// Retire `n` idle workers from the `gpu` pool.
    In { gpu: GpuArch, n: usize },
}

#[derive(Debug, Clone)]
struct PoolCtl {
    gpu: GpuArch,
    min: usize,
    max: usize,
    out_streak: u32,
    in_streak: u32,
    cooldown_until: f64,
}

/// The deterministic hysteresis controller behind
/// [`crate::system::RunConfig::with_autoscaler`]. Owned by the fleet
/// stage, it applies the whole [`AutoscalePolicy`]: the driver feeds it
/// one [`PoolSignal`] per pool per tick and executes the returned
/// [`ScaleAction`]s.
#[derive(Debug, Clone)]
pub(crate) struct AutoscaleController {
    policy: AutoscalePolicy,
    pools: Vec<PoolCtl>,
}

impl AutoscaleController {
    /// Builds the controller over the run's initial per-architecture pool
    /// sizes (spot workers included — they count toward the bounds the
    /// controller respects).
    pub(crate) fn new(policy: AutoscalePolicy, initial: &[(GpuArch, usize)]) -> Self {
        let pools = initial
            .iter()
            .map(|&(gpu, n)| {
                let (min, max) = policy
                    .bounds
                    .iter()
                    .find(|&&(g, _, _)| g == gpu)
                    .map(|&(_, lo, hi)| (lo, hi))
                    .unwrap_or((1, (2 * n).max(2)));
                PoolCtl {
                    gpu,
                    min,
                    max,
                    out_streak: 0,
                    in_streak: 0,
                    cooldown_until: 0.0,
                }
            })
            .collect();
        AutoscaleController { policy, pools }
    }

    /// Advances the controller by one tick and returns the actions due.
    pub(crate) fn on_tick(&mut self, t_secs: f64, signals: &[PoolSignal]) -> Vec<ScaleAction> {
        let mut actions = Vec::new();
        for s in signals {
            let Some(ctl) = self.pools.iter_mut().find(|p| p.gpu == s.gpu) else {
                continue;
            };
            // Idle: both the planned share and the instantaneous backlog
            // sit far below capacity. (Requiring a literally empty backlog
            // would make the signal flicker with every in-flight
            // straggler and never sustain a streak.)
            let idle_cap = self.policy.idle_utilization * s.cap_qpm;
            if s.pressured {
                ctl.in_streak = 0;
                ctl.out_streak += 1;
            } else if s.backlog_qpm < idle_cap && s.share_qpm < idle_cap {
                ctl.out_streak = 0;
                ctl.in_streak += 1;
            } else {
                ctl.out_streak = 0;
                ctl.in_streak = 0;
            }
            if t_secs < ctl.cooldown_until {
                continue;
            }
            let present = s.alive + s.pending;
            if ctl.out_streak >= self.policy.scale_out_after && present < ctl.max {
                let n = self.policy.step.min(ctl.max - present);
                let delay = SimDuration::from_secs(self.policy.provisioning_delay_secs);
                actions.push(ScaleAction::Out {
                    gpu: ctl.gpu,
                    n,
                    delay,
                });
                ctl.out_streak = 0;
                ctl.cooldown_until = t_secs + self.policy.cooldown_secs;
            } else if ctl.in_streak >= self.policy.scale_in_after && s.alive > ctl.min {
                let n = self.policy.step.min(s.alive - ctl.min);
                actions.push(ScaleAction::In { gpu: ctl.gpu, n });
                ctl.in_streak = 0;
                ctl.cooldown_until = t_secs + self.policy.cooldown_secs;
            }
        }
        actions
    }
}

/// One point of the billed-membership telemetry: the per-(architecture,
/// discount) billed worker counts in force from `t_secs` until the next
/// sample. A worker is billed while not failed — draining spot instances
/// are still rented; crashed, not-yet-provisioned and retired ones are
/// not.
#[derive(Debug, Clone, PartialEq)]
pub struct MembershipSample {
    /// Sample time (seconds from run start).
    pub t_secs: f64,
    /// `(architecture, spot discount — 0.0 for on-demand, billed count)`.
    pub counts: Vec<(GpuArch, f64, u32)>,
}

/// Whole-run fleet telemetry on [`crate::system::RunOutcome`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FleetStats {
    /// Scale-out actions taken.
    pub scale_out_events: u64,
    /// Scale-in actions taken.
    pub scale_in_events: u64,
    /// Workers provisioned by scale-outs.
    pub workers_added: u64,
    /// Workers actually retired by scale-ins (bounded by how many idle
    /// victims existed when the action fired).
    pub workers_retired: u64,
    /// Preemptions whose warning window fully drained the instance (no
    /// in-flight work lost when it fired).
    pub preemptions_ridden: u64,
    /// Preemptions that killed an in-flight pass.
    pub preemptions_lost: u64,
    /// Maximum billed workers at any sample point.
    pub peak_workers: u32,
    /// The piecewise-constant billed-membership log the cost integral is
    /// computed from; `tests/fleet.rs` reconciles [`CostReport`] against
    /// it.
    pub samples: Vec<MembershipSample>,
}

/// Dollar-denominated accounting on [`crate::system::RunOutcome`],
/// integrated from the billed-membership telemetry at the fixed
/// [`on_demand_hourly`] rates.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CostReport {
    /// Total spend over the run.
    pub total_dollars: f64,
    /// Spend on on-demand instances.
    pub on_demand_dollars: f64,
    /// Spend on spot instances (post-discount).
    pub spot_dollars: f64,
    /// Total spend per thousand completed images (0 when nothing
    /// completed).
    pub dollars_per_1k_images: f64,
    /// Billed GPU-minutes by `(architecture, on-demand, spot)`.
    pub gpu_minutes: Vec<(GpuArch, f64, f64)>,
}

/// Converts a preemption-storm schedule (`(minute, worker indices)` —
/// e.g. from `argus_workload::preemption_storm`) into
/// [`FaultEvent::Preemption`] events with the given warning window.
/// `warning_secs: 0.0` degrades each event to an unwarned crash,
/// bit-identical to [`FaultEvent::WorkerFail`].
pub fn preemption_events(schedule: &[(f64, Vec<usize>)], warning_secs: f64) -> Vec<FaultEvent> {
    schedule
        .iter()
        .map(|(minute, workers)| FaultEvent::Preemption {
            at_minute: *minute,
            workers: workers.clone(),
            warning_secs,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Planned capacity of every test pool (QPM); the default policy's
    /// idle line is 30% of it.
    const CAP: f64 = 100.0;
    /// (backlog, share) drain rates in QPM, above the idle line.
    const BUSY: (f64, f64) = (40.0, 80.0);
    /// (backlog, share) drain rates in QPM, below the idle line.
    const IDLE: (f64, f64) = (5.0, 10.0);

    /// A pool signal from raw load numbers against [`CAP`].
    fn sig(
        gpu: GpuArch,
        pressured: bool,
        (backlog_qpm, share_qpm): (f64, f64),
        alive: usize,
        pending: usize,
    ) -> PoolSignal {
        PoolSignal {
            gpu,
            pressured,
            backlog_qpm,
            cap_qpm: CAP,
            share_qpm,
            alive,
            pending,
        }
    }

    /// A scale-out of `n` A100 workers after the default 90 s delay.
    fn out(n: usize) -> ScaleAction {
        ScaleAction::Out {
            gpu: GpuArch::A100,
            n,
            delay: SimDuration::from_secs(90.0),
        }
    }

    #[test]
    fn pricing_is_positive_and_discounted() {
        for gpu in GpuArch::ALL {
            assert!(on_demand_hourly(gpu) > 0.0);
            assert!(hourly_rate(gpu, 0.7) < on_demand_hourly(gpu));
            assert_eq!(hourly_rate(gpu, 0.0), on_demand_hourly(gpu));
        }
    }

    #[test]
    fn scale_out_needs_sustained_pressure_and_respects_cooldown() {
        let policy = AutoscalePolicy::default().with_cooldown(180.0);
        let mut ctl = AutoscaleController::new(policy, &[(GpuArch::A100, 8)]);
        // One pressured tick: below the streak threshold.
        let a = ctl.on_tick(60.0, &[sig(GpuArch::A100, true, BUSY, 8, 0)]);
        assert!(a.is_empty());
        // Second consecutive pressured tick: scale out one step.
        let a = ctl.on_tick(120.0, &[sig(GpuArch::A100, true, BUSY, 8, 0)]);
        assert_eq!(a, vec![out(1)]);
        // Pressure continues but the cooldown holds further actions.
        let a = ctl.on_tick(180.0, &[sig(GpuArch::A100, true, BUSY, 8, 1)]);
        assert!(a.is_empty());
        let a = ctl.on_tick(240.0, &[sig(GpuArch::A100, true, BUSY, 8, 1)]);
        assert!(a.is_empty());
        // Cooldown expired and the streak is sustained: act again.
        let a = ctl.on_tick(300.0, &[sig(GpuArch::A100, true, BUSY, 9, 0)]);
        assert_eq!(a, vec![out(1)]);
    }

    #[test]
    fn scale_out_stops_at_the_max_bound() {
        let policy = AutoscalePolicy::default().with_bounds(GpuArch::A100, 2, 9);
        let mut ctl = AutoscaleController::new(policy, &[(GpuArch::A100, 8)]);
        ctl.on_tick(60.0, &[sig(GpuArch::A100, true, BUSY, 8, 0)]);
        // 8 alive + 1 pending = 9 = max: nothing to add.
        ctl.on_tick(120.0, &[sig(GpuArch::A100, true, BUSY, 8, 1)]);
        let a = ctl.on_tick(600.0, &[sig(GpuArch::A100, true, BUSY, 8, 1)]);
        assert!(a.is_empty(), "{a:?}");
        // With headroom of one, the step is clamped to it.
        let policy = AutoscalePolicy::default()
            .with_step(4)
            .with_bounds(GpuArch::A100, 2, 9);
        let mut ctl = AutoscaleController::new(policy, &[(GpuArch::A100, 8)]);
        ctl.on_tick(60.0, &[sig(GpuArch::A100, true, BUSY, 8, 0)]);
        let a = ctl.on_tick(120.0, &[sig(GpuArch::A100, true, BUSY, 8, 0)]);
        assert_eq!(a, vec![out(1)]);
    }

    #[test]
    fn scale_in_needs_a_longer_idle_streak_and_respects_min() {
        let policy = AutoscalePolicy::default().with_bounds(GpuArch::A100, 7, 16);
        let mut ctl = AutoscaleController::new(policy, &[(GpuArch::A100, 8)]);
        for i in 0..4 {
            let a = ctl.on_tick(
                60.0 * (i + 1) as f64,
                &[sig(GpuArch::A100, false, IDLE, 8, 0)],
            );
            assert!(a.is_empty(), "tick {i}: {a:?}");
        }
        let a = ctl.on_tick(300.0, &[sig(GpuArch::A100, false, IDLE, 8, 0)]);
        assert_eq!(
            a,
            vec![ScaleAction::In {
                gpu: GpuArch::A100,
                n: 1
            }]
        );
        // At the minimum, idleness no longer shrinks the pool.
        let mut ctl = AutoscaleController::new(
            AutoscalePolicy::default().with_bounds(GpuArch::A100, 8, 16),
            &[(GpuArch::A100, 8)],
        );
        for i in 0..10 {
            let a = ctl.on_tick(
                60.0 * (i + 1) as f64,
                &[sig(GpuArch::A100, false, IDLE, 8, 0)],
            );
            assert!(a.is_empty(), "tick {i}: {a:?}");
        }
    }

    #[test]
    fn neutral_ticks_reset_both_streaks() {
        let mut ctl = AutoscaleController::new(AutoscalePolicy::default(), &[(GpuArch::A100, 8)]);
        ctl.on_tick(60.0, &[sig(GpuArch::A100, true, BUSY, 8, 0)]);
        // Neither pressured nor idle: the pressure streak resets.
        ctl.on_tick(120.0, &[sig(GpuArch::A100, false, BUSY, 8, 0)]);
        let a = ctl.on_tick(180.0, &[sig(GpuArch::A100, true, BUSY, 8, 0)]);
        assert!(a.is_empty());
    }

    #[test]
    fn a_load_exactly_at_the_idle_line_is_not_idle() {
        // Idleness is strict: a share or a backlog equal to
        // `idle_utilization × capacity` keeps resetting the idle streak.
        let line = AutoscalePolicy::default().idle_utilization * CAP;
        for load in [(0.0, line), (line, 0.0)] {
            let mut ctl =
                AutoscaleController::new(AutoscalePolicy::default(), &[(GpuArch::A100, 8)]);
            for i in 0..10 {
                let a = ctl.on_tick(
                    60.0 * (i + 1) as f64,
                    &[sig(GpuArch::A100, false, load, 8, 0)],
                );
                assert!(a.is_empty(), "{load:?} tick {i}: {a:?}");
            }
        }
        // Strictly below the line, the default five-tick streak scales in.
        let mut ctl = AutoscaleController::new(AutoscalePolicy::default(), &[(GpuArch::A100, 8)]);
        let below = (0.0, line - 1e-9);
        let acted: Vec<ScaleAction> = (0..5)
            .flat_map(|i| {
                ctl.on_tick(
                    60.0 * (i + 1) as f64,
                    &[sig(GpuArch::A100, false, below, 8, 0)],
                )
            })
            .collect();
        assert_eq!(
            acted,
            vec![ScaleAction::In {
                gpu: GpuArch::A100,
                n: 1
            }]
        );
    }

    #[test]
    fn controller_is_deterministic() {
        let run = || {
            let mut ctl = AutoscaleController::new(
                AutoscalePolicy::default(),
                &[(GpuArch::A100, 8), (GpuArch::V100, 4)],
            );
            let mut log = Vec::new();
            for i in 0..30u32 {
                let pressured = i % 7 < 3;
                let idle = i % 7 >= 5;
                log.extend(ctl.on_tick(
                    60.0 * (i + 1) as f64,
                    &[
                        sig(
                            GpuArch::A100,
                            pressured,
                            if idle { IDLE } else { BUSY },
                            8,
                            0,
                        ),
                        sig(
                            GpuArch::V100,
                            idle,
                            if pressured { IDLE } else { BUSY },
                            4,
                            0,
                        ),
                    ],
                ));
            }
            log
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn preemption_schedule_maps_to_fault_events() {
        let schedule = vec![(5.0, vec![1, 2]), (9.5, vec![0])];
        let events = preemption_events(&schedule, 30.0);
        assert_eq!(events.len(), 2);
        match &events[0] {
            FaultEvent::Preemption {
                at_minute,
                workers,
                warning_secs,
            } => {
                assert_eq!(*at_minute, 5.0);
                assert_eq!(workers, &[1, 2]);
                assert_eq!(*warning_secs, 30.0);
            }
            other => panic!("expected a preemption, got {other:?}"),
        }
    }
}
