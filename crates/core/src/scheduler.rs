//! The Prompt Scheduler's Worker-Selector (Eq. 3, §4.4).
//!
//! After the classifier and PASM have fixed the serving level `v′`, the
//! Worker-Selector routes the prompt to the worker minimizing expected
//! total processing time: `argmin_w queue_w × t_proc(v′_w)`. When no alive
//! worker serves `v′` (failures, mid-reallocation), the selector falls
//! back to the nearest populated level, preferring the slower (quality-
//! preserving) side.
//!
//! On heterogeneous fleets `t_proc` depends on the worker's GPU
//! architecture as well as the level, so the estimate is evaluated per
//! candidate — a V100 with an empty queue can still lose to a busier A100.
//! Which level a rung means on each architecture comes from the run's
//! [`PinnedLadders`], the one place the per-pool ladder rule lives: the
//! selector, the §4.7 spill, the driver's `t_proc` estimate and
//! telemetry, each solve's pool spec and the strategy-transition check
//! all read it.

use argus_cluster::{Cluster, WorkerId};
use argus_models::{ApproxLevel, GpuArch, Strategy};

/// The ladder each architecture pool serves: a pool pinned by
/// `RunConfig::with_pool_strategy` serves its strategy's ladder, every
/// other pool the active ladder. Ladder index `i` means a *position*:
/// both ladders have [`argus_models::RUNGS`] rungs, slowest first, so the
/// index — not the concrete level — is the common currency the
/// classifier, PASM, ω and Eq. 3 route by, and an SM-pinned V100 pool can
/// absorb traffic the AC-planned A100 pool would have served at the same
/// rung.
///
/// `SystemSimulation::new` resolves the run's pins once. The table is
/// empty (the default) on runs without pins and for pipelines that do
/// not solve Eq. 1 at set-up, so for per-worker and static policies a pin
/// is inert.
#[derive(Debug, Clone, Copy, Default)]
pub struct PinnedLadders {
    pins: [Option<Strategy>; GpuArch::ALL.len()],
}

impl PinnedLadders {
    /// Pins each architecture to the strategy `pin` names for it.
    pub fn new(pin: impl FnMut(GpuArch) -> Option<Strategy>) -> Self {
        PinnedLadders {
            pins: GpuArch::ALL.map(pin),
        }
    }

    /// The strategy `gpu`'s pool is pinned to, if any.
    pub fn strategy(&self, gpu: GpuArch) -> Option<Strategy> {
        self.pins[gpu as usize]
    }

    /// The ladder `gpu`'s pool serves while `active` is the active
    /// ladder.
    pub fn ladder<'a>(&self, gpu: GpuArch, active: &'a [ApproxLevel]) -> &'a [ApproxLevel] {
        match self.strategy(gpu) {
            Some(strategy) => ApproxLevel::ladder(strategy),
            None => active,
        }
    }
}

/// The Eq. 3 argmin for a prompt assigned to rung `target`: a worker is a
/// candidate at rung `i` when it serves its pool's level at that rung
/// (`pinned.ladder(gpu, ladder)[i]`). `proc_secs(rung, gpu)` estimates
/// per-image processing time at a rung on an architecture (compute +
/// retrieval overhead); it must be a pure function of its arguments.
/// Returns the chosen worker and the rung it is counted under, or `None`
/// if no alive worker serves any rung (e.g. total failure).
///
/// The candidates come from the cluster's dispatch index
/// ([`Cluster::dispatch_head`]): within one architecture `t_proc` is a
/// single number, so the head of each (level, architecture) group — least
/// backlog, then lowest id — is that group's argmin, and the rung's answer
/// is the cheapest head, ties to the lowest id. That is the answer of a
/// scan over every worker in id order with a strict `<`, in
/// O(rungs × architectures) instead of O(workers × rungs).
///
/// # Panics
/// Panics if `target >= ladder.len()`.
pub fn eq3_worker(
    cluster: &Cluster,
    pinned: &PinnedLadders,
    ladder: &[ApproxLevel],
    target: usize,
    proc_secs: &dyn Fn(usize, GpuArch) -> f64,
) -> Option<(WorkerId, usize)> {
    assert!(target < ladder.len(), "target level out of range");
    // Candidate levels in preference order: exact, then ±1, ±2 … with the
    // slower (lower-index) side first — shifting left never hurts quality.
    let n = ladder.len();
    let rungs = std::iter::once(target).chain((1..n).flat_map(|d| {
        let slower = target.checked_sub(d);
        let faster = Some(target + d).filter(|&i| i < n);
        slower.into_iter().chain(faster)
    }));
    for lvl in rungs {
        // Eq. 3: minimize backlog × processing time (per-arch); ties to
        // lowest id. Draining workers (preemption warning in progress) are
        // alive for their in-flight pass but not in the index.
        let mut best: Option<(f64, WorkerId)> = None;
        for gpu in GpuArch::ALL {
            let level = pinned.ladder(gpu, ladder)[lvl];
            let Some((backlog, id)) = cluster.dispatch_head(level, gpu) else {
                continue;
            };
            let cost = backlog as f64 * proc_secs(lvl, gpu).max(1e-9);
            if best.is_none_or(|(best_cost, best_id)| {
                cost < best_cost || (cost == best_cost && id < best_id)
            }) {
                best = Some((cost, id));
            }
        }
        if let Some((_, w)) = best {
            return Some((w, lvl));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use argus_des::SimTime;
    use argus_models::AcLevel;

    fn ladder() -> &'static [ApproxLevel] {
        ApproxLevel::ladder(Strategy::Ac)
    }

    fn cluster_with_levels(levels: &[(usize, usize)]) -> Cluster {
        // (worker_count at ladder idx) pairs.
        let total: usize = levels.iter().map(|&(_, c)| c).sum();
        let mut cluster = Cluster::new(total, GpuArch::A100);
        let ladder = ladder();
        let mut wid = 0;
        for &(lvl, count) in levels {
            for _ in 0..count {
                cluster.assign_level(WorkerId(wid), ladder[lvl], SimTime::ZERO);
                cluster.finish_load(WorkerId(wid), SimTime::from_secs(100.0));
                wid += 1;
            }
        }
        cluster
    }

    fn proc(_: usize, _: GpuArch) -> f64 {
        4.0
    }

    #[test]
    fn a_pinned_pool_serves_its_strategy_and_the_rest_the_active_ladder() {
        let pinned = PinnedLadders::new(|gpu| (gpu == GpuArch::V100).then_some(Strategy::Sm));
        let active = ApproxLevel::ladder(Strategy::Ac);
        assert_eq!(pinned.strategy(GpuArch::V100), Some(Strategy::Sm));
        assert_eq!(pinned.strategy(GpuArch::A100), None);
        assert_eq!(
            pinned.ladder(GpuArch::V100, active),
            ApproxLevel::ladder(Strategy::Sm)
        );
        assert_eq!(pinned.ladder(GpuArch::A100, active), active);
    }

    #[test]
    fn picks_least_loaded_worker_at_target_level() {
        let mut cluster = cluster_with_levels(&[(2, 3)]);
        cluster.enqueue(WorkerId(0), 1);
        cluster.enqueue(WorkerId(0), 2);
        cluster.enqueue(WorkerId(1), 3);
        let (w, lvl) = eq3_worker(&cluster, &PinnedLadders::default(), ladder(), 2, &proc).unwrap();
        assert_eq!(w, WorkerId(2)); // empty queue
        assert_eq!(lvl, 2);
    }

    #[test]
    fn tie_breaks_to_lowest_id() {
        let cluster = cluster_with_levels(&[(1, 4)]);
        let (w, _) = eq3_worker(&cluster, &PinnedLadders::default(), ladder(), 1, &proc).unwrap();
        assert_eq!(w, WorkerId(0));
    }

    #[test]
    fn falls_back_to_slower_level_first() {
        // Target level 3 unpopulated; levels 2 (slower) and 4 (faster)
        // both exist — prefer 2.
        let cluster = cluster_with_levels(&[(2, 1), (4, 1)]);
        let (w, lvl) = eq3_worker(&cluster, &PinnedLadders::default(), ladder(), 3, &proc).unwrap();
        assert_eq!(lvl, 2);
        assert_eq!(w, WorkerId(0));
    }

    #[test]
    fn falls_back_to_faster_when_no_slower_exists() {
        let cluster = cluster_with_levels(&[(5, 2)]);
        let (_, lvl) = eq3_worker(&cluster, &PinnedLadders::default(), ladder(), 1, &proc).unwrap();
        assert_eq!(lvl, 5);
    }

    #[test]
    fn skips_failed_workers() {
        let mut cluster = cluster_with_levels(&[(0, 2)]);
        cluster.fail(WorkerId(0), SimTime::ZERO);
        let (w, _) = eq3_worker(&cluster, &PinnedLadders::default(), ladder(), 0, &proc).unwrap();
        assert_eq!(w, WorkerId(1));
    }

    #[test]
    fn none_when_everything_failed() {
        let mut cluster = cluster_with_levels(&[(0, 2)]);
        cluster.fail(WorkerId(0), SimTime::ZERO);
        cluster.fail(WorkerId(1), SimTime::ZERO);
        assert!(eq3_worker(&cluster, &PinnedLadders::default(), ladder(), 0, &proc).is_none());
    }

    #[test]
    fn counts_in_flight_jobs_in_backlog() {
        let mut cluster = cluster_with_levels(&[(0, 2)]);
        // Worker 0: one in-flight job; worker 1: idle.
        cluster.enqueue(WorkerId(0), 1);
        cluster.try_start_batch(WorkerId(0), SimTime::ZERO, 1);
        let (w, _) = eq3_worker(&cluster, &PinnedLadders::default(), ladder(), 0, &proc).unwrap();
        assert_eq!(w, WorkerId(1));
    }

    #[test]
    fn loading_workers_count_for_their_pending_level() {
        let mut cluster = Cluster::new(1, GpuArch::A100);
        let lvl = ApproxLevel::Ac(AcLevel(10));
        cluster.assign_level(WorkerId(0), lvl, SimTime::ZERO);
        // Still loading, but routable (jobs queue behind the load).
        let (w, idx) = eq3_worker(&cluster, &PinnedLadders::default(), ladder(), 2, &proc).unwrap();
        assert_eq!(w, WorkerId(0));
        assert_eq!(idx, 2);
    }

    #[test]
    #[should_panic(expected = "target level out of range")]
    fn target_bounds_checked() {
        let cluster = cluster_with_levels(&[(0, 1)]);
        let _ = eq3_worker(&cluster, &PinnedLadders::default(), ladder(), 9, &proc);
    }

    #[test]
    fn heterogeneous_cost_beats_raw_backlog() {
        // Worker 0 (A100, fast) has one queued job; worker 1 (V100, slow)
        // is idle. With the per-arch Eq. 3 estimate, the busier A100 still
        // wins when its backlog × t_proc is cheaper.
        let mut cluster = Cluster::heterogeneous(&[(GpuArch::A100, 1), (GpuArch::V100, 1)]);
        let lvl = ladder()[0];
        for id in 0..2 {
            cluster.assign_level(WorkerId(id), lvl, SimTime::ZERO);
            cluster.finish_load(WorkerId(id), SimTime::from_secs(100.0));
        }
        cluster.enqueue(WorkerId(0), 1);
        let arch_proc = |_: usize, gpu: GpuArch| match gpu {
            GpuArch::A100 => 4.0,
            _ => 9.0,
        };
        // Cost: A100 = 1×4 = 4 < V100 = 0×9 = 0 — idle wins here…
        let (w, _) =
            eq3_worker(&cluster, &PinnedLadders::default(), ladder(), 0, &arch_proc).unwrap();
        assert_eq!(w, WorkerId(1));
        // …but once the V100 queue grows, the A100 wins on cost even with
        // equal backlog.
        cluster.enqueue(WorkerId(1), 2);
        let (w, _) =
            eq3_worker(&cluster, &PinnedLadders::default(), ladder(), 0, &arch_proc).unwrap();
        assert_eq!(w, WorkerId(0));
    }
}
