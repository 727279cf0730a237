//! The linear reference for the Eq. 3 Worker-Selector, and the
//! cross-check of the cluster's dispatch index against it.
//!
//! The reference is the selector as it stood before the cluster kept a
//! dispatch index: a scan over every worker per candidate rung, the §4.7
//! spill and the least-backlogged fallback over [`Cluster::alive`], and
//! the per-worker policies' target choice. It plays the role
//! `solve_exact` plays for Eq. 1: slow, plainly right, and the answer the
//! index must reproduce bit for bit. The cross-check drives seeded random
//! mutation sequences through the [`Cluster`] API and compares both
//! sides after every step, under random pinned-ladder tables.
//!
//! The reference never reads a [`PinnedLadders`]: it takes each
//! architecture's ladder resolved explicitly, a [`PoolLadders`] indexed
//! by architecture.

use argus_cluster::{Cluster, SwitchOutcome, WorkerId};
use argus_des::SimTime;
use argus_models::{AcLevel, ApproxLevel, GpuArch, Strategy, AC_LEVELS, SM_LADDER};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::pipeline::{
    default_select_worker, least_backlogged_level, least_backlogged_worker, spill_worker,
    SelectCtx, TAIL_BUDGET_FRACTION,
};
use crate::scheduler::{eq3_worker, PinnedLadders};

/// The ladder each architecture's pool serves, indexed by `gpu as usize`.
type PoolLadders<'a> = [&'a [ApproxLevel]; GpuArch::ALL.len()];

/// Eq. 3 by scanning every worker once per candidate rung.
fn reference_eq3_worker(
    cluster: &Cluster,
    pools: &PoolLadders<'_>,
    target: usize,
    proc_secs: &dyn Fn(usize, GpuArch) -> f64,
) -> Option<(WorkerId, usize)> {
    let n = pools[0].len();
    assert!(target < n, "target level out of range");
    // Candidate levels in preference order: exact, then ±1, ±2 … with the
    // slower (lower-index) side first — shifting left never hurts quality.
    let mut level_order = Vec::with_capacity(n);
    level_order.push(target);
    for d in 1..n {
        if target >= d {
            level_order.push(target - d);
        }
        if target + d < n {
            level_order.push(target + d);
        }
    }

    for lvl in level_order {
        // Eq. 3: minimize backlog × processing time (per-arch); ties to
        // lowest id. One in-order pass with a strict `<` keeps the
        // lowest-id minimum, and `proc_secs` — a pure function of
        // (level, architecture) — is evaluated once per architecture
        // present instead of twice per pairwise comparison.
        let mut proc_memo = [None::<f64>; GpuArch::ALL.len()];
        let mut best: Option<(f64, WorkerId)> = None;
        for worker in cluster.iter() {
            // Draining workers (preemption warning in progress) are alive
            // for their in-flight pass but closed to new work.
            if worker.is_failed() || worker.is_draining() {
                continue;
            }
            let pool_level = pools[worker.gpu() as usize][lvl];
            if worker.level() != Some(pool_level) && worker.pending_level() != Some(pool_level) {
                continue;
            }
            let proc = *proc_memo[worker.gpu() as usize]
                .get_or_insert_with(|| proc_secs(lvl, worker.gpu()).max(1e-9));
            let cost = worker.backlog() as f64 * proc;
            if best.is_none_or(|(best_cost, _)| cost < best_cost) {
                best = Some((cost, worker.id()));
            }
        }
        if let Some((_, w)) = best {
            return Some((w, lvl));
        }
    }
    None
}

/// The §4.7 spill candidate by scanning every alive worker.
fn reference_spill_worker(
    cluster: &Cluster,
    pools: &PoolLadders<'_>,
    proc_secs: &dyn Fn(usize, GpuArch) -> f64,
) -> Option<(WorkerId, usize, f64)> {
    cluster
        .alive()
        .into_iter()
        .filter_map(|cand| {
            let worker = cluster.worker(cand);
            let l = worker.level().or(worker.pending_level())?;
            let i = pools[worker.gpu() as usize].iter().position(|&x| x == l)?;
            let cost = (worker.backlog() as f64 + 1.0) * proc_secs(i, worker.gpu());
            Some((cand, i, cost))
        })
        .min_by(|a, b| {
            a.2.partial_cmp(&b.2)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        })
}

/// The least-backlogged fallback by scanning every alive worker.
fn reference_least_backlogged_worker(cluster: &Cluster) -> Option<WorkerId> {
    cluster
        .alive()
        .into_iter()
        .filter(|&w| {
            cluster.worker(w).level().is_some() || cluster.worker(w).pending_level().is_some()
        })
        .min_by_key(|&w| (cluster.worker(w).backlog(), w))
}

/// The shared selection — Eq. 3, the spill, the fallback — on the scans.
/// Reads `ctx`'s cluster and SLO, never its pinned table.
fn reference_default_select_worker(
    ctx: &SelectCtx<'_>,
    pools: &PoolLadders<'_>,
    target: usize,
    proc_secs: &dyn Fn(usize, GpuArch) -> f64,
) -> Option<(WorkerId, usize)> {
    let cluster = ctx.cluster;
    let mut choice = reference_eq3_worker(cluster, pools, target, proc_secs);
    if let Some((w, lvl)) = choice {
        let sojourn =
            (cluster.worker(w).backlog() as f64 + 1.0) * proc_secs(lvl, cluster.worker(w).gpu());
        if sojourn > TAIL_BUDGET_FRACTION * ctx.slo_secs {
            let spill = reference_spill_worker(cluster, pools, proc_secs);
            if let Some((w2, lvl2, cost2)) = spill {
                if cost2 + 1e-9 < sojourn {
                    choice = Some((w2, lvl2));
                }
            }
        }
    }
    choice.or_else(|| reference_least_backlogged_worker(cluster).map(|w| (w, target)))
}

/// The per-worker policies' target choice by scanning every alive worker.
fn reference_least_backlogged_level(cluster: &Cluster, ladder: &[ApproxLevel]) -> usize {
    cluster
        .alive()
        .into_iter()
        .filter_map(|w| {
            let worker = cluster.worker(w);
            let lvl = worker.level().or(worker.pending_level())?;
            let i = ladder.iter().position(|&l| l == lvl)?;
            Some((worker.backlog(), w, i))
        })
        .min()
        .map(|(_, _, i)| i)
        .unwrap_or(0)
}

/// Processing-time values small enough that `backlog × t_proc` ties
/// exactly across architectures (1 × 4.0 = 2 × 2.0 = 4 × 1.0).
const PROC_VALUES: [f64; 5] = [0.5, 1.0, 2.0, 3.0, 4.0];

/// A random mutation of a random worker, through the [`Cluster`] API.
fn mutate(cluster: &mut Cluster, rng: &mut StdRng, levels: &[ApproxLevel], now: f64, job: u64) {
    let id = WorkerId(rng.random_range(0..cluster.len()));
    let worker = cluster.worker(id);
    let (failed, draining) = (worker.is_failed(), worker.is_draining());
    let t = SimTime::from_secs(now);
    match rng.random_range(0..100u32) {
        0..=39 if !failed && !draining => cluster.enqueue(id, job),
        40..=54 => {
            cluster.try_start_batch(id, t, rng.random_range(1..=3usize));
        }
        55..=69 if cluster.worker(id).is_busy() => {
            let mut done = Vec::new();
            cluster.finish_batch(id, t, &mut done);
            assert!(!done.is_empty());
        }
        70..=79 if !failed => {
            let level = levels[rng.random_range(0..levels.len())];
            let outcome = cluster.assign_level(id, level, t);
            if outcome == SwitchOutcome::Immediate {
                assert_eq!(cluster.worker(id).level(), Some(level));
            }
        }
        80..=85 => {
            // Early (a no-op while the load runs) or late (it lands).
            let at = now + [0.0, 20.0][rng.random_range(0..2usize)];
            cluster.finish_load(id, SimTime::from_secs(at));
        }
        86..=88 if !failed => cluster.preload(id, levels[rng.random_range(0..levels.len())]),
        89..=90 => {
            cluster.begin_drain(id, t);
        }
        91..=92 => {
            cluster.fail(id, t);
        }
        93..=97 => cluster.recover(id, t),
        98 => {
            let gpu = GpuArch::ALL[rng.random_range(0..GpuArch::ALL.len())];
            cluster.provision(gpu, t);
        }
        _ => {}
    }
}

/// Whether the reference's Eq. 3 answer at its rung tied on cost with a
/// candidate on another architecture.
fn cross_arch_tie(
    cluster: &Cluster,
    pools: &PoolLadders<'_>,
    proc_secs: &dyn Fn(usize, GpuArch) -> f64,
    (w, lvl): (WorkerId, usize),
) -> bool {
    let cost_of = |worker: &argus_cluster::Worker| {
        worker.backlog() as f64 * proc_secs(lvl, worker.gpu()).max(1e-9)
    };
    let chosen = cluster.worker(w);
    cluster.iter().any(|worker| {
        let level = Some(pools[worker.gpu() as usize][lvl]);
        !worker.is_failed()
            && !worker.is_draining()
            && worker.gpu() != chosen.gpu()
            && (worker.level() == level || worker.pending_level() == level)
            && cost_of(worker) == cost_of(chosen)
    })
}

/// What one cross-check run exercised.
#[derive(Debug, Default)]
struct Coverage {
    checks: usize,
    eq3_found: usize,
    spilled: usize,
    fell_back: usize,
    cross_arch_ties: usize,
}

/// Drives `steps` seeded mutations of a cluster of `pools`, comparing the
/// index with the reference after every step. With `pinning`, each check
/// draws a random pinned table: every architecture unpinned, AC or SM.
fn cross_check(pools: &[(GpuArch, usize)], pinning: bool, steps: usize, seed: u64) -> Coverage {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cluster = Cluster::heterogeneous(pools);
    // The ladders, collected from the level tables.
    let ladders: [Vec<ApproxLevel>; 2] = [
        AC_LEVELS.map(ApproxLevel::Ac).to_vec(),
        SM_LADDER.map(ApproxLevel::Sm).to_vec(),
    ];
    // Both ladders, plus a level on neither (a mid-transition leftover).
    let mut levels: Vec<ApproxLevel> = ladders.concat();
    levels.push(ApproxLevel::Ac(AcLevel(7)));
    if rng.random_bool(0.5) {
        // One HBM slot: every cross-model switch loads.
        for id in 0..cluster.len() {
            cluster.set_hbm_slots(WorkerId(id), 1);
        }
    }
    // A warm start: most workers serve a level, with a queue and perhaps
    // a pass in flight.
    let mut job = 0;
    for id in (0..cluster.len()).map(WorkerId) {
        if rng.random_bool(0.8) {
            cluster.preload(id, levels[rng.random_range(0..levels.len())]);
        }
        for _ in 0..rng.random_range(0..6u32) {
            cluster.enqueue(id, job);
            job += 1;
        }
        cluster.try_start_batch(id, SimTime::ZERO, rng.random_range(0..3usize));
    }
    let mut coverage = Coverage::default();
    let mut now = 0.0;
    for step in 0..steps {
        now += rng.random_range(0.0..2.0);
        mutate(&mut cluster, &mut rng, &levels, now, job);
        job += 1;

        for gpu in GpuArch::ALL {
            let alive = cluster.alive_on(gpu);
            let backlog = alive.iter().map(|&w| cluster.worker(w).backlog()).sum();
            assert_eq!(
                cluster.pool_load(gpu),
                (alive.len(), backlog),
                "step {step}"
            );
        }
        for _ in 0..3 {
            let ladder = &ladders[rng.random_range(0..ladders.len())][..];
            let target = rng.random_range(0..ladder.len());
            // Per architecture: 0 unpinned, 1 pinned to AC, 2 to SM.
            let pins: [usize; GpuArch::ALL.len()] =
                std::array::from_fn(|_| if pinning { rng.random_range(0..3) } else { 0 });
            let pinned = PinnedLadders::new(|gpu| match pins[gpu as usize] {
                0 => None,
                1 => Some(Strategy::Ac),
                _ => Some(Strategy::Sm),
            });
            let pool_ladders: PoolLadders<'_> = pins.map(|pin| {
                if pin == 0 {
                    ladder
                } else {
                    &ladders[pin - 1][..]
                }
            });
            let table: Vec<[f64; 3]> = (0..ladder.len())
                .map(|_| {
                    std::array::from_fn(|_| PROC_VALUES[rng.random_range(0..PROC_VALUES.len())])
                })
                .collect();
            let proc = |i: usize, gpu: GpuArch| table[i][gpu as usize];
            let ctx = |slo_secs| SelectCtx {
                cluster: &cluster,
                slo_secs,
                max_batch: 1,
                pinned: &pinned,
            };
            let at = format!("step {step}, target {target}, ladder {ladder:?}, pins {pins:?}");

            let eq3 = eq3_worker(&cluster, &pinned, ladder, target, &proc);
            let eq3_ref = reference_eq3_worker(&cluster, &pool_ladders, target, &proc);
            assert_eq!(eq3, eq3_ref, "Eq. 3 at {at}");
            let spill = spill_worker(&cluster, &pinned, ladder, &proc);
            let spill_ref = reference_spill_worker(&cluster, &pool_ladders, &proc);
            assert_eq!(
                spill.map(|(w, i, c)| (w, i, c.to_bits())),
                spill_ref.map(|(w, i, c)| (w, i, c.to_bits())),
                "spill at {at}"
            );
            assert_eq!(
                least_backlogged_worker(&cluster),
                reference_least_backlogged_worker(&cluster),
                "fallback at {at}"
            );
            assert_eq!(
                least_backlogged_level(&cluster, ladder),
                reference_least_backlogged_level(&cluster, ladder),
                "least_backlogged_level at {at}"
            );
            // Never, sometimes and always past the tail budget.
            for slo_secs in [f64::INFINITY, 6.0, 0.0] {
                let chosen = default_select_worker(&ctx(slo_secs), ladder, target, &proc);
                let chosen_ref =
                    reference_default_select_worker(&ctx(slo_secs), &pool_ladders, target, &proc);
                assert_eq!(chosen, chosen_ref, "selection at {at}, SLO {slo_secs}");
                if slo_secs == 0.0 && chosen.is_some() && chosen != eq3 {
                    coverage.spilled += 1;
                }
            }

            coverage.checks += 1;
            match eq3_ref {
                Some(answer) => {
                    coverage.eq3_found += 1;
                    if cross_arch_tie(&cluster, &pool_ladders, &proc, answer) {
                        coverage.cross_arch_ties += 1;
                    }
                }
                None if reference_least_backlogged_worker(&cluster).is_some() => {
                    coverage.fell_back += 1;
                }
                None => {}
            }
        }
    }
    coverage
}

/// The cluster shapes of the cross-check: `n` workers on one
/// architecture, and `n` spread over all three.
fn shapes(n: usize) -> [Vec<(GpuArch, usize)>; 2] {
    let third = n / 3;
    [
        vec![(GpuArch::A100, n)],
        vec![
            (GpuArch::A100, n - 2 * third),
            (GpuArch::V100, third),
            (GpuArch::A10G, third),
        ],
    ]
}

fn check_sizes(sizes: &[(usize, usize)], pinning: bool) {
    for &(n, steps) in sizes {
        for (shape, pools) in shapes(n).iter().enumerate() {
            let seed = 0xE93 ^ ((n as u64) << 8) ^ ((shape as u64) << 4) ^ u64::from(pinning);
            let coverage = cross_check(pools, pinning, steps, seed);
            assert!(coverage.eq3_found > 0, "{n} workers: {coverage:?}");
            if n >= 8 {
                assert!(coverage.spilled > 0, "{n} workers: {coverage:?}");
                if shape == 1 {
                    assert!(coverage.cross_arch_ties > 0, "{n} workers: {coverage:?}");
                }
            }
        }
    }
}

const SIZES: [(usize, usize); 5] = [(1, 400), (2, 600), (8, 1_500), (80, 800), (257, 300)];

#[test]
fn index_matches_the_linear_reference_without_pins() {
    check_sizes(&SIZES, false);
}

#[test]
fn index_matches_the_linear_reference_under_random_pinned_tables() {
    check_sizes(&SIZES, true);
}

#[test]
fn the_fallback_is_exercised() {
    // Levels on neither ladder only: Eq. 3 finds nothing, so every
    // selection falls back to the least-backlogged worker.
    let mut cluster = Cluster::heterogeneous(&[(GpuArch::A100, 3), (GpuArch::V100, 2)]);
    for id in 0..5 {
        cluster.preload(WorkerId(id), ApproxLevel::Ac(AcLevel(7)));
    }
    cluster.enqueue(WorkerId(0), 0);
    cluster.enqueue(WorkerId(3), 1);
    cluster.fail(WorkerId(1), SimTime::ZERO);
    let ladder = ApproxLevel::ladder(Strategy::Sm);
    let proc = |_: usize, _: GpuArch| 1.0;
    let ctx = SelectCtx {
        cluster: &cluster,
        slo_secs: 0.0,
        max_batch: 1,
        pinned: &PinnedLadders::default(),
    };
    for target in 0..ladder.len() {
        let chosen = default_select_worker(&ctx, ladder, target, &proc);
        assert_eq!(chosen, Some((WorkerId(2), target)));
        assert_eq!(
            chosen,
            reference_default_select_worker(&ctx, &[ladder; 3], target, &proc)
        );
    }
}
