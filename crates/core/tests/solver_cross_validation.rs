//! Cross-validation of the specialized Eq. 1 searches (`solve_exact`,
//! the branch-and-bound `solve`) against each other and against the
//! general MILP formulation (`solve_milp`) on randomized instances, using
//! a seeded RNG so every run checks the same instance family.
//!
//! Coverage by cluster size:
//! * small (≤ 6 workers): exact vs MILP on objective;
//! * every pool size up to 16 workers: exact vs fast, **bit for bit**;
//! * fleet scale (64, 128): exact vs fast bit-for-bit on 3-level
//!   instances (where enumeration stays tractable) and fast-solver
//!   invariants plus bit-determinism on the full 6-level ladders;
//! * warm starts: one `SolveCache` carried through random walks of
//!   demand, worker count and level profiles must match cold solves bit
//!   for bit at every step, up to 256 workers.

use argus_core::{Allocation, AllocationProblem, LevelProfile, SolveCache};
use argus_models::{ApproxLevel, GpuArch, Strategy};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn random_profiles(rng: &mut StdRng, n: usize) -> Vec<LevelProfile> {
    let ladder = ApproxLevel::ladder(Strategy::Ac);
    (0..n)
        .map(|i| LevelProfile {
            level: ladder[i],
            quality: 15.0 + 7.0 * rng.random::<f64>(),
            peak_qpm: 8.0 + 32.0 * rng.random::<f64>(),
        })
        .collect()
}

fn objective(p: &AllocationProblem, omega_qpm: &[f64]) -> f64 {
    omega_qpm
        .iter()
        .zip(&p.levels)
        .map(|(w, l)| w * l.quality)
        .sum()
}

/// Random instances over synthetic level profiles: the exact search and
/// the MILP must agree on the optimal objective and serve the same load.
#[test]
fn randomized_profiles_agree_with_milp() {
    let mut rng = StdRng::seed_from_u64(0xEC1);
    for case in 0..120 {
        let n = rng.random_range(2..=4usize);
        let workers = rng.random_range(1..=5usize);
        let levels = random_profiles(&mut rng, n);
        let demand_qpm = 250.0 * rng.random::<f64>();
        let p = AllocationProblem {
            levels,
            workers,
            demand_qpm,
        };
        let exact = p.solve_exact();
        let milp = p.solve_milp().expect("milp solves");
        let oe = objective(&p, &exact.omega_qpm);
        let om = objective(&p, &milp.omega_qpm);
        assert!(
            (oe - om).abs() < 1e-3 * oe.abs().max(1.0),
            "case {case}: exact {oe} vs milp {om} ({p:?})"
        );
        assert!(
            (exact.served_qpm - milp.served_qpm).abs() < 1e-4,
            "case {case}: served {} vs {}",
            exact.served_qpm,
            milp.served_qpm
        );
        assert_eq!(exact.saturated, milp.saturated, "case {case}");
    }
}

/// Random instances over the real calibrated ladders (both strategies,
/// varying retrieval overhead and SLO derating).
#[test]
fn randomized_calibrated_ladders_agree_with_milp() {
    let mut rng = StdRng::seed_from_u64(0xEC2);
    for case in 0..60 {
        let strategy = if rng.random::<bool>() {
            Strategy::Ac
        } else {
            Strategy::Sm
        };
        let overhead = if strategy == Strategy::Ac {
            0.3 * rng.random::<f64>()
        } else {
            0.0
        };
        let workers = rng.random_range(1..=6usize);
        let demand = 40.0 * workers as f64 * rng.random::<f64>();
        let mut p = AllocationProblem::from_ladder(
            ApproxLevel::ladder(strategy),
            GpuArch::A100,
            overhead,
            workers,
            demand,
        );
        if rng.random::<bool>() {
            p = p.with_slo_derating(12.6);
        }
        let exact = p.solve_exact();
        let milp = p.solve_milp().expect("milp solves");
        let oe = objective(&p, &exact.omega_qpm);
        let om = objective(&p, &milp.omega_qpm);
        assert!(
            (oe - om).abs() < 1e-3 * oe.abs().max(1.0),
            "case {case} ({strategy:?}): exact {oe} vs milp {om}"
        );
        // Feasibility: neither allocation invents workers, and each
        // level's assigned load fits the workers placed there.
        for (label, a) in [("exact", &exact), ("milp", &milp)] {
            assert!(
                a.workers_per_level.iter().sum::<usize>() <= workers,
                "case {case} ({label}): too many workers"
            );
            for (v, w) in a.omega_qpm.iter().enumerate() {
                let cap = a.workers_per_level[v] as f64 * p.levels[v].peak_qpm;
                assert!(
                    *w <= cap + 1e-6,
                    "case {case} ({label}): level {v} overloaded ({w} > {cap})"
                );
            }
        }
    }
}

/// At every pool size up to twice the paper's testbed (W ∈ 1..=16), the
/// branch-and-bound must return the enumeration's allocation **bit for
/// bit** — same counts, same ω, same served load, same saturation flag —
/// on randomized 2–6-level instances. `solve` runs the search at every
/// size, so this is the production path for small pools.
#[test]
fn fast_solver_bit_identical_at_every_size_up_to_16_workers() {
    let mut rng = StdRng::seed_from_u64(0xEC3);
    for workers in 1..=16usize {
        for case in 0..30 {
            let n = rng.random_range(2..=6usize);
            let levels = random_profiles(&mut rng, n);
            let max_peak = levels.iter().map(|l| l.peak_qpm).fold(0.0f64, f64::max);
            let demand_qpm = 1.2 * workers as f64 * max_peak * rng.random::<f64>();
            let p = AllocationProblem {
                levels,
                workers,
                demand_qpm,
            };
            assert_eq!(p.solve_exact(), p.solve(), "W={workers} case {case}: {p:?}");
        }
    }
}

/// At fleet scale (W ∈ {64, 128}) the enumeration stays tractable on
/// 3-level instances; the branch-and-bound must still match it bit for
/// bit there.
#[test]
fn fast_solver_bit_identical_at_64_and_128_workers() {
    let mut rng = StdRng::seed_from_u64(0xEC4);
    for &workers in &[64usize, 128] {
        for case in 0..25 {
            let levels = random_profiles(&mut rng, 3);
            let max_peak = levels.iter().map(|l| l.peak_qpm).fold(0.0f64, f64::max);
            let demand_qpm = 1.1 * workers as f64 * max_peak * rng.random::<f64>();
            let p = AllocationProblem {
                levels,
                workers,
                demand_qpm,
            };
            assert_eq!(p.solve_exact(), p.solve(), "W={workers} case {case}: {p:?}");
        }
    }
}

/// On the full calibrated 6-level ladders at 64 and 128 workers (beyond
/// the enumeration), the fast solver must serve `min(demand, capacity)`,
/// respect per-level capacity, use every worker, and be bit-deterministic
/// across invocations.
#[test]
fn fast_solver_invariants_on_large_calibrated_fleets() {
    let mut rng = StdRng::seed_from_u64(0xEC5);
    for &workers in &[64usize, 128] {
        for case in 0..12 {
            let strategy = if rng.random::<bool>() {
                Strategy::Ac
            } else {
                Strategy::Sm
            };
            let overhead = if strategy == Strategy::Ac {
                0.3 * rng.random::<f64>()
            } else {
                0.0
            };
            let mut p = AllocationProblem::from_ladder(
                ApproxLevel::ladder(strategy),
                GpuArch::A100,
                overhead,
                workers,
                0.0,
            );
            if rng.random::<bool>() {
                p = p.with_slo_derating(12.6);
            }
            p.demand_qpm = 1.1 * p.max_capacity_qpm() * rng.random::<f64>();
            let a = p.solve();
            let expect = p.demand_qpm.min(p.max_capacity_qpm());
            assert!(
                (a.served_qpm - expect).abs() < 1e-6,
                "W={workers} case {case}: served {} vs {expect}",
                a.served_qpm
            );
            assert_eq!(
                a.workers_per_level.iter().sum::<usize>(),
                workers,
                "W={workers} case {case}: workers unaccounted"
            );
            for (v, w) in a.omega_qpm.iter().enumerate() {
                let cap = a.workers_per_level[v] as f64 * p.levels[v].peak_qpm;
                assert!(
                    *w <= cap + 1e-6,
                    "W={workers} case {case}: level {v} overloaded"
                );
            }
            assert_eq!(a, p.solve(), "W={workers} case {case}: not deterministic");
        }
    }
}

/// The allocation a warm-started solve must reproduce: the enumeration
/// where it is tractable, a cold branch-and-bound (fresh cache) at fleet
/// scale.
fn cold_reference(p: &AllocationProblem) -> Allocation {
    if p.workers <= 16 {
        p.solve_exact()
    } else {
        p.solve()
    }
}

/// Whether the worker counts `seed` cannot serve `p`'s target, with a
/// margin so a composition exactly at the boundary is never counted.
fn seed_cannot_meet_target(p: &AllocationProblem, seed: &[usize]) -> bool {
    let target = p.demand_qpm.min(p.max_capacity_qpm());
    let capacity: f64 = seed
        .iter()
        .zip(&p.levels)
        .map(|(&c, l)| c as f64 * l.peak_qpm)
        .sum();
    capacity < target - 1e-6
}

/// One `SolveCache` carried through seeded random walks must return the
/// cold solve's allocation bit for bit at every step. The walks drift and
/// jump the demand, resize the pool, re-derate the level profiles and
/// replace the ladder (changing its level count), from 1 to 256 workers.
/// They must hit both edge cases of the warm-start seed: a previous
/// optimum that cannot meet the next target, and one that is still the
/// optimum.
#[test]
fn warm_started_solves_match_cold_solves_along_random_walks() {
    const FLEET_SIZES: [usize; 3] = [64, 128, 256];
    let mut rng = StdRng::seed_from_u64(0xEC6);
    let (mut infeasible_seeds, mut optimal_seeds) = (0, 0);
    for walk in 0..24usize {
        // Every fourth walk runs at fleet scale.
        let fleet = walk % 4 == 3;
        let mut workers = if fleet {
            FLEET_SIZES[walk / 4 % 3]
        } else {
            rng.random_range(1..=16usize)
        };
        let n = rng.random_range(2..=6usize);
        let mut levels = random_profiles(&mut rng, n);
        // Demand as a fraction of the pool's capacity.
        let mut load = 1.2 * rng.random::<f64>();
        let mut cache = SolveCache::new();
        let mut last: Option<Vec<usize>> = None;
        for step in 0..20 {
            let mut p = AllocationProblem {
                levels: levels.clone(),
                workers,
                demand_qpm: 0.0,
            };
            p.demand_qpm = load * p.max_capacity_qpm();
            let reference = cold_reference(&p);
            if let Some(seed) = &last {
                let usable =
                    seed.len() == p.levels.len() && seed.iter().sum::<usize>() == p.workers;
                if usable && seed_cannot_meet_target(&p, seed) {
                    infeasible_seeds += 1;
                }
                if *seed == reference.workers_per_level {
                    optimal_seeds += 1;
                }
            }
            let warm = p.solve_cached(&mut cache);
            assert_eq!(warm, reference, "walk {walk} step {step}: {p:?}");
            last = Some(warm.workers_per_level);

            // The next step's move; a tenth of the steps repeat the
            // problem unchanged.
            match rng.random_range(0..10u32) {
                0 => {}
                1 => load = 1.2 * rng.random::<f64>(),
                2 => {
                    workers = if fleet {
                        FLEET_SIZES[rng.random_range(0..3usize)]
                    } else {
                        rng.random_range(1..=16usize)
                    }
                }
                3 => {
                    // A new retrieval-overhead estimate re-derates every
                    // level.
                    let factor = 0.8 + 0.4 * rng.random::<f64>();
                    for l in &mut levels {
                        l.peak_qpm *= factor;
                    }
                }
                4 => {
                    let n = rng.random_range(2..=6usize);
                    levels = random_profiles(&mut rng, n);
                }
                _ => load = (load * (0.8 + 0.45 * rng.random::<f64>())).min(1.2),
            }
        }
    }
    assert!(infeasible_seeds > 0, "no walk step had an infeasible seed");
    assert!(optimal_seeds > 0, "no walk step had a still-optimal seed");
}

/// A seed that ties the new optimum's score but is not the
/// lexicographically smallest tied composition must lose the tie-break,
/// exactly as in the enumeration. Integer profiles make every fill and
/// headroom sum exact, so the tie is exact by construction.
#[test]
fn warm_seed_tied_with_a_smaller_composition_loses_the_tie_break() {
    let ladder = ApproxLevel::ladder(Strategy::Ac);
    let profile = |i: usize, quality: f64, peak_qpm: f64| LevelProfile {
        level: ladder[i],
        quality,
        peak_qpm,
    };
    let mut cache = SolveCache::new();
    // Level 1 is level 0 at a lower quality, so the optimum leaves it
    // empty.
    let before = AllocationProblem {
        levels: vec![
            profile(0, 20.0, 10.0),
            profile(1, 19.0, 10.0),
            profile(2, 16.0, 30.0),
        ],
        workers: 4,
        demand_qpm: 50.0,
    };
    let seeded = before.solve_cached(&mut cache);
    assert_eq!(seeded.workers_per_level, vec![3, 0, 1]);
    assert_eq!(seeded, before.solve_exact());
    // Level 1 now copies level 0: the seed [3, 0, 1] ties [0, 3, 1] and
    // every split in between, and the smallest count vector wins.
    let after = AllocationProblem {
        levels: vec![
            profile(0, 20.0, 10.0),
            profile(1, 20.0, 10.0),
            profile(2, 16.0, 30.0),
        ],
        ..before
    };
    let warm = after.solve_cached(&mut cache);
    assert_eq!(warm.workers_per_level, vec![0, 3, 1]);
    assert_eq!(warm, after.solve_exact());
}
