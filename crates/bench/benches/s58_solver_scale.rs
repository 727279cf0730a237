//! s58 — allocator scalability beyond the paper's testbed (§5.7).
//!
//! The paper reports the Gurobi ILP staying under 100 ms on the 8-worker
//! testbed. This harness checks the reproduction keeps that budget as the
//! fleet grows, in two parts:
//!
//! * **Sizes.** The exhaustive composition enumeration (`solve_exact`) is
//!   timed while it is tractable and the branch-and-bound (`solve`,
//!   cold) up to 256 workers; the two are asserted identical wherever
//!   both run. The 3-level / 128-worker case is the pinned claim: it must
//!   solve in < 100 ms.
//! * **Warm ticks.** The allocator re-solves every minute with one
//!   `SolveCache`, which warm-starts each search from the previous
//!   optimum. One cache is carried across the 121 provisioning targets
//!   (`q + √q`) of the steady 256-worker workload's demand shape on the
//!   derated A100 AC ladder and timed against cold solves of the same
//!   targets; every warm allocation must equal the cold one, and the warm
//!   median must not exceed the cold median.
//!
//! Every timed row runs `REPS` interleaved repetitions and reports min,
//! median and max; `BENCH_solver_scale.json` records them.
//!
//! Run with `cargo bench -p argus-bench --bench s58_solver_scale`.

use std::hint::black_box;
use std::time::Instant;

use argus_bench::{banner, f, print_table, BenchReport, Spread};
use argus_core::{Allocation, AllocationProblem, LevelProfile, SolveCache};
use argus_models::{ApproxLevel, GpuArch, Strategy};
use argus_workload::twitter_like;

/// Interleaved repetitions of every timed row.
const REPS: usize = 7;
/// Solves averaged inside one repetition of a size row.
const SOLVES_PER_REP: u32 = 5;
/// Pool sizes (levels, workers) of the size table.
const SIZES: [(usize, usize); 10] = [
    (3, 8),
    (3, 16),
    (3, 64),
    (3, 128),
    (3, 256),
    (6, 8),
    (6, 16),
    (6, 64),
    (6, 128),
    (6, 256),
];
/// The steady 256-worker workload: its fleet, SLO and demand shape.
const TICK_WORKERS: usize = 256;
const TICK_SLO_SECS: f64 = 12.6;
const TICK_SHAPE_SEED: u64 = 42;
const TICK_MINUTES: usize = 120;
const TICK_DEMAND_SCALE: f64 = 10.0;

/// Mean milliseconds per call of `solve` over `SOLVES_PER_REP` calls.
fn time_ms(solve: impl Fn() -> Allocation) -> f64 {
    let t0 = Instant::now();
    for _ in 0..SOLVES_PER_REP {
        black_box(solve());
    }
    t0.elapsed().as_secs_f64() * 1e3 / f64::from(SOLVES_PER_REP)
}

fn three_level(workers: usize, demand: f64) -> AllocationProblem {
    let ladder = ApproxLevel::ladder(Strategy::Ac);
    let profiles = [(21.6, 14.2), (20.9, 21.1), (17.6, 41.3)];
    AllocationProblem {
        levels: profiles
            .iter()
            .enumerate()
            .map(|(i, &(quality, peak_qpm))| LevelProfile {
                level: ladder[i],
                quality,
                peak_qpm,
            })
            .collect(),
        workers,
        demand_qpm: demand,
    }
}

/// The derated A100 AC ladder at `workers`.
fn derated_ac(workers: usize) -> AllocationProblem {
    AllocationProblem::from_ladder(
        ApproxLevel::ladder(Strategy::Ac),
        GpuArch::A100,
        0.02,
        workers,
        0.0,
    )
    .with_slo_derating(TICK_SLO_SECS)
}

/// A size-table problem loaded to ~70% of its deepest-approximation
/// capacity — the regime where the allocator genuinely mixes levels.
fn size_problem(levels: usize, workers: usize) -> AllocationProblem {
    let mut p = if levels == 3 {
        three_level(workers, 0.0)
    } else {
        derated_ac(workers)
    };
    p.demand_qpm = 0.7 * p.max_capacity_qpm();
    p
}

/// Whether the enumeration is timed at this size (it grows as
/// `C(W + V − 1, V − 1)`).
fn exact_tractable(levels: usize, workers: usize) -> bool {
    workers <= 16 || levels == 3
}

/// The allocator's provisioning targets over the steady workload's demand
/// shape, one per minute boundary `0..=TICK_MINUTES`: the set-up solve plus
/// one per tick (`qpm_at` holds the last minute past the end).
fn tick_targets() -> Vec<f64> {
    let trace = twitter_like(TICK_SHAPE_SEED, TICK_MINUTES).scale(TICK_DEMAND_SCALE);
    (0..=TICK_MINUTES)
        .map(|m| {
            let q = trace.qpm_at(m);
            (q + q.max(0.0).sqrt()).max(1.0)
        })
        .collect()
}

/// One pass over the tick targets: per-tick allocations and mean
/// milliseconds per tick. `cache` carries state across ticks; `None`
/// solves every tick cold.
fn tick_pass(
    base: &AllocationProblem,
    targets: &[f64],
    mut cache: Option<&mut SolveCache>,
) -> (Vec<Allocation>, f64) {
    let mut out = Vec::with_capacity(targets.len());
    let t0 = Instant::now();
    for &demand in targets {
        let mut p = base.clone();
        p.demand_qpm = demand;
        out.push(match cache.as_deref_mut() {
            Some(cache) => p.solve_cached(cache),
            None => p.solve(),
        });
    }
    let ms = t0.elapsed().as_secs_f64() * 1e3 / targets.len() as f64;
    (black_box(out), ms)
}

fn main() {
    banner(
        "S58",
        "Eq. 1 allocator scaling to 64-256 workers, cold and warm",
        "§5.7 (sub-100 ms allocation)",
    );

    let problems: Vec<AllocationProblem> = SIZES.iter().map(|&(v, w)| size_problem(v, w)).collect();
    for (&(levels, workers), p) in SIZES.iter().zip(&problems) {
        if exact_tractable(levels, workers) {
            assert_eq!(
                p.solve_exact(),
                p.solve(),
                "exact and fast disagree at V={levels} W={workers}"
            );
        }
    }
    let tick_base = derated_ac(TICK_WORKERS);
    let targets = tick_targets();

    // Interleaved repetitions: every row is sampled once per repetition,
    // so a slow phase of the host spreads over all rows alike.
    let mut fast_ms = vec![Vec::new(); SIZES.len()];
    let mut exact_ms = vec![Vec::new(); SIZES.len()];
    let (mut cold_tick_ms, mut warm_tick_ms) = (Vec::new(), Vec::new());
    let mut seed_kept = 0usize;
    for rep in 0..REPS {
        for (i, (&(levels, workers), p)) in SIZES.iter().zip(&problems).enumerate() {
            fast_ms[i].push(time_ms(|| p.solve()));
            if exact_tractable(levels, workers) {
                exact_ms[i].push(time_ms(|| p.solve_exact()));
            }
        }
        let (cold, cold_ms) = tick_pass(&tick_base, &targets, None);
        let (warm, warm_ms) = tick_pass(&tick_base, &targets, Some(&mut SolveCache::new()));
        assert_eq!(warm, cold, "warm-started ticks diverged from cold solves");
        cold_tick_ms.push(cold_ms);
        warm_tick_ms.push(warm_ms);
        if rep == 0 {
            seed_kept = warm
                .windows(2)
                .filter(|pair| pair[0].workers_per_level == pair[1].workers_per_level)
                .count();
        }
    }

    let mut rows = Vec::new();
    let mut report = BenchReport::new("s58_solver_scale").uint("reps", REPS as u64);
    let mut pinned_ms = None;
    for (i, (&(levels, workers), p)) in SIZES.iter().zip(&problems).enumerate() {
        let fast = Spread::of(&fast_ms[i]);
        let exact = (!exact_ms[i].is_empty()).then(|| Spread::of(&exact_ms[i]));
        if levels == 3 && workers == 128 {
            pinned_ms = Some(fast.median);
        }
        let mut cells = vec![
            levels.to_string(),
            workers.to_string(),
            f(p.demand_qpm, 0),
            exact.as_ref().map_or("-".into(), |s| f(s.median, 3)),
        ];
        cells.extend(fast.cells());
        rows.push(cells);
        let row = BenchReport::group().float("qpm", p.demand_qpm, 1);
        let mut row = fast.add_to(row, "fast_ms");
        if let Some(exact) = &exact {
            row = exact.add_to(row, "exact_ms");
        }
        report = report.nested(&format!("v{levels}_w{workers}"), row);
    }
    print_table(
        &[
            "levels",
            "workers",
            "QPM",
            "exact ms (med)",
            "fast ms (min)",
            "fast ms (med)",
            "fast ms (max)",
        ],
        &rows,
    );

    let cold = Spread::of(&cold_tick_ms);
    let warm = Spread::of(&warm_tick_ms);
    let ticks = targets.len();
    println!("\nallocator ticks: {ticks} targets, {TICK_WORKERS} workers, derated A100 AC ladder");
    print_table(
        &["solve", "min ms/tick", "median ms/tick", "max ms/tick"],
        &[
            [vec!["cold".into()], cold.cells()].concat(),
            [vec!["warm".into()], warm.cells()].concat(),
        ],
    );
    println!(
        "seed kept as the optimum on {seed_kept} of {} warm-started ticks",
        ticks - 1
    );

    let pinned = pinned_ms.expect("3-level/128-worker case ran");
    println!("\npinned: 128 workers / 3 levels solve = {pinned:.3} ms (budget 100 ms)");

    let mut ticks_row = BenchReport::group()
        .uint("workers", TICK_WORKERS as u64)
        .uint("ticks", ticks as u64);
    ticks_row = cold.add_to(ticks_row, "cold_ms_per_tick");
    ticks_row = warm.add_to(ticks_row, "warm_ms_per_tick");
    report
        .nested(
            "warm_ticks",
            ticks_row.uint("seed_kept_ticks", seed_kept as u64),
        )
        .float("pinned_ms", pinned, 3)
        .float("budget_ms", 100.0, 1)
        .write("BENCH_solver_scale.json");

    assert!(
        pinned < 100.0,
        "solver-scale regression: {pinned:.3} ms >= 100 ms at 128 workers"
    );
    assert!(
        warm.median <= cold.median,
        "warm-started ticks slower than cold: {:.3} ms > {:.3} ms median",
        warm.median,
        cold.median
    );
    println!(
        "\nguard ok: 128-worker solve {pinned:.3} ms < 100 ms; warm tick {:.3} ms <= cold {:.3} ms (medians)",
        warm.median, cold.median
    );
}
