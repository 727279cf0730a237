//! s64_telemetry_overhead — the telemetry plane's cost guard.
//!
//! The §12 plane is only acceptable if watching the system costs almost
//! nothing: on the s62 million-job diurnal trace, **full tracing**
//! (every job's lifecycle spans + the per-minute timeline) must stay
//! within **10%** of the telemetry-off cost, and **1-in-64 sampling**
//! within **2%**. Results must be bit-identical across all three runs —
//! telemetry is an observer, never a participant. On Linux the cost is
//! process CPU time (co-tenants on shared runners inflate wall clock by
//! 20%+ between runs, drowning a 2% budget); elsewhere it falls back to
//! wall clock. Either way each variant takes its best of three
//! interleaved rounds.
//!
//! The measured overheads are recorded into `BENCH_obs.json` at the
//! repo root so CI history tracks the numbers, not just the pass bits:
//! the best-of-rounds ratios the verdict reads, and, so that the noise
//! they are judged against shows too, each variant's CPU and wall time in
//! every round with the min, median and max of the per-round ratios
//! (schema 3).

use std::time::Instant;

use argus_bench::{banner, f, print_table, BenchReport, Spread};
use argus_core::{Policy, RunConfig, RunOutcome, TelemetryConfig};
use argus_workload::{twitter_like, Trace};

fn cfg(trace: Trace) -> RunConfig {
    let mut c = RunConfig::new(Policy::Argus, trace)
        .with_seed(42)
        .with_workers(256)
        .with_lsh_cache()
        .without_retraining();
    c.classifier_train_size = 800;
    c
}

/// Process CPU time (user + system) in clock ticks from
/// `/proc/self/stat`, `None` off-Linux. The guard compares *ratios*,
/// so the tick unit cancels and no sysconf call is needed.
fn cpu_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // comm (field 2) may contain spaces; fields resume after the last ')'.
    let rest = stat.get(stat.rfind(')')? + 2..)?;
    let fields: Vec<&str> = rest.split_ascii_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?; // stat field 14
    let stime: u64 = fields.get(12)?.parse().ok()?; // stat field 15
    Some(utime + stime)
}

/// Rounds of interleaved off/sampled/full measurement. The run itself
/// is bit-deterministic, so the spread between repeats is pure
/// scheduler/allocator/co-tenant noise: interleaving spreads noise
/// bursts across all three variants and the per-variant minimum is the
/// estimator least polluted by them.
const ROUNDS: usize = 3;

#[derive(Default)]
struct Sample {
    out: Option<RunOutcome>,
    /// Wall seconds of each round.
    walls: Vec<f64>,
    /// CPU ticks of each round, `None` where the platform had none.
    cpus: Vec<Option<f64>>,
}

impl Sample {
    /// Runs the configuration once, recording this round's wall and CPU
    /// time. On shared single-core runners a co-tenant can inflate one
    /// variant's wall clock by 20%+, so the overhead guard prefers
    /// process CPU time, which only counts our own work; wall time is
    /// still reported for the JSON record.
    fn measure(&mut self, make: impl Fn() -> RunConfig) {
        let ticks_before = cpu_ticks();
        let start = Instant::now();
        let out = make().run();
        self.walls.push(start.elapsed().as_secs_f64());
        self.cpus.push(
            cpu_ticks()
                .zip(ticks_before)
                .map(|(after, before)| after.saturating_sub(before) as f64),
        );
        self.out.get_or_insert(out);
    }

    /// The cheapest round's wall time.
    fn wall(&self) -> f64 {
        self.walls.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// The cheapest round's CPU time, `None` if no round had one.
    fn cpu(&self) -> Option<f64> {
        self.cpus.iter().flatten().copied().reduce(f64::min)
    }

    /// Each round's time in the guard's measure, `None` where missing.
    fn rounds(&self, cpu_based: bool) -> Vec<Option<f64>> {
        if cpu_based {
            self.cpus.clone()
        } else {
            self.walls.iter().copied().map(Some).collect()
        }
    }

    fn out(&self) -> &RunOutcome {
        self.out.as_ref().expect("measured at least once")
    }
}

/// The ratio of `variant` to `off` in each round both have a time for.
fn round_ratios(variant: &[Option<f64>], off: &[Option<f64>]) -> Vec<f64> {
    variant
        .iter()
        .zip(off)
        .filter_map(|(v, o)| Some((*v)? / (*o)?))
        .collect()
}

fn main() {
    banner(
        "S64",
        "Telemetry overhead guard on the million-job trace",
        "§12 telemetry / ISSUE 9",
    );
    let mut guard_failures: Vec<String> = Vec::new();

    // The s62 configuration: ~953 k jobs through the control plane.
    let trace = twitter_like(42, 260).scale(40.0);

    // One discarded warmup run: the first pass pays page-cache and
    // allocator cold-start costs that would flatter whichever variant
    // runs second.
    let _ = cfg(trace.clone()).run();

    let mut off = Sample::default();
    let mut sampled = Sample::default();
    let mut full = Sample::default();
    for _ in 0..ROUNDS {
        off.measure(|| cfg(trace.clone()));
        sampled.measure(|| cfg(trace.clone()).with_telemetry(TelemetryConfig::sampled(64)));
        full.measure(|| cfg(trace.clone()).with_telemetry(TelemetryConfig::full()));
    }

    // Guard on CPU time when the platform exposes it, wall otherwise.
    let cpu_based = off.cpu().is_some() && sampled.cpu().is_some() && full.cpu().is_some();
    let measure = |s: &Sample| {
        if cpu_based {
            s.cpu().unwrap()
        } else {
            s.wall()
        }
    };
    let sampled_ratio = measure(&sampled) / measure(&off);
    let full_ratio = measure(&full) / measure(&off);
    // The same ratios round by round: their spread is the noise the
    // best-of-rounds verdict is read against.
    let sampled_rounds = round_ratios(&sampled.rounds(cpu_based), &off.rounds(cpu_based));
    let full_rounds = round_ratios(&full.rounds(cpu_based), &off.rounds(cpu_based));
    let mut rows = Vec::new();
    for (name, s, ratio) in [
        ("off", &off, 1.0),
        ("sampled 1/64", &sampled, sampled_ratio),
        ("full", &full, full_ratio),
    ] {
        rows.push(vec![
            name.to_string(),
            s.out().totals.completed.to_string(),
            f(s.wall(), 2),
            format!("{:.3}x", ratio),
            s.out()
                .spans
                .as_ref()
                .map_or("-".to_string(), |l| l.events.len().to_string()),
        ]);
    }
    print_table(
        &[
            "telemetry",
            "completed",
            "wall (s)",
            if cpu_based {
                "vs off (cpu)"
            } else {
                "vs off (wall)"
            },
            "span events",
        ],
        &rows,
    );
    let (sampled_spread, full_spread) = (Spread::of(&sampled_rounds), Spread::of(&full_rounds));
    println!(
        "\nper-round ratios vs off ({} rounds):",
        sampled_rounds.len()
    );
    print_table(
        &["telemetry", "min", "median", "max"],
        &[
            [vec!["sampled 1/64".to_string()], sampled_spread.cells()].concat(),
            [vec!["full".to_string()], full_spread.cells()].concat(),
        ],
    );

    // The observer must not participate: identical results, bit for bit.
    for (label, s) in [("sampled", &sampled), ("full", &full)] {
        if s.out().totals != off.out().totals
            || s.out().minutes != off.out().minutes
            || s.out().makespan_secs.to_bits() != off.out().makespan_secs.to_bits()
        {
            guard_failures.push(format!("telemetry-{label} run diverged from telemetry-off"));
        }
    }
    let unit = if cpu_based { "cpu" } else { "wall" };
    if full_ratio > 1.10 {
        guard_failures.push(format!(
            "full tracing cost {full_ratio:.3}x the telemetry-off {unit} time (budget 1.10x)"
        ));
    }
    if sampled_ratio > 1.02 {
        guard_failures.push(format!(
            "1/64 sampling cost {sampled_ratio:.3}x the telemetry-off {unit} time (budget 1.02x)"
        ));
    }
    let full_events = full.out().spans.as_ref().map_or(0, |s| s.events.len());
    let sampled_events = sampled.out().spans.as_ref().map_or(0, |s| s.events.len());
    if sampled_events * 32 >= full_events {
        guard_failures.push(format!(
            "sampling kept too much: {sampled_events} of {full_events} events"
        ));
    }

    let mut report = BenchReport::new("s64_telemetry_overhead")
        .schema_version(3)
        .uint("jobs", off.out().totals.completed)
        .str("measure", unit)
        .float("off_wall_secs", off.wall(), 3)
        .float("sampled_wall_secs", sampled.wall(), 3)
        .float("full_wall_secs", full.wall(), 3)
        .float("sampled_overhead", sampled_ratio - 1.0, 4)
        .float("full_overhead", full_ratio - 1.0, 4)
        .uint("sampled_span_events", sampled_events as u64)
        .uint("full_span_events", full_events as u64)
        .float("budget_full_overhead", 0.10, 2)
        .float("budget_sampled_overhead", 0.02, 2)
        .uint("rounds", ROUNDS as u64);
    report = sampled_spread.add_to(report, "sampled_round_ratio");
    report = full_spread.add_to(report, "full_round_ratio");
    // Every round's times: CPU in clock ticks (absent off-Linux), wall in
    // seconds.
    for r in 0..ROUNDS {
        let mut round = BenchReport::group();
        for (name, s) in [("off", &off), ("sampled", &sampled), ("full", &full)] {
            if let Some(cpu) = s.cpus[r] {
                round = round.uint(&format!("{name}_cpu_ticks"), cpu as u64);
            }
            round = round.float(&format!("{name}_wall_secs"), s.walls[r], 3);
        }
        report = report.nested(&format!("round_{}", r + 1), round);
    }
    report.write("BENCH_obs.json");

    assert!(
        guard_failures.is_empty(),
        "s64_telemetry_overhead guard failed:\n{}",
        guard_failures.join("\n")
    );
    println!(
        "\nguard ok: full tracing {full_ratio:.3}x / 1-in-64 sampling {sampled_ratio:.3}x \
         the telemetry-off {unit} time on {} jobs (budgets 1.10x / 1.02x), results bit-identical",
        off.out().totals.completed
    );
}
