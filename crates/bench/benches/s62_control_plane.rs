//! s62_control_plane — the control plane's throughput guard.
//!
//! The acceptance bar: a million-job diurnal trace must clear the control
//! plane (the driver's event pump calling the planner, cache-plane,
//! metrics and fleet stages, all on one thread) in **under 30 s of wall
//! clock**. The configuration is the serving-path steady state — Argus
//! policy, 256 workers, shared LSH retrieval plane, classifier frozen
//! after its initial fit — so the guard measures the per-job cost of the
//! stage pipeline itself, not model retraining or cold caches.
//!
//! Memory must follow the work in flight, not the trace: the run's peak
//! resident set (`VmHWM`) stays under **64 MB**. The driver holds per-job
//! state only for live jobs and the recent arrivals retraining reads, and
//! the cache store keeps no per-blob state; a materialised trace (about
//! 130 MB of prompts at this size) or a map of every stored blob (about
//! 200 MB) would each break the budget on its own.
//!
//! The measured jobs/sec and peak RSS are recorded into
//! `BENCH_control_plane.json` at the repo root so CI history tracks the
//! numbers, not just the pass/fail bit.

use std::time::Instant;

use argus_bench::{banner, f, print_table, BenchReport};
use argus_core::{Policy, RunConfig};
use argus_workload::twitter_like;

/// Peak-RSS budget of the whole bench process, in MiB.
const RSS_BUDGET_MB: f64 = 64.0;

/// Peak resident set size of this process so far (`VmHWM`), in MiB;
/// `None` where `/proc` is missing.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn main() {
    banner(
        "S62",
        "Control-plane throughput guard",
        "ISSUE 6 / §5 control plane",
    );
    let mut guard_failures: Vec<String> = Vec::new();

    // ~953 k jobs: the 260-minute diurnal trace scaled ×40.
    let trace = twitter_like(42, 260).scale(40.0);
    let jobs = trace.total_queries();
    let mut cfg = RunConfig::new(Policy::Argus, trace)
        .with_seed(42)
        .with_workers(256)
        .with_lsh_cache()
        .without_retraining();
    cfg.classifier_train_size = 800;

    let start = Instant::now();
    let out = cfg.run();
    let wall = start.elapsed().as_secs_f64();
    let jobs_per_sec = out.totals.completed as f64 / wall;
    let peak_rss = peak_rss_mb();

    print_table(
        &[
            "jobs",
            "completed",
            "wall (s)",
            "jobs/sec",
            "hit rate",
            "peak RSS (MB)",
        ],
        &[vec![
            f(jobs, 0),
            out.totals.completed.to_string(),
            f(wall, 1),
            f(jobs_per_sec, 0),
            f(out.retrieval.hit_rate(), 3),
            peak_rss.map_or_else(|| "n/a".to_string(), |mb| f(mb, 1)),
        ]],
    );

    if out.totals.completed != out.totals.offered {
        guard_failures.push(format!(
            "run dropped jobs: completed {} of {} offered",
            out.totals.completed, out.totals.offered
        ));
    }
    if wall >= 30.0 {
        guard_failures.push(format!("million-job trace took {wall:.1} s (budget 30 s)"));
    }
    // Floor with headroom below the measured ~41 k jobs/sec, above the
    // ~32 k the 30 s ceiling implies — catches creeping per-job cost even
    // on runners faster than the calibration host.
    if jobs_per_sec < 32_000.0 {
        guard_failures.push(format!(
            "control plane sustained {jobs_per_sec:.0} jobs/sec (floor 32000)"
        ));
    }
    match peak_rss {
        Some(mb) if mb > RSS_BUDGET_MB => guard_failures.push(format!(
            "peak RSS {mb:.1} MB over the {RSS_BUDGET_MB:.0} MB budget"
        )),
        Some(_) => {}
        None => println!("peak RSS check skipped: /proc/self/status is not available"),
    }

    let mut report = BenchReport::new("s62_control_plane")
        .str("policy", "Argus")
        .uint("workers", 256)
        .uint("seed", 42)
        .uint("jobs", out.totals.completed)
        .float("wall_secs", wall, 3)
        .float("jobs_per_sec", jobs_per_sec, 0)
        .float("budget_wall_secs", 30.0, 1);
    if let Some(mb) = peak_rss {
        report = report
            .float("peak_rss_mb", mb, 1)
            .float("budget_peak_rss_mb", RSS_BUDGET_MB, 0);
    }
    report.write("BENCH_control_plane.json");

    assert!(
        guard_failures.is_empty(),
        "s62_control_plane guard failed:\n{}",
        guard_failures.join("\n")
    );
    println!(
        "\nguard ok: {} jobs through the control plane in {wall:.1} s ({jobs_per_sec:.0} jobs/sec, budget 30 s; peak RSS budget {RSS_BUDGET_MB:.0} MB)",
        out.totals.completed
    );
}
