//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path simbench/Cargo.toml -- \
//!     --workload <steady-256|testbed-8|elastic-hetero|cascade-80|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics: it repeats one
//! `SystemSimulation::new` plus one `run()` of the workload, one at a time,
//! until `--seconds` have passed (at least three runs), and reports the
//! medians of the simulator's own cost, scaled to a quiet host's speed
//! (see `calibrate`), next to the simulated serving outcome. `--trace 1`
//! makes a separate traced run and reports where its time went, layer by
//! layer (see README.md). Every run's outputs are checked; the last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.

mod calibrate;
mod checks;
mod meter;
mod probe;
mod replay;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use argus::core::{RunConfig, RunOutcome, SystemSimulation, TelemetryConfig};

use probe::{Probes, Tally};
use workloads::Scale;

const USAGE: &str =
    "usage: argus-simbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>";

/// Fewest measured runs a `--trace 0` invocation makes, however short
/// `--seconds` is, so every reported time is a median.
const MIN_RUNS: usize = 3;

/// Set-ups timed after each measured run and dropped unrun, so the
/// `setup_s` samples come from across the whole window.
const EXTRA_SETUPS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 42, 10.0, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse::<f64>().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {:?} or all",
            workloads::NAMES
        ));
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One invocation's result: the output-check verdict, the jobs attempted
/// and failed across every run it made, and its metrics in report order.
#[derive(Default)]
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn new() -> Self {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Accounts one run: its offered jobs are attempted; lost jobs fail,
    /// and a run that broke any check fails all of them.
    fn account(&mut self, out: &RunOutcome, broken: &[String]) {
        let offered = out.totals.offered;
        self.attempted += offered;
        if broken.is_empty() {
            self.failed += offered - out.totals.completed.min(offered);
        } else {
            self.failed += offered;
            self.correct = false;
            for b in broken {
                eprintln!("output check failed: {b}");
            }
        }
    }

    /// Accounts a run that panicked: every job it was offered failed.
    fn account_panic(&mut self, cfg: &RunConfig) {
        let jobs = replay::offered(cfg) as u64;
        self.attempted += jobs.max(1);
        self.failed += jobs.max(1);
        self.correct = false;
        eprintln!("run panicked: all {jobs} jobs count as failed");
    }

    /// Prints the metrics as a table, then the JSON result line.
    fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("  {name:<34} {value:>16.6} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .filter(|(_, v, _)| v.is_finite())
            .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One timed simulation: the set-up cost (see [`timed_setup`]), `run()`
/// wall seconds, `run()` process CPU seconds (absent without `/proc`),
/// and the outcome — or `None` if the run panicked.
struct Timed {
    setup_s: f64,
    run_s: f64,
    cpu_s: Option<f64>,
    out: Option<RunOutcome>,
}

/// Builds the simulation and returns it with its set-up cost: the CPU
/// seconds of the calling thread, which does all of the set-up work
/// (trace, prompts, classifier training, cache pre-warm, stage spawn).
/// CPU time leaves out the waits a busy host adds to wall time. Where the
/// thread clock is missing, the cost is wall seconds.
fn timed_setup(cfg: RunConfig) -> (SystemSimulation, f64) {
    let cpu0 = meter::thread_cpu_secs();
    let start = Instant::now();
    let sim = SystemSimulation::new(cfg);
    let wall = start.elapsed().as_secs_f64();
    let secs = cpu0
        .zip(meter::thread_cpu_secs())
        .map_or(wall, |(a, b)| b - a);
    (sim, secs)
}

fn timed_run(cfg: RunConfig) -> Timed {
    let mut t = Timed {
        setup_s: 0.0,
        run_s: 0.0,
        cpu_s: None,
        out: None,
    };
    let result = catch_unwind(AssertUnwindSafe(|| {
        let (sim, setup_s) = timed_setup(cfg);
        t.setup_s = setup_s;
        let cpu0 = meter::cpu_secs();
        let start = Instant::now();
        let out = sim.run();
        t.run_s = start.elapsed().as_secs_f64();
        t.cpu_s = cpu0.zip(meter::cpu_secs()).map(|(a, b)| b - a);
        out
    }));
    t.out = result.ok();
    t
}

/// Runs `cfg`, checks its outputs (against `reference` too, when given),
/// and accounts it. Returns the timing and the outcome if the run
/// completed.
fn checked_run(
    report: &mut Report,
    cfg: RunConfig,
    reference: Option<&RunOutcome>,
    what: &str,
) -> Timed {
    let fallback = cfg.clone();
    let t = timed_run(cfg);
    match &t.out {
        Some(out) => {
            let mut broken = checks::conservation(out);
            if let Some(d) = reference.and_then(|r| checks::same_outcome(r, out)) {
                broken.push(format!("{what}: {d}"));
            }
            report.account(out, &broken);
        }
        None => report.account_panic(&fallback),
    }
    t
}

/// `--trace 0`: the end-to-end metrics.
fn measure(args: &Args) -> Report {
    let cfg = || workload_cfg(args);
    let mut report = Report::new();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut reference: Option<RunOutcome> = None;
    let (mut jobs_per_s, mut cpu_us, mut setup) = (Vec::new(), Vec::new(), Vec::new());
    let mut cpu_missing = false;
    let mut peak_rss = None;
    // CPU seconds of the reference computation, sampled between the
    // timed set-ups and runs.
    let mut host = Vec::new();
    let mut runs = 0;
    // Start another round only if one as long as the last still ends
    // inside the window, so an invocation lasts about `--seconds`.
    let mut last_round = Duration::ZERO;
    while runs < MIN_RUNS || Instant::now() + last_round < deadline {
        runs += 1;
        let begun = Instant::now();
        host.extend(calibrate::sample());
        let t = checked_run(
            &mut report,
            cfg(),
            reference.as_ref(),
            "repeat of the same seed differs",
        );
        // Peak RSS through the first set-up and run: later repeats only
        // add allocator retention that varies with thread timing.
        if runs == 1 {
            peak_rss = meter::peak_rss_mb();
        }
        for _ in 0..EXTRA_SETUPS {
            let (sim, secs) = timed_setup(cfg());
            drop(sim);
            setup.push(secs);
            host.extend(calibrate::sample());
        }
        last_round = begun.elapsed();
        let Some(out) = t.out else { continue };
        let completed = out.totals.completed as f64;
        eprintln!(
            "run {runs}: set-up {:.4} s, run {:.4} s, {completed} jobs",
            t.setup_s, t.run_s
        );
        setup.push(t.setup_s);
        jobs_per_s.push(ratio(completed, t.run_s));
        match t.cpu_s {
            Some(c) => cpu_us.push(ratio(c * 1e6, completed)),
            None => cpu_missing = true,
        }
        reference.get_or_insert(out);
    }
    // How much slower than a quiet host the host ran in this window; the
    // timing metrics are scaled by it (see `calibrate`).
    let slowdown = if host.is_empty() {
        1.0
    } else {
        median(&host) / calibrate::QUIET_REF_SECS
    };
    // Wall-clock throughput is printed, not bounded: on a shared 2-vCPU
    // box it spreads far more than CPU time (README.md, "Bounds and
    // noise"), so the traced run reports it as a per-layer figure.
    eprintln!(
        "wall-clock throughput: {:.0} jobs/s (median of {} runs); \
         measured CPU per job {:.4} us, set-up {:.4} s (medians of {} and {}); \
         host slowdown {:.4} (median of {} reference samples)",
        median(&jobs_per_s),
        jobs_per_s.len(),
        median(&cpu_us),
        median(&setup),
        cpu_us.len(),
        setup.len(),
        slowdown,
        host.len()
    );
    if !cpu_missing {
        report.metric("cpu_us_per_job", median(&cpu_us) / slowdown, "us");
    }
    report.metric("setup_s", median(&setup) / slowdown, "s");
    if let Some(mb) = peak_rss {
        report.metric("peak_rss_mb", mb, "MB");
    }
    if let Some(out) = &reference {
        let t = &out.totals;
        let offered = t.offered as f64;
        report.metric("slo_attainment", ratio(t.in_slo as f64, offered), "ratio");
        report.metric("rel_quality", t.relative_quality(), "ratio");
        report.metric(
            "dollars_per_1k_images",
            out.cost.dollars_per_1k_images,
            "USD",
        );
        report.metric(
            "completed_frac",
            ratio(t.completed as f64, offered),
            "ratio",
        );
    }
    report
}

/// A timed seam: its calls, cost per call and share of the traced run.
fn seam(report: &mut Report, name: &str, tally: &Tally, wall_ns: f64) -> f64 {
    let share = ratio(tally.ns() as f64, wall_ns);
    report.metric(&format!("{name}.calls"), tally.calls() as f64, "count");
    report.metric(
        &format!("{name}.ns_per_call"),
        ratio(tally.ns() as f64, tally.calls() as f64),
        "ns",
    );
    report.metric(&format!("{name}.share"), share, "ratio");
    share
}

/// `--trace 1`: the per-layer breakdown of one traced run.
fn trace(args: &Args) -> Report {
    let cfg = || workload_cfg(args);
    let mut report = Report::new();
    let started = Instant::now();

    // Untraced baseline runs, alternating the workload's configuration with
    // the same configuration with telemetry switched the other way. The
    // first gives the reference outcome and the wall time the tracing
    // overhead is measured against; the pair's medians give the cost of
    // recording; whichever of the two records supplies the stage profiles
    // and the exporter replays.
    let telemetry_on = cfg().telemetry.is_some();
    let toggled_cfg = || {
        let mut c = cfg();
        c.telemetry = if telemetry_on {
            None
        } else {
            Some(TelemetryConfig::timeline_only())
        };
        c
    };
    let mut reference: Option<RunOutcome> = None;
    let mut toggled_out: Option<RunOutcome> = None;
    let (mut plain_walls, mut toggled_walls) = (Vec::new(), Vec::new());
    let mut plain_jobs_per_s = Vec::new();
    let baseline_window = Duration::from_secs_f64(args.seconds / 2.0);
    let mut last_round = Duration::ZERO;
    while plain_walls.len() < 2 || started.elapsed() + last_round < baseline_window {
        let begun = Instant::now();
        let t = checked_run(
            &mut report,
            cfg(),
            reference.as_ref(),
            "repeat of the same seed differs",
        );
        let Some(out) = t.out else { break };
        plain_walls.push(t.run_s);
        plain_jobs_per_s.push(ratio(out.totals.completed as f64, t.run_s));
        let reference = reference.get_or_insert(out);
        let t = checked_run(
            &mut report,
            toggled_cfg(),
            Some(reference),
            "telemetry changed the outcome",
        );
        let Some(out) = t.out else { break };
        toggled_walls.push(t.run_s);
        toggled_out.get_or_insert(out);
        last_round = begun.elapsed();
    }
    let Some(reference) = reference else {
        return report;
    };

    // The traced run: the workload's own configuration with every seam
    // decorated. Its outcome must equal the untraced one.
    let probes = Arc::new(Probes::default());
    let mut traced_cfg = cfg();
    probe::decorate(&mut traced_cfg, &probes);
    let traced = checked_run(
        &mut report,
        traced_cfg,
        Some(&reference),
        "traced run differs from the untraced run",
    );
    let Some(out) = traced.out else {
        return report;
    };
    let wall = traced.run_s;
    let wall_ns = wall * 1e9;
    let recorded = if telemetry_on {
        Some(&out)
    } else {
        toggled_out.as_ref()
    };
    let obs_share = if telemetry_on {
        1.0 - ratio(median(&toggled_walls), median(&plain_walls))
    } else {
        0.0
    };

    // Only work on the driver's critical path counts towards the shares:
    // the driver runs the seams, embeds, and waits for every cache lookup
    // and planner reply. Cache inserts are fire-and-forget messages the
    // cache-plane stage handles on its own thread, so their cost is
    // reported but not counted.

    // Seams timed by the decorators.
    let mut shares = 0.0;
    shares += seam(
        &mut report,
        "pipeline.pick_level",
        &probes.pick_level,
        wall_ns,
    );
    shares += seam(
        &mut report,
        "pipeline.select_worker",
        &probes.select_worker,
        wall_ns,
    );
    shares += seam(
        &mut report,
        "pipeline.batch_size",
        &probes.batch_size,
        wall_ns,
    );
    report.metric(
        "pipeline.cache_gate.calls",
        probes.cache_gate.calls() as f64,
        "count",
    );
    shares += seam(&mut report, "capacity.peak_qpm", &probes.capacity, wall_ns);
    shares += seam(&mut report, "cascade.doubt", &probes.doubt, wall_ns);
    let (escalation_rate, quality_delta) = out.cascade.as_ref().map_or((0.0, 0.0), |c| {
        (
            ratio(c.escalated_total() as f64, c.first_pass_total() as f64),
            c.quality_delta,
        )
    });
    report.metric("cascade.escalation_rate", escalation_rate, "ratio");
    report.metric("cascade.quality_delta", quality_delta, "ratio");

    // Layers without a seam: replayed from outside, scaled by the run's
    // own call counts.
    let run_cfg = workload_cfg(args);
    let sample = replay::sample(&run_cfg);
    // Every workload runs Argus, which trains classifiers unless the
    // cascade replaces its pipeline.
    let uses_classifier = run_cfg.cascade.is_none();
    // A drift trigger needs two full 400-completion detector windows, so
    // the recent-prompt pool always holds the 200 prompts a retrain needs
    // and no recorded retrain is skipped.
    let retrains = out.retrain_minutes.len() as f64;
    let (retrain_ms, offline_ms) = if uses_classifier {
        replay::classifier_ms(&run_cfg, &sample)
    } else {
        (0.0, 0.0)
    };
    let retrain_share = ratio(retrains * retrain_ms * 1e6, wall_ns);
    shares += retrain_share;
    report.metric("classifier.retrains", retrains, "count");
    report.metric("classifier.retrain_ms", retrain_ms, "ms");
    report.metric("classifier.retrain_share", retrain_share, "ratio");
    report.metric("classifier.offline_train_ms", offline_ms, "ms");

    let r = &out.retrieval;
    let lookups = (r.hits() + r.misses() + r.failures()) as f64;
    let inserts = r.inserts as f64;
    let embeds = lookups.max(inserts);
    let embed_ns = if embeds > 0.0 {
        replay::embed_ns(&sample)
    } else {
        0.0
    };
    let embed_share = ratio(embeds * embed_ns, wall_ns);
    shares += embed_share;
    report.metric("embed.calls", embeds, "count");
    report.metric("embed.ns_per_call", embed_ns, "ns");
    report.metric("embed.share", embed_share, "ratio");

    let (lookup_ns, insert_ns) = if lookups + inserts > 0.0 {
        replay::cache_ns(&run_cfg, &sample)
    } else {
        (0.0, 0.0)
    };
    let cache_share = ratio(lookups * lookup_ns, wall_ns);
    shares += cache_share;
    report.metric("cache.lookups", lookups, "count");
    report.metric("cache.hit_rate", r.hit_rate(), "ratio");
    report.metric("cache.failures", r.failures() as f64, "count");
    report.metric("cache.inserts", inserts, "count");
    report.metric("cache.replica_writes", r.replica_writes as f64, "count");
    report.metric(
        "cache.remote_write_hops",
        r.remote_write_hops as f64,
        "count",
    );
    report.metric("cache.lookup_ns", lookup_ns, "ns");
    report.metric("cache.insert_ns", insert_ns, "ns");
    report.metric("cache.share", cache_share, "ratio");
    report.metric("cache.sim_retrieval_mean_ms", r.mean_latency * 1e3, "ms");
    report.metric("cache.sim_retrieval_p99_ms", r.p99_latency * 1e3, "ms");

    // A tick solves its pools in parallel and waits for the slowest; a
    // re-split re-solves one pool.
    let solve = replay::solve_us(&run_cfg);
    let ticks = run_cfg.trace.len_minutes() as f64;
    let pools = replay::pools(&run_cfg).len() as f64;
    let resplits = out.demand_resplits as f64;
    let planner_share = ratio(
        (ticks * solve.per_tick_us + resplits * solve.per_solve_us) * 1e3,
        wall_ns,
    );
    shares += planner_share;
    report.metric("planner.solves", ticks * pools + resplits, "count");
    report.metric("planner.solve_us", solve.per_solve_us, "us");
    report.metric("planner.tick_us", solve.per_tick_us, "us");
    report.metric("planner.share", planner_share, "ratio");
    report.metric("planner.resplits", resplits, "count");
    report.metric(
        "planner.saturated_minutes",
        out.saturated_minutes as f64,
        "count",
    );

    report.metric("switcher.to_sm", out.switches.0 as f64, "count");
    report.metric("switcher.to_ac", out.switches.1 as f64, "count");
    report.metric(
        "cluster.model_loads",
        out.totals.model_loads as f64,
        "count",
    );
    report.metric("cluster.mean_utilization", out.mean_utilization, "ratio");

    let f = &out.fleet;
    report.metric("fleet.scale_out", f.scale_out_events as f64, "count");
    report.metric("fleet.scale_in", f.scale_in_events as f64, "count");
    report.metric("fleet.preempt_ridden", f.preemptions_ridden as f64, "count");
    report.metric("fleet.preempt_lost", f.preemptions_lost as f64, "count");
    report.metric("fleet.peak_workers", f.peak_workers as f64, "count");
    let gpu_minutes: f64 = out
        .cost
        .gpu_minutes
        .iter()
        .map(|&(_, od, sp)| od + sp)
        .sum();
    report.metric("fleet.gpu_minutes", gpu_minutes, "min");

    let span_events = recorded
        .and_then(|o| o.spans.as_ref())
        .map_or(0, |s| s.events.len());
    let (jsonl_ms, chrome_ms, jsonl_bytes) = match recorded {
        Some(o) => {
            let start = Instant::now();
            let jsonl = o.telemetry_jsonl();
            let jsonl_ms = start.elapsed().as_secs_f64() * 1e3;
            let start = Instant::now();
            let chrome = o.chrome_trace();
            let chrome_ms = start.elapsed().as_secs_f64() * 1e3;
            std::hint::black_box(chrome);
            (jsonl_ms, chrome_ms, jsonl.len() as f64)
        }
        None => (0.0, 0.0, 0.0),
    };
    shares += obs_share;
    report.metric("obs.span_events", span_events as f64, "count");
    report.metric("obs.record_share", obs_share, "ratio");
    report.metric("obs.jsonl_ms", jsonl_ms, "ms");
    report.metric("obs.chrome_ms", chrome_ms, "ms");
    report.metric("obs.jsonl_bytes", jsonl_bytes, "bytes");

    let des_ns = replay::des_ns(&run_cfg);
    let escalations = out.cascade.as_ref().map_or(0, |c| c.escalated_total());
    let events = (out.totals.offered + out.totals.completed + escalations) as f64;
    let des_share = ratio(events * des_ns, wall_ns);
    shares += des_share;
    report.metric("des.events", events, "count");
    report.metric("des.ns_per_event", des_ns, "ns");
    report.metric("des.share", des_share, "ratio");

    let profiles = recorded.map_or(&[][..], |o| &o.stage_profiles[..]);
    for stage in ["planner", "cache-plane", "metrics", "fleet"] {
        let p = profiles.iter().find(|p| p.stage == stage);
        let (processed, sent, hwm) =
            p.map_or((0, 0, 0), |p| (p.counters.processed, p.sent, p.mailbox_hwm));
        report.metric(
            &format!("stage.{stage}.processed"),
            processed as f64,
            "count",
        );
        report.metric(&format!("stage.{stage}.sent"), sent as f64, "count");
        report.metric(&format!("stage.{stage}.mailbox_hwm"), hwm as f64, "count");
    }

    report.metric("driver.residual_share", 1.0 - shares, "ratio");
    report.metric("sim_jobs_per_s", median(&plain_jobs_per_s), "jobs/s");
    report.metric("trace.overhead", wall / median(&plain_walls) - 1.0, "ratio");
    report.metric("trace.wall_s", wall, "s");
    report
}

/// The configuration of the workload the arguments name.
fn workload_cfg(args: &Args) -> RunConfig {
    workloads::config(&args.workload, args.seed, Scale::Full).expect("known name")
}

/// `--workload all`: each workload in its own process (so peak RSS belongs
/// to one workload), one after another. Relays each child's report and
/// ends with one JSON line summing their verdicts.
fn run_all(args: &Args) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("cannot locate the benchmark executable");
        return ExitCode::FAILURE;
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    for name in workloads::NAMES {
        println!("{name}:");
        let output = Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output();
        let stdout = match output {
            Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).into_owned(),
            _ => {
                eprintln!("{name}: the benchmark process failed");
                return ExitCode::FAILURE;
            }
        };
        print!("{stdout}");
        let last = stdout.lines().last().unwrap_or_default();
        let field = |key: &str| -> u64 {
            last.split(&format!("\"{key}\": "))
                .nth(1)
                .map(|rest| {
                    rest.chars()
                        .take_while(char::is_ascii_digit)
                        .collect::<String>()
                })
                .and_then(|d| d.parse().ok())
                .unwrap_or(0)
        };
        correct &= last.starts_with("{\"correct\": true");
        attempted += field("attempted");
        failed += field("failed");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{}}}}",
        attempted.max(1)
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let report = if args.trace {
        trace(&args)
    } else {
        measure(&args)
    };
    report.print();
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Decorating a run's seams changes nothing it computes: totals,
    /// per-minute records and makespan (and the rest of the outcome the
    /// output checks compare) equal the plain run's on every workload.
    #[test]
    fn decorated_runs_match_plain_runs() {
        for name in workloads::NAMES {
            let plain = workloads::config(name, 7, Scale::Reduced)
                .expect("known name")
                .run();
            let probes = Arc::new(Probes::default());
            let mut cfg = workloads::config(name, 7, Scale::Reduced).expect("known name");
            probe::decorate(&mut cfg, &probes);
            let decorated = cfg.run();
            assert_eq!(plain.totals, decorated.totals, "{name}");
            assert_eq!(plain.minutes, decorated.minutes, "{name}");
            assert_eq!(
                plain.makespan_secs.to_bits(),
                decorated.makespan_secs.to_bits(),
                "{name}"
            );
            assert_eq!(checks::same_outcome(&plain, &decorated), None, "{name}");
            assert!(
                probes.select_worker.calls() > 0,
                "{name}: seam never called"
            );
        }
    }

    #[test]
    fn every_workload_passes_its_output_checks() {
        for name in workloads::NAMES {
            let out = workloads::config(name, 11, Scale::Reduced)
                .expect("known name")
                .run();
            assert_eq!(checks::conservation(&out), Vec::<String>::new(), "{name}");
        }
    }
}
