//! The telemetry plane's contract (DESIGN.md §12):
//!
//! * telemetry **off** (the default) is bit-identical to the pre-plane
//!   tree, pinned by the PR 8 golden fingerprint;
//! * telemetry **on** does not perturb the simulation: results match the
//!   telemetry-off run bit for bit;
//! * telemetry **on** is itself bit-deterministic across same-seed
//!   repeats, down to the exported JSONL/Chrome-trace bytes;
//! * the timeline reconciles with the run totals, spans tell a
//!   well-formed lifecycle story, sampling keeps 1-in-N jobs, and the
//!   stage profiles count one call per stage operation;
//! * the timeline's counter series of a cascade run and of a run with
//!   spot preemptions and lost jobs match goldens captured while the
//!   driver still bumped each counter at its event;
//! * the run writes no file: the caller exports the outcome, and a
//!   failing sink is an `Err` for the caller.

use std::fs::{self, File};
use std::io::{self, BufWriter};

use argus::core::{
    preemption_events, CascadeConfig, FaultEvent, Policy, RunConfig, RunOutcome, SpanKind,
    TelemetryConfig,
};
use argus::models::{AcLevel, ApproxLevel, GpuArch};
use argus::obs::{validate_chrome_trace, validate_jsonl};
use argus::workload::{preemption_storm, twitter_like};

fn cfg(seed: u64, minutes: usize) -> RunConfig {
    let mut c = RunConfig::new(Policy::Argus, twitter_like(seed, minutes)).with_seed(seed);
    c.classifier_train_size = 800;
    c
}

fn assert_results_identical(a: &RunOutcome, b: &RunOutcome, label: &str) {
    assert_eq!(a.totals, b.totals, "{label}: totals");
    assert_eq!(a.minutes, b.minutes, "{label}: minutes");
    assert_eq!(a.level_completions, b.level_completions, "{label}: levels");
    assert_eq!(a.fleet, b.fleet, "{label}: fleet stats");
    assert_eq!(a.cost, b.cost, "{label}: cost report");
    assert_eq!(
        a.makespan_secs.to_bits(),
        b.makespan_secs.to_bits(),
        "{label}: makespan"
    );
}

#[test]
fn telemetry_off_matches_pr8_golden() {
    // The Argus golden from `tests/fleet.rs`: with no `with_telemetry`
    // the recorder is never built, and the run must not move a single
    // RNG draw or event.
    let out = cfg(11, 6).run();
    assert_eq!(out.totals.offered, 609);
    assert_eq!(out.totals.completed, 609);
    assert_eq!(out.totals.violations, 234);
    assert_eq!(out.totals.in_slo, 375);
    assert_eq!(out.totals.model_loads, 8);
    assert_eq!(out.totals.quality_sum.to_bits(), 0x40bd510e9b2f72d6);
    assert_eq!(
        out.totals.relative_quality_sum.to_bits(),
        0x4076533a7c3778ed
    );
    assert_eq!(out.makespan_secs.to_bits(), 0x4076fde2ad3e920c);
    // And the outcome carries no telemetry artifacts at all.
    assert!(out.timeline.is_none());
    assert!(out.spans.is_none());
    assert!(out.stage_profiles.is_empty());
}

#[test]
fn telemetry_on_does_not_perturb_the_simulation() {
    let off = cfg(11, 6).run();
    let on = cfg(11, 6).with_telemetry(TelemetryConfig::full()).run();
    assert_results_identical(&off, &on, "on-vs-off");
    assert!(on.timeline.is_some());
    assert!(on.spans.is_some());
    assert_eq!(on.stage_profiles.len(), 4);
}

#[test]
fn telemetry_is_bit_deterministic_across_repeats() {
    let run = || cfg(13, 8).with_telemetry(TelemetryConfig::full()).run();
    let (a, b) = (run(), run());
    assert_results_identical(&a, &b, "repeat");
    // The telemetry artifacts themselves repeat too: `RunOutcome::timeline`
    // compares sample by sample, and the exported documents byte for byte
    // (spans, ticks, profiles — everything the exporters serialize).
    assert_eq!(a.timeline, b.timeline, "timeline");
    let (sa, sb) = (a.spans.as_ref().unwrap(), b.spans.as_ref().unwrap());
    assert_eq!(sa.events, sb.events, "span events");
    assert_eq!(a.stage_profiles, b.stage_profiles, "profiles");
    assert_eq!(a.telemetry_jsonl(), b.telemetry_jsonl(), "jsonl bytes");
    assert_eq!(a.chrome_trace(), b.chrome_trace(), "chrome-trace bytes");
}

#[test]
fn timeline_reconciles_with_run_totals() {
    let out = cfg(11, 6).with_telemetry(TelemetryConfig::full()).run();
    let tl = out.timeline.as_ref().unwrap();
    // One sample per allocator tick, minutes strictly increasing.
    assert_eq!(tl.samples.len(), 6);
    for (i, s) in tl.samples.iter().enumerate() {
        assert_eq!(s.minute as usize, i + 1);
    }
    assert_eq!(tl.dropped, 0);
    // Counters are cumulative: the last sample is a lower bound on the
    // totals (jobs finishing after the final tick are not sampled), and
    // every series is monotone.
    let completions = tl.counter("completions").unwrap();
    assert!(completions.windows(2).all(|w| w[0] <= w[1]));
    assert!(*completions.last().unwrap() <= out.totals.completed);
    // Arrivals keep landing between the last tick and teardown, so the
    // final sample is a strict-positive lower bound on the offered total.
    let arrivals = tl.counter("arrivals").unwrap();
    assert!(*arrivals.last().unwrap() > 0);
    assert!(*arrivals.last().unwrap() <= out.totals.offered);
    // The run-total histograms saw every completion.
    let e2e = tl.total_hist("e2e_latency_secs").unwrap();
    assert_eq!(e2e.count(), out.totals.completed);
    assert!(e2e.percentile(0.5).is_some());
    // The default path keeps a static 8-worker fleet.
    let alive = tl.gauge("fleet_alive").unwrap();
    assert!(alive.iter().all(|&v| v == 8.0), "{alive:?}");
}

#[test]
fn spans_tell_a_well_formed_lifecycle_story() {
    let out = cfg(11, 6).with_telemetry(TelemetryConfig::full()).run();
    let spans = out.spans.as_ref().unwrap();
    assert_eq!(spans.dropped, 0);
    // Group by job: full sampling records every offered job.
    let mut per_job: Vec<Vec<&argus::core::SpanEvent>> =
        vec![Vec::new(); out.totals.offered as usize];
    for e in &spans.events {
        per_job[e.job as usize].push(e);
    }
    let mut terminals = 0u64;
    for (job, evs) in per_job.iter().enumerate() {
        assert!(!evs.is_empty(), "job {job} recorded no spans");
        // Events are recorded in sim-time order...
        assert!(evs.windows(2).all(|w| w[0].t_us <= w[1].t_us));
        // ...starting at arrival and ending in exactly one terminal.
        assert_eq!(evs[0].kind, SpanKind::Arrive, "job {job}");
        let n_term = evs.iter().filter(|e| e.kind.is_terminal()).count();
        assert_eq!(n_term, 1, "job {job}: {evs:?}");
        assert!(evs.last().unwrap().kind.is_terminal(), "job {job}");
        terminals += 1;
        // A dispatch names its worker, pool, batch and level.
        for e in evs.iter().filter(|e| e.kind == SpanKind::Dispatch) {
            assert!(e.level.is_some() && e.pool.is_some(), "job {job}");
            assert_ne!(e.worker, argus::obs::NO_WORKER, "job {job}");
            assert_ne!(e.batch, argus::obs::NO_BATCH, "job {job}");
        }
    }
    assert_eq!(terminals, out.totals.offered);
    // Completions + violations among terminals match the totals.
    let completes = spans
        .events
        .iter()
        .filter(|e| e.kind == SpanKind::Complete)
        .count() as u64;
    let violations = spans
        .events
        .iter()
        .filter(|e| e.kind == SpanKind::Violation)
        .count() as u64;
    assert_eq!(completes + violations, out.totals.completed);
    assert_eq!(violations, out.totals.violations);
}

#[test]
fn sampling_keeps_one_in_n_jobs() {
    let full = cfg(11, 6).with_telemetry(TelemetryConfig::full()).run();
    let sampled = cfg(11, 6).with_telemetry(TelemetryConfig::sampled(8)).run();
    // Sampling is a pure filter: the simulation is untouched...
    assert_results_identical(&full, &sampled, "sampled-vs-full");
    // ...and the sampled log holds exactly the `job % 8 == 0` subset.
    let keep: Vec<_> = full
        .spans
        .as_ref()
        .unwrap()
        .events
        .iter()
        .filter(|e| e.job % 8 == 0)
        .cloned()
        .collect();
    assert_eq!(sampled.spans.as_ref().unwrap().events, keep);
    assert_eq!(sampled.spans.as_ref().unwrap().sample_every, 8);
    // Timeline stays full-fidelity either way (it is O(minutes)).
    assert_eq!(full.timeline, sampled.timeline);
    // And `timeline_only` drops spans entirely.
    let tl_only = cfg(11, 6)
        .with_telemetry(TelemetryConfig::timeline_only())
        .run();
    assert!(tl_only.spans.is_none());
    assert_eq!(tl_only.timeline, full.timeline);
}

#[test]
fn exports_validate_and_roundtrip_to_disk() {
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target");
    let jsonl_path = dir.join("obs_test.telemetry.jsonl");
    let trace_path = dir.join("obs_test.trace.json");
    let out = cfg(11, 6).with_telemetry(TelemetryConfig::sampled(4)).run();
    // The caller writes both exports from the outcome.
    out.write_telemetry_jsonl(&mut BufWriter::new(File::create(&jsonl_path).unwrap()))
        .unwrap();
    fs::write(&trace_path, out.chrome_trace()).unwrap();
    let jsonl = out.telemetry_jsonl();
    let summary = validate_jsonl(&jsonl).expect("jsonl validates");
    assert_eq!(
        summary.spans,
        out.spans.as_ref().unwrap().events.len() as u64
    );
    assert_eq!(
        summary.ticks,
        out.timeline.as_ref().unwrap().samples.len() as u64
    );
    assert_eq!(summary.stages, 4);
    validate_chrome_trace(&out.chrome_trace()).expect("chrome trace validates");
    // The files hold the same bytes the in-memory exporters produce.
    assert_eq!(fs::read_to_string(&jsonl_path).unwrap(), jsonl);
    assert_eq!(fs::read_to_string(&trace_path).unwrap(), out.chrome_trace());
    let _ = fs::remove_file(jsonl_path);
    let _ = fs::remove_file(trace_path);
}

/// A sink that accepts `room` bytes and then fails every write.
struct FailingSink {
    room: usize,
}

impl io::Write for FailingSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.room == 0 {
            return Err(io::Error::other("sink full"));
        }
        let n = buf.len().min(self.room);
        self.room -= n;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_failing_export_sink_is_an_error_for_the_caller() {
    let out = cfg(11, 6).with_telemetry(TelemetryConfig::full()).run();
    let len = out.telemetry_jsonl().len();
    // The sink fails in the middle of the span section...
    let mut sink = FailingSink { room: len / 2 };
    let err = out.write_telemetry_jsonl(&mut sink).unwrap_err();
    assert_eq!(err.to_string(), "sink full");
    // ...and one with room for the document takes all of it.
    let mut sink = FailingSink { room: len };
    out.write_telemetry_jsonl(&mut sink).unwrap();
    assert_eq!(sink.room, 0);
}

#[test]
fn stage_profiles_count_every_stage_call() {
    let out = cfg(11, 6).with_telemetry(TelemetryConfig::full()).run();
    // The driver calls each stage directly: every call it makes is one
    // the stage ran, and no stage has a mailbox to queue in.
    for p in &out.stage_profiles {
        assert_eq!(p.sent, p.counters.processed, "{}", p.stage);
        assert_eq!(p.mailbox_hwm, 0, "{}", p.stage);
    }
    // (stage, calls, calls returning a value), pinned at the message and
    // reply counts the thread-and-mailbox plane reported for this run
    // (every message became one call, so the stages do the same work),
    // with two moves since, one per completion of the run's 609: the
    // cache plane no longer takes a per-completion store put (1,612 →
    // 1,003 calls), and the metrics stage's completion call returns the
    // SLO verdict the lifecycle span reads (1 → 610 replies).
    let counts: Vec<(&str, u64, u64)> = out
        .stage_profiles
        .iter()
        .map(|p| (p.stage, p.counters.processed, p.counters.replies))
        .collect();
    assert_eq!(
        counts,
        [
            ("planner", 8, 8),
            ("cache-plane", 1_003, 394),
            ("metrics", 2_033, 610),
            ("fleet", 8, 1),
        ]
    );
}

#[test]
fn every_retrieval_round_trip_is_a_recorded_lookup() {
    // Many workers at low load, so most AC jobs run at K = 0, where no
    // neighbour could be reused: the driver must not retrieve for them.
    let mut c = RunConfig::new(Policy::Argus, twitter_like(11, 12))
        .with_seed(11)
        .with_workers(64)
        .with_lsh_cache()
        .without_retraining()
        .with_telemetry(TelemetryConfig::full());
    c.classifier_train_size = 800;
    let out = c.run();
    // No switch to SM, so the cache plane answers no network probes: its
    // replies are the retrievals plus the teardown `Drain`.
    assert_eq!(out.switches, (0, 0));
    let cache = out
        .stage_profiles
        .iter()
        .find(|p| p.stage == "cache-plane")
        .expect("cache-plane profile");
    let r = &out.retrieval;
    let lookups = r.hits() + r.misses() + r.failures();
    assert!(lookups > 0, "the run must retrieve");
    assert_eq!(cache.counters.replies, lookups + 1);
    // And every recorded lookup was at a level that reuses a neighbour.
    let full = ApproxLevel::Ac(AcLevel(0));
    assert!(
        r.per_level.iter().all(|&(level, _)| level != full),
        "{:?}",
        r.per_level
    );
}

/// Every counter series of the run's timeline, in registration order.
fn counter_series(out: &RunOutcome) -> Vec<(&'static str, Vec<u64>)> {
    let tl = out.timeline.as_ref().expect("telemetry on");
    tl.counter_names
        .iter()
        .map(|&name| (name, tl.counter(name).expect("registered")))
        .collect()
}

#[test]
fn cascade_timeline_counters_match_the_golden() {
    let out = cfg(11, 10)
        .with_cascade(CascadeConfig::new())
        .with_telemetry(TelemetryConfig::timeline_only())
        .run();
    let stats = out.cascade.as_ref().expect("cascade run carries stats");
    assert!(stats.escalated_completed > 0, "{stats:?}");
    assert_eq!(counter_series(&out), golden_cascade_counters());
}

#[test]
fn spot_preemption_and_loss_timeline_counters_match_the_golden() {
    // Three warned spot reclaims that go clean, an unwarned reclaim of
    // the whole spot pool that finds one survivor mid-pass, and a minute
    // with every worker down, during which arrivals and rerouted jobs are
    // lost.
    let every: Vec<usize> = (0..12).collect();
    let mut faults = preemption_events(&preemption_storm(23, 8, 4, 0.75, 3.0), 30.0);
    faults.extend(preemption_events(&[(4.6, vec![8, 9, 10, 11])], 0.0));
    faults.push(FaultEvent::WorkerFail {
        at_minute: 6.0,
        workers: every.clone(),
    });
    faults.push(FaultEvent::WorkerRecover {
        at_minute: 7.0,
        workers: every,
    });
    let out = cfg(23, 10)
        .with_spot_pool(GpuArch::A10G, 4, 0.6)
        .with_faults(faults)
        .with_telemetry(TelemetryConfig::timeline_only())
        .run();
    assert_eq!(
        (out.fleet.preemptions_ridden, out.fleet.preemptions_lost),
        (3, 1)
    );
    assert!(out.totals.violations > out.totals.completed - out.totals.in_slo);
    assert_eq!(counter_series(&out), golden_spot_loss_counters());
}

// The counter goldens, captured on the tree whose driver bumped each
// counter at its event (release build).

fn golden_cascade_counters() -> Vec<(&'static str, Vec<u64>)> {
    vec![
        (
            "arrivals",
            vec![61, 160, 243, 312, 475, 652, 820, 904, 962, 1004],
        ),
        (
            "completions",
            vec![53, 150, 235, 309, 415, 547, 687, 826, 961, 1000],
        ),
        ("violations", vec![0, 0, 0, 0, 33, 165, 305, 444, 545, 545]),
        ("lost", vec![0; 10]),
        ("resplits", vec![0; 10]),
        ("spot_drains", vec![0; 10]),
        ("model_loads", vec![10, 14, 15, 17, 21, 21, 21, 21, 21, 22]),
        (
            "escalations",
            vec![22, 30, 78, 120, 155, 238, 317, 399, 447, 463],
        ),
    ]
}

fn golden_spot_loss_counters() -> Vec<(&'static str, Vec<u64>)> {
    vec![
        (
            "arrivals",
            vec![190, 370, 528, 613, 714, 768, 807, 853, 894, 952],
        ),
        (
            "completions",
            vec![178, 359, 520, 605, 706, 762, 762, 803, 847, 901],
        ),
        ("violations", vec![0; 10]),
        ("lost", vec![0, 0, 0, 0, 0, 6, 45, 45, 45, 45]),
        ("resplits", vec![0; 10]),
        ("spot_drains", vec![0, 0, 0, 2, 4, 4, 4, 4, 4, 4]),
        ("model_loads", vec![12, 12, 12, 12, 12, 12, 24, 24, 24, 24]),
    ]
}
