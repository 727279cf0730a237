//! The telemetry plane's contract (DESIGN.md §12):
//!
//! * telemetry **off** (the default) is bit-identical to the pre-plane
//!   tree, pinned by the PR 8 golden fingerprint;
//! * telemetry **on** does not perturb the simulation: results match the
//!   telemetry-off run bit for bit;
//! * telemetry **on** is itself bit-deterministic across all three
//!   actor-pacing modes, down to the exported JSONL/Chrome-trace bytes;
//! * the timeline reconciles with the run totals, spans tell a
//!   well-formed lifecycle story, sampling keeps 1-in-N jobs, and the
//!   stage profiles obey the envelope-accounting identities.

use argus::core::{ActorPacing, Policy, RunConfig, RunOutcome, SpanKind, TelemetryConfig};
use argus::models::{AcLevel, ApproxLevel};
use argus::obs::{validate_chrome_trace, validate_jsonl};
use argus::workload::twitter_like;

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
fn telemetry_is_bit_deterministic_across_actor_pacing_modes() {
    let run = |pacing| {
        cfg(13, 8)
            .with_telemetry(TelemetryConfig::full())
            .with_actor_pacing(pacing)
            .run()
    };
    let auto = run(ActorPacing::Auto);
    let inline = run(ActorPacing::SingleCoreInline);
    let threaded = run(ActorPacing::Threaded);
    for (other, label) in [(&inline, "inline"), (&threaded, "threaded")] {
        assert_results_identical(&auto, other, label);
        // The telemetry artifacts themselves must not depend on pacing:
        // `RunOutcome::timeline` compares sample by sample, and the
        // exported documents byte for byte (spans, ticks, profiles —
        // everything the exporters serialize).
        assert_eq!(auto.timeline, other.timeline, "{label}: timeline");
        let (a, b) = (auto.spans.as_ref().unwrap(), other.spans.as_ref().unwrap());
        assert_eq!(a.events, b.events, "{label}: span events");
        assert_eq!(
            auto.stage_profiles, other.stage_profiles,
            "{label}: profiles"
        );
        assert_eq!(
            auto.telemetry_jsonl(),
            other.telemetry_jsonl(),
            "{label}: jsonl bytes"
        );
        assert_eq!(
            auto.chrome_trace(),
            other.chrome_trace(),
            "{label}: chrome-trace bytes"
        );
    }
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
    let out = cfg(11, 6)
        .with_telemetry(
            TelemetryConfig::sampled(4)
                .with_jsonl(&jsonl_path)
                .with_chrome_trace(&trace_path),
        )
        .run();
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
    // Teardown wrote the same bytes the in-memory exporters produce.
    assert_eq!(std::fs::read_to_string(&jsonl_path).unwrap(), jsonl);
    assert_eq!(
        std::fs::read_to_string(&trace_path).unwrap(),
        out.chrome_trace()
    );
    let _ = std::fs::remove_file(jsonl_path);
    let _ = std::fs::remove_file(trace_path);
}

#[test]
fn stage_profiles_obey_envelope_accounting() {
    let out = cfg(11, 6).with_telemetry(TelemetryConfig::full()).run();
    let by_name = |n: &str| {
        out.stage_profiles
            .iter()
            .find(|p| p.stage == n)
            .unwrap_or_else(|| panic!("missing stage {n}"))
    };
    let (planner, cache, metrics, fleet) = (
        by_name("planner"),
        by_name("cache-plane"),
        by_name("metrics"),
        by_name("fleet"),
    );
    for p in &out.stage_profiles {
        assert!(p.sent > 0, "{}: no traffic", p.stage);
        assert!(p.mailbox_hwm >= 1 && p.mailbox_hwm <= 4096, "{}", p.stage);
        assert!(p.counters.processed > 0, "{}", p.stage);
    }
    // Planner and fleet receive no `Batch` envelopes: one send per
    // logical message.
    assert_eq!(planner.counters.batches, 0);
    assert_eq!(fleet.counters.batches, 0);
    assert_eq!(planner.sent, planner.counters.processed);
    assert_eq!(fleet.sent, fleet.counters.processed);
    // Metrics and cache-plane traffic is either a coalesced `Batch`
    // flush or a rendezvous request — nothing else crosses the mailbox.
    assert_eq!(
        metrics.sent,
        metrics.counters.batches + metrics.counters.replies
    );
    assert_eq!(cache.sent, cache.counters.batches + cache.counters.replies);
    // The metrics stage replies exactly once: at Finish.
    assert_eq!(metrics.counters.replies, 1);
    // Every cache retrieval/probe/drain replied; each unpacked batch
    // carried at least one message.
    assert!(cache.counters.replies > 0);
    assert!(cache.counters.max_batch_len >= 1);
    assert!(metrics.counters.max_batch_len >= 1);
    assert!(metrics.counters.max_batch_len <= 64, "SEND_BATCH cap");
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
