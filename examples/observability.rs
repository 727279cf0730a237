//! Observability walkthrough: run a short diurnal trace with the §12
//! telemetry plane enabled, then tour everything it recorded — the
//! per-minute timeline, the job-lifecycle spans, the control-plane stage
//! profiles — and write the deterministic JSONL event log plus a
//! Chrome trace-event file you can open in `chrome://tracing` or
//! Perfetto. The run itself writes no file: both exports come from the
//! returned `RunOutcome`.
//!
//! ```sh
//! cargo run --release --example observability
//! ```

use std::fs::{self, File};
use std::io::BufWriter;

use argus::core::{Policy, RunConfig, SpanKind, TelemetryConfig};
use argus::workload::twitter_like;

fn main() {
    let minutes = 40;
    let jsonl_path = "target/observability.telemetry.jsonl";
    let trace_path = "target/observability.trace.json";

    // Telemetry is opt-in: without `with_telemetry` this run is
    // bit-identical to one built before the plane existed. `full()`
    // records every job's spans; `TelemetryConfig::sampled(64)` keeps
    // one job in 64 when a million-job trace makes full spans too big.
    let out = RunConfig::new(Policy::Argus, twitter_like(7, minutes))
        .with_seed(7)
        .with_telemetry(TelemetryConfig::full())
        .run();
    println!(
        "run: {} offered, {} completed, {:.2}% SLO violations\n",
        out.totals.offered,
        out.totals.completed,
        100.0 * out.totals.slo_violation_ratio()
    );

    // ---- 1. The timeline: one registry snapshot per simulated minute.
    let tl = out.timeline.as_ref().expect("timeline enabled");
    println!(
        "timeline: {} tick samples, series = {} counters / {} gauges / {} histograms",
        tl.samples.len(),
        tl.counter_names.len(),
        tl.gauge_names.len(),
        tl.hist_names.len()
    );
    let arrivals = tl.counter("arrivals").expect("registered series");
    let backlog = tl.gauge("backlog").expect("registered series");
    println!("{:>8}  {:>10}  {:>9}", "minute", "arrivals", "backlog");
    for (i, s) in tl.samples.iter().enumerate().step_by(10) {
        println!("{:>8}  {:>10}  {:>9.0}", s.minute, arrivals[i], backlog[i]);
    }
    let e2e = tl.total_hist("e2e_latency_secs").expect("registered");
    println!(
        "e2e latency over the whole run: p50 ≤ {:.1}s, p99 ≤ {:.1}s ({} samples)\n",
        e2e.percentile(0.50).unwrap_or(0.0),
        e2e.percentile(0.99).unwrap_or(0.0),
        e2e.count()
    );

    // ---- 2. Lifecycle spans: one event per stage a job passed through.
    let spans = out.spans.as_ref().expect("spans enabled");
    println!(
        "spans: {} events recorded (sampling 1-in-{}, {} dropped)",
        spans.events.len(),
        spans.sample_every,
        spans.dropped
    );
    let job0: Vec<_> = spans.events.iter().filter(|e| e.job == 0).collect();
    println!("job 0's life:");
    for e in &job0 {
        println!(
            "  {:>8.3}s  {:<12} level={:?} pool={:?}",
            e.t_us as f64 / 1e6,
            e.kind.as_str(),
            e.level,
            e.pool
        );
    }
    let cache_hits = spans
        .events
        .iter()
        .filter(|e| e.kind == SpanKind::CacheHit)
        .count();
    println!("cache hits among sampled jobs: {cache_hits}\n");

    // ---- 3. Stage profiles: the calls the driver made into each stage
    // all run, and how many of them returned a value.
    println!(
        "{:>12}  {:>10}  {:>9}  {:>8}  {:>6}",
        "stage", "processed", "replies", "sent", "hwm"
    );
    for p in &out.stage_profiles {
        println!(
            "{:>12}  {:>10}  {:>9}  {:>8}  {:>6}",
            p.stage, p.counters.processed, p.counters.replies, p.sent, p.mailbox_hwm
        );
    }

    // ---- 4. Exports, written from the outcome: the JSONL line by line
    // through a buffered file, the Chrome trace as one document. Both
    // files hold exactly the in-memory documents.
    let mut jsonl = BufWriter::new(File::create(jsonl_path).expect("create the JSONL file"));
    out.write_telemetry_jsonl(&mut jsonl)
        .expect("write the JSONL export");
    fs::write(trace_path, out.chrome_trace()).expect("write the Chrome trace");
    assert_eq!(
        fs::read_to_string(jsonl_path).expect("export written"),
        out.telemetry_jsonl()
    );
    assert_eq!(
        fs::read_to_string(trace_path).expect("export written"),
        out.chrome_trace()
    );
    println!("\nexports:");
    println!("  {jsonl_path}  (schema-validated JSONL event log)");
    println!("  {trace_path}  (open in chrome://tracing or Perfetto)");
    let summary = argus::obs::validate_jsonl(&out.telemetry_jsonl()).expect("valid document");
    println!(
        "  validator: {} span lines, {} tick lines, {} stage lines",
        summary.spans, summary.ticks, summary.stages
    );
}
