//! # argus-obs — the deterministic telemetry plane
//!
//! Observability for the Argus simulation that never perturbs it:
//!
//! * [`event`] — job-lifecycle spans (arrival → level assignment →
//!   cache lookup → dispatch/batch → completion | violation | lost),
//!   stamped in **sim-time** and sampled by job-id modulo;
//! * [`timeseries`] — a per-tick registry of named counters, gauges and
//!   fixed-bound histograms, sampled every simulated minute into a
//!   bounded ring buffer and surfaced as `RunOutcome::timeline`;
//! * [`profile`] — control-plane stage profiling (calls each stage ran,
//!   and how many returned a value);
//! * [`export`] — byte-deterministic JSONL and Chrome trace-event
//!   (`chrome://tracing` / Perfetto) documents, plus a dependency-free
//!   validator used by tests and CI.
//!
//! # Determinism contract (DESIGN.md §12)
//!
//! The plane reads **no wall clock** (lint rule D1 applies to this
//! crate), iterates **no hash maps** (D2), draws **no randomness**:
//! sampling is `job % N`, series live in registration-order vectors,
//! and exports are pure functions of already-deterministic state.
//! Telemetry off (the default) leaves the simulation bit-identical to a
//! build without the plane; telemetry on is itself bit-deterministic
//! across runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod export;
pub mod profile;
pub mod stream;
pub mod timeseries;

pub use event::{SpanEvent, SpanKind, SpanLog, NO_BATCH, NO_WORKER};
pub use export::{
    chrome_trace_document, json_escape, json_f64, jsonl_document, parse_json,
    validate_chrome_trace, validate_jsonl, Json, JsonlSummary, JSONL_SCHEMA_VERSION,
};
pub use profile::{StageCounters, StageProfile};
pub use stream::JsonlStream;
pub use timeseries::{Histogram, Registry, TickSample, Timeline};

use std::path::PathBuf;

/// Default ring-buffer capacity: one sample per minute for 7 simulated
/// days.
pub const DEFAULT_RING_CAPACITY: usize = 10_080;

/// Default hard cap on recorded span events (~16.7 M ≈ 640 MB).
pub const DEFAULT_MAX_EVENTS: usize = 1 << 24;

/// What to record and where to export it
/// (`RunConfig::with_telemetry`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Record lifecycle spans for jobs with `id % lifecycle_sample == 0`;
    /// `1` records every job, `0` disables span recording.
    pub lifecycle_sample: u32,
    /// Whether to sample the per-tick time-series registry.
    pub timeline: bool,
    /// Ring-buffer capacity for tick samples (oldest evicted first).
    pub ring_capacity: usize,
    /// Hard cap on recorded span events (excess counted as dropped).
    pub max_events: usize,
    /// Write the JSONL event log here at teardown.
    pub jsonl_path: Option<PathBuf>,
    /// Write the Chrome trace-event document here at teardown.
    pub chrome_trace_path: Option<PathBuf>,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig::full()
    }
}

impl TelemetryConfig {
    /// Full-fidelity recording: every job's spans plus the timeline.
    pub fn full() -> Self {
        TelemetryConfig {
            lifecycle_sample: 1,
            timeline: true,
            ring_capacity: DEFAULT_RING_CAPACITY,
            max_events: DEFAULT_MAX_EVENTS,
            jsonl_path: None,
            chrome_trace_path: None,
        }
    }

    /// Span recording for one in `n` jobs (timeline still at full
    /// fidelity — it is O(minutes), not O(jobs)).
    pub fn sampled(n: u32) -> Self {
        TelemetryConfig {
            lifecycle_sample: n.max(1),
            ..TelemetryConfig::full()
        }
    }

    /// Timeline only: no per-job spans at all.
    pub fn timeline_only() -> Self {
        TelemetryConfig {
            lifecycle_sample: 0,
            ..TelemetryConfig::full()
        }
    }

    /// Sets the JSONL export path.
    pub fn with_jsonl(mut self, path: impl Into<PathBuf>) -> Self {
        self.jsonl_path = Some(path.into());
        self
    }

    /// Sets the Chrome trace export path.
    pub fn with_chrome_trace(mut self, path: impl Into<PathBuf>) -> Self {
        self.chrome_trace_path = Some(path.into());
        self
    }

    /// Overrides the tick-sample ring-buffer capacity.
    pub fn with_ring_capacity(mut self, capacity: usize) -> Self {
        self.ring_capacity = capacity;
        self
    }

    /// Whether any span recording is enabled.
    pub fn spans_enabled(&self) -> bool {
        self.lifecycle_sample > 0
    }
}

/// The live recorder the driver owns for one run: the span log plus the
/// time-series registry, configured by a [`TelemetryConfig`].
#[derive(Debug)]
pub struct Recorder {
    cfg: TelemetryConfig,
    spans: SpanLog,
    /// The time-series registry (public so the driver writes series
    /// directly).
    pub registry: Registry,
    jsonl: Option<JsonlStream>,
}

impl Recorder {
    /// A recorder for one run under `cfg`. A configured `jsonl_path`
    /// attaches an incremental [`JsonlStream`] sink: span lines reach
    /// disk as they are recorded instead of buffering until teardown.
    pub fn new(cfg: TelemetryConfig) -> Self {
        let spans = SpanLog::new(cfg.lifecycle_sample.max(1), cfg.max_events);
        let registry = Registry::new(cfg.ring_capacity);
        let jsonl = cfg.jsonl_path.as_ref().map(|p| {
            JsonlStream::new(
                p.clone(),
                cfg.lifecycle_sample,
                cfg.timeline,
                cfg.ring_capacity,
            )
        });
        Recorder {
            cfg,
            spans,
            registry,
            jsonl,
        }
    }

    /// The configuration this recorder was built with.
    pub fn config(&self) -> &TelemetryConfig {
        &self.cfg
    }

    /// Whether spans are recorded for `job` (cheap pre-check so callers
    /// can skip building events for unsampled jobs).
    pub fn wants(&self, job: u32) -> bool {
        self.cfg.spans_enabled() && self.spans.wants(job)
    }

    /// Records one span event (no-op for unsampled jobs). Recorded
    /// events also stream to the JSONL sink, when one is attached.
    pub fn span(&mut self, ev: SpanEvent) {
        if self.cfg.spans_enabled() && self.spans.record(ev) {
            if let Some(stream) = self.jsonl.as_mut() {
                stream.span(&ev, &self.registry);
            }
        }
    }

    /// Takes the per-minute registry snapshot, if the timeline is
    /// enabled, mirroring it into the JSONL sink's tick ring.
    pub fn sample_tick(&mut self, minute: u32, t_us: u64) {
        if self.cfg.timeline {
            self.registry.sample(minute, t_us);
            if let Some(stream) = self.jsonl.as_mut() {
                let s = self.registry.last_sample().expect("sample just pushed");
                stream.tick(s);
            }
        }
    }

    /// Detaches the incremental JSONL sink, if one is attached, so the
    /// caller can [`JsonlStream::finish`] it once [`Recorder::finish`]
    /// has produced the run artifacts the footer needs.
    pub fn take_jsonl_stream(&mut self) -> Option<JsonlStream> {
        self.jsonl.take()
    }

    /// Consumes the recorder into its finished artifacts.
    pub fn finish(self) -> (Option<SpanLog>, Option<Timeline>) {
        let spans = self.cfg.spans_enabled().then_some(self.spans);
        let timeline = self.cfg.timeline.then(|| self.registry.finish());
        (spans, timeline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use argus_des::SimTime;

    #[test]
    fn config_presets() {
        let full = TelemetryConfig::full();
        assert!(full.spans_enabled());
        assert_eq!(full.lifecycle_sample, 1);
        let sampled = TelemetryConfig::sampled(64);
        assert_eq!(sampled.lifecycle_sample, 64);
        assert!(sampled.timeline);
        let tl = TelemetryConfig::timeline_only();
        assert!(!tl.spans_enabled());
        assert!(TelemetryConfig::sampled(0).spans_enabled()); // clamped to 1
    }

    #[test]
    fn recorder_respects_span_gating() {
        let mut off = Recorder::new(TelemetryConfig::timeline_only());
        assert!(!off.wants(0));
        off.span(SpanEvent::new(SimTime::ZERO, 0, SpanKind::Arrive));
        let (spans, timeline) = off.finish();
        assert!(spans.is_none());
        assert!(timeline.is_some());

        let mut on = Recorder::new(TelemetryConfig::sampled(2));
        assert!(on.wants(0));
        assert!(!on.wants(1));
        on.span(SpanEvent::new(SimTime::ZERO, 0, SpanKind::Arrive));
        on.span(SpanEvent::new(SimTime::ZERO, 1, SpanKind::Arrive));
        let (spans, _) = on.finish();
        assert_eq!(spans.unwrap().len(), 1);
    }

    #[test]
    fn tick_sampling_respects_timeline_flag() {
        let mut cfg = TelemetryConfig::full();
        cfg.timeline = false;
        let mut r = Recorder::new(cfg);
        r.registry.counter_set("x", 1);
        r.sample_tick(0, 0);
        let (_, timeline) = r.finish();
        assert!(timeline.is_none());
    }
}
