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
//! A run records into memory and returns what it recorded; it opens no
//! file. Writing a document to disk is the caller's job: JSONL goes
//! through its one renderer, [`write_jsonl`], into any [`std::io::Write`]
//! (so an I/O error is a `Result` for the caller, not a panic inside the
//! simulation), and the Chrome trace is a `String`.
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
pub mod timeseries;

pub use event::{SpanEvent, SpanKind, SpanLog, NO_BATCH, NO_WORKER};
pub use export::{
    chrome_trace_document, json_escape, json_f64, jsonl_document, parse_json,
    validate_chrome_trace, validate_jsonl, write_jsonl, Json, JsonlSummary, JSONL_SCHEMA_VERSION,
};
pub use profile::{StageCounters, StageProfile};
pub use timeseries::{Histogram, Registry, TickSample, Timeline};

/// Tick-sample ring capacity: one sample per minute for 7 simulated
/// days (older samples are evicted and counted in [`Timeline::dropped`]).
pub const RING_CAPACITY: usize = 10_080;

/// Hard cap on recorded span events (~16.7 M ≈ 640 MB); the excess is
/// counted in [`SpanLog::dropped`].
pub const MAX_SPAN_EVENTS: usize = 1 << 24;

/// What to record (`RunConfig::with_telemetry`): the span sampling
/// rate. The timeline and the stage profiles are always recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Record lifecycle spans for jobs with `id % lifecycle_sample == 0`;
    /// `1` records every job, `0` disables span recording.
    pub lifecycle_sample: u32,
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
        }
    }

    /// Span recording for one in `n` jobs (timeline still at full
    /// fidelity — it is O(minutes), not O(jobs)).
    pub fn sampled(n: u32) -> Self {
        TelemetryConfig {
            lifecycle_sample: n.max(1),
        }
    }

    /// Timeline only: no per-job spans at all.
    pub fn timeline_only() -> Self {
        TelemetryConfig {
            lifecycle_sample: 0,
        }
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
    /// The time-series registry (public so the driver writes series and
    /// takes the per-minute samples directly).
    pub registry: Registry,
}

impl Recorder {
    /// A recorder for one run under `cfg`, bounded by [`RING_CAPACITY`]
    /// tick samples and [`MAX_SPAN_EVENTS`] span events.
    pub fn new(cfg: TelemetryConfig) -> Self {
        Recorder {
            cfg,
            spans: SpanLog::new(cfg.lifecycle_sample.max(1), MAX_SPAN_EVENTS),
            registry: Registry::new(RING_CAPACITY),
        }
    }

    /// Whether spans are recorded for `job` (cheap pre-check so callers
    /// can skip building events for unsampled jobs).
    pub fn wants(&self, job: u32) -> bool {
        self.cfg.spans_enabled() && self.spans.wants(job)
    }

    /// Records one span event (no-op for unsampled jobs).
    pub fn span(&mut self, ev: SpanEvent) {
        if self.cfg.spans_enabled() {
            self.spans.record(ev);
        }
    }

    /// Consumes the recorder into its finished artifacts: the span log
    /// (`None` when span recording is off) and the timeline.
    pub fn finish(self) -> (Option<SpanLog>, Timeline) {
        let spans = self.cfg.spans_enabled().then_some(self.spans);
        (spans, self.registry.finish())
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
        assert_eq!(TelemetryConfig::default(), full);
        let sampled = TelemetryConfig::sampled(64);
        assert_eq!(sampled.lifecycle_sample, 64);
        let tl = TelemetryConfig::timeline_only();
        assert!(!tl.spans_enabled());
        assert!(TelemetryConfig::sampled(0).spans_enabled()); // clamped to 1
    }

    #[test]
    fn recorder_respects_span_gating() {
        let mut off = Recorder::new(TelemetryConfig::timeline_only());
        assert!(!off.wants(0));
        off.span(SpanEvent::new(SimTime::ZERO, 0, SpanKind::Arrive));
        off.registry.counter_set("x", 1);
        off.registry.sample(0, 0);
        let (spans, timeline) = off.finish();
        assert!(spans.is_none());
        assert_eq!(timeline.counter("x"), Some(vec![1]));

        let mut on = Recorder::new(TelemetryConfig::sampled(2));
        assert!(on.wants(0));
        assert!(!on.wants(1));
        on.span(SpanEvent::new(SimTime::ZERO, 0, SpanKind::Arrive));
        on.span(SpanEvent::new(SimTime::ZERO, 1, SpanKind::Arrive));
        let (spans, _) = on.finish();
        assert_eq!(spans.unwrap().len(), 1);
    }
}
