//! Incremental JSONL sink: span lines reach disk as they are recorded
//! instead of buffering the whole document until teardown.
//!
//! The JSONL document is *sectioned* — header, every span, every tick,
//! stages, footer — while the run interleaves spans and ticks in time
//! and the registry's ring buffer may still evict old tick samples. So
//! only the span section (the O(jobs · events) bulk of the document)
//! can stream to disk during the run. Tick lines are rendered
//! incrementally into a bounded ring that evicts in lockstep with the
//! registry's, and [`JsonlStream::finish`] appends the survivors, the
//! stage lines and the footer.
//!
//! Byte-identity with the buffered [`crate::export::jsonl_document`]
//! path holds by construction — both render through the same per-line
//! functions — and is pinned by `streamed_jsonl_is_byte_identical` in
//! this module's tests plus the driver-level roundtrip test in
//! `tests/observability.rs`. The header is written lazily at the first
//! streamed span from the registry's *live* series names, which matches
//! the finished timeline's names because the driver registers every
//! series up front, before the first event (DESIGN.md §12).

use crate::event::{SpanEvent, SpanLog};
use crate::export::{
    jsonl_footer_line, jsonl_header_line, jsonl_header_names, jsonl_span_line, jsonl_stage_line,
    jsonl_tick_line, str_list,
};
use crate::profile::StageProfile;
use crate::timeseries::{Registry, TickSample, Timeline};
use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::PathBuf;

/// The incremental JSONL writer a [`crate::Recorder`] drives when
/// `TelemetryConfig::jsonl_path` is set. Detach it with
/// [`crate::Recorder::take_jsonl_stream`] and call
/// [`JsonlStream::finish`] once the run's artifacts exist.
#[derive(Debug)]
pub struct JsonlStream {
    path: PathBuf,
    lifecycle_sample: u32,
    timeline: bool,
    writer: Option<BufWriter<File>>,
    spans_written: u64,
    tick_lines: VecDeque<String>,
    tick_capacity: usize,
}

impl JsonlStream {
    /// A sink writing to `path`; nothing touches the filesystem until
    /// the first line is emitted.
    pub(crate) fn new(
        path: PathBuf,
        lifecycle_sample: u32,
        timeline: bool,
        ring_capacity: usize,
    ) -> Self {
        JsonlStream {
            path,
            lifecycle_sample,
            timeline,
            writer: None,
            spans_written: 0,
            tick_lines: VecDeque::new(),
            tick_capacity: ring_capacity.max(1),
        }
    }

    fn io_fail(&self, e: std::io::Error) -> ! {
        panic!("telemetry JSONL export to {:?} failed: {e}", self.path)
    }

    /// Opens the file and writes the header line from pre-rendered name
    /// lists. No-op once open.
    fn open_with_header(&mut self, names: (String, String, String)) {
        if self.writer.is_some() {
            return;
        }
        let file = File::create(&self.path).unwrap_or_else(|e| self.io_fail(e));
        let mut w = BufWriter::new(file);
        let header = jsonl_header_line(self.lifecycle_sample, &names.0, &names.1, &names.2);
        if let Err(e) = writeln!(w, "{header}") {
            self.io_fail(e);
        }
        self.writer = Some(w);
    }

    /// The header's series-name lists from the live registry —
    /// empty when the timeline is disabled, matching the buffered
    /// document's `timeline: None` header.
    fn live_header_names(&self, registry: &Registry) -> (String, String, String) {
        if self.timeline {
            let (c, g, h) = registry.series_names();
            (str_list(&c), str_list(&g), str_list(&h))
        } else {
            (String::new(), String::new(), String::new())
        }
    }

    /// Streams one recorded span straight to disk (writing the header
    /// first if this is the first line).
    pub(crate) fn span(&mut self, ev: &SpanEvent, registry: &Registry) {
        if self.writer.is_none() {
            let names = self.live_header_names(registry);
            self.open_with_header(names);
        }
        let line = jsonl_span_line(ev);
        let w = self.writer.as_mut().expect("opened above");
        if let Err(e) = writeln!(w, "{line}") {
            self.io_fail(e);
        }
        self.spans_written += 1;
    }

    /// Renders one tick sample into the bounded line ring, evicting the
    /// oldest line when full — in lockstep with the registry's own ring,
    /// so the survivors match the finished timeline's samples exactly.
    pub(crate) fn tick(&mut self, sample: &TickSample) {
        if self.tick_lines.len() >= self.tick_capacity {
            self.tick_lines.pop_front();
        }
        self.tick_lines.push_back(jsonl_tick_line(sample));
    }

    /// Appends the tail sections — surviving tick lines, stage lines,
    /// the footer — and flushes. Also writes the header when nothing was
    /// streamed during the run, so the file always holds a complete
    /// document.
    ///
    /// # Panics
    /// Panics on any I/O error, like the buffered export path.
    pub fn finish(
        mut self,
        spans: Option<&SpanLog>,
        timeline: Option<&Timeline>,
        profiles: &[StageProfile],
    ) {
        if self.writer.is_none() {
            let names = jsonl_header_names(timeline);
            self.open_with_header(names);
        }
        let ticks = self.tick_lines.len() as u64;
        let footer = jsonl_footer_line(
            self.spans_written,
            spans.map_or(0, |s| s.dropped),
            ticks,
            timeline.map_or(0, |t| t.dropped),
            profiles.len(),
        );
        let w = self.writer.as_mut().expect("opened above");
        let mut emit = |line: &str| {
            if let Err(e) = writeln!(w, "{line}") {
                panic!("telemetry JSONL export failed: {e}");
            }
        };
        for line in &self.tick_lines {
            emit(line);
        }
        for p in profiles {
            emit(&jsonl_stage_line(p));
        }
        emit(&footer);
        if let Err(e) = self.writer.as_mut().expect("opened above").flush() {
            self.io_fail(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SpanKind;
    use crate::export::jsonl_document;
    use crate::profile::StageCounters;
    use crate::{Recorder, TelemetryConfig};
    use argus_des::SimTime;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "argus_obs_stream_{}_{name}.jsonl",
            std::process::id()
        ));
        p
    }

    fn profiles() -> Vec<StageProfile> {
        vec![StageProfile::new(
            "planner",
            StageCounters {
                processed: 7,
                replies: 1,
            },
        )]
    }

    /// Drives a recorder through spans + ticks (enough ticks to evict)
    /// and asserts the streamed file is byte-identical to the buffered
    /// document over the finished artifacts.
    #[test]
    fn streamed_jsonl_is_byte_identical() {
        let path = tmp("identical");
        let cfg = TelemetryConfig::full()
            .with_jsonl(&path)
            .with_ring_capacity(3);
        let mut rec = Recorder::new(cfg);
        // Register series up front, as the driver does.
        rec.registry.counter_set("arrivals", 0);
        rec.registry.gauge_set("backlog", 0.0);
        rec.registry.hist_register("lat", &[1.0, 2.0]);
        for minute in 0..5u32 {
            let t = SimTime::from_micros(u64::from(minute) * 60_000_000);
            rec.span(SpanEvent::new(t, minute, SpanKind::Arrive));
            rec.span(
                SpanEvent::new(t, minute, SpanKind::Complete)
                    .with_worker(minute)
                    .with_batch(2),
            );
            rec.registry.counter_add("arrivals", 1);
            rec.registry.gauge_set("backlog", f64::from(minute));
            rec.registry
                .hist_record("lat", &[1.0, 2.0], f64::from(minute));
            rec.sample_tick(minute, t.as_micros());
        }
        let stream = rec.take_jsonl_stream().expect("jsonl path configured");
        let (spans, timeline) = rec.finish();
        let profiles = profiles();
        stream.finish(spans.as_ref(), timeline.as_ref(), &profiles);

        let tl = timeline.as_ref().unwrap();
        assert_eq!(tl.dropped, 2, "ring capacity 3 over 5 ticks evicts 2");
        let buffered = jsonl_document(1, spans.as_ref(), timeline.as_ref(), &profiles);
        let streamed = std::fs::read_to_string(&path).unwrap();
        assert_eq!(streamed, buffered);
        std::fs::remove_file(&path).ok();
    }

    /// A run that never records anything still leaves a complete
    /// document (header + footer) on disk.
    #[test]
    fn empty_stream_still_writes_a_complete_document() {
        let path = tmp("empty");
        let cfg = TelemetryConfig::timeline_only().with_jsonl(&path);
        let mut rec = Recorder::new(cfg);
        // Span recording is off: this must not open the file early.
        rec.span(SpanEvent::new(SimTime::ZERO, 0, SpanKind::Arrive));
        assert!(!path.exists(), "no line emitted yet, no file expected");
        let stream = rec.take_jsonl_stream().unwrap();
        let (spans, timeline) = rec.finish();
        assert!(spans.is_none());
        stream.finish(spans.as_ref(), timeline.as_ref(), &[]);
        let buffered = jsonl_document(0, None, timeline.as_ref(), &[]);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), buffered);
        std::fs::remove_file(&path).ok();
    }

    /// Unsampled and over-cap spans never reach the stream, keeping the
    /// streamed span count equal to the buffered log's.
    #[test]
    fn stream_mirrors_span_log_sampling_and_cap() {
        let path = tmp("sampled");
        let mut cfg = TelemetryConfig::sampled(2).with_jsonl(&path);
        cfg.max_events = 2;
        cfg.timeline = false;
        let mut rec = Recorder::new(cfg);
        for job in 0..8u32 {
            rec.span(SpanEvent::new(SimTime::ZERO, job, SpanKind::Arrive));
        }
        let stream = rec.take_jsonl_stream().unwrap();
        let (spans, timeline) = rec.finish();
        stream.finish(spans.as_ref(), timeline.as_ref(), &[]);
        let log = spans.as_ref().unwrap();
        assert_eq!(log.len(), 2, "cap admits two of the four sampled jobs");
        assert_eq!(log.dropped, 2);
        let buffered = jsonl_document(2, spans.as_ref(), timeline.as_ref(), &[]);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), buffered);
        std::fs::remove_file(&path).ok();
    }
}
