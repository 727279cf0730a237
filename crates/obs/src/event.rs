//! Job-lifecycle span events.
//!
//! A span event is one point on a job's lifecycle path:
//! arrival → level assignment → cache lookup → dispatch → terminal
//! (completion, SLO violation, or loss). Events are recorded in
//! **sim-time** only — the plane never reads a wall clock — and in the
//! deterministic order the driver emits them, so two runs of the same
//! configuration produce byte-identical logs.

use argus_des::SimTime;
use argus_models::{ApproxLevel, GpuArch};

/// Sentinel for "no worker attached to this event".
pub const NO_WORKER: u32 = u32::MAX;
/// Sentinel for "no batch attached to this event".
pub const NO_BATCH: u32 = u32::MAX;

/// The lifecycle stage a [`SpanEvent`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Job entered the system.
    Arrive,
    /// Planner assigned an approximation level and a target worker.
    Assign,
    /// Cache lookup hit a reusable neighbour.
    CacheHit,
    /// Cache lookup found no reusable neighbour.
    CacheMiss,
    /// Cache lookup failed (shard fault / degraded read).
    CacheFailed,
    /// Job started executing on a worker (possibly inside a batch).
    Dispatch,
    /// Cascade discriminator flagged the first pass; the job re-enters
    /// dispatch as escalation work (non-terminal — its lifecycle
    /// continues through a second Assign/Dispatch to the terminal kind).
    Escalate,
    /// Job finished within its SLO.
    Complete,
    /// Job finished but violated its SLO.
    Violation,
    /// Job was dropped (no capacity, or stranded at teardown).
    Lost,
}

impl SpanKind {
    /// Stable lower-case name used in the JSONL export.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Arrive => "arrive",
            SpanKind::Assign => "assign",
            SpanKind::CacheHit => "cache_hit",
            SpanKind::CacheMiss => "cache_miss",
            SpanKind::CacheFailed => "cache_failed",
            SpanKind::Dispatch => "dispatch",
            SpanKind::Escalate => "escalate",
            SpanKind::Complete => "complete",
            SpanKind::Violation => "violation",
            SpanKind::Lost => "lost",
        }
    }

    /// Whether this kind ends a job's lifecycle.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            SpanKind::Complete | SpanKind::Violation | SpanKind::Lost
        )
    }
}

/// One structured point on a job's lifecycle, stamped in sim-time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanEvent {
    /// Sim-time of the event, integer microseconds.
    pub t_us: u64,
    /// Job id.
    pub job: u32,
    /// Lifecycle stage.
    pub kind: SpanKind,
    /// Approximation level in effect, when one is known.
    pub level: Option<ApproxLevel>,
    /// GPU pool (architecture) involved, when one is known.
    pub pool: Option<GpuArch>,
    /// Worker id, or [`NO_WORKER`].
    pub worker: u32,
    /// Batch id, or [`NO_BATCH`].
    pub batch: u32,
}

impl SpanEvent {
    /// A bare event with no level / pool / worker / batch attached.
    pub fn new(t: SimTime, job: u32, kind: SpanKind) -> Self {
        SpanEvent {
            t_us: t.as_micros(),
            job,
            kind,
            level: None,
            pool: None,
            worker: NO_WORKER,
            batch: NO_BATCH,
        }
    }

    /// Attaches an approximation level.
    pub fn with_level(mut self, level: ApproxLevel) -> Self {
        self.level = Some(level);
        self
    }

    /// Attaches a GPU pool.
    pub fn with_pool(mut self, pool: GpuArch) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Attaches a worker id.
    pub fn with_worker(mut self, worker: u32) -> Self {
        self.worker = worker;
        self
    }

    /// Attaches a batch id.
    pub fn with_batch(mut self, batch: u32) -> Self {
        self.batch = batch;
        self
    }
}

/// An append-only log of [`SpanEvent`]s with modulo sampling and a hard
/// volume cap.
///
/// Sampling is by job id (`job % sample_every == 0`), not by a random
/// draw, so the sampled population is identical across runs. Events past `max_events` are counted in
/// [`SpanLog::dropped`] rather than silently discarded.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanLog {
    /// Record jobs whose id is divisible by this; `1` records every job.
    pub sample_every: u32,
    /// Recorded events, in emission order.
    pub events: Vec<SpanEvent>,
    /// Events that the `max_events` cap rejected.
    pub dropped: u64,
    max_events: usize,
}

impl SpanLog {
    /// Creates a log sampling one in `sample_every` jobs, holding at most
    /// `max_events` events.
    pub fn new(sample_every: u32, max_events: usize) -> Self {
        SpanLog {
            sample_every: sample_every.max(1),
            events: Vec::new(),
            dropped: 0,
            max_events,
        }
    }

    /// Whether this log records events for `job`.
    pub fn wants(&self, job: u32) -> bool {
        job.is_multiple_of(self.sample_every)
    }

    /// Appends `ev` if its job is sampled and the cap has room; an event
    /// over the cap is counted in [`SpanLog::dropped`].
    pub fn record(&mut self, ev: SpanEvent) {
        if !self.wants(ev.job) {
            return;
        }
        if self.events.len() >= self.max_events {
            self.dropped += 1;
            return;
        }
        self.events.push(ev);
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_by_job_id_modulo() {
        let mut log = SpanLog::new(4, usize::MAX);
        for job in 0..16 {
            log.record(SpanEvent::new(
                SimTime::from_secs(1.0),
                job,
                SpanKind::Arrive,
            ));
        }
        assert_eq!(log.len(), 4); // jobs 0, 4, 8, 12
        assert!(log.events.iter().all(|e| e.job % 4 == 0));
        assert_eq!(log.dropped, 0);
    }

    #[test]
    fn cap_counts_drops() {
        let mut log = SpanLog::new(1, 2);
        for job in 0..5 {
            log.record(SpanEvent::new(SimTime::ZERO, job, SpanKind::Arrive));
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped, 3);
    }

    #[test]
    fn builders_attach_fields() {
        let level = argus_models::ApproxLevel::ladder(argus_models::Strategy::Ac)[0];
        let ev = SpanEvent::new(SimTime::from_millis(1.5), 7, SpanKind::Dispatch)
            .with_level(level)
            .with_pool(GpuArch::A100)
            .with_worker(3)
            .with_batch(9);
        assert_eq!(ev.t_us, 1_500);
        assert_eq!(ev.worker, 3);
        assert_eq!(ev.batch, 9);
        assert!(ev.level.is_some());
        assert_eq!(ev.pool, Some(GpuArch::A100));
        assert!(!ev.kind.is_terminal());
        assert!(SpanKind::Lost.is_terminal());
    }
}
