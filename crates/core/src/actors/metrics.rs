//! The metrics stage: every accounting sink of the run.
//!
//! The stage owns the per-minute [`MetricsCollector`], the per-level
//! completion counts, the quality reservoir (and its dedicated RNG
//! stream), the per-pool outcome counters, the Fig. 18 classifier
//! accuracy log and the cascade verdict tallies. The driver is its only
//! caller, so the stage runs operations in exactly the order the old
//! synchronous loop performed them — f64 accumulation order and reservoir
//! RNG draws are bit-identical. [`MetricsStage::finish`] hands everything
//! back at run teardown.

use std::collections::BTreeMap;

use argus_cachestore::FetchStatus;
use argus_classifier::Classifier;
use argus_des::{SimDuration, SimTime};
use argus_models::{ApproxLevel, GpuArch};
use argus_obs::StageCounters;
use argus_prompts::Prompt;
use argus_quality::QualityOracle;
use rand::rngs::StdRng;
use rand::RngExt as _;

use crate::cascade::CascadeStats;
use crate::metrics::{MetricsCollector, MinuteRecord, RetrievalStats, RunTotals};

/// Reservoir size for (score, base) quality samples.
pub(crate) const SAMPLE_CAP: usize = 2000;

/// Smoothing factor of the per-level escalation-rate EWMA the planner
/// prices into Eq. 1: each first-pass verdict moves the level's rate 5%
/// toward 1 (escalated) or 0 (accepted) — reactive enough to track a
/// diurnal quality mix, smooth enough not to flap the allocation.
pub(crate) const ESCALATION_EWMA_ALPHA: f64 = 0.05;

/// Everything the metrics stage accumulated, returned at teardown.
pub(crate) struct MetricsReport {
    pub minutes: Vec<MinuteRecord>,
    pub totals: RunTotals,
    pub retrieval: RetrievalStats,
    pub level_completions: BTreeMap<ApproxLevel, u64>,
    pub quality_samples: Vec<(f64, f64)>,
    pub accuracy_log: Vec<(u64, f64)>,
    pub pool_outcomes: BTreeMap<GpuArch, (u64, u64)>,
    pub pool_alloc_samples: BTreeMap<GpuArch, (u64, u64)>,
    /// Cascade accounting (all-zero unless the run cascaded; the driver
    /// surfaces it as `RunOutcome::cascade` only for cascade runs).
    pub cascade: CascadeStats,
    /// Call counters for the stage profile (§12 telemetry).
    pub profile: StageCounters,
}

/// The metrics stage: the run's accounting sinks, fed by one method call
/// per accounting event.
pub(crate) struct MetricsStage {
    collector: MetricsCollector,
    slo: SimDuration,
    level_completions: BTreeMap<ApproxLevel, u64>,
    quality_samples: Vec<(f64, f64)>,
    sample_seen: u64,
    sample_rng: StdRng,
    accuracy_log: Vec<(u64, f64)>,
    pool_outcomes: BTreeMap<GpuArch, (u64, u64)>,
    pool_alloc_samples: BTreeMap<GpuArch, (u64, u64)>,
    cascade: CascadeStats,
    cascade_delta_sum: f64,
    profile: StageCounters,
}

impl MetricsStage {
    /// A stage around a freshly-built collector and the reservoir's RNG
    /// stream.
    pub(crate) fn new(collector: MetricsCollector, sample_rng: StdRng) -> Self {
        let slo = collector.slo();
        MetricsStage {
            collector,
            slo,
            level_completions: BTreeMap::new(),
            quality_samples: Vec::with_capacity(SAMPLE_CAP),
            sample_seen: 0,
            sample_rng,
            accuracy_log: Vec::new(),
            pool_outcomes: BTreeMap::new(),
            pool_alloc_samples: BTreeMap::new(),
            cascade: CascadeStats::default(),
            cascade_delta_sum: 0.0,
            profile: StageCounters::default(),
        }
    }

    /// A query arrived.
    pub(crate) fn arrival(&mut self, t: SimTime) {
        self.profile.count(false);
        self.collector.on_arrival(t);
    }

    /// A query was lost (no worker, or stranded at teardown).
    pub(crate) fn lost(&mut self, t: SimTime) {
        self.profile.count(false);
        self.collector.on_lost(t);
    }

    /// A model load started.
    pub(crate) fn model_load(&mut self, t: SimTime) {
        self.profile.count(false);
        self.collector.on_model_load(t);
    }

    /// A cache retrieval round trip completed.
    pub(crate) fn retrieval(&mut self, t: SimTime, latency: SimDuration) {
        self.profile.count(false);
        self.collector.on_retrieval(t, latency);
    }

    /// A cache lookup resolved against the assigned level.
    pub(crate) fn cache_lookup(&mut self, level: ApproxLevel, status: FetchStatus) {
        self.profile.count(false);
        self.collector.on_cache_lookup(level, status);
    }

    /// Minute-boundary utilization sample.
    pub(crate) fn utilization(&mut self, t: SimTime, value: f64) {
        self.profile.count(false);
        self.collector.on_utilization_sample(t, value);
    }

    /// One job completed: the full accounting bundle (minute rollup,
    /// level counts, pool outcome, reservoir sampling).
    pub(crate) fn completion(
        &mut self,
        t: SimTime,
        latency: SimDuration,
        score: f64,
        base: f64,
        level: ApproxLevel,
        gpu: GpuArch,
    ) {
        self.profile.count(false);
        self.collector.on_completion(t, latency, score, base);
        *self.level_completions.entry(level).or_insert(0) += 1;
        let pool = self.pool_outcomes.entry(gpu).or_insert((0, 0));
        pool.0 += 1;
        if latency > self.slo {
            pool.1 += 1;
        }
        if latency <= self.slo {
            self.reservoir_sample(score, base);
        }
    }

    /// Per-architecture allocated-worker counts at one sample point.
    pub(crate) fn pool_alloc(&mut self, counts: &[(GpuArch, u64)]) {
        self.profile.count(false);
        for &(gpu, allocated) in counts {
            let entry = self.pool_alloc_samples.entry(gpu).or_insert((0, 0));
            entry.0 += allocated;
            entry.1 += 1;
        }
    }

    /// Tick-time classifier accuracy sampling (Fig. 18): probes the live
    /// classifier against the oracle over the sampled prompt indices.
    pub(crate) fn accuracy(
        &mut self,
        minute: u64,
        sample: impl Iterator<Item = u32>,
        ladder: &[ApproxLevel],
        classifier: &Classifier,
        oracle: &QualityOracle,
        prompts: &[Prompt],
    ) {
        self.profile.count(false);
        let (mut probed, mut correct) = (0usize, 0usize);
        for i in sample {
            let p = &prompts[i as usize];
            probed += 1;
            if classifier.predict(&p.text) == oracle.optimal_level(p, ladder) {
                correct += 1;
            }
        }
        self.accuracy_log
            .push((minute, correct as f64 / probed as f64));
    }

    /// Folds in the insert counters the cache-plane stage accumulated
    /// (run-level totals; order-insensitive).
    pub(crate) fn cache_insert_totals(
        &mut self,
        inserts: u64,
        replica_writes: u64,
        remote_hops: u64,
    ) {
        self.profile.count(false);
        self.collector
            .on_cache_insert_totals(inserts, replica_writes, remote_hops);
    }

    /// A cascade first pass was judged: updates the per-level counts and
    /// the escalation-rate EWMA.
    pub(crate) fn cascade_judged(&mut self, level: ApproxLevel, escalated: bool) {
        self.profile.count(false);
        *self.cascade.first_pass.entry(level).or_insert(0) += 1;
        let bucket = if escalated {
            &mut self.cascade.escalated
        } else {
            &mut self.cascade.accepted
        };
        *bucket.entry(level).or_insert(0) += 1;
        let rate = self.cascade.escalation_rate.entry(level).or_insert(0.0);
        let target = if escalated { 1.0 } else { 0.0 };
        *rate += ESCALATION_EWMA_ALPHA * (target - *rate);
    }

    /// An escalated job's second pass completed, with the first- and
    /// final-pass relative quality ratios.
    pub(crate) fn cascade_outcome(&mut self, first_ratio: f64, final_ratio: f64) {
        self.profile.count(false);
        self.cascade.escalated_completed += 1;
        self.cascade_delta_sum += final_ratio - first_ratio;
    }

    /// The per-level escalation-rate EWMA (the driver reads it once per
    /// allocator tick, cascade runs only).
    pub(crate) fn escalation_rates(&mut self) -> &BTreeMap<ApproxLevel, f64> {
        self.profile.count(true);
        &self.cascade.escalation_rate
    }

    /// Finalizes and hands every sink back.
    pub(crate) fn finish(&mut self, end: SimTime) -> MetricsReport {
        self.profile.count(true);
        // `finish` consumes the collector; swap in a throwaway.
        let collector = std::mem::replace(&mut self.collector, MetricsCollector::new(self.slo));
        let (minutes, totals, retrieval) = collector.finish(end);
        let mut cascade = std::mem::take(&mut self.cascade);
        if cascade.escalated_completed > 0 {
            cascade.quality_delta = self.cascade_delta_sum / cascade.escalated_completed as f64;
        }
        MetricsReport {
            minutes,
            totals,
            retrieval,
            level_completions: std::mem::take(&mut self.level_completions),
            quality_samples: std::mem::take(&mut self.quality_samples),
            accuracy_log: std::mem::take(&mut self.accuracy_log),
            pool_outcomes: std::mem::take(&mut self.pool_outcomes),
            pool_alloc_samples: std::mem::take(&mut self.pool_alloc_samples),
            cascade,
            profile: self.profile,
        }
    }

    fn reservoir_sample(&mut self, score: f64, base: f64) {
        self.sample_seen += 1;
        if self.quality_samples.len() < SAMPLE_CAP {
            self.quality_samples.push((score, base));
        } else {
            let j = self.sample_rng.random_range(0..self.sample_seen);
            if (j as usize) < SAMPLE_CAP {
                self.quality_samples[j as usize] = (score, base);
            }
        }
    }
}
