//! The metrics stage: the run's ledger.
//!
//! The stage owns every accounting fact of the run: the per-minute
//! [`MinuteRecord`]s and the [`RunTotals`], the retrieval tallies behind
//! [`RetrievalStats`] (per-level cache outcomes, store round-trip
//! latencies, insert counters), the per-level completion counts, the
//! quality reservoir (and its dedicated RNG stream), the per-pool outcome
//! counters, the Fig. 18 classifier accuracy log and the cascade verdict
//! tallies. A completion is judged against the SLO once, and that one
//! verdict feeds the minute record, the totals, the pool tally and the
//! reservoir, and is returned for the driver's lifecycle span. The
//! driver reads the running totals and the escalation count through
//! `&self` accessors, which are not stage calls, to set the telemetry
//! timeline's counters at each tick. The driver is the stage's only
//! caller, so f64 accumulation order and reservoir RNG draws follow its
//! call order exactly. [`MetricsStage::finish`] consumes the stage at run
//! teardown.

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
use crate::metrics::{LevelCacheCounts, MinuteRecord, RetrievalStats, RunTotals};

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

/// The metrics stage: the run's ledger, fed by one method call per
/// accounting event.
pub(crate) struct MetricsStage {
    /// The latency SLO every completion is judged against.
    slo: SimDuration,
    /// The minute being filled; `minutes` holds the closed ones.
    current: MinuteRecord,
    minutes: Vec<MinuteRecord>,
    totals: RunTotals,
    /// Per-level cache outcomes (first-seen order) and insert counters;
    /// the latency fields are filled from `lookup_latencies` at teardown.
    retrieval: RetrievalStats,
    /// One entry per store round trip (seconds), for the exact p99.
    lookup_latencies: Vec<f64>,
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
    /// An empty ledger judging completions against `slo`, with the
    /// reservoir's RNG stream.
    pub(crate) fn new(slo: SimDuration, sample_rng: StdRng) -> Self {
        MetricsStage {
            slo,
            current: MinuteRecord::default(),
            minutes: Vec::new(),
            totals: RunTotals::default(),
            retrieval: RetrievalStats::default(),
            lookup_latencies: Vec::new(),
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

    /// Closes minute records until the current one covers `t`.
    fn roll_to(&mut self, t: SimTime) {
        let m = t.as_micros() / 60_000_000;
        while self.current.minute < m {
            self.minutes.push(self.current);
            self.current = MinuteRecord {
                minute: self.current.minute + 1,
                ..MinuteRecord::default()
            };
        }
    }

    /// A query arrived.
    pub(crate) fn arrival(&mut self, t: SimTime) {
        self.profile.count(false);
        self.roll_to(t);
        self.current.offered += 1;
        self.totals.offered += 1;
    }

    /// A query was lost (no worker, or stranded at teardown): an SLO
    /// violation.
    pub(crate) fn lost(&mut self, t: SimTime) {
        self.profile.count(false);
        self.roll_to(t);
        self.current.violations += 1;
        self.totals.violations += 1;
    }

    /// A model load (variant switch with weight movement) started.
    pub(crate) fn model_load(&mut self, t: SimTime) {
        self.profile.count(false);
        self.roll_to(t);
        self.current.model_loads += 1;
        self.totals.model_loads += 1;
    }

    /// A cache retrieval round trip completed.
    pub(crate) fn retrieval(&mut self, t: SimTime, latency: SimDuration) {
        self.profile.count(false);
        self.roll_to(t);
        self.current.retrievals += 1;
        self.current.retrieval_latency_sum += latency.as_secs();
        self.lookup_latencies.push(latency.as_secs());
    }

    /// A cache lookup resolved against the worker's assigned AC level
    /// (the driver records no-neighbour lookups as misses).
    pub(crate) fn cache_lookup(&mut self, level: ApproxLevel, status: FetchStatus) {
        self.profile.count(false);
        let per_level = &mut self.retrieval.per_level;
        let i = match per_level.iter().position(|&(l, _)| l == level) {
            Some(i) => i,
            None => {
                per_level.push((level, LevelCacheCounts::default()));
                per_level.len() - 1
            }
        };
        let counts = &mut per_level[i].1;
        match status {
            FetchStatus::Hit => counts.hits += 1,
            FetchStatus::Miss => counts.misses += 1,
            FetchStatus::Failed => counts.failures += 1,
        }
    }

    /// Minute-boundary utilization sample.
    pub(crate) fn utilization(&mut self, t: SimTime, value: f64) {
        self.profile.count(false);
        self.roll_to(t);
        self.current.utilization = value;
    }

    /// One job completed with its end-to-end latency, PickScore and the
    /// prompt's base (best-achievable) score. The one SLO verdict feeds
    /// the minute record, the totals, the pool tally and the reservoir;
    /// returns it: whether the job met the SLO.
    pub(crate) fn completion(
        &mut self,
        t: SimTime,
        latency: SimDuration,
        score: f64,
        base: f64,
        level: ApproxLevel,
        gpu: GpuArch,
    ) -> bool {
        self.profile.count(true);
        self.roll_to(t);
        self.current.completed += 1;
        self.totals.completed += 1;
        *self.level_completions.entry(level).or_insert(0) += 1;
        let pool = self.pool_outcomes.entry(gpu).or_insert((0, 0));
        pool.0 += 1;
        if latency > self.slo {
            pool.1 += 1;
            self.current.violations += 1;
            self.totals.violations += 1;
            false
        } else {
            self.current.in_slo += 1;
            self.totals.in_slo += 1;
            self.current.quality_sum += score;
            self.totals.quality_sum += score;
            let rel = if base > 0.0 { score / base } else { 0.0 };
            self.current.relative_quality_sum += rel;
            self.totals.relative_quality_sum += rel;
            self.reservoir_sample(score, base);
            true
        }
    }

    /// The run totals so far (an accessor, not a stage call).
    pub(crate) fn totals(&self) -> &RunTotals {
        &self.totals
    }

    /// First passes the cascade escalated so far (an accessor, not a
    /// stage call).
    pub(crate) fn escalations(&self) -> u64 {
        self.cascade.escalated.values().sum()
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
    /// classifier against the oracle over the sampled prompts.
    pub(crate) fn accuracy<'a>(
        &mut self,
        minute: u64,
        sample: impl Iterator<Item = &'a Prompt>,
        ladder: &[ApproxLevel],
        classifier: &Classifier,
        oracle: &QualityOracle,
    ) {
        self.profile.count(false);
        let (mut probed, mut correct) = (0usize, 0usize);
        for p in sample {
            probed += 1;
            if classifier.predict(p) == oracle.optimal_level(p, ladder) {
                correct += 1;
            }
        }
        self.accuracy_log
            .push((minute, correct as f64 / probed as f64));
    }

    /// Folds in the insert counters the cache-plane stage accumulated
    /// (run-level totals, so the merge point touches no minute record).
    pub(crate) fn cache_insert_totals(
        &mut self,
        inserts: u64,
        replica_writes: u64,
        remote_hops: u64,
    ) {
        self.profile.count(false);
        self.retrieval.inserts += inserts;
        self.retrieval.replica_writes += replica_writes;
        self.retrieval.remote_write_hops += remote_hops;
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

    /// Closes the ledger at `end`: the last minute record, the
    /// level-ordered cache outcomes and the retrieval-latency mean and
    /// p99.
    pub(crate) fn finish(mut self, end: SimTime) -> MetricsReport {
        self.profile.count(true);
        self.roll_to(end);
        self.minutes.push(self.current);
        let mut retrieval = self.retrieval;
        retrieval.per_level.sort_by_key(|&(l, _)| l.ordinal());
        let mut lats = self.lookup_latencies;
        lats.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let n = lats.len();
        retrieval.lookups = n as u64;
        if n > 0 {
            retrieval.mean_latency = lats.iter().sum::<f64>() / n as f64;
            retrieval.p99_latency = lats[(((n as f64) * 0.99).ceil() as usize).clamp(1, n) - 1];
        }
        let mut cascade = self.cascade;
        if cascade.escalated_completed > 0 {
            cascade.quality_delta = self.cascade_delta_sum / cascade.escalated_completed as f64;
        }
        MetricsReport {
            minutes: self.minutes,
            totals: self.totals,
            retrieval,
            level_completions: self.level_completions,
            quality_samples: self.quality_samples,
            accuracy_log: self.accuracy_log,
            pool_outcomes: self.pool_outcomes,
            pool_alloc_samples: self.pool_alloc_samples,
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

#[cfg(test)]
mod tests {
    use super::*;
    use argus_models::{AcLevel, ModelVariant};
    use rand::SeedableRng;

    const LEVEL: ApproxLevel = ApproxLevel::Sm(ModelVariant::SdXl);
    const GPU: GpuArch = GpuArch::A100;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// A ledger with the SLO of a 4.2 s base model (12.6 s).
    fn stage() -> MetricsStage {
        stage_with_slo(SimDuration::from_secs(4.2) * crate::metrics::SLO_MULTIPLIER)
    }

    fn stage_with_slo(slo: SimDuration) -> MetricsStage {
        MetricsStage::new(slo, StdRng::seed_from_u64(7))
    }

    #[test]
    fn minute_rollup_and_totals() {
        let mut s = stage();
        s.arrival(t(10.0));
        s.completion(t(14.0), SimDuration::from_secs(4.0), 20.0, 21.0, LEVEL, GPU);
        s.arrival(t(70.0)); // minute 1
        s.completion(
            t(90.0),
            SimDuration::from_secs(20.0),
            19.0,
            21.0,
            LEVEL,
            GPU,
        ); // violation
        let r = s.finish(t(121.0));
        let (minutes, totals) = (r.minutes, r.totals);
        assert_eq!(minutes.len(), 3);
        assert_eq!(minutes[0].offered, 1);
        assert_eq!(minutes[0].completed, 1);
        assert_eq!(minutes[0].violations, 0);
        assert!((minutes[0].effective_accuracy() - 20.0).abs() < 1e-12);
        assert!((minutes[0].relative_quality() - 20.0 / 21.0).abs() < 1e-12);
        assert_eq!(minutes[1].violations, 1);
        assert_eq!(minutes[1].in_slo, 0);
        assert_eq!(minutes[1].effective_accuracy(), 0.0);
        assert_eq!(totals.offered, 2);
        assert_eq!(totals.completed, 2);
        assert_eq!(totals.violations, 1);
        assert_eq!(totals.slo_violation_ratio(), 0.5);
        assert!((totals.mean_throughput_qpm(2.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lost_queries_count_as_violations() {
        let mut s = stage();
        s.arrival(t(1.0));
        s.lost(t(2.0));
        let r = s.finish(t(3.0));
        assert_eq!(r.totals.violations, 1);
        assert_eq!(r.totals.completed, 0);
        assert_eq!(r.totals.slo_violation_ratio(), 1.0);
        assert_eq!(r.retrieval, RetrievalStats::default());
    }

    #[test]
    fn retrieval_and_load_accounting() {
        let mut s = stage();
        s.retrieval(t(5.0), SimDuration::from_millis(20.0));
        s.retrieval(t(6.0), SimDuration::from_millis(40.0));
        s.model_load(t(7.0));
        s.utilization(t(8.0), 0.85);
        let r = s.finish(t(59.0));
        let (minutes, totals, retrieval) = (r.minutes, r.totals, r.retrieval);
        assert_eq!(minutes[0].retrievals, 2);
        assert!((minutes[0].mean_retrieval_latency() - 0.03).abs() < 1e-9);
        assert_eq!(minutes[0].model_loads, 1);
        assert_eq!(totals.model_loads, 1);
        assert_eq!(minutes[0].utilization, 0.85);
        assert_eq!(retrieval.lookups, 2);
        assert!((retrieval.mean_latency - 0.03).abs() < 1e-9);
        assert!((retrieval.p99_latency - 0.04).abs() < 1e-9);
    }

    #[test]
    fn cache_lookup_counts_sort_by_level_ordinal() {
        let mut s = stage();
        let deep = ApproxLevel::Ac(AcLevel(25));
        let shallow = ApproxLevel::Ac(AcLevel(10));
        s.cache_lookup(deep, FetchStatus::Hit);
        s.cache_lookup(shallow, FetchStatus::Miss);
        s.cache_lookup(deep, FetchStatus::Hit);
        s.cache_lookup(deep, FetchStatus::Failed);
        let retrieval = s.finish(t(60.0)).retrieval;
        // First-seen was the deeper level; the output is ordinal-sorted.
        assert_eq!(
            retrieval.per_level,
            vec![
                (
                    shallow,
                    LevelCacheCounts {
                        hits: 0,
                        misses: 1,
                        failures: 0
                    }
                ),
                (
                    deep,
                    LevelCacheCounts {
                        hits: 2,
                        misses: 0,
                        failures: 1
                    }
                ),
            ]
        );
        assert_eq!(retrieval.hits(), 2);
        assert_eq!(retrieval.misses(), 1);
        assert_eq!(retrieval.failures(), 1);
        assert!((retrieval.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn p99_latency_picks_the_tail() {
        let mut s = stage();
        for i in 1..=100 {
            s.retrieval(t(i as f64 * 0.01), SimDuration::from_millis(i as f64));
        }
        let retrieval = s.finish(t(60.0)).retrieval;
        assert_eq!(retrieval.lookups, 100);
        assert!((retrieval.p99_latency - 0.099).abs() < 1e-9);
        assert!((retrieval.mean_latency - 0.0505).abs() < 1e-9);
    }

    #[test]
    fn empty_minutes_are_materialized() {
        let mut s = stage();
        s.arrival(t(0.0));
        s.arrival(t(300.0)); // minute 5
        let minutes = s.finish(t(301.0)).minutes;
        assert_eq!(minutes.len(), 6);
        assert!(minutes[1..5].iter().all(|m| m.offered == 0));
        assert_eq!(minutes[5].offered, 1);
    }

    #[test]
    fn a_completion_at_the_slo_is_in_slo_and_one_microsecond_over_is_not() {
        let slo = SimDuration::from_secs(12.6);
        let judged = |latency: SimDuration| {
            let mut s = stage_with_slo(slo);
            let met = s.completion(t(30.0), latency, 20.0, 21.0, LEVEL, GPU);
            (met, s.finish(t(31.0)))
        };

        let (met, at) = judged(slo);
        assert!(met);
        assert_eq!((at.minutes[0].in_slo, at.minutes[0].violations), (1, 0));
        assert_eq!((at.totals.in_slo, at.totals.violations), (1, 0));
        assert_eq!(at.pool_outcomes[&GPU], (1, 0));
        assert_eq!(at.quality_samples, vec![(20.0, 21.0)]);

        let (met, over) = judged(slo + SimDuration::from_micros(1));
        assert!(!met);
        assert_eq!((over.minutes[0].in_slo, over.minutes[0].violations), (0, 1));
        assert_eq!((over.totals.in_slo, over.totals.violations), (0, 1));
        assert_eq!(over.pool_outcomes[&GPU], (1, 1));
        assert!(over.quality_samples.is_empty());
    }
}
