//! Evaluation metrics (§5.1).
//!
//! Three headline metrics, recorded per simulated minute and aggregated:
//!
//! * **Throughput** — queries completed per minute;
//! * **Effective accuracy** — mean PickScore over queries completed within
//!   the latency SLO;
//! * **SLO violation ratio** — fraction of queries exceeding the SLO
//!   (3× the SD-XL latency, i.e. 12.6 s end-to-end), including queries
//!   lost to failures.
//!
//! Plus the §5.7 auxiliaries: relative quality, cluster utilization,
//! model-switch counts and cache-retrieval latency — and, for the cache
//! plane, whole-run [`RetrievalStats`]: per-level hit/miss/failure counts
//! plus retrieval-latency mean and p99, so retrieval experiments are
//! measurable without re-running the simulation.

use argus_cachestore::FetchStatus;
use argus_des::{SimDuration, SimTime};
use argus_models::{ApproxLevel, GpuArch};

/// The latency SLO multiplier over the largest model's inference time
/// (§5.1, following Proteus).
pub const SLO_MULTIPLIER: f64 = 3.0;

/// One minute of system telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MinuteRecord {
    /// Minute index from simulation start.
    pub minute: u64,
    /// Queries that arrived this minute (offered load).
    pub offered: u64,
    /// Queries completed this minute (throughput).
    pub completed: u64,
    /// Completions that violated the latency SLO, plus lost queries.
    pub violations: u64,
    /// Sum of PickScores over in-SLO completions.
    pub quality_sum: f64,
    /// Sum of (score / base score) over in-SLO completions.
    pub relative_quality_sum: f64,
    /// In-SLO completions (denominator for the two sums above).
    pub in_slo: u64,
    /// Mean cluster utilization sampled at the minute boundary.
    pub utilization: f64,
    /// Model loads (weight movements) started this minute.
    pub model_loads: u64,
    /// Mean cache-retrieval latency this minute (seconds; 0 if no
    /// retrievals).
    pub retrieval_latency_sum: f64,
    /// Number of cache retrievals this minute.
    pub retrievals: u64,
}

impl MinuteRecord {
    /// Mean PickScore of in-SLO completions ("effective accuracy").
    pub fn effective_accuracy(&self) -> f64 {
        if self.in_slo == 0 {
            0.0
        } else {
            self.quality_sum / self.in_slo as f64
        }
    }

    /// Mean relative quality (score / prompt's best score) of in-SLO
    /// completions, in `[0, ~1]`.
    pub fn relative_quality(&self) -> f64 {
        if self.in_slo == 0 {
            0.0
        } else {
            self.relative_quality_sum / self.in_slo as f64
        }
    }

    /// Violations over offered queries this minute.
    pub fn violation_ratio(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.violations as f64 / self.offered as f64
        }
    }

    /// Mean retrieval latency in seconds.
    pub fn mean_retrieval_latency(&self) -> f64 {
        if self.retrievals == 0 {
            0.0
        } else {
            self.retrieval_latency_sum / self.retrievals as f64
        }
    }
}

/// Whole-run aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunTotals {
    /// Total queries offered.
    pub offered: u64,
    /// Total completions.
    pub completed: u64,
    /// Total SLO violations (late completions + lost queries).
    pub violations: u64,
    /// Sum of PickScores over in-SLO completions.
    pub quality_sum: f64,
    /// Sum of relative qualities over in-SLO completions.
    pub relative_quality_sum: f64,
    /// In-SLO completions.
    pub in_slo: u64,
    /// Total model loads.
    pub model_loads: u64,
}

impl RunTotals {
    /// Mean PickScore over in-SLO completions.
    pub fn effective_accuracy(&self) -> f64 {
        if self.in_slo == 0 {
            0.0
        } else {
            self.quality_sum / self.in_slo as f64
        }
    }

    /// Mean relative quality over in-SLO completions.
    pub fn relative_quality(&self) -> f64 {
        if self.in_slo == 0 {
            0.0
        } else {
            self.relative_quality_sum / self.in_slo as f64
        }
    }

    /// Fraction of offered queries that violated the SLO.
    pub fn slo_violation_ratio(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.violations as f64 / self.offered as f64
        }
    }

    /// Mean throughput in QPM over `minutes`.
    pub fn mean_throughput_qpm(&self, minutes: f64) -> f64 {
        if minutes <= 0.0 {
            0.0
        } else {
            self.completed as f64 / minutes
        }
    }
}

/// One architecture pool's share of a run's outcomes
/// (`RunOutcome::pools`): heterogeneous experiments read pool behaviour
/// directly instead of inferring it from cluster-wide aggregates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolStats {
    /// The pool's GPU architecture.
    pub gpu: GpuArch,
    /// Configured worker count of the pool.
    pub workers: usize,
    /// Jobs completed on this pool's workers.
    pub completions: u64,
    /// Completions on this pool's workers that violated the latency SLO
    /// (jobs lost before reaching a worker have no pool and are counted
    /// only in the run totals).
    pub violations: u64,
    /// Mean alive workers holding (or loading toward) a level across
    /// allocator ticks — how much of the pool the planner actually used.
    pub mean_allocated_workers: f64,
}

impl PoolStats {
    /// Violations over completions on this pool, in `[0, 1]`.
    pub fn violation_ratio(&self) -> f64 {
        if self.completions == 0 {
            0.0
        } else {
            self.violations as f64 / self.completions as f64
        }
    }
}

/// Cache-lookup outcome counts for one approximation level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LevelCacheCounts {
    /// Lookups that retrieved a usable intermediate state.
    pub hits: u64,
    /// Lookups whose network leg worked but found no state.
    pub misses: u64,
    /// Lookups lost to congestion drops or outage timeouts.
    pub failures: u64,
}

/// Whole-run retrieval-plane telemetry: per-level cache outcomes plus the
/// retrieval-latency distribution the strategy switcher monitors (§4.6).
///
/// A *lookup* that finds no usable neighbour (empty or fault-degraded
/// probe set, or a similarity too low to reuse) counts as a miss even
/// though no store round trip happened — that is precisely the observable
/// a dead cache shard produces.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RetrievalStats {
    /// Cache outcomes keyed by the worker's assigned AC level at lookup
    /// time, sorted by [`ApproxLevel::ordinal`].
    pub per_level: Vec<(ApproxLevel, LevelCacheCounts)>,
    /// Cache-store fetches (the latency sample count; no-neighbour misses
    /// never reach the store, so this can be below `hits + misses`).
    pub lookups: u64,
    /// Mean end-to-end retrieval latency in seconds (0 with no lookups).
    pub mean_latency: f64,
    /// 99th-percentile retrieval latency in seconds (0 with no lookups).
    pub p99_latency: f64,
    /// Serving-time index inserts (one per persisted completion;
    /// pre-deployment warm-up writes are not charged).
    pub inserts: u64,
    /// Replica copies written across all inserts (≥ `inserts` under
    /// R-way replication — the cache plane's write amplification).
    pub replica_writes: u64,
    /// Replica writes that crossed the network: copies hosted on a worker
    /// other than the one that produced the state, plus every write to an
    /// off-cluster (monolithic) index. Writes are asynchronous (§4.7), so
    /// hops are charged to this budget counter, not to job latency.
    pub remote_write_hops: u64,
}

impl RetrievalStats {
    /// Total hits across levels.
    pub fn hits(&self) -> u64 {
        self.per_level.iter().map(|&(_, c)| c.hits).sum()
    }

    /// Total misses across levels (failures counted separately).
    pub fn misses(&self) -> u64 {
        self.per_level.iter().map(|&(_, c)| c.misses).sum()
    }

    /// Total failed lookups across levels.
    pub fn failures(&self) -> u64 {
        self.per_level.iter().map(|&(_, c)| c.failures).sum()
    }

    /// Hits over all lookups, in `[0, 1]` (0 with no lookups).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits() + self.misses() + self.failures();
        if total == 0 {
            0.0
        } else {
            self.hits() as f64 / total as f64
        }
    }
}

/// Streaming collector turning per-event observations into per-minute
/// records plus run totals.
#[derive(Debug, Clone)]
pub struct MetricsCollector {
    slo: SimDuration,
    current: MinuteRecord,
    minutes: Vec<MinuteRecord>,
    totals: RunTotals,
    cache_counts: Vec<(ApproxLevel, LevelCacheCounts)>,
    lookup_latencies: Vec<f64>,
    inserts: u64,
    replica_writes: u64,
    remote_write_hops: u64,
}

impl MetricsCollector {
    /// Creates a collector with the SLO derived from the base model
    /// latency: `SLO_MULTIPLIER × base_latency`.
    pub fn new(base_latency: SimDuration) -> Self {
        MetricsCollector {
            slo: base_latency * SLO_MULTIPLIER,
            current: MinuteRecord::default(),
            minutes: Vec::new(),
            totals: RunTotals::default(),
            cache_counts: Vec::new(),
            lookup_latencies: Vec::new(),
            inserts: 0,
            replica_writes: 0,
            remote_write_hops: 0,
        }
    }

    /// The SLO deadline.
    pub fn slo(&self) -> SimDuration {
        self.slo
    }

    fn minute_of(&self, t: SimTime) -> u64 {
        t.as_micros() / 60_000_000
    }

    /// Rolls the current minute forward until it covers `t`.
    fn roll_to(&mut self, t: SimTime) {
        let m = self.minute_of(t);
        while self.current.minute < m {
            self.minutes.push(self.current);
            self.current = MinuteRecord {
                minute: self.current.minute + 1,
                ..MinuteRecord::default()
            };
        }
    }

    /// Records a query arrival.
    pub fn on_arrival(&mut self, t: SimTime) {
        self.roll_to(t);
        self.current.offered += 1;
        self.totals.offered += 1;
    }

    /// Records a completion with its end-to-end latency, PickScore and the
    /// prompt's base (best-achievable) score.
    pub fn on_completion(&mut self, t: SimTime, latency: SimDuration, score: f64, base: f64) {
        self.roll_to(t);
        self.current.completed += 1;
        self.totals.completed += 1;
        if latency > self.slo {
            self.current.violations += 1;
            self.totals.violations += 1;
        } else {
            self.current.in_slo += 1;
            self.totals.in_slo += 1;
            self.current.quality_sum += score;
            self.totals.quality_sum += score;
            let rel = if base > 0.0 { score / base } else { 0.0 };
            self.current.relative_quality_sum += rel;
            self.totals.relative_quality_sum += rel;
        }
    }

    /// Records a query lost to a failure (counted as an SLO violation).
    pub fn on_lost(&mut self, t: SimTime) {
        self.roll_to(t);
        self.current.violations += 1;
        self.totals.violations += 1;
    }

    /// Records a model load (variant switch with weight movement).
    pub fn on_model_load(&mut self, t: SimTime) {
        self.roll_to(t);
        self.current.model_loads += 1;
        self.totals.model_loads += 1;
    }

    /// Records a cache retrieval latency.
    pub fn on_retrieval(&mut self, t: SimTime, latency: SimDuration) {
        self.roll_to(t);
        self.current.retrievals += 1;
        self.current.retrieval_latency_sum += latency.as_secs();
        self.lookup_latencies.push(latency.as_secs());
    }

    /// Records a cache-lookup outcome against the worker's assigned AC
    /// level (no-neighbour lookups are recorded as misses by the caller).
    pub fn on_cache_lookup(&mut self, level: ApproxLevel, status: FetchStatus) {
        let counts = match self.cache_counts.iter_mut().find(|(l, _)| *l == level) {
            Some((_, c)) => c,
            None => {
                self.cache_counts.push((level, LevelCacheCounts::default()));
                &mut self.cache_counts.last_mut().expect("just pushed").1
            }
        };
        match status {
            FetchStatus::Hit => counts.hits += 1,
            FetchStatus::Miss => counts.misses += 1,
            FetchStatus::Failed => counts.failures += 1,
        }
    }

    /// Folds in insert counters accumulated elsewhere (the cache-plane
    /// stage counts its writes locally and merges them here at
    /// teardown). Pure run-level totals, so the merge point does
    /// not affect any per-minute record.
    pub fn on_cache_insert_totals(&mut self, inserts: u64, replica_writes: u64, remote_hops: u64) {
        self.inserts += inserts;
        self.replica_writes += replica_writes;
        self.remote_write_hops += remote_hops;
    }

    /// Samples cluster utilization at the minute boundary.
    pub fn on_utilization_sample(&mut self, t: SimTime, utilization: f64) {
        self.roll_to(t);
        self.current.utilization = utilization;
    }

    /// Finalizes at time `end`, returning per-minute records, totals and
    /// the retrieval-plane statistics.
    pub fn finish(mut self, end: SimTime) -> (Vec<MinuteRecord>, RunTotals, RetrievalStats) {
        self.roll_to(end);
        self.minutes.push(self.current);
        let mut per_level = self.cache_counts;
        per_level.sort_by_key(|&(l, _)| l.ordinal());
        let mut lats = self.lookup_latencies;
        lats.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let n = lats.len();
        let retrieval = RetrievalStats {
            per_level,
            lookups: n as u64,
            mean_latency: if n == 0 {
                0.0
            } else {
                lats.iter().sum::<f64>() / n as f64
            },
            p99_latency: if n == 0 {
                0.0
            } else {
                lats[(((n as f64) * 0.99).ceil() as usize).clamp(1, n) - 1]
            },
            inserts: self.inserts,
            replica_writes: self.replica_writes,
            remote_write_hops: self.remote_write_hops,
        };
        (self.minutes, self.totals, retrieval)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn base() -> SimDuration {
        SimDuration::from_secs(4.2)
    }

    #[test]
    fn slo_is_three_times_base_latency() {
        let c = MetricsCollector::new(base());
        assert!((c.slo().as_secs() - 12.6).abs() < 1e-9);
    }

    #[test]
    fn minute_rollup_and_totals() {
        let mut c = MetricsCollector::new(base());
        c.on_arrival(t(10.0));
        c.on_completion(t(14.0), SimDuration::from_secs(4.0), 20.0, 21.0);
        c.on_arrival(t(70.0)); // minute 1
        c.on_completion(t(90.0), SimDuration::from_secs(20.0), 19.0, 21.0); // violation
        let (minutes, totals, _) = c.finish(t(121.0));
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
        let mut c = MetricsCollector::new(base());
        c.on_arrival(t(1.0));
        c.on_lost(t(2.0));
        let (_, totals, retrieval) = c.finish(t(3.0));
        assert_eq!(totals.violations, 1);
        assert_eq!(totals.completed, 0);
        assert_eq!(totals.slo_violation_ratio(), 1.0);
        assert_eq!(retrieval, RetrievalStats::default());
    }

    #[test]
    fn retrieval_and_load_accounting() {
        let mut c = MetricsCollector::new(base());
        c.on_retrieval(t(5.0), SimDuration::from_millis(20.0));
        c.on_retrieval(t(6.0), SimDuration::from_millis(40.0));
        c.on_model_load(t(7.0));
        c.on_utilization_sample(t(8.0), 0.85);
        let (minutes, totals, retrieval) = c.finish(t(59.0));
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
        use argus_models::AcLevel;
        let mut c = MetricsCollector::new(base());
        let deep = ApproxLevel::Ac(AcLevel(25));
        let shallow = ApproxLevel::Ac(AcLevel(10));
        c.on_cache_lookup(deep, FetchStatus::Hit);
        c.on_cache_lookup(shallow, FetchStatus::Miss);
        c.on_cache_lookup(deep, FetchStatus::Hit);
        c.on_cache_lookup(deep, FetchStatus::Failed);
        let (_, _, retrieval) = c.finish(t(60.0));
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
        let mut c = MetricsCollector::new(base());
        for i in 1..=100 {
            c.on_retrieval(t(i as f64 * 0.01), SimDuration::from_millis(i as f64));
        }
        let (_, _, retrieval) = c.finish(t(60.0));
        assert_eq!(retrieval.lookups, 100);
        assert!((retrieval.p99_latency - 0.099).abs() < 1e-9);
        assert!((retrieval.mean_latency - 0.0505).abs() < 1e-9);
    }

    #[test]
    fn empty_minutes_are_materialized() {
        let mut c = MetricsCollector::new(base());
        c.on_arrival(t(0.0));
        c.on_arrival(t(300.0)); // minute 5
        let (minutes, _, _) = c.finish(t(301.0));
        assert_eq!(minutes.len(), 6);
        assert!(minutes[1..5].iter().all(|m| m.offered == 0));
        assert_eq!(minutes[5].offered, 1);
    }

    #[test]
    fn zero_division_guards() {
        let rec = MinuteRecord::default();
        assert_eq!(rec.effective_accuracy(), 0.0);
        assert_eq!(rec.relative_quality(), 0.0);
        assert_eq!(rec.violation_ratio(), 0.0);
        assert_eq!(rec.mean_retrieval_latency(), 0.0);
        let totals = RunTotals::default();
        assert_eq!(totals.slo_violation_ratio(), 0.0);
        assert_eq!(totals.mean_throughput_qpm(0.0), 0.0);
    }
}
