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
//!
//! This module holds the result types and [`SLO_MULTIPLIER`]; the run's
//! metrics stage (`actors::metrics`) is the one ledger that fills them,
//! judging each completion against the SLO once.

use argus_models::{ApproxLevel, GpuArch};

/// The latency SLO multiplier over the largest model's inference time
/// (§5.1, following Proteus).
pub const SLO_MULTIPLIER: f64 = 3.0;

/// `num / den`, or 0 when `den` is 0 (nothing to average over).
fn ratio(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

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
        ratio(self.quality_sum, self.in_slo)
    }

    /// Mean relative quality (score / prompt's best score) of in-SLO
    /// completions, in `[0, ~1]`.
    pub fn relative_quality(&self) -> f64 {
        ratio(self.relative_quality_sum, self.in_slo)
    }

    /// Violations over offered queries this minute.
    pub fn violation_ratio(&self) -> f64 {
        ratio(self.violations as f64, self.offered)
    }

    /// Mean retrieval latency in seconds.
    pub fn mean_retrieval_latency(&self) -> f64 {
        ratio(self.retrieval_latency_sum, self.retrievals)
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
        ratio(self.quality_sum, self.in_slo)
    }

    /// Mean relative quality over in-SLO completions.
    pub fn relative_quality(&self) -> f64 {
        ratio(self.relative_quality_sum, self.in_slo)
    }

    /// Fraction of offered queries that violated the SLO.
    pub fn slo_violation_ratio(&self) -> f64 {
        ratio(self.violations as f64, self.offered)
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
        ratio(self.violations as f64, self.completions)
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
        ratio(
            self.hits() as f64,
            self.hits() + self.misses() + self.failures(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
