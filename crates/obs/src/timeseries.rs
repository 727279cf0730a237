//! Per-tick time-series: named counters, gauges and fixed-bound
//! histograms sampled every simulated minute into a bounded ring buffer.
//!
//! Determinism rules (DESIGN.md §12):
//!
//! * series are stored in **first-registration order** (`Vec`-backed, no
//!   hash iteration), and the driver registers every series up front, so
//!   every [`TickSample`] carries the same vector layout;
//! * histogram buckets have **fixed upper bounds** chosen at registration
//!   — merging histograms with different bounds is a programming error
//!   and panics;
//! * the ring buffer drops the **oldest** samples when full and counts
//!   the drops, so a truncated timeline is detectable, never silent.

/// A fixed-bound histogram: `bounds.len() + 1` buckets where bucket `i`
/// counts values `v <= bounds[i]` (boundary values land in the lower
/// bucket) and the last bucket is the `+Inf` overflow.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: &'static [f64],
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// An empty histogram over ascending `bounds`.
    ///
    /// # Panics
    /// Panics if `bounds` is empty or not strictly ascending.
    pub fn new(bounds: &'static [f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending: {bounds:?}"
        );
        Histogram {
            bounds,
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The bucket upper bounds (exclusive of the `+Inf` overflow bucket).
    pub fn bounds(&self) -> &'static [f64] {
        self.bounds
    }

    /// Per-bucket counts; `counts()[bounds().len()]` is the overflow.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest recorded value, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of recorded values, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.sum / self.count as f64)
    }

    /// Records one value. A value exactly equal to a bound lands in the
    /// bucket that bound closes (the lower one).
    pub fn record(&mut self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) estimated as the upper bound of
    /// the bucket holding the target rank; the overflow bucket reports
    /// the recorded maximum. Returns `None` on an empty histogram.
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 1]`.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    self.max
                });
            }
        }
        Some(self.max)
    }

    /// Adds `other`'s population into `self`. Merging is associative and
    /// commutative: bucket counts, totals and extrema all combine with
    /// associative operations.
    ///
    /// # Panics
    /// Panics if the two histograms have different bucket bounds.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histograms with different bounds"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
    }

    /// Resets the histogram to empty, keeping its bounds.
    pub fn reset(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.count = 0;
        self.sum = 0.0;
        self.min = f64::INFINITY;
        self.max = f64::NEG_INFINITY;
    }
}

/// One per-minute snapshot of every registered series.
///
/// Vector positions align with the name vectors on [`Timeline`]:
/// `counters[i]` is the series named `timeline.counter_names[i]`, and so
/// on.
#[derive(Debug, Clone, PartialEq)]
pub struct TickSample {
    /// Simulated minute index (0-based).
    pub minute: u32,
    /// Sim-time of the sample in microseconds.
    pub t_us: u64,
    /// Cumulative counter values, in registration order.
    pub counters: Vec<u64>,
    /// Instantaneous gauge values, in registration order.
    pub gauges: Vec<f64>,
    /// Per-tick histograms (reset after each sample), in registration
    /// order.
    pub hists: Vec<Histogram>,
}

/// The finished time-series: every surviving [`TickSample`] plus
/// whole-run cumulative histograms.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    /// Counter series names, in registration order.
    pub counter_names: Vec<&'static str>,
    /// Gauge series names, in registration order.
    pub gauge_names: Vec<&'static str>,
    /// Histogram series names, in registration order.
    pub hist_names: Vec<&'static str>,
    /// Per-minute samples, oldest first (after ring-buffer eviction).
    pub samples: Vec<TickSample>,
    /// Samples evicted by the ring buffer.
    pub dropped: u64,
    /// Whole-run cumulative histogram per `hist_names` entry.
    pub totals: Vec<Histogram>,
}

impl Timeline {
    /// The samples of the counter series named `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<Vec<u64>> {
        let i = self.counter_names.iter().position(|&n| n == name)?;
        Some(self.samples.iter().map(|s| s.counters[i]).collect())
    }

    /// The samples of the gauge series named `name`, if registered.
    pub fn gauge(&self, name: &str) -> Option<Vec<f64>> {
        let i = self.gauge_names.iter().position(|&n| n == name)?;
        Some(self.samples.iter().map(|s| s.gauges[i]).collect())
    }

    /// The whole-run cumulative histogram named `name`, if registered.
    pub fn total_hist(&self, name: &str) -> Option<&Histogram> {
        let i = self.hist_names.iter().position(|&n| n == name)?;
        Some(&self.totals[i])
    }
}

/// The live registry the driver writes into: named series plus the
/// sample ring buffer. Finished into a [`Timeline`] at teardown.
#[derive(Debug)]
pub struct Registry {
    counters: Vec<(&'static str, u64)>,
    gauges: Vec<(&'static str, f64)>,
    hists: Vec<(&'static str, Histogram)>,
    totals: Vec<Histogram>,
    samples: Vec<TickSample>,
    capacity: usize,
    dropped: u64,
}

impl Registry {
    /// An empty registry whose ring buffer holds `capacity` samples.
    pub fn new(capacity: usize) -> Self {
        Registry {
            counters: Vec::new(),
            gauges: Vec::new(),
            hists: Vec::new(),
            totals: Vec::new(),
            samples: Vec::new(),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    fn counter_idx(&mut self, name: &'static str) -> usize {
        match self.counters.iter().position(|&(n, _)| n == name) {
            Some(i) => i,
            None => {
                self.counters.push((name, 0));
                self.counters.len() - 1
            }
        }
    }

    fn gauge_idx(&mut self, name: &'static str) -> usize {
        match self.gauges.iter().position(|&(n, _)| n == name) {
            Some(i) => i,
            None => {
                self.gauges.push((name, 0.0));
                self.gauges.len() - 1
            }
        }
    }

    fn hist_idx(&mut self, name: &'static str, bounds: &'static [f64]) -> usize {
        match self.hists.iter().position(|&(n, _)| n == name) {
            Some(i) => i,
            None => {
                self.hists.push((name, Histogram::new(bounds)));
                self.totals.push(Histogram::new(bounds));
                self.hists.len() - 1
            }
        }
    }

    /// Sets the cumulative counter `name` to `v` (registering it on
    /// first use).
    pub fn counter_set(&mut self, name: &'static str, v: u64) {
        let i = self.counter_idx(name);
        self.counters[i].1 = v;
    }

    /// Sets the gauge `name` to `v`.
    pub fn gauge_set(&mut self, name: &'static str, v: f64) {
        let i = self.gauge_idx(name);
        self.gauges[i].1 = v;
    }

    /// Registers the histogram `name` with the given bounds without
    /// recording anything, so every tick sample carries the series from
    /// minute zero.
    pub fn hist_register(&mut self, name: &'static str, bounds: &'static [f64]) {
        self.hist_idx(name, bounds);
    }

    /// Records `v` into the histogram `name` with the given bounds
    /// (fixed at first use).
    pub fn hist_record(&mut self, name: &'static str, bounds: &'static [f64], v: f64) {
        let i = self.hist_idx(name, bounds);
        self.hists[i].1.record(v);
    }

    /// Takes the per-minute snapshot: pushes a [`TickSample`] into the
    /// ring buffer (evicting the oldest when full), folds the per-tick
    /// histograms into the cumulative totals, and resets them.
    pub fn sample(&mut self, minute: u32, t_us: u64) {
        let sample = TickSample {
            minute,
            t_us,
            counters: self.counters.iter().map(|&(_, v)| v).collect(),
            gauges: self.gauges.iter().map(|&(_, v)| v).collect(),
            hists: self.hists.iter().map(|(_, h)| h.clone()).collect(),
        };
        if self.samples.len() >= self.capacity {
            self.samples.remove(0);
            self.dropped += 1;
        }
        self.samples.push(sample);
        for ((_, h), total) in self.hists.iter_mut().zip(&mut self.totals) {
            total.merge(h);
            h.reset();
        }
    }

    /// Consumes the registry into its finished [`Timeline`], folding
    /// anything recorded after the last tick into the run totals so
    /// [`Timeline::totals`] covers the entire run.
    pub fn finish(mut self) -> Timeline {
        for ((_, h), total) in self.hists.iter_mut().zip(&mut self.totals) {
            total.merge(h);
        }
        Timeline {
            counter_names: self.counters.iter().map(|&(n, _)| n).collect(),
            gauge_names: self.gauges.iter().map(|&(n, _)| n).collect(),
            hist_names: self.hists.iter().map(|&(n, _)| n).collect(),
            samples: self.samples,
            dropped: self.dropped,
            totals: self.totals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOUNDS: &[f64] = &[1.0, 2.0, 4.0];

    #[test]
    fn boundary_values_land_in_the_lower_bucket() {
        let mut h = Histogram::new(BOUNDS);
        h.record(1.0); // exactly on a bound → bucket 0
        h.record(1.0000001); // just over → bucket 1
        h.record(2.0); // on the next bound → bucket 1
        h.record(4.0); // last finite bound → bucket 2
        h.record(4.1); // overflow
        assert_eq!(h.counts(), &[1, 2, 1, 1]);
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(4.1));
    }

    #[test]
    fn empty_histogram_percentiles_are_none() {
        let h = Histogram::new(BOUNDS);
        assert_eq!(h.percentile(0.0), None);
        assert_eq!(h.percentile(0.5), None);
        assert_eq!(h.percentile(1.0), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
    }

    #[test]
    fn percentiles_report_bucket_upper_bounds() {
        let mut h = Histogram::new(BOUNDS);
        for _ in 0..90 {
            h.record(0.5);
        }
        for _ in 0..10 {
            h.record(3.0);
        }
        assert_eq!(h.percentile(0.5), Some(1.0));
        assert_eq!(h.percentile(0.9), Some(1.0));
        assert_eq!(h.percentile(0.95), Some(4.0));
        // Overflow bucket reports the recorded maximum.
        h.record(100.0);
        assert_eq!(h.percentile(1.0), Some(100.0));
    }

    #[test]
    fn merge_is_associative() {
        let mk = |vals: &[f64]| {
            let mut h = Histogram::new(BOUNDS);
            vals.iter().for_each(|&v| h.record(v));
            h
        };
        let (a, b, c) = (mk(&[0.5, 3.0]), mk(&[1.0, 9.0]), mk(&[2.5]));
        // (a ⊔ b) ⊔ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ⊔ (b ⊔ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
        assert_eq!(left.count(), 5);
        assert_eq!(left.max(), Some(9.0));
        assert_eq!(left.min(), Some(0.5));
    }

    #[test]
    #[should_panic(expected = "different bounds")]
    fn merge_rejects_mismatched_bounds() {
        const OTHER: &[f64] = &[1.0, 3.0];
        let mut a = Histogram::new(BOUNDS);
        a.merge(&Histogram::new(OTHER));
    }

    #[test]
    fn registry_samples_align_and_ring_evicts_oldest() {
        let mut r = Registry::new(2);
        r.counter_set("arrivals", 0);
        r.gauge_set("backlog", 0.0);
        for minute in 0..4u32 {
            r.counter_set("arrivals", 10 * u64::from(minute + 1));
            r.gauge_set("backlog", minute as f64);
            r.hist_record("lat", BOUNDS, minute as f64);
            r.sample(minute, minute as u64 * 60_000_000);
        }
        let tl = r.finish();
        assert_eq!(tl.counter_names, vec!["arrivals"]);
        assert_eq!(tl.gauge_names, vec!["backlog"]);
        assert_eq!(tl.hist_names, vec!["lat"]);
        // Capacity 2: minutes 0 and 1 were evicted.
        assert_eq!(tl.dropped, 2);
        assert_eq!(tl.counter("arrivals"), Some(vec![30, 40]));
        assert_eq!(tl.gauge("backlog"), Some(vec![2.0, 3.0]));
        assert_eq!(tl.samples[0].minute, 2);
        // Per-tick histograms reset between samples but totals accumulate.
        assert_eq!(tl.samples[1].hists[0].count(), 1);
        assert_eq!(tl.total_hist("lat").unwrap().count(), 4);
        assert_eq!(tl.counter("missing"), None);
    }
}
