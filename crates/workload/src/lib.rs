//! # argus-workload — arrival processes and trace generators
//!
//! The paper evaluates on four workload shapes (§5.1):
//!
//! 1. the public **Twitter** trace (Oct 2018) — diurnal pattern with
//!    unexpected spikes, used by Clipper/Proteus/INFaaS evaluations;
//! 2. a proprietary **SysX** text-to-image production trace — jittery, with
//!    high-load periods, min-max normalized to the Twitter range;
//! 3. a synthetic **bursty** workload — interleaved low/high demand with
//!    Poisson inter-arrivals;
//! 4. a **diagonal** stress ramp from light load to past cluster
//!    saturation (Fig. 17).
//!
//! The raw traces are not redistributable, so [`twitter_like`] and
//! [`sysx_like`] synthesize series with the same structure (diurnal
//! sinusoid + noise + spikes; jittery mean-reverting walk). Absolute rates
//! are normalized to this reproduction's cluster capacity — see
//! `EXPERIMENTS.md` for the mapping — preserving the relationships that
//! drive every result: peaks exceed the all-SD-XL capacity (Fig. 1) but
//! stay below the fully-approximated capacity, and the ramp crosses both.
//!
//! # Example
//!
//! ```
//! use argus_workload::{twitter_like, ArrivalProcess};
//! let trace = twitter_like(42, 800);
//! assert_eq!(trace.len_minutes(), 800);
//! let arrivals: Vec<_> = ArrivalProcess::new(&trace, 1).collect();
//! assert!(!arrivals.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use argus_des::rng::{exponential, normal};
use argus_des::SimTime;
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

/// A workload trace: target demand in queries-per-minute, per minute.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    minutes: Vec<f64>,
}

impl Trace {
    /// Builds a trace from per-minute QPM values. An empty vector is the
    /// valid zero-duration trace: it offers no load and a run over it
    /// terminates immediately.
    ///
    /// # Panics
    /// Panics if `minutes` contains negative/non-finite values.
    pub fn from_qpm(minutes: Vec<f64>) -> Self {
        assert!(
            minutes.iter().all(|q| q.is_finite() && *q >= 0.0),
            "QPM values must be finite and non-negative"
        );
        Trace { minutes }
    }

    /// Demand during minute `m` (clamped to the final minute beyond the
    /// end; zero for the zero-duration trace).
    pub fn qpm_at(&self, minute: usize) -> f64 {
        match self.minutes.len() {
            0 => 0.0,
            n => self.minutes[minute.min(n - 1)],
        }
    }

    /// Trace length in minutes.
    pub fn len_minutes(&self) -> usize {
        self.minutes.len()
    }

    /// The per-minute series.
    pub fn as_qpm(&self) -> &[f64] {
        &self.minutes
    }

    /// Peak demand (zero for the zero-duration trace).
    pub fn peak(&self) -> f64 {
        self.minutes.iter().cloned().fold(0.0, f64::max)
    }

    /// Minimum demand (zero for the zero-duration trace).
    pub fn trough(&self) -> f64 {
        if self.minutes.is_empty() {
            return 0.0;
        }
        self.minutes.iter().cloned().fold(f64::INFINITY, f64::min)
    }

    /// Mean demand (zero for the zero-duration trace).
    pub fn mean(&self) -> f64 {
        if self.minutes.is_empty() {
            return 0.0;
        }
        self.minutes.iter().sum::<f64>() / self.minutes.len() as f64
    }

    /// Total expected queries over the trace.
    pub fn total_queries(&self) -> f64 {
        self.minutes.iter().sum()
    }

    /// Min-max normalizes this trace onto `[lo, hi]` — the paper applies
    /// exactly this to anonymize the SysX trace ("we normalize it to the
    /// same min-max range as the Twitter trace", §5.1). A constant trace
    /// (zero range, including single-minute traces) maps to `lo`.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    pub fn normalize_to(&self, lo: f64, hi: f64) -> Trace {
        assert!(lo <= hi, "invalid normalization range");
        let min = self.trough();
        let max = self.peak();
        if max <= min {
            return Trace {
                minutes: vec![lo; self.minutes.len()],
            };
        }
        Trace {
            minutes: self
                .minutes
                .iter()
                .map(|q| lo + (q - min) / (max - min) * (hi - lo))
                .collect(),
        }
    }

    /// Scales all rates by a factor.
    ///
    /// # Panics
    /// Panics if `factor` is negative or non-finite.
    pub fn scale(&self, factor: f64) -> Trace {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "invalid scale {factor}"
        );
        Trace {
            minutes: self.minutes.iter().map(|q| q * factor).collect(),
        }
    }
}

/// Default Twitter-like trace bounds for this reproduction's 8×A100
/// cluster (all-SD-XL capacity ≈ 114 QPM, max-approximation capacity
/// ≈ 215 QPM): troughs are comfortably servable exactly, peaks are not
/// servable without approximation — the Fig. 1 motivation.
pub const TWITTER_TROUGH_QPM: f64 = 45.0;
/// See [`TWITTER_TROUGH_QPM`].
pub const TWITTER_PEAK_QPM: f64 = 190.0;

/// Synthesizes a Twitter-shaped trace: a diurnal sinusoid with autoregressive
/// noise plus a few sharp spikes ("diurnal patterns and unexpected spikes",
/// §5.1).
pub fn twitter_like(seed: u64, minutes: usize) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7477_6974);
    let mut noise = 0.0f64;
    let mut qpm = Vec::with_capacity(minutes);
    // Spikes: roughly one per 300 minutes, 20–45 minutes long.
    let mut spike_until = 0usize;
    let mut spike_boost = 0.0;
    for m in 0..minutes {
        let phase = m as f64 / 1440.0 * std::f64::consts::TAU;
        // Diurnal double-hump typical of social traffic.
        let diurnal = 0.55 + 0.35 * (phase - 0.8).sin() + 0.10 * (2.0 * phase).sin();
        noise = 0.92 * noise + normal(&mut rng, 0.0, 0.035);
        if m >= spike_until && exponential(&mut rng, 1.0 / 300.0) < 1.0 {
            spike_until = m + 20 + (normal(&mut rng, 12.0, 6.0).abs() as usize).min(25);
            spike_boost = 0.25 + 0.2 * normal(&mut rng, 0.0, 1.0).abs();
        }
        let spike = if m < spike_until { spike_boost } else { 0.0 };
        let level = (diurnal + noise + spike).clamp(0.0, 1.6);
        // Skew toward low load: production traffic spends most of its time
        // well below peak (Fig. 1), so peaks stress the cluster while the
        // aggregate stays serviceable.
        qpm.push(level.powf(2.2));
    }
    Trace::from_qpm(qpm).normalize_to(TWITTER_TROUGH_QPM, TWITTER_PEAK_QPM)
}

/// Synthesizes a SysX-shaped trace: a jittery mean-reverting walk with
/// frequent short fluctuations and sustained high-load windows, min-max
/// normalized to the Twitter range (§5.1).
pub fn sysx_like(seed: u64, minutes: usize) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7379_7378);
    let mut level = 0.5f64;
    let mut qpm = Vec::with_capacity(minutes);
    for m in 0..minutes {
        // Mean-reverting jitter with a slow sweep so the trace has distinct
        // moderate- and high-load eras.
        let target = 0.45 + 0.3 * (m as f64 / minutes as f64 * std::f64::consts::PI).sin();
        level += 0.18 * (target - level) + normal(&mut rng, 0.0, 0.09);
        level = level.clamp(0.05, 1.5);
        qpm.push(level);
    }
    Trace::from_qpm(qpm).normalize_to(TWITTER_TROUGH_QPM, TWITTER_PEAK_QPM)
}

/// Synthesizes a multi-day diurnal trace for scale-to-demand runs: `days`
/// consecutive [`twitter_like`] days (1440 minutes each, each day's
/// structure drawn from its own stream off `seed`) with seeded day-to-day
/// amplitude drift — a slow random walk in `[0.7, 1.3]` scaling each
/// day, so an elastic fleet sees busy days it must grow into and quiet
/// days it should shrink out of while the within-day diurnal shape stays
/// Twitter-like.
pub fn diurnal(seed: u64, days: usize) -> Trace {
    let mut amp_rng = StdRng::seed_from_u64(seed ^ 0x6469_7572); // "diur"
    let mut amp = 1.0f64;
    let mut qpm = Vec::with_capacity(days * 1440);
    for day in 0..days {
        let day_trace = twitter_like(seed ^ (day as u64).wrapping_mul(0x9E37_79B9), 1440);
        qpm.extend(day_trace.as_qpm().iter().map(|q| q * amp));
        amp = (amp + normal(&mut amp_rng, 0.0, 0.08)).clamp(0.7, 1.3);
    }
    Trace::from_qpm(qpm)
}

/// Synthesizes a seeded preemption-storm schedule: `⌈fraction ×
/// pool_size⌉` distinct workers of the pool `[pool_start, pool_start +
/// pool_size)`, chosen by seeded shuffle and spread evenly across
/// sub-minute instants within the single minute starting at `at_minute`
/// — the "lose a chunk of a spot pool in one minute" scenario. The
/// result feeds `argus_core::preemption_events` to become
/// warning-window preemption faults.
///
/// # Panics
/// Panics if `fraction` is outside `[0, 1]` or `at_minute` is negative.
pub fn preemption_storm(
    seed: u64,
    pool_start: usize,
    pool_size: usize,
    fraction: f64,
    at_minute: f64,
) -> Vec<(f64, Vec<usize>)> {
    assert!((0.0..=1.0).contains(&fraction), "invalid storm fraction");
    assert!(
        at_minute >= 0.0 && at_minute.is_finite(),
        "invalid storm minute"
    );
    let n = ((fraction * pool_size as f64).ceil() as usize).min(pool_size);
    if n == 0 {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5354_4F52); // "STOR"
                                                             // Fisher–Yates over the pool, then take the first `n`.
    let mut pool: Vec<usize> = (pool_start..pool_start + pool_size).collect();
    for i in (1..pool.len()).rev() {
        let j = rng.random_range(0..=(i as u64)) as usize;
        pool.swap(i, j);
    }
    pool.truncate(n);
    pool.iter()
        .enumerate()
        .map(|(i, &w)| (at_minute + i as f64 / n as f64, vec![w]))
        .collect()
}

/// Synthesizes the bursty workload: interleaved low/high plateaus with
/// noisy edges ("interleaved periods of low and high query demand", §5.1).
pub fn bursty(seed: u64, minutes: usize, low_qpm: f64, high_qpm: f64) -> Trace {
    assert!(low_qpm >= 0.0 && high_qpm >= low_qpm);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6275_7273);
    let mut qpm = Vec::with_capacity(minutes);
    let mut high = false;
    let mut until = 0usize;
    for m in 0..minutes {
        if m >= until {
            high = !high;
            // Plateaus of 40–120 minutes.
            until = m + 40 + (exponential(&mut rng, 1.0 / 40.0) as usize).min(80);
        }
        let base = if high { high_qpm } else { low_qpm };
        qpm.push((base + normal(&mut rng, 0.0, base * 0.05)).max(0.0));
    }
    Trace::from_qpm(qpm)
}

/// The diagonal stress ramp of Fig. 17: load increases linearly from
/// `start_qpm` to `end_qpm` over the trace.
pub fn diagonal(start_qpm: f64, end_qpm: f64, minutes: usize) -> Trace {
    assert!(start_qpm >= 0.0 && end_qpm >= 0.0);
    if minutes <= 1 {
        // Degenerate ramps: zero-duration, or a single minute at the start.
        return Trace::from_qpm(vec![start_qpm; minutes]);
    }
    let qpm = (0..minutes)
        .map(|m| start_qpm + (end_qpm - start_qpm) * m as f64 / (minutes - 1) as f64)
        .collect();
    Trace::from_qpm(qpm)
}

/// A constant-rate trace (baseline experiments and unit tests).
pub fn steady(qpm: f64, minutes: usize) -> Trace {
    Trace::from_qpm(vec![qpm; minutes])
}

/// Non-homogeneous Poisson arrival process over a trace: within each
/// minute, inter-arrival gaps are exponential at that minute's rate.
///
/// Iterating yields strictly increasing [`SimTime`] arrival instants until
/// the trace ends.
#[derive(Debug)]
pub struct ArrivalProcess {
    minutes: Vec<f64>,
    rng: StdRng,
    t_secs: f64,
    horizon_secs: f64,
}

impl ArrivalProcess {
    /// Creates the arrival process for `trace` with its own RNG stream.
    pub fn new(trace: &Trace, seed: u64) -> Self {
        ArrivalProcess {
            minutes: trace.as_qpm().to_vec(),
            rng: StdRng::seed_from_u64(seed ^ 0x6172_7276), // "arrv"
            t_secs: 0.0,
            horizon_secs: trace.len_minutes() as f64 * 60.0,
        }
    }
}

impl Iterator for ArrivalProcess {
    type Item = SimTime;

    fn next(&mut self) -> Option<SimTime> {
        loop {
            if self.t_secs >= self.horizon_secs {
                return None;
            }
            let minute = (self.t_secs / 60.0) as usize;
            let qpm = self.minutes[minute.min(self.minutes.len() - 1)];
            if qpm <= 0.0 {
                // Skip to the next minute boundary.
                self.t_secs = ((minute + 1) as f64) * 60.0;
                continue;
            }
            let rate_per_sec = qpm / 60.0;
            let gap = exponential(&mut self.rng, rate_per_sec);
            let candidate = self.t_secs + gap;
            let boundary = ((minute + 1) as f64) * 60.0;
            if candidate >= boundary {
                // Rate changes at the boundary: restart the clock there
                // (memorylessness makes this exact for piecewise-constant
                // rates).
                self.t_secs = boundary;
                continue;
            }
            self.t_secs = candidate;
            return Some(SimTime::from_secs(candidate));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_accessors() {
        let t = Trace::from_qpm(vec![10.0, 20.0, 30.0]);
        assert_eq!(t.len_minutes(), 3);
        assert_eq!(t.qpm_at(0), 10.0);
        assert_eq!(t.qpm_at(99), 30.0); // clamped past the end
        assert_eq!(t.peak(), 30.0);
        assert_eq!(t.trough(), 10.0);
        assert_eq!(t.mean(), 20.0);
        assert_eq!(t.total_queries(), 60.0);
    }

    #[test]
    fn empty_trace_is_valid_and_degenerate() {
        let t = Trace::from_qpm(vec![]);
        assert_eq!(t.len_minutes(), 0);
        assert_eq!(t.qpm_at(0), 0.0);
        assert_eq!(t.qpm_at(99), 0.0);
        assert_eq!(t.peak(), 0.0);
        assert_eq!(t.trough(), 0.0);
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.total_queries(), 0.0);
        assert_eq!(t.normalize_to(45.0, 190.0).len_minutes(), 0);
        assert_eq!(ArrivalProcess::new(&t, 1).count(), 0);
    }

    #[test]
    fn zero_duration_generators_do_not_panic() {
        assert_eq!(twitter_like(1, 0).len_minutes(), 0);
        assert_eq!(sysx_like(1, 0).len_minutes(), 0);
        assert_eq!(bursty(1, 0, 10.0, 20.0).len_minutes(), 0);
        assert_eq!(diagonal(10.0, 20.0, 0).len_minutes(), 0);
        assert_eq!(steady(10.0, 0).len_minutes(), 0);
    }

    #[test]
    fn single_minute_generators_do_not_panic() {
        // Single-minute traces make min-max normalization degenerate
        // (constant range); the generators map that case to the trough.
        assert_eq!(twitter_like(1, 1).as_qpm(), &[TWITTER_TROUGH_QPM]);
        assert_eq!(sysx_like(1, 1).as_qpm(), &[TWITTER_TROUGH_QPM]);
        assert_eq!(bursty(1, 1, 10.0, 20.0).len_minutes(), 1);
        assert_eq!(diagonal(10.0, 20.0, 1).as_qpm(), &[10.0]);
        assert_eq!(steady(10.0, 1).as_qpm(), &[10.0]);
    }

    #[test]
    fn zero_rate_trace_offers_nothing() {
        let t = steady(0.0, 5);
        assert_eq!(t.total_queries(), 0.0);
        assert_eq!(ArrivalProcess::new(&t, 1).count(), 0);
        let b = bursty(2, 5, 0.0, 0.0);
        assert_eq!(ArrivalProcess::new(&b, 1).count(), 0);
    }

    #[test]
    fn single_request_trace_arrivals() {
        // One QPM for one minute: a handful of arrivals at most, all
        // inside the trace horizon.
        let t = steady(1.0, 1);
        let times: Vec<SimTime> = ArrivalProcess::new(&t, 7).collect();
        assert!(
            times.len() <= 6,
            "unexpectedly many arrivals: {}",
            times.len()
        );
        for at in &times {
            assert!(at.as_minutes() < 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_qpm_rejected() {
        let _ = Trace::from_qpm(vec![5.0, -1.0]);
    }

    #[test]
    fn normalization_hits_target_range() {
        let t = Trace::from_qpm(vec![2.0, 4.0, 10.0]).normalize_to(45.0, 190.0);
        assert!((t.trough() - 45.0).abs() < 1e-9);
        assert!((t.peak() - 190.0).abs() < 1e-9);
    }

    #[test]
    fn twitter_trace_shape() {
        let t = twitter_like(1, 800);
        assert_eq!(t.len_minutes(), 800);
        assert!((t.peak() - TWITTER_PEAK_QPM).abs() < 1e-9);
        assert!((t.trough() - TWITTER_TROUGH_QPM).abs() < 1e-9);
        // Determinism.
        assert_eq!(t, twitter_like(1, 800));
        assert_ne!(t, twitter_like(2, 800));
        // Peak exceeds the 8×SD-XL capacity (Fig. 1's point).
        assert!(t.peak() > 114.3);
    }

    #[test]
    fn sysx_trace_is_jittery() {
        let t = sysx_like(3, 800);
        // Count direction changes; SysX should fluctuate far more often
        // than the smooth diurnal trace.
        let flips = |tr: &Trace| {
            tr.as_qpm()
                .windows(3)
                .filter(|w| (w[1] - w[0]).signum() != (w[2] - w[1]).signum())
                .count()
        };
        assert!(flips(&t) > 250, "flips {}", flips(&t));
        assert!((t.peak() - TWITTER_PEAK_QPM).abs() < 1e-9);
    }

    #[test]
    fn bursty_has_two_plateaus() {
        let t = bursty(5, 600, 60.0, 200.0);
        let lows = t.as_qpm().iter().filter(|&&q| q < 100.0).count();
        let highs = t.as_qpm().iter().filter(|&&q| q > 160.0).count();
        assert!(lows > 100, "lows {lows}");
        assert!(highs > 100, "highs {highs}");
        // Nothing far outside the plateau bands.
        assert!(t.peak() < 260.0);
    }

    #[test]
    fn diagonal_is_monotone() {
        let t = diagonal(40.0, 300.0, 800);
        assert_eq!(t.qpm_at(0), 40.0);
        assert!((t.qpm_at(799) - 300.0).abs() < 1e-9);
        assert!(t.as_qpm().windows(2).all(|w| w[1] >= w[0]));
    }

    #[test]
    fn steady_is_flat() {
        let t = steady(100.0, 10);
        assert_eq!(t.peak(), 100.0);
        assert_eq!(t.trough(), 100.0);
    }

    #[test]
    fn diurnal_trace_length_and_peaks() {
        let t = diurnal(11, 3);
        assert_eq!(t.len_minutes(), 3 * 1440);
        // Each day keeps the Twitter-like shape scaled by its amplitude:
        // every per-day peak lands within the drift band around the
        // Twitter peak.
        for day in 0..3 {
            let day_peak = t.as_qpm()[day * 1440..(day + 1) * 1440]
                .iter()
                .cloned()
                .fold(0.0, f64::max);
            assert!(
                (TWITTER_PEAK_QPM * 0.7..=TWITTER_PEAK_QPM * 1.3).contains(&day_peak),
                "day {day} peak {day_peak}"
            );
        }
        // Days differ from each other (independent structure streams).
        assert_ne!(t.as_qpm()[..1440], t.as_qpm()[1440..2880]);
    }

    #[test]
    fn diurnal_is_deterministic() {
        assert_eq!(diurnal(5, 2), diurnal(5, 2));
        assert_ne!(diurnal(5, 2), diurnal(6, 2));
        assert_eq!(diurnal(5, 0).len_minutes(), 0);
    }

    #[test]
    fn preemption_storm_picks_distinct_workers_in_one_minute() {
        let storm = preemption_storm(9, 8, 10, 0.3, 5.0);
        assert_eq!(storm.len(), 3); // ⌈0.3 × 10⌉
        let mut seen: Vec<usize> = storm.iter().flat_map(|(_, ws)| ws.clone()).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 3, "workers must be distinct");
        for (minute, ws) in &storm {
            assert!((5.0..6.0).contains(minute), "instant {minute}");
            assert!(ws.iter().all(|&w| (8..18).contains(&w)));
        }
        // Determinism + seed sensitivity.
        assert_eq!(storm, preemption_storm(9, 8, 10, 0.3, 5.0));
        assert_ne!(storm, preemption_storm(10, 8, 10, 0.3, 5.0));
        // Degenerate cases.
        assert!(preemption_storm(1, 0, 10, 0.0, 5.0).is_empty());
        assert_eq!(preemption_storm(1, 0, 4, 1.0, 0.0).len(), 4);
    }

    #[test]
    fn arrivals_are_strictly_increasing_and_bounded() {
        let trace = steady(120.0, 30);
        let times: Vec<SimTime> = ArrivalProcess::new(&trace, 1).collect();
        assert!(times.windows(2).all(|w| w[1] > w[0]));
        assert!(times.last().unwrap().as_minutes() <= 30.0);
    }

    #[test]
    fn arrival_count_matches_rate() {
        let trace = steady(120.0, 60); // expect 7200 arrivals
        let n = ArrivalProcess::new(&trace, 2).count() as f64;
        assert!((n - 7200.0).abs() < 3.0 * 7200.0f64.sqrt(), "n = {n}");
    }

    #[test]
    fn zero_rate_minutes_produce_no_arrivals() {
        let trace = Trace::from_qpm(vec![0.0, 60.0, 0.0]);
        let times: Vec<SimTime> = ArrivalProcess::new(&trace, 3).collect();
        assert!(!times.is_empty());
        for t in &times {
            let m = t.as_minutes();
            assert!((1.0..2.0).contains(&m), "arrival at minute {m}");
        }
    }

    #[test]
    fn arrival_process_is_deterministic() {
        let trace = twitter_like(7, 50);
        let a: Vec<SimTime> = ArrivalProcess::new(&trace, 9).collect();
        let b: Vec<SimTime> = ArrivalProcess::new(&trace, 9).collect();
        assert_eq!(a, b);
        let c: Vec<SimTime> = ArrivalProcess::new(&trace, 10).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn nonhomogeneous_rates_are_respected() {
        let trace = Trace::from_qpm(vec![30.0; 30].into_iter().chain(vec![240.0; 30]).collect());
        let times: Vec<SimTime> = ArrivalProcess::new(&trace, 4).collect();
        let first_half = times.iter().filter(|t| t.as_minutes() < 30.0).count() as f64;
        let second_half = times.len() as f64 - first_half;
        let ratio = second_half / first_half.max(1.0);
        assert!((ratio - 8.0).abs() < 2.5, "ratio {ratio}");
    }
}
