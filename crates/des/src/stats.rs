//! Online statistics used by the metrics pipeline.
//!
//! Everything here is allocation-light and deterministic: the end-to-end
//! experiments aggregate millions of samples per run.

use crate::{SimDuration, SimTime};

/// Computes the `q`-quantile (0 ≤ q ≤ 1) of a slice using linear
/// interpolation between closest ranks. Returns `None` for an empty slice.
///
/// The input is copied and sorted; intended for per-window summaries, not
/// hot paths.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    debug_assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    let mut v: Vec<f64> = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        Some(v[lo])
    } else {
        let frac = pos - lo as f64;
        Some(v[lo] * (1.0 - frac) + v[hi] * frac)
    }
}

/// Computes the median of a slice (`None` if empty).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// Simple-moving-average over the last `window` samples.
#[derive(Debug, Clone)]
pub struct MovingAverage {
    window: usize,
    buf: std::collections::VecDeque<f64>,
    sum: f64,
}

impl MovingAverage {
    /// Creates a moving average over `window` samples.
    ///
    /// # Panics
    /// Panics if `window == 0`.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        MovingAverage {
            window,
            buf: std::collections::VecDeque::with_capacity(window),
            sum: 0.0,
        }
    }

    /// Adds a sample, evicting the oldest if the window is full.
    pub fn push(&mut self, x: f64) {
        if self.buf.len() == self.window {
            self.sum -= self.buf.pop_front().unwrap_or(0.0);
        }
        self.buf.push_back(x);
        self.sum += x;
    }

    /// Current average (`None` if no samples yet).
    pub fn value(&self) -> Option<f64> {
        if self.buf.is_empty() {
            None
        } else {
            Some(self.sum / self.buf.len() as f64)
        }
    }

    /// Whether the window has filled at least once.
    pub fn is_saturated(&self) -> bool {
        self.buf.len() == self.window
    }

    /// Number of samples currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no samples are held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Counts events within a sliding window of simulated time, for rate
/// estimation (e.g. queries-per-minute observed by the allocator).
#[derive(Debug, Clone)]
pub struct WindowedRate {
    window: SimDuration,
    events: std::collections::VecDeque<SimTime>,
}

impl WindowedRate {
    /// Creates a counter with the given look-back window.
    pub fn new(window: SimDuration) -> Self {
        WindowedRate {
            window,
            events: std::collections::VecDeque::new(),
        }
    }

    /// Records an event at time `t` (must be non-decreasing across calls).
    pub fn record(&mut self, t: SimTime) {
        self.events.push_back(t);
        self.evict(t);
    }

    fn evict(&mut self, now: SimTime) {
        let cutoff = now - self.window;
        while let Some(&front) = self.events.front() {
            if front < cutoff {
                self.events.pop_front();
            } else {
                break;
            }
        }
    }

    /// Number of events within the window ending at `now`.
    pub fn count_at(&mut self, now: SimTime) -> usize {
        self.evict(now);
        self.events.len()
    }

    /// Event rate per minute over the window ending at `now`.
    pub fn per_minute(&mut self, now: SimTime) -> f64 {
        let count = self.count_at(now) as f64;
        let mins = self.window.as_minutes();
        if mins > 0.0 {
            count / mins
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(4.0));
        assert_eq!(percentile(&v, 0.5), Some(2.5));
        assert_eq!(median(&[5.0]), Some(5.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn moving_average_window() {
        let mut m = MovingAverage::new(3);
        assert_eq!(m.value(), None);
        assert!(m.is_empty());
        m.push(3.0);
        assert_eq!(m.value(), Some(3.0));
        m.push(6.0);
        m.push(9.0);
        assert!(m.is_saturated());
        assert_eq!(m.value(), Some(6.0));
        m.push(12.0); // evicts 3.0
        assert_eq!(m.value(), Some(9.0));
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn windowed_rate_counts_and_evicts() {
        let mut w = WindowedRate::new(SimDuration::from_minutes(1.0));
        for i in 0..30 {
            w.record(SimTime::from_secs(i as f64 * 2.0)); // 30 events over 58s
        }
        let now = SimTime::from_secs(59.0);
        assert_eq!(w.count_at(now), 30);
        assert!((w.per_minute(now) - 30.0).abs() < 1e-12);
        // One minute later everything has aged out.
        let later = SimTime::from_secs(130.0);
        assert_eq!(w.count_at(later), 0);
    }

    proptest! {
        #[test]
        fn prop_percentile_bounded(xs in proptest::collection::vec(-1e3f64..1e3, 1..100), q in 0.0f64..=1.0) {
            let p = percentile(&xs, q).unwrap();
            let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
        }
    }
}
