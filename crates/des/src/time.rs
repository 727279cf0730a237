//! Virtual time for the discrete-event simulation.
//!
//! Time is stored as integer microseconds so that event ordering is exact
//! and runs are reproducible bit-for-bit across platforms (no floating-point
//! accumulation drift in the clock itself).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the simulation clock, in microseconds since the
/// start of the simulation.
///
/// `SimTime` is a transparent newtype over `u64`; construct it with
/// [`SimTime::from_secs`], [`SimTime::from_millis`], [`SimTime::from_micros`]
/// or [`SimTime::from_minutes`].
///
/// # Example
///
/// ```
/// use argus_des::{SimTime, SimDuration};
/// let t = SimTime::from_secs(2.5) + SimDuration::from_millis(500.0);
/// assert_eq!(t, SimTime::from_secs(3.0));
/// assert_eq!(t.as_secs(), 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in microseconds.
///
/// The arithmetic mirrors `std::time::Duration` where it makes sense:
/// durations add, subtract (saturating), scale by `f64` and divide into
/// ratios.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

const MICROS_PER_SEC: f64 = 1_000_000.0;

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; useful as an "infinity" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from integer microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Creates an instant from (possibly fractional) milliseconds.
    ///
    /// # Panics
    /// Panics in debug builds if `ms` is negative or non-finite.
    pub fn from_millis(ms: f64) -> Self {
        debug_assert!(ms.is_finite() && ms >= 0.0, "invalid millis: {ms}");
        SimTime((ms * 1_000.0).round() as u64)
    }

    /// Creates an instant from (possibly fractional) seconds.
    pub fn from_secs(secs: f64) -> Self {
        debug_assert!(secs.is_finite() && secs >= 0.0, "invalid secs: {secs}");
        SimTime((secs * MICROS_PER_SEC).round() as u64)
    }

    /// Creates an instant from (possibly fractional) minutes.
    pub fn from_minutes(min: f64) -> Self {
        SimTime::from_secs(min * 60.0)
    }

    /// This instant as integer microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This instant as fractional seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC
    }

    /// This instant as fractional minutes.
    pub fn as_minutes(self) -> f64 {
        self.as_secs() / 60.0
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// A zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a span from integer microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Creates a span from (possibly fractional) milliseconds.
    pub fn from_millis(ms: f64) -> Self {
        debug_assert!(ms.is_finite() && ms >= 0.0, "invalid millis: {ms}");
        SimDuration((ms * 1_000.0).round() as u64)
    }

    /// Creates a span from (possibly fractional) seconds.
    pub fn from_secs(secs: f64) -> Self {
        debug_assert!(secs.is_finite() && secs >= 0.0, "invalid secs: {secs}");
        SimDuration((secs * MICROS_PER_SEC).round() as u64)
    }

    /// Creates a span from (possibly fractional) minutes.
    pub fn from_minutes(min: f64) -> Self {
        SimDuration::from_secs(min * 60.0)
    }

    /// This span as integer microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This span as fractional seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC
    }

    /// This span as fractional minutes.
    pub fn as_minutes(self) -> f64 {
        self.as_secs() / 60.0
    }

    /// Whether this span is exactly zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// The larger of two spans.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// The smaller of two spans.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// The (saturating) span from `rhs` to `self`.
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        debug_assert!(rhs.is_finite() && rhs >= 0.0, "invalid scale: {rhs}");
        SimDuration((self.0 as f64 * rhs).round() as u64)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = f64;
    /// Ratio of two spans. Returns `f64::INFINITY` if `rhs` is zero and
    /// `self` is not, and `0.0` if both are zero.
    fn div(self, rhs: SimDuration) -> f64 {
        if rhs.0 == 0 {
            if self.0 == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.0 as f64 / rhs.0 as f64
        }
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_secs(1.0).as_micros(), 1_000_000);
        assert_eq!(SimTime::from_millis(1.5).as_micros(), 1_500);
        assert_eq!(SimTime::from_minutes(2.0).as_secs(), 120.0);
        assert_eq!(SimDuration::from_secs(0.25).as_micros(), 250_000);
        assert_eq!(SimDuration::from_minutes(1.0).as_minutes(), 1.0);
    }

    #[test]
    fn arithmetic_behaves() {
        let t = SimTime::from_secs(10.0);
        let d = SimDuration::from_secs(4.0);
        assert_eq!(t + d, SimTime::from_secs(14.0));
        assert_eq!(t - d, SimTime::from_secs(6.0));
        assert_eq!(t - SimTime::from_secs(4.0), SimDuration::from_secs(6.0));
        assert_eq!(d + d, SimDuration::from_secs(8.0));
        assert_eq!(d - SimDuration::from_secs(1.0), SimDuration::from_secs(3.0));
        assert_eq!(d * 2.5, SimDuration::from_secs(10.0));
        assert!((d / SimDuration::from_secs(2.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn subtraction_saturates() {
        let early = SimTime::from_secs(1.0);
        let late = SimTime::from_secs(5.0);
        assert_eq!(early - late, SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_secs(1.0).saturating_sub(SimDuration::from_secs(2.0)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn division_edge_cases() {
        assert_eq!(SimDuration::ZERO / SimDuration::ZERO, 0.0);
        assert_eq!(
            SimDuration::from_secs(1.0) / SimDuration::ZERO,
            f64::INFINITY
        );
    }

    #[test]
    fn ordering_and_extremes() {
        assert!(SimTime::from_secs(1.0) < SimTime::from_secs(2.0));
        assert_eq!(
            SimTime::ZERO.max(SimTime::from_secs(1.0)),
            SimTime::from_secs(1.0)
        );
        assert_eq!(
            SimTime::MAX.min(SimTime::from_secs(1.0)),
            SimTime::from_secs(1.0)
        );
        assert_eq!(
            SimDuration::from_secs(3.0).max(SimDuration::from_secs(2.0)),
            SimDuration::from_secs(3.0)
        );
        assert_eq!(
            SimDuration::from_secs(3.0).min(SimDuration::from_secs(2.0)),
            SimDuration::from_secs(2.0)
        );
        // MAX + anything saturates instead of wrapping.
        assert_eq!(SimTime::MAX + SimDuration::from_secs(1.0), SimTime::MAX);
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(format!("{}", SimTime::from_secs(1.5)), "1.500s");
        assert_eq!(format!("{}", SimDuration::from_millis(250.0)), "0.250s");
    }
}
