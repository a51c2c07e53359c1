//! Simulated time.
//!
//! The whole workspace runs on a deterministic discrete-event clock. Time is
//! a `u64` count of nanoseconds since simulation start, wrapped in the
//! [`SimTime`] newtype. `SimTime` doubles as a duration: the arithmetic
//! operators are defined so that `instant + duration` and
//! `instant - instant` both work naturally.

use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A point in simulated time (or a duration), in nanoseconds.
///
/// # Examples
///
/// ```
/// use spider_types::SimTime;
///
/// let rtt = SimTime::from_millis(72);
/// assert_eq!(rtt.as_micros(), 72_000);
/// assert_eq!(rtt / 2, SimTime::from_millis(36));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

impl SimTime {
    /// The zero instant (simulation start) / the zero duration.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable time; used as "never" for timers.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> SimTime {
        SimTime(ns)
    }

    /// Creates a time from microseconds.
    pub const fn from_micros(us: u64) -> SimTime {
        SimTime(us * 1_000)
    }

    /// Creates a time from milliseconds.
    pub const fn from_millis(ms: u64) -> SimTime {
        SimTime(ms * 1_000_000)
    }

    /// Creates a time from whole seconds.
    pub const fn from_secs(s: u64) -> SimTime {
        SimTime(s * 1_000_000_000)
    }

    /// Creates a time from floating-point seconds (rounds to nanoseconds).
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> SimTime {
        assert!(s.is_finite() && s >= 0.0, "invalid duration: {s}");
        SimTime((s * 1e9).round() as u64)
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Milliseconds as a float, for reporting latencies.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction; useful when computing elapsed times that may
    /// be negative due to clamping.
    #[must_use]
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition, `None` on overflow.
    #[must_use]
    pub fn checked_add(self, rhs: SimTime) -> Option<SimTime> {
        self.0.checked_add(rhs.0).map(SimTime)
    }

    /// Returns the larger of two times.
    #[must_use]
    pub fn max(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.max(rhs.0))
    }

    /// Returns the smaller of two times.
    #[must_use]
    pub fn min(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.min(rhs.0))
    }

    /// Scales a duration by a float factor (rounds to nanoseconds).
    #[must_use]
    pub fn mul_f64(self, factor: f64) -> SimTime {
        SimTime((self.0 as f64 * factor).round() as u64)
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl std::ops::Mul<u64> for SimTime {
    type Output = SimTime;
    fn mul(self, factor: u64) -> SimTime {
        SimTime(self.0 * factor)
    }
}

impl std::ops::Div<u64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}us", self.as_micros())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_are_consistent() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1000));
        assert_eq!(SimTime::from_secs_f64(0.0015), SimTime::from_micros(1500));
    }

    #[test]
    fn arithmetic_behaves_like_integers() {
        let a = SimTime::from_millis(5);
        let b = SimTime::from_millis(3);
        assert_eq!(a + b, SimTime::from_millis(8));
        assert_eq!(a - b, SimTime::from_millis(2));
        assert_eq!(a / 5, SimTime::from_millis(1));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!((a * 3), SimTime::from_millis(15));
        assert_eq!(a.mul_f64(0.5), SimTime::from_micros(2500));
    }

    #[test]
    fn min_max_pick_correct_operand() {
        let a = SimTime::from_millis(5);
        let b = SimTime::from_millis(3);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn display_picks_sensible_unit() {
        assert_eq!(SimTime::from_micros(12).to_string(), "12us");
        assert_eq!(SimTime::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimTime::from_secs(2).to_string(), "2.000s");
    }

    #[test]
    fn float_reporting_matches_integer_values() {
        let t = SimTime::from_micros(1_234_567);
        assert!((t.as_millis_f64() - 1234.567).abs() < 1e-9);
        assert!((t.as_secs_f64() - 1.234567).abs() < 1e-12);
    }
}
