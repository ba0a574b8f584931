//! Virtual time.
//!
//! The simulation clock is a `u64` count of nanoseconds since the start of
//! the run. One nanosecond of resolution comfortably represents every
//! constant the RMAC paper uses (slot times of 20 µs, propagation delays of
//! hundreds of nanoseconds) while still covering > 500 years of simulated
//! time without overflow.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in (or duration of) virtual time, in nanoseconds.
///
/// `SimTime` is deliberately a single type for both instants and durations:
/// MAC-layer protocol descriptions constantly mix the two ("set a timer of
/// 2τ + λ at the end of the frame"), and a distinct duration type buys
/// little safety at the cost of ceremony in the protocol state machines.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero — the start of every simulation run.
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable time; used as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// One nanosecond.
    pub const NANO: SimTime = SimTime(1);
    /// One microsecond.
    pub const MICRO: SimTime = SimTime(1_000);
    /// One millisecond.
    pub const MILLI: SimTime = SimTime(1_000_000);
    /// One second.
    pub const SEC: SimTime = SimTime(1_000_000_000);

    /// Construct from whole nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Construct from fractional seconds, rounding to the nearest nanosecond.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0, "negative time");
        SimTime((s * 1e9).round() as u64)
    }

    /// The raw nanosecond count.
    #[inline]
    pub const fn nanos(self) -> u64 {
        self.0
    }

    /// This time expressed in (possibly fractional) microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This time expressed in (possibly fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating addition: clamps at [`SimTime::MAX`].
    #[inline]
    pub fn saturating_add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction: `a.saturating_sub(b)` is zero when `b > a`.
    #[inline]
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Checked subtraction.
    #[inline]
    pub fn checked_sub(self, rhs: SimTime) -> Option<SimTime> {
        self.0.checked_sub(rhs.0).map(SimTime)
    }

    /// Checked addition: `None` past [`SimTime::MAX`].
    #[inline]
    pub fn checked_add(self, rhs: SimTime) -> Option<SimTime> {
        self.0.checked_add(rhs.0).map(SimTime)
    }

    /// Checked [`SimTime::mul`]: `None` past [`SimTime::MAX`].
    #[inline]
    pub fn checked_mul(self, k: u64) -> Option<SimTime> {
        self.0.checked_mul(k).map(SimTime)
    }

    /// Multiply a duration by an integer factor (e.g. `i × l_abt` when
    /// computing the i-th ABT reply slot).
    #[inline]
    pub const fn mul(self, k: u64) -> SimTime {
        SimTime(self.0 * k)
    }

    /// The larger of two times.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The smaller of two times.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns == 0 {
            write!(f, "0s")
        } else if ns.is_multiple_of(1_000_000_000) {
            write!(f, "{}s", ns / 1_000_000_000)
        } else if ns.is_multiple_of(1_000_000) {
            write!(f, "{}ms", ns / 1_000_000)
        } else if ns.is_multiple_of(1_000) {
            write!(f, "{}us", ns / 1_000)
        } else {
            write!(f, "{}ns", ns)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_micros(1), SimTime::MICRO);
        assert_eq!(SimTime::from_millis(1), SimTime::MILLI);
        assert_eq!(SimTime::from_secs(1), SimTime::SEC);
        assert_eq!(SimTime::from_secs(2).nanos(), 2_000_000_000);
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(SimTime::from_secs_f64(0.5), SimTime::from_millis(500));
        assert_eq!(SimTime::from_secs_f64(1e-9), SimTime::NANO);
        // 1/3 of a second rounds to the nearest nanosecond.
        assert_eq!(SimTime::from_secs_f64(1.0 / 3.0).nanos(), 333_333_333);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_micros(17);
        let b = SimTime::from_micros(20);
        assert_eq!(a + b, SimTime::from_micros(37));
        assert_eq!(b - a, SimTime::from_micros(3));
        assert_eq!(a.saturating_sub(b), SimTime::ZERO);
        assert_eq!(a.checked_sub(b), None);
        assert_eq!(b.checked_sub(a), Some(SimTime::from_micros(3)));
        assert_eq!(a.mul(3), SimTime::from_micros(51));
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn display_picks_coarsest_unit() {
        assert_eq!(SimTime::ZERO.to_string(), "0s");
        assert_eq!(SimTime::from_secs(3).to_string(), "3s");
        assert_eq!(SimTime::from_millis(20).to_string(), "20ms");
        assert_eq!(SimTime::from_micros(17).to_string(), "17us");
        assert_eq!(SimTime::from_nanos(250).to_string(), "250ns");
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(SimTime::from_nanos(999) < SimTime::MICRO);
        assert!(SimTime::MAX > SimTime::from_secs(1_000_000));
    }

    #[test]
    fn seconds_roundtrip() {
        let t = SimTime::from_millis(1234);
        assert!((t.as_secs_f64() - 1.234).abs() < 1e-12);
        assert!((t.as_micros_f64() - 1_234_000.0).abs() < 1e-9);
    }
}
