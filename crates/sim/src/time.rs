//! Simulated time.
//!
//! All simulation time is tracked in integer nanoseconds so that event
//! ordering is exact and runs are bit-for-bit reproducible. Floating point
//! enters only at the edges (converting modelled throughputs into durations),
//! and is rounded once, at construction.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An absolute point in simulated time, in nanoseconds since simulation start.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; useful as an "infinity" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Nanoseconds since simulation start.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Milliseconds since simulation start, as a float (for reporting only).
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Elapsed duration since `earlier`. Saturates at zero if `earlier` is
    /// in the future, which keeps callers panic-free on degenerate inputs.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Build from whole nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> SimDuration {
        SimDuration(ns)
    }

    /// Build from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> SimDuration {
        SimDuration(us * 1_000)
    }

    /// Build from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms * 1_000_000)
    }

    /// Build from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> SimDuration {
        SimDuration(s * 1_000_000_000)
    }

    /// Build from fractional seconds, rounding to the nearest nanosecond.
    /// Negative and NaN inputs clamp to zero; overflow clamps to `MAX`.
    #[inline]
    pub fn from_secs_f64(s: f64) -> SimDuration {
        if s.is_nan() || s <= 0.0 {
            return SimDuration::ZERO;
        }
        let ns = s * 1e9;
        if ns >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(ns.round() as u64)
        }
    }

    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    #[inline]
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// Scale by a non-negative float, rounding to the nearest nanosecond.
    #[inline]
    pub fn mul_f64(self, k: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * k)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::ZERO + SimDuration::from_millis(5);
        assert_eq!(t.as_nanos(), 5_000_000);
        assert_eq!(t - SimTime::ZERO, SimDuration::from_millis(5));
        assert_eq!(t.since(SimTime(7_000_000)), SimDuration::ZERO);
    }

    #[test]
    fn duration_from_secs_f64_rounds_and_clamps() {
        assert_eq!(SimDuration::from_secs_f64(1.5).as_nanos(), 1_500_000_000);
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::MAX);
        // 1 ns resolution
        assert_eq!(SimDuration::from_secs_f64(1e-9).as_nanos(), 1);
    }

    #[test]
    fn saturating_ops_do_not_wrap() {
        let big = SimTime(u64::MAX - 1);
        assert_eq!(big + SimDuration::from_secs(10), SimTime::MAX);
        assert_eq!(
            SimDuration(3).saturating_sub(SimDuration(5)),
            SimDuration::ZERO
        );
        assert_eq!(SimDuration(u64::MAX) * 2, SimDuration::MAX);
    }

    #[test]
    fn display_picks_sane_units() {
        assert_eq!(format!("{}", SimDuration::from_secs(2)), "2.000s");
        assert_eq!(format!("{}", SimDuration::from_millis(2)), "2.000ms");
        assert_eq!(format!("{}", SimDuration::from_nanos(42)), "42ns");
    }

    #[test]
    fn mul_f64_scales() {
        let d = SimDuration::from_millis(10).mul_f64(2.5);
        assert_eq!(d, SimDuration::from_millis(25));
    }

    #[test]
    fn min_max_behave() {
        let a = SimTime(5);
        let b = SimTime(9);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(SimDuration(5).max(SimDuration(9)), SimDuration(9));
        assert_eq!(SimDuration(5).min(SimDuration(9)), SimDuration(5));
    }
}
