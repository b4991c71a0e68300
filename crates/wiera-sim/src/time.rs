//! Modeled-time primitives.
//!
//! All latencies reported by the reproduction are *modeled* durations: the
//! network fabric and storage-tier models return `SimDuration`s which are
//! accumulated along each request's critical path. Keeping modeled time as a
//! distinct type (microsecond-resolution `u64`s) prevents it from being
//! accidentally mixed with `std::time` wall-clock values.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A span of modeled time with microsecond resolution.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }
    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * 60_000_000)
    }
    pub const fn from_hours(h: u64) -> Self {
        SimDuration(h * 3_600_000_000)
    }
    /// Build from fractional milliseconds (e.g. a sampled latency).
    pub fn from_millis_f64(ms: f64) -> Self {
        SimDuration((ms.max(0.0) * 1_000.0).round() as u64)
    }
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration((s.max(0.0) * 1_000_000.0).round() as u64)
    }

    pub const fn as_micros(self) -> u64 {
        self.0
    }
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Convert to a wall-clock duration under a time-compression factor.
    /// `scale == 50.0` means modeled time passes 50x faster than wall time.
    pub fn to_wall(self, scale: f64) -> std::time::Duration {
        std::time::Duration::from_secs_f64(self.as_secs_f64() / scale.max(1e-9))
    }

    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: Self) -> Self {
        SimDuration(self.0 + rhs.0)
    }
}
impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}
impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: Self) -> Self {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}
impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: Self) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}
impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> Self {
        SimDuration(self.0 * rhs)
    }
}
impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> Self {
        SimDuration((self.0 as f64 * rhs).round() as u64)
    }
}
impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> Self {
        SimDuration(self.0 / rhs.max(1))
    }
}
impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let us = self.0;
        if us >= 60_000_000 {
            write!(f, "{:.1}min", us as f64 / 60_000_000.0)
        } else if us >= 1_000_000 {
            write!(f, "{:.2}s", us as f64 / 1_000_000.0)
        } else if us >= 1_000 {
            write!(f, "{:.2}ms", us as f64 / 1_000.0)
        } else {
            write!(f, "{us}us")
        }
    }
}

/// A point on the modeled-time axis (microseconds since experiment start).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimInstant(u64);

impl SimInstant {
    pub const EPOCH: SimInstant = SimInstant(0);

    pub const fn from_micros(us: u64) -> Self {
        SimInstant(us)
    }
    pub const fn as_micros(self) -> u64 {
        self.0
    }
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    pub fn elapsed_since(self, earlier: SimInstant) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl Add<SimDuration> for SimInstant {
    type Output = SimInstant;
    fn add(self, rhs: SimDuration) -> SimInstant {
        SimInstant(self.0 + rhs.as_micros())
    }
}
impl AddAssign<SimDuration> for SimInstant {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.as_micros();
    }
}
impl Sub<SimDuration> for SimInstant {
    type Output = SimInstant;
    fn sub(self, rhs: SimDuration) -> SimInstant {
        SimInstant(self.0.saturating_sub(rhs.as_micros()))
    }
}
impl Sub<SimInstant> for SimInstant {
    type Output = SimDuration;
    fn sub(self, rhs: SimInstant) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1_000));
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1_000));
        assert_eq!(SimDuration::from_mins(1), SimDuration::from_secs(60));
        assert_eq!(SimDuration::from_hours(1), SimDuration::from_mins(60));
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_millis(10);
        let b = SimDuration::from_millis(4);
        assert_eq!((a + b).as_micros(), 14_000);
        assert_eq!((a - b).as_micros(), 6_000);
        assert_eq!((b - a), SimDuration::ZERO, "sub saturates");
        assert_eq!((a * 3).as_micros(), 30_000);
        assert_eq!((a / 2).as_micros(), 5_000);
        assert_eq!((a * 1.5).as_micros(), 15_000);
    }

    #[test]
    fn duration_from_f64_rounds_and_clamps() {
        assert_eq!(SimDuration::from_millis_f64(0.5).as_micros(), 500);
        assert_eq!(SimDuration::from_millis_f64(-3.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(1.5).as_micros(), 1_500_000);
    }

    #[test]
    fn instant_arithmetic() {
        let t0 = SimInstant::EPOCH;
        let t1 = t0 + SimDuration::from_secs(2);
        assert_eq!(t1.elapsed_since(t0), SimDuration::from_secs(2));
        assert_eq!(t1 - t0, SimDuration::from_secs(2));
        assert_eq!(t0 - t1, SimDuration::ZERO, "instant sub saturates");
        assert_eq!(
            t1 - SimDuration::from_secs(1),
            t0 + SimDuration::from_secs(1)
        );
    }

    #[test]
    fn wall_conversion_applies_scale() {
        let d = SimDuration::from_secs(10);
        assert_eq!(d.to_wall(10.0), std::time::Duration::from_secs(1));
        assert_eq!(d.to_wall(1.0), std::time::Duration::from_secs(10));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimDuration::from_micros(5).to_string(), "5us");
        assert_eq!(SimDuration::from_millis(5).to_string(), "5.00ms");
        assert_eq!(SimDuration::from_secs(5).to_string(), "5.00s");
        assert_eq!(SimDuration::from_mins(2).to_string(), "2.0min");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_millis).sum();
        assert_eq!(total, SimDuration::from_millis(10));
    }
}
