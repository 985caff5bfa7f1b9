//! Simulation time as integer nanoseconds.
//!
//! A discrete-event simulator must order events totally and reproducibly.
//! Floating-point timestamps accumulate rounding that makes event order
//! depend on the history of arithmetic; integer nanoseconds do not. One
//! `u64` of nanoseconds covers ~584 years of simulated time, far beyond any
//! LEO experiment.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in simulated time, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch, t = 0.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant (used as an "infinitely far" sentinel).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }
    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }
    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }
    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }
    /// Construct from fractional seconds. Panics on negative input.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s >= 0.0, "SimTime cannot be negative: {s}");
        SimTime((s * 1e9).round() as u64)
    }

    /// Raw nanoseconds since simulation start.
    pub const fn nanos(self) -> u64 {
        self.0
    }
    /// Milliseconds since simulation start (truncating).
    pub const fn millis(self) -> u64 {
        self.0 / 1_000_000
    }
    /// Seconds since simulation start, as a float (for reporting only).
    pub fn secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time elapsed since `earlier`. Panics if `earlier` is in the future.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0.checked_sub(earlier.0).expect("SimTime::since: earlier is in the future"),
        )
    }

    /// Saturating difference: zero if `earlier` is in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// A zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }
    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }
    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }
    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }
    /// Construct from fractional seconds. Panics on negative input.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s >= 0.0, "SimDuration cannot be negative: {s}");
        SimDuration((s * 1e9).round() as u64)
    }

    /// Raw nanoseconds.
    pub const fn nanos(self) -> u64 {
        self.0
    }
    /// Milliseconds (truncating).
    pub const fn millis(self) -> u64 {
        self.0 / 1_000_000
    }
    /// Seconds as a float (for reporting only).
    pub fn secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// True if this duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiply by a float factor, rounding to the nearest nanosecond.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(factor >= 0.0, "duration factor cannot be negative");
        SimDuration((self.0 as f64 * factor).round() as u64)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimDuration underflow"))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = u64;
    /// How many whole `rhs` intervals fit in `self`.
    fn div(self, rhs: SimDuration) -> u64 {
        self.0 / rhs.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.secs_f64())
    }
}

/// Iterator over uniformly spaced instants `[start, end)` with step `step`.
///
/// Used for forwarding-state recomputation time-steps (paper §3.1: default
/// 100 ms) and for sampled trajectory exports.
#[derive(Debug, Clone)]
pub struct TimeSteps {
    next: SimTime,
    end: SimTime,
    step: SimDuration,
}

impl TimeSteps {
    /// Instants `start, start+step, ...` strictly before `end`.
    /// Panics if `step` is zero.
    pub fn new(start: SimTime, end: SimTime, step: SimDuration) -> Self {
        assert!(!step.is_zero(), "time step must be positive");
        TimeSteps { next: start, end, step }
    }
}

impl Iterator for TimeSteps {
    type Item = SimTime;
    fn next(&mut self) -> Option<SimTime> {
        if self.next >= self.end {
            return None;
        }
        let t = self.next;
        self.next += self.step;
        Some(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_secs(3).nanos(), 3_000_000_000);
        assert_eq!(SimTime::from_millis(1500).secs_f64(), 1.5);
        assert_eq!(SimDuration::from_micros(5).nanos(), 5_000);
        assert_eq!(SimTime::from_secs_f64(0.25), SimTime::from_millis(250));
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_millis(500);
        assert_eq!((t + d).millis(), 10_500);
        assert_eq!((t - d).millis(), 9_500);
        assert_eq!((t + d) - t, d);
        assert_eq!(d * 4, SimDuration::from_secs(2));
        assert_eq!(SimDuration::from_secs(2) / d, 4);
    }

    #[test]
    fn since_and_saturating() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(b.since(a), SimDuration::from_secs(1));
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    #[should_panic]
    fn since_panics_when_earlier_is_later() {
        SimTime::from_secs(1).since(SimTime::from_secs(2));
    }

    #[test]
    fn time_steps_cover_half_open_interval() {
        let steps: Vec<_> = TimeSteps::new(
            SimTime::ZERO,
            SimTime::from_millis(1000),
            SimDuration::from_millis(250),
        )
        .collect();
        assert_eq!(
            steps,
            vec![
                SimTime::ZERO,
                SimTime::from_millis(250),
                SimTime::from_millis(500),
                SimTime::from_millis(750),
            ]
        );
    }

    #[test]
    fn time_steps_empty_when_start_at_end() {
        let mut it = TimeSteps::new(
            SimTime::from_secs(5),
            SimTime::from_secs(5),
            SimDuration::from_millis(100),
        );
        assert!(it.next().is_none());
    }

    #[test]
    fn mul_f64_rounds() {
        let d = SimDuration::from_nanos(3);
        assert_eq!(d.mul_f64(0.5), SimDuration::from_nanos(2)); // 1.5 rounds to 2
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [SimTime::from_millis(5), SimTime::ZERO, SimTime::from_secs(1)];
        v.sort();
        assert_eq!(v[0], SimTime::ZERO);
        assert_eq!(v[2], SimTime::from_secs(1));
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(format!("{}", SimTime::from_millis(1500)), "1.500000s");
    }
}
