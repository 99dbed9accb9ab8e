//! Fixed-point simulation time.
//!
//! All simulation arithmetic is integer nanoseconds. The paper's measured
//! execution times (Appendix A) are milliseconds with at most three decimal
//! digits, i.e. exact microseconds, so every table entry converts to
//! nanoseconds without rounding. Using integers (rather than `f64`) gives:
//!
//! * a total order for the event queue (no NaN / tie instability),
//! * exact reproduction of the paper's Figure-5 schedule end times
//!   (318.093 ms vs 212.093 ms),
//! * deterministic results independent of summation order.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Number of nanoseconds per millisecond.
pub const NS_PER_MS: u64 = 1_000_000;
/// Number of nanoseconds per microsecond.
pub const NS_PER_US: u64 = 1_000;
/// Number of nanoseconds per second.
pub const NS_PER_SEC: u64 = 1_000_000_000;

/// An absolute instant on the simulation clock, in nanoseconds since the
/// simulation epoch (t = 0).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

/// A span of simulation time, in nanoseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch, `t = 0`.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant (used as an "infinitely far" sentinel).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from whole nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * NS_PER_US)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * NS_PER_MS)
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Lossy conversion to fractional milliseconds (reporting only).
    #[inline]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / NS_PER_MS as f64
    }

    /// Lossy conversion to fractional seconds (reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NS_PER_SEC as f64
    }

    /// Duration elapsed since `earlier`. Saturates at zero rather than
    /// panicking, because policies may probe "how long until" quantities with
    /// instants that are already in the past.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// `self + d`, saturating at [`SimTime::MAX`] instead of overflowing.
    #[inline]
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration (an "unreachable" sentinel).
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from whole nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us * NS_PER_US)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimDuration(ms * NS_PER_MS)
    }

    /// Exact conversion from the paper's lookup-table format: milliseconds
    /// with up to microsecond precision (three decimal digits).
    ///
    /// Panics in debug builds if `ms` carries sub-microsecond precision, which
    /// would indicate a transcription error in the embedded table.
    pub fn from_table_ms(ms: f64) -> Self {
        debug_assert!(ms >= 0.0, "negative execution time {ms}");
        let us = ms * 1_000.0;
        let rounded = us.round();
        debug_assert!(
            (us - rounded).abs() < 1e-6,
            "lookup value {ms} ms is not an exact microsecond count"
        );
        SimDuration(rounded as u64 * NS_PER_US)
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Lossy conversion to fractional milliseconds (reporting only).
    #[inline]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / NS_PER_MS as f64
    }

    /// Lossy conversion to fractional seconds (reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NS_PER_SEC as f64
    }

    /// Saturating addition.
    #[inline]
    pub fn saturating_add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }

    /// Multiply by the APT flexibility factor `α ≥ 1`, rounding to the nearest
    /// nanosecond. `α` values in the paper are small rationals (1.5, 2, 4, 8,
    /// 16) so the rounding is exact for every table entry.
    #[inline]
    pub fn scale_alpha(self, alpha: f64) -> SimDuration {
        debug_assert!(alpha >= 0.0);
        let scaled = self.0 as f64 * alpha;
        if scaled >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(scaled.round() as u64)
        }
    }

    /// True if this duration is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |acc, d| acc + d)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_ms_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_ms_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ms_is_exact() {
        // Entries straight out of Appendix A.
        assert_eq!(SimDuration::from_table_ms(0.061).as_ns(), 61_000);
        assert_eq!(SimDuration::from_table_ms(0.093).as_ns(), 93_000);
        assert_eq!(
            SimDuration::from_table_ms(76_293.945).as_ns(),
            76_293_945_000
        );
        assert_eq!(
            SimDuration::from_table_ms(610_351.562).as_ns(),
            610_351_562_000
        );
        assert_eq!(SimDuration::from_table_ms(112.0).as_ns(), 112_000_000);
    }

    #[test]
    fn arithmetic_roundtrips() {
        let t = SimTime::from_ms(318) + SimDuration::from_us(93);
        assert_eq!(t.as_ns(), 318_093_000);
        assert!((t.as_ms_f64() - 318.093).abs() < 1e-9);
        let back = t - SimDuration::from_us(93);
        assert_eq!(back, SimTime::from_ms(318));
    }

    #[test]
    fn ordering_is_total_and_exact() {
        let a = SimTime::from_ns(1);
        let b = SimTime::from_ns(2);
        assert!(a < b);
        assert_eq!(b - a, SimDuration::from_ns(1));
    }

    #[test]
    fn saturating_since_clamps() {
        let early = SimTime::from_ms(1);
        let late = SimTime::from_ms(2);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_ms(1));
    }

    #[test]
    fn scale_alpha_matches_paper_thresholds() {
        // Figure 5: threshold for bfs with α = 8 on FPGA-best time 106 ms.
        let x = SimDuration::from_table_ms(106.0);
        assert_eq!(x.scale_alpha(8.0), SimDuration::from_ms(848));
        // α = 1.5 on 112 ms -> 168 ms exactly.
        let nw = SimDuration::from_table_ms(112.0);
        assert_eq!(nw.scale_alpha(1.5), SimDuration::from_ms(168));
    }

    #[test]
    fn duration_sum_and_div() {
        let total: SimDuration = [1u64, 2, 3]
            .iter()
            .map(|&ms| SimDuration::from_ms(ms))
            .sum();
        assert_eq!(total, SimDuration::from_ms(6));
        assert_eq!(total / 3, SimDuration::from_ms(2));
        assert_eq!(total * 2, SimDuration::from_ms(12));
    }

    #[test]
    fn display_formats_ms() {
        assert_eq!(SimTime::from_us(318_093).to_string(), "318.093ms");
        assert_eq!(SimDuration::from_us(61).to_string(), "0.061ms");
    }
}
