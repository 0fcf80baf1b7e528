//! Integer time base.
//!
//! All schedules in this crate live on an integer nanosecond grid. The paper's
//! analysis (Section 4) reasons about *real-valued* offsets; working on an
//! integer grid keeps every computation exact (no floating-point epsilon
//! reasoning) while a 1 ns resolution is more than five orders of magnitude
//! finer than the shortest physical quantity in the problem (a packet airtime
//! of ~36 µs), so grid rounding is negligible for every experiment in the
//! paper.
//!
//! [`Tick`] is deliberately a single type used for both instants and
//! durations: the paper's math freely mixes the two (offsets Φ, gaps λ,
//! periods T, latencies L), and a dedicated instant/duration split would add
//! noise without catching real bugs in this domain.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// A point in time or a span of time, in integer nanoseconds.
///
/// `Tick` is `Copy`, totally ordered and supports saturating-free checked
/// arithmetic through the standard operators (which panic on overflow in
/// debug builds, as usual for Rust integers). Use [`Tick::checked_sub`] when
/// underflow is expected.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tick(pub u64);

impl Tick {
    /// Zero time.
    pub const ZERO: Tick = Tick(0);
    /// Largest representable time (~584 years).
    pub const MAX: Tick = Tick(u64::MAX);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        Tick(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Tick(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Tick(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Tick(s * 1_000_000_000)
    }

    /// Construct from fractional seconds, rounding to the nearest nanosecond.
    ///
    /// Panics if `s` is negative, NaN, or too large for the `u64` range.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid time in seconds: {s}");
        let ns = (s * 1e9).round();
        assert!(ns <= u64::MAX as f64, "time out of range: {s} s");
        Tick(ns as u64)
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Value in fractional microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Value in fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Value in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// `true` iff this is the zero time.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Checked subtraction; `None` on underflow.
    #[inline]
    pub fn checked_sub(self, rhs: Tick) -> Option<Tick> {
        self.0.checked_sub(rhs.0).map(Tick)
    }

    /// Checked addition; `None` on overflow.
    #[inline]
    pub fn checked_add(self, rhs: Tick) -> Option<Tick> {
        self.0.checked_add(rhs.0).map(Tick)
    }

    /// Saturating subtraction (clamps at zero).
    #[inline]
    pub fn saturating_sub(self, rhs: Tick) -> Tick {
        Tick(self.0.saturating_sub(rhs.0))
    }

    /// Saturating addition (clamps at [`Tick::MAX`]).
    #[inline]
    pub fn saturating_add(self, rhs: Tick) -> Tick {
        Tick(self.0.saturating_add(rhs.0))
    }

    /// Multiply by an integer scalar.
    #[inline]
    pub fn scaled(self, k: u64) -> Tick {
        Tick(self.0 * k)
    }

    /// Scale by a non-negative float, rounding to the nearest nanosecond.
    pub fn scaled_f64(self, k: f64) -> Tick {
        assert!(k.is_finite() && k >= 0.0, "invalid scale factor: {k}");
        Tick((self.0 as f64 * k).round() as u64)
    }

    /// Euclidean remainder `self mod period`. Panics if `period` is zero.
    #[inline]
    pub fn rem_euclid(self, period: Tick) -> Tick {
        assert!(!period.is_zero(), "zero period");
        Tick(self.0 % period.0)
    }

    /// Integer division rounding up: the smallest `k` with `k * rhs >= self`.
    ///
    /// This is the ⌈·⌉ of the paper's Beaconing Theorem (Theorem 4.3).
    #[inline]
    pub fn div_ceil(self, rhs: Tick) -> u64 {
        assert!(!rhs.is_zero(), "division by zero ticks");
        self.0.div_ceil(rhs.0)
    }

    /// Least common multiple of two durations — the joint period of two
    /// periodic processes; `None` when either is zero or the result
    /// overflows.
    pub fn checked_lcm(self, rhs: Tick) -> Option<Tick> {
        if self.is_zero() || rhs.is_zero() {
            return None;
        }
        let (mut a, mut b) = (self.0, rhs.0);
        while b != 0 {
            (a, b) = (b, a % b);
        }
        (self.0 / a).checked_mul(rhs.0).map(Tick)
    }

    /// Absolute difference.
    #[inline]
    pub fn abs_diff(self, rhs: Tick) -> Tick {
        Tick(self.0.abs_diff(rhs.0))
    }

    /// Minimum of two times.
    #[inline]
    pub fn min(self, rhs: Tick) -> Tick {
        Tick(self.0.min(rhs.0))
    }

    /// Maximum of two times.
    #[inline]
    pub fn max(self, rhs: Tick) -> Tick {
        Tick(self.0.max(rhs.0))
    }
}

impl Add for Tick {
    type Output = Tick;
    #[inline]
    fn add(self, rhs: Tick) -> Tick {
        Tick(self.0 + rhs.0)
    }
}

impl AddAssign for Tick {
    #[inline]
    fn add_assign(&mut self, rhs: Tick) {
        self.0 += rhs.0;
    }
}

impl Sub for Tick {
    type Output = Tick;
    #[inline]
    fn sub(self, rhs: Tick) -> Tick {
        Tick(self.0 - rhs.0)
    }
}

impl SubAssign for Tick {
    #[inline]
    fn sub_assign(&mut self, rhs: Tick) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Tick {
    type Output = Tick;
    #[inline]
    fn mul(self, rhs: u64) -> Tick {
        Tick(self.0 * rhs)
    }
}

impl Div<u64> for Tick {
    type Output = Tick;
    #[inline]
    fn div(self, rhs: u64) -> Tick {
        Tick(self.0 / rhs)
    }
}

impl Div<Tick> for Tick {
    type Output = u64;
    /// Integer division of two times (how many `rhs` fit into `self`).
    #[inline]
    fn div(self, rhs: Tick) -> u64 {
        self.0 / rhs.0
    }
}

impl Rem<Tick> for Tick {
    type Output = Tick;
    #[inline]
    fn rem(self, rhs: Tick) -> Tick {
        Tick(self.0 % rhs.0)
    }
}

impl Sum for Tick {
    fn sum<I: Iterator<Item = Tick>>(iter: I) -> Tick {
        iter.fold(Tick::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for Tick {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Tick {
    /// Human-readable rendering with an automatically chosen unit.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns == 0 {
            write!(f, "0s")
        } else if ns.is_multiple_of(1_000_000_000) {
            write!(f, "{}s", ns / 1_000_000_000)
        } else if ns >= 1_000_000_000 {
            write!(f, "{:.6}s", self.as_secs_f64())
        } else if ns.is_multiple_of(1_000_000) {
            write!(f, "{}ms", ns / 1_000_000)
        } else if ns.is_multiple_of(1_000) {
            write!(f, "{}us", ns / 1_000)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Tick::from_micros(1), Tick::from_nanos(1_000));
        assert_eq!(Tick::from_millis(1), Tick::from_micros(1_000));
        assert_eq!(Tick::from_secs(1), Tick::from_millis(1_000));
        assert_eq!(Tick::from_secs_f64(1.5), Tick::from_millis(1_500));
        assert_eq!(Tick::from_secs_f64(0.0), Tick::ZERO);
    }

    #[test]
    fn roundtrip_f64() {
        let t = Tick::from_micros(36);
        assert_eq!(t.as_secs_f64(), 36e-6);
        assert_eq!(t.as_micros_f64(), 36.0);
        assert_eq!(Tick::from_secs_f64(t.as_secs_f64()), t);
    }

    #[test]
    fn arithmetic() {
        let a = Tick::from_micros(10);
        let b = Tick::from_micros(4);
        assert_eq!(a + b, Tick::from_micros(14));
        assert_eq!(a - b, Tick::from_micros(6));
        assert_eq!(a * 3, Tick::from_micros(30));
        assert_eq!(a / 2, Tick::from_micros(5));
        assert_eq!(a / b, 2);
        assert_eq!(a % b, Tick::from_micros(2));
        assert_eq!(a.abs_diff(b), b.abs_diff(a));
    }

    #[test]
    fn div_ceil_matches_theorem_4_3_examples() {
        // T_C = 10, Σd = 3 → M = ⌈10/3⌉ = 4
        assert_eq!(Tick(10).div_ceil(Tick(3)), 4);
        // exact division: no ceiling slack
        assert_eq!(Tick(9).div_ceil(Tick(3)), 3);
        assert_eq!(Tick(1).div_ceil(Tick(3)), 1);
    }

    #[test]
    fn checked_and_saturating() {
        assert_eq!(Tick(3).checked_sub(Tick(5)), None);
        assert_eq!(Tick(5).checked_sub(Tick(3)), Some(Tick(2)));
        assert_eq!(Tick(3).saturating_sub(Tick(5)), Tick::ZERO);
        assert_eq!(Tick::MAX.saturating_add(Tick(1)), Tick::MAX);
        assert_eq!(Tick::MAX.checked_add(Tick(1)), None);
        assert_eq!(Tick(4).checked_lcm(Tick(6)), Some(Tick(12)));
        assert_eq!(Tick(7).checked_lcm(Tick(13)), Some(Tick(91)));
        assert_eq!(Tick(0).checked_lcm(Tick(13)), None);
        assert_eq!(Tick::MAX.checked_lcm(Tick(2)), None);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(Tick::ZERO.to_string(), "0s");
        assert_eq!(Tick::from_nanos(17).to_string(), "17ns");
        assert_eq!(Tick::from_micros(36).to_string(), "36us");
        assert_eq!(Tick::from_millis(250).to_string(), "250ms");
        assert_eq!(Tick::from_secs(2).to_string(), "2s");
        assert_eq!(Tick::from_millis(1500).to_string(), "1.500000s");
    }

    #[test]
    fn rem_euclid_and_scaling() {
        assert_eq!(Tick(17).rem_euclid(Tick(5)), Tick(2));
        assert_eq!(Tick(100).scaled(3), Tick(300));
        assert_eq!(Tick(100).scaled_f64(0.5), Tick(50));
        assert_eq!(Tick(3).scaled_f64(1.0 / 3.0), Tick(1));
    }

    #[test]
    fn sum_iterator() {
        let total: Tick = [Tick(1), Tick(2), Tick(3)].into_iter().sum();
        assert_eq!(total, Tick(6));
    }

    #[test]
    #[should_panic(expected = "invalid time")]
    fn from_secs_f64_rejects_negative() {
        let _ = Tick::from_secs_f64(-1.0);
    }
}
