//! Simulated-time units.
//!
//! Every latency in the reproduction is expressed in virtual nanoseconds so
//! experiments are deterministic and run orders of magnitude faster than
//! real time while preserving the relative latency gaps between storage
//! tiers that drive the paper's results.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A span (or instant) of simulated time, in nanoseconds.
///
/// `Nanos` is used both as a duration ("this read cost 6 µs") and as an
/// instant on a partition's virtual clock ("the foreground thread has
/// advanced to t = 1.2 s"). Arithmetic saturates on subtraction via
/// [`Nanos::saturating_sub`] where wrap-around would be a bug.
///
/// # Example
///
/// ```
/// use prism_types::Nanos;
///
/// let read = Nanos::from_micros(391);
/// let write = Nanos::from_micros(10);
/// assert!(read > write);
/// assert_eq!((read + write).as_micros(), 401);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(u64);

impl Nanos {
    /// Zero duration / the epoch of a virtual clock.
    pub const ZERO: Nanos = Nanos(0);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Nanos(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds as a floating point value, for throughput math.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Microseconds as a floating point value, for latency tables.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Saturating subtraction: returns zero instead of wrapping.
    pub fn saturating_sub(self, other: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(other.0))
    }

    /// The larger of two durations.
    pub fn max(self, other: Nanos) -> Nanos {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The smaller of two durations.
    pub fn min(self, other: Nanos) -> Nanos {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// True if this is exactly zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl SubAssign for Nanos {
    fn sub_assign(&mut self, rhs: Nanos) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0 * rhs)
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        Nanos(iter.map(|n| n.0).sum())
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(Nanos::from_micros(6).as_nanos(), 6_000);
        assert_eq!(Nanos::from_micros(2_000).as_micros(), 2_000);
        assert_eq!(Nanos::from_micros(3_000_000).as_millis(), 3_000);
        assert!((Nanos::from_micros(1_000_000).as_secs_f64() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_behaves() {
        let a = Nanos::from_nanos(100);
        let b = Nanos::from_nanos(40);
        assert_eq!((a + b).as_nanos(), 140);
        assert_eq!((a - b).as_nanos(), 60);
        assert_eq!((a * 3).as_nanos(), 300);
        assert_eq!((a / 2).as_nanos(), 50);
        assert_eq!(b.saturating_sub(a), Nanos::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn sum_of_nanos() {
        let total: Nanos = (1..=4).map(Nanos::from_nanos).sum();
        assert_eq!(total.as_nanos(), 10);
    }

    #[test]
    fn display_picks_reasonable_units() {
        assert_eq!(format!("{}", Nanos::from_nanos(500)), "500ns");
        assert!(format!("{}", Nanos::from_micros(42)).ends_with("us"));
        assert!(format!("{}", Nanos::from_micros(42_000)).ends_with("ms"));
        assert!(format!("{}", Nanos::from_micros(2_000_000)).ends_with('s'));
    }
}
