//! Virtual time: the simulator's clock and the unit of every event's
//! `vt` stamp. `worlds-kernel` re-exports it, so the simulator and the
//! distributed cluster share one type without depending on each other.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in (or span of) virtual time, in nanoseconds.
///
/// The simulator's clock: completely decoupled from wall-clock time, which
/// is what makes the paper's multi-processor experiments reproducible on a
/// single-CPU host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtualTime(pub u64);

impl VirtualTime {
    /// Zero.
    pub const ZERO: VirtualTime = VirtualTime(0);

    /// From whole nanoseconds.
    pub fn from_ns(ns: u64) -> Self {
        VirtualTime(ns)
    }

    /// From (possibly fractional) microseconds.
    pub fn from_us(us: f64) -> Self {
        VirtualTime((us * 1e3).round() as u64)
    }

    /// From (possibly fractional) milliseconds.
    pub fn from_ms(ms: f64) -> Self {
        VirtualTime((ms * 1e6).round() as u64)
    }

    /// From (possibly fractional) seconds.
    pub fn from_secs(s: f64) -> Self {
        VirtualTime((s * 1e9).round() as u64)
    }

    /// As nanoseconds.
    pub fn as_ns(self) -> u64 {
        self.0
    }

    /// As fractional milliseconds.
    pub fn as_ms(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// As fractional seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction (spans never go negative).
    pub fn saturating_sub(self, rhs: VirtualTime) -> VirtualTime {
        VirtualTime(self.0.saturating_sub(rhs.0))
    }
}

impl Add for VirtualTime {
    type Output = VirtualTime;
    fn add(self, rhs: VirtualTime) -> VirtualTime {
        VirtualTime(self.0 + rhs.0)
    }
}

impl AddAssign for VirtualTime {
    fn add_assign(&mut self, rhs: VirtualTime) {
        self.0 += rhs.0;
    }
}

impl Sub for VirtualTime {
    type Output = VirtualTime;
    fn sub(self, rhs: VirtualTime) -> VirtualTime {
        VirtualTime(
            self.0
                .checked_sub(rhs.0)
                .expect("virtual time went negative"),
        )
    }
}

impl fmt::Display for VirtualTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_ms())
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(VirtualTime::from_ms(31.0).as_ns(), 31_000_000);
        assert_eq!(VirtualTime::from_secs(1.3).as_ms(), 1300.0);
        assert_eq!(VirtualTime::from_us(2.5).as_ns(), 2500);
    }

    #[test]
    fn arithmetic() {
        let a = VirtualTime::from_ns(100);
        let b = VirtualTime::from_ns(40);
        assert_eq!(a + b, VirtualTime::from_ns(140));
        assert_eq!(a - b, VirtualTime::from_ns(60));
        assert_eq!(b.saturating_sub(a), VirtualTime::ZERO);
        let mut c = a;
        c += b;
        assert_eq!(c.as_ns(), 140);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn underflow_panics() {
        let _ = VirtualTime::from_ns(1) - VirtualTime::from_ns(2);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(VirtualTime::from_ns(5).to_string(), "5ns");
        assert_eq!(VirtualTime::from_ns(1500).to_string(), "1.500us");
        assert_eq!(VirtualTime::from_ms(31.0).to_string(), "31.000ms");
        assert_eq!(VirtualTime::from_secs(4.25).to_string(), "4.250s");
    }

    #[test]
    fn ordering() {
        assert!(VirtualTime::from_ms(1.0) < VirtualTime::from_ms(2.0));
        assert_eq!(VirtualTime::ZERO, VirtualTime::default());
    }
}
