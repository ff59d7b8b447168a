//! Simulated time.

use std::fmt;
use std::ops::{Add, AddAssign};

/// A point in simulated time, measured in abstract ticks.
///
/// The BGP experiments interpret one tick as one millisecond of simulated
/// wall-clock time, but nothing in the engine depends on that choice.
///
/// # Example
///
/// ```
/// use bgp_types::SimTime;
///
/// let t = SimTime::from_ticks(5) + 10;
/// assert_eq!(t.ticks(), 15);
/// assert!(t > SimTime::ZERO);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time from a raw tick count.
    #[must_use]
    pub fn from_ticks(ticks: u64) -> Self {
        SimTime(ticks)
    }

    /// The raw tick count.
    #[must_use]
    pub fn ticks(self) -> u64 {
        self.0
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;

    /// # Panics
    ///
    /// Panics on overflow in debug builds, like integer addition.
    fn add(self, delta: u64) -> SimTime {
        SimTime(self.0 + delta)
    }
}

impl AddAssign<u64> for SimTime {
    fn add_assign(&mut self, delta: u64) {
        self.0 += delta;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_default() {
        assert_eq!(SimTime::default(), SimTime::ZERO);
    }

    #[test]
    fn arithmetic() {
        let mut t = SimTime::from_ticks(3);
        t += 4;
        assert_eq!(t, SimTime::from_ticks(7));
        assert_eq!(t + 1, SimTime::from_ticks(8));
    }

    #[test]
    fn ordering_follows_ticks() {
        assert!(SimTime::from_ticks(1) < SimTime::from_ticks(2));
        assert!(SimTime::from_ticks(1) > SimTime::ZERO);
    }

    #[test]
    fn display_and_conversions() {
        assert_eq!(SimTime::from_ticks(42).to_string(), "t=42");
        assert_eq!(SimTime::from_ticks(9).ticks(), 9);
    }
}
