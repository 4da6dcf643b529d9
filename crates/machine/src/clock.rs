//! Simulated time.
//!
//! Each SPMD rank owns a [`SimClock`]: a monotone cycle counter advanced by
//! the cost model (kernel execution) and by the communication substrate
//! (message latency, reduction trees, synchronization).  The clock is the
//! *only* notion of time in the reproduction — wall-clock time on the host
//! never enters any reported number, which makes every experiment
//! deterministic and independent of host load.
//!
//! Cycles are stored as `u64`; at the A64FX frequency of 1.8 GHz this wraps
//! after ~325 years of simulated time, far beyond any experiment here.

use crate::model::FREQ_HZ;

/// A span of simulated time, stored in cycles of the modeled core clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default, Hash)]
pub struct SimDuration {
    cycles: u64,
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration { cycles: 0 };

    /// A duration of exactly `cycles` core cycles.
    #[inline]
    pub const fn from_cycles(cycles: u64) -> Self {
        SimDuration { cycles }
    }

    /// A duration of `secs` seconds at the core clock [`FREQ_HZ`].
    ///
    /// Fractional cycles round up: the modeled hardware cannot finish work
    /// mid-cycle.
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        assert!(secs >= 0.0 && secs.is_finite(), "negative or non-finite duration");
        SimDuration { cycles: (secs * FREQ_HZ).ceil() as u64 }
    }

    /// Number of core cycles in this duration.
    #[inline]
    pub const fn cycles(self) -> u64 {
        self.cycles
    }

    /// Convert to seconds at the core clock [`FREQ_HZ`].
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.cycles as f64 / FREQ_HZ
    }

    /// Saturating sum of two durations.
    #[inline]
    pub const fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration { cycles: self.cycles.saturating_add(other.cycles) }
    }
}

impl core::ops::Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration { cycles: self.cycles + rhs.cycles }
    }
}

impl core::ops::AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.cycles += rhs.cycles;
    }
}

impl core::ops::Sub for SimDuration {
    type Output = SimDuration;
    /// # Panics
    /// If `rhs` is longer than `self`: a negative span is a caller bug
    /// (`Sub` cannot return an error; use `checked_sub` on
    /// [`SimDuration::cycles`] where underflow is expected).
    #[inline]
    // The documented underflow panic is this operator's contract.
    #[allow(clippy::expect_used)]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration { cycles: self.cycles.checked_sub(rhs.cycles).expect("SimDuration underflow") }
    }
}

impl core::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

/// A per-rank virtual clock: monotone simulated "now".
///
/// The communication substrate synchronizes clocks conservatively at every
/// collective (a rank cannot leave an allreduce before the slowest
/// participant has entered it), which is how load imbalance and
/// communication overhead emerge in the reproduced Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct SimClock {
    now: SimDuration,
}

impl SimClock {
    /// A clock at time zero.
    pub const fn new() -> Self {
        SimClock { now: SimDuration::ZERO }
    }

    /// Current simulated time since the clock's epoch.
    #[inline]
    pub const fn now(&self) -> SimDuration {
        self.now
    }

    /// Advance the clock by `d`.
    #[inline]
    pub fn advance(&mut self, d: SimDuration) {
        self.now = self.now.saturating_add(d);
    }

    /// Advance the clock by a whole number of cycles.
    #[inline]
    pub fn advance_cycles(&mut self, cycles: u64) {
        self.advance(SimDuration::from_cycles(cycles));
    }

    /// Move the clock forward to `t` if `t` is later than now (no-op
    /// otherwise).  Used when synchronizing with another rank's clock.
    #[inline]
    pub fn wait_until(&mut self, t: SimDuration) {
        if t > self.now {
            self.now = t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_roundtrip_secs() {
        let d = SimDuration::from_secs(2.5);
        assert_eq!(d.cycles(), 4_500_000_000);
        assert!((d.as_secs() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn duration_from_secs_rounds_up() {
        // 1 cycle = 1/1.8e9 s; half a cycle must still cost one cycle.
        let d = SimDuration::from_secs(0.5 / FREQ_HZ);
        assert_eq!(d.cycles(), 1);
    }

    #[test]
    fn duration_zero_secs_is_zero() {
        assert_eq!(SimDuration::from_secs(0.0), SimDuration::ZERO);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut c = SimClock::new();
        c.advance_cycles(10);
        c.advance_cycles(5);
        assert_eq!(c.now().cycles(), 15);
    }

    #[test]
    fn wait_until_only_moves_forward() {
        let mut c = SimClock::new();
        c.advance_cycles(100);
        c.wait_until(SimDuration::from_cycles(50));
        assert_eq!(c.now().cycles(), 100, "wait_until must never rewind");
        c.wait_until(SimDuration::from_cycles(150));
        assert_eq!(c.now().cycles(), 150);
    }

    #[test]
    fn saturating_add_caps_at_max() {
        let d = SimDuration::from_cycles(u64::MAX).saturating_add(SimDuration::from_cycles(1));
        assert_eq!(d.cycles(), u64::MAX);
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = (1..=4u64).map(SimDuration::from_cycles).sum();
        assert_eq!(total.cycles(), 10);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = SimDuration::from_cycles(1) - SimDuration::from_cycles(2);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn negative_secs_panics() {
        let _ = SimDuration::from_secs(-1.0);
    }
}
