//! Jittered exponential backoff, shared by every reconnect path in the
//! workspace (the FSM's ConnectRetry timer, the daemon feed client, the
//! replay driver).
//!
//! The schedule is the classic doubling ladder with full-range jitter on
//! the upper half: attempt `n` waits `base * 2^n` capped at `max`, then
//! adds a uniformly random extra of up to half that value. Jitter comes
//! from a caller-seeded [`SmallRng`], so a given seed always produces the
//! same delay sequence — chaos trials depend on that.

use rand::rngs::SmallRng;
use rand::Rng;

/// A deterministic jittered exponential backoff schedule.
#[derive(Debug, Clone)]
pub struct Backoff {
    base_ms: u64,
    max_ms: u64,
    attempt: u32,
    rng: SmallRng,
}

impl Backoff {
    /// Creates a schedule starting at `base_ms` and capping at `max_ms`,
    /// with jitter drawn from `seed`. A `base_ms` of zero is clamped to 1
    /// so the schedule always makes progress.
    #[must_use]
    pub fn new(base_ms: u64, max_ms: u64, seed: u64) -> Self {
        let base_ms = base_ms.max(1);
        Backoff {
            base_ms,
            max_ms: max_ms.max(base_ms),
            attempt: 0,
            rng: bgp_types::rng::from_seed(seed),
        }
    }

    /// The delay before the next attempt, in milliseconds, advancing the
    /// schedule. Deterministic for a given seed and call sequence.
    pub fn next_delay_ms(&mut self) -> u64 {
        let doubled = self
            .base_ms
            .saturating_mul(1u64.checked_shl(self.attempt).unwrap_or(u64::MAX))
            .min(self.max_ms);
        self.attempt = self.attempt.saturating_add(1);
        let jitter_span = doubled / 2;
        let jitter = if jitter_span == 0 {
            0
        } else {
            self.rng.gen_range(0..=jitter_span)
        };
        doubled.saturating_add(jitter).min(self.max_ms)
    }

    /// How many delays have been handed out since the last reset.
    #[must_use]
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// Restarts the schedule from the base delay (e.g. after a successful
    /// connection). The jitter stream keeps advancing — resets do not
    /// replay old delays.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_grow_and_cap() {
        let mut b = Backoff::new(100, 5_000, 7);
        let mut prev_floor = 0;
        for n in 0..12 {
            let d = b.next_delay_ms();
            let floor = (100u64 << n.min(10)).min(5_000);
            assert!(d >= floor.min(5_000), "attempt {n}: {d} < floor {floor}");
            assert!(d <= 5_000, "attempt {n}: {d} above cap");
            assert!(floor >= prev_floor);
            prev_floor = floor;
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let mut a = Backoff::new(50, 10_000, 42);
        let mut b = Backoff::new(50, 10_000, 42);
        for _ in 0..20 {
            assert_eq!(a.next_delay_ms(), b.next_delay_ms());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Backoff::new(50, 10_000, 1);
        let mut b = Backoff::new(50, 10_000, 2);
        let same = (0..20)
            .filter(|_| a.next_delay_ms() == b.next_delay_ms())
            .count();
        assert!(same < 20, "jitter streams should differ between seeds");
    }

    #[test]
    fn reset_restarts_the_ladder() {
        let mut b = Backoff::new(100, 5_000, 3);
        for _ in 0..6 {
            b.next_delay_ms();
        }
        assert_eq!(b.attempts(), 6);
        b.reset();
        assert_eq!(b.attempts(), 0);
        // First post-reset delay is back to base + jitter ≤ 1.5 * base.
        let d = b.next_delay_ms();
        assert!((100..=150).contains(&d), "post-reset delay {d}");
    }

    #[test]
    fn zero_base_is_clamped() {
        let mut b = Backoff::new(0, 10, 0);
        assert!(b.next_delay_ms() >= 1);
    }
}
