//! MAC-layer time from a wall clock.
//!
//! The RMAC state machine reasons in [`SimTime`] exclusively — timers of
//! 2τ + λ, 20 µs backoff slots, 17 µs ABT reply windows. Inside the
//! discrete-event simulator (and `rmac-live`'s loopback runner) that is
//! the event queue's virtual clock; on a real transport (`rmac-live`'s UDP
//! driver) it has to be *derived from* a monotonic wall clock instead.
//! [`WallClock`] does that: a monotonic origin plus a time-scale factor
//! mapping MAC nanoseconds to wall nanoseconds.
//!
//! Why a scale factor? RMAC's constants assume a 2 Mb/s radio with λ-window
//! tone detection margins of ±2 µs — far below realistic scheduling and
//! network jitter on a host OS. Running MAC time slower than wall time
//! (`scale` wall-nanoseconds per MAC nanosecond) shrinks that jitter by the
//! same factor *in MAC units*, so a localhost UDP round trip of ~100 µs wall
//! costs only 100/scale µs of MAC time and the paper's timing windows stay
//! honest. `scale = 1` runs in real time; the live demo defaults to a few
//! hundred.

use std::time::{Duration, Instant};

use rmac_sim::SimTime;

/// Wall-time MAC clock: `now() = (monotonic elapsed since origin) / scale`.
#[derive(Debug, Clone)]
pub struct WallClock {
    origin: Instant,
    scale: u32,
}

impl WallClock {
    /// A wall clock starting at MAC time zero *now*, with `scale` wall
    /// nanoseconds per MAC nanosecond. `scale` is clamped to ≥ 1.
    pub fn new(scale: u32) -> WallClock {
        WallClock {
            origin: Instant::now(),
            scale: scale.max(1),
        }
    }

    /// The current MAC-layer time (monotone non-decreasing).
    pub fn now(&self) -> SimTime {
        let wall_ns = self.origin.elapsed().as_nanos();
        SimTime::from_nanos((wall_ns / self.scale as u128).min(u64::MAX as u128) as u64)
    }

    /// The configured wall-per-MAC time scale.
    pub fn scale(&self) -> u32 {
        self.scale
    }

    /// The wall-clock duration corresponding to a MAC-time duration.
    pub fn to_wall(&self, d: SimTime) -> Duration {
        Duration::from_nanos(d.nanos().saturating_mul(self.scale as u64))
    }

    /// How long to sleep (in wall time) until MAC time `deadline`; zero if
    /// the deadline already passed.
    pub fn until(&self, deadline: SimTime) -> Duration {
        let now = self.now();
        self.to_wall(deadline.saturating_sub(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotone_and_scaled() {
        let c = WallClock::new(1000);
        let a = c.now();
        std::thread::sleep(Duration::from_millis(2));
        let b = c.now();
        assert!(b >= a);
        // 2 ms wall at scale 1000 is ~2 µs MAC; allow generous slack but
        // the reading must be far below the unscaled 2 ms.
        assert!(
            b - a < SimTime::from_micros(500),
            "scale not applied: {}",
            b - a
        );
    }

    #[test]
    fn wall_conversions_roundtrip() {
        let c = WallClock::new(200);
        assert_eq!(c.scale(), 200);
        assert_eq!(
            c.to_wall(SimTime::from_micros(17)),
            Duration::from_micros(17 * 200)
        );
        // A deadline in the past sleeps zero.
        assert_eq!(c.until(SimTime::ZERO), Duration::ZERO);
    }

    #[test]
    fn zero_scale_is_clamped() {
        let c = WallClock::new(0);
        assert_eq!(c.scale(), 1);
    }
}
