//! Generation-token timers.
//!
//! Cancelling an event that is already inside a binary heap is expensive, so
//! the kernel uses the classic *lazy cancellation* idiom instead: every
//! armed timer carries a generation number, and the owner bumps its own
//! generation to invalidate all previously armed instances. When a timer
//! event fires, the owner compares the event's generation against the
//! current one and silently drops stale firings.
//!
//! MAC state machines in this workspace own one [`TimerSlot`] per logical
//! timer (`T_wf_rbt`, `T_wf_rdata`, `T_wf_abt`, the backoff countdown, …).

/// A cancellable logical timer.
///
/// ```
/// use rmac_sim::timer::TimerSlot;
///
/// let mut t = TimerSlot::new();
/// let g1 = t.arm();
/// assert!(t.matches(g1));     // the armed instance is live
/// let g2 = t.arm();           // re-arming invalidates g1
/// assert!(!t.matches(g1));
/// assert!(t.matches(g2));
/// t.cancel();                 // cancelling invalidates g2 too
/// assert!(!t.matches(g2));
/// ```
#[derive(Debug, Clone, Default)]
pub struct TimerSlot {
    generation: u64,
    armed: bool,
}

impl TimerSlot {
    /// A new, unarmed timer.
    pub fn new() -> Self {
        TimerSlot::default()
    }

    /// Arm the timer, invalidating any previously armed instance, and
    /// return the generation to embed in the scheduled event.
    pub fn arm(&mut self) -> u64 {
        self.generation += 1;
        self.armed = true;
        self.generation
    }

    /// Cancel the timer: all outstanding generations become stale.
    pub fn cancel(&mut self) {
        self.generation += 1;
        self.armed = false;
    }

    /// Whether an event carrying `generation` corresponds to the currently
    /// armed instance. A successful match *consumes* nothing; call
    /// [`TimerSlot::disarm_if`] (or `cancel`) if the timer is one-shot.
    pub fn matches(&self, generation: u64) -> bool {
        self.armed && self.generation == generation
    }

    /// Convenience for one-shot timers: if `generation` matches the live
    /// instance, disarm the slot and return `true`.
    pub fn disarm_if(&mut self, generation: u64) -> bool {
        if self.matches(generation) {
            self.armed = false;
            true
        } else {
            false
        }
    }

    /// Whether the timer currently has a live armed instance.
    pub fn is_armed(&self) -> bool {
        self.armed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_timer_matches_nothing() {
        let t = TimerSlot::new();
        assert!(!t.is_armed());
        assert!(!t.matches(0));
        assert!(!t.matches(1));
    }

    #[test]
    fn arm_and_fire() {
        let mut t = TimerSlot::new();
        let g = t.arm();
        assert!(t.is_armed());
        assert!(t.matches(g));
        assert!(t.disarm_if(g));
        assert!(!t.is_armed());
        // A second firing of the same generation is stale.
        assert!(!t.disarm_if(g));
    }

    #[test]
    fn rearm_invalidates_previous() {
        let mut t = TimerSlot::new();
        let g1 = t.arm();
        let g2 = t.arm();
        assert_ne!(g1, g2);
        assert!(!t.matches(g1));
        assert!(t.matches(g2));
    }

    #[test]
    fn cancel_invalidates() {
        let mut t = TimerSlot::new();
        let g = t.arm();
        t.cancel();
        assert!(!t.matches(g));
        assert!(!t.is_armed());
        // Arming again produces a fresh generation distinct from all prior.
        let g2 = t.arm();
        assert!(g2 > g);
        assert!(t.matches(g2));
    }

    #[test]
    fn generations_are_strictly_increasing() {
        let mut t = TimerSlot::new();
        let mut last = 0;
        for _ in 0..1000 {
            let g = t.arm();
            assert!(g > last);
            last = g;
        }
    }
}
