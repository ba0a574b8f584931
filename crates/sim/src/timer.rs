//! Timer liveness: which armed instance of a logical timer is the live one.
//!
//! Cancelling an event that is already inside a queue is expensive, so the
//! kernel never does it. A MAC owns one [`TimerSlot`] per logical timer
//! (`T_wf_rbt`, `T_wf_rdata`, `T_wf_abt`, the backoff countdown, …): every
//! armed instance carries a generation, re-arming or cancelling bumps it,
//! and a firing whose generation is not the live one is dropped. That is
//! how `rmac-live` and the testkit run a MAC: every firing reaches it.
//!
//! The engine filters superseded firings before they reach a MAC: per
//! node and timer kind it keeps a [`LiveTimer`], the key the live instance
//! claimed. An instance is pushed only when no entry of its kind is queued
//! at or before its key; an entry that comes up and is not the live
//! instance is dropped, or re-pushed under the live instance's own key
//! when it was the one to carry it. Every live firing keeps the key it
//! claimed when armed, so the dispatch order is the one in which every
//! instance was pushed, and the generation checks in the MACs stay for the
//! other drivers.

use crate::key::Cursor;
use crate::queue::SimQueue;
use crate::time::SimTime;

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

/// One logical timer's live instance as the engine's queue holds it: the
/// key it claimed, the generation it carries, and whether an entry is
/// queued under that key. An instance armed with no entry of its own has an
/// entry of the timer queued before it, which carries it on
/// ([`LiveTimer::on_pop`]). 24 bytes: the engine keeps one per node and
/// timer kind.
#[derive(Clone, Copy, Debug)]
pub struct LiveTimer {
    key: Cursor,
    /// The generation, under [`ARMED`] and [`TOLD`]. `TOLD` without
    /// `ARMED` is a cancelled instance whose entry is still queued; neither,
    /// nothing known queued.
    tagged: u64,
}

/// An instance is live.
const ARMED: u64 = 1 << 63;
/// An entry is queued under `key`.
const TOLD: u64 = 1 << 62;
/// The generation's bits.
const GEN: u64 = TOLD - 1;

impl Default for LiveTimer {
    fn default() -> Self {
        LiveTimer {
            key: Cursor::NEVER,
            tagged: 0,
        }
    }
}

impl LiveTimer {
    /// Arm an instance due at `at` carrying `gen`: claim its key, and push
    /// `event` under it unless an entry of this timer is queued at or
    /// before it. Returns whether a live instance was superseded.
    pub fn arm<E>(&mut self, q: &mut impl SimQueue<E>, at: SimTime, gen: u64, event: E) -> bool {
        debug_assert!(gen <= GEN, "generation {gen} out of range");
        let key = q.claim(at);
        let superseded = self.is_armed();
        // Known queued: the instance's own entry at `self.key`, or, for an
        // instance without one, an entry before it.
        let carried = self.tagged & (ARMED | TOLD) != 0 && self.key <= key;
        if !carried {
            q.push_claimed(key, event);
        }
        self.key = key;
        self.tagged = gen | ARMED | if carried { 0 } else { TOLD };
        superseded
    }

    /// Cancel the live instance. Returns whether there was one.
    pub fn cancel(&mut self) -> bool {
        let was = self.is_armed();
        // An instance without an entry of its own leaves nothing known.
        self.tagged &= TOLD;
        was
    }

    /// An entry of this timer came up, at the queue's cursor. Returns the
    /// generation of the live instance if it is its entry (the instance
    /// has fired); otherwise `None`, and if the live instance has no entry
    /// of its own yet, `event` is pushed under its key.
    pub fn on_pop<E>(&mut self, q: &mut impl SimQueue<E>, event: E) -> Option<u64> {
        let at = q.cursor();
        if self.tagged & TOLD != 0 && self.key == at {
            let fired = self.is_armed().then_some(self.tagged & GEN);
            self.tagged = 0;
            return fired;
        }
        if self.tagged & (ARMED | TOLD) == ARMED {
            debug_assert!(self.key > at, "a live timer passed unannounced");
            q.push_claimed(self.key, event);
            self.tagged |= TOLD;
        }
        None
    }

    /// Whether an instance is live.
    pub fn is_armed(&self) -> bool {
        self.tagged & ARMED != 0
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
    /// Every instance armed, in any order and with cancels in between, is
    /// dispatched at its own key exactly when it is still live there: the
    /// queue pops what a queue holding every instance would, less the
    /// instances no longer live.
    #[test]
    fn a_live_timer_fires_at_its_own_key_and_nothing_else_does() {
        use crate::queue::EventQueue;
        let mut rng = crate::rng::SimRng::new(5);
        for _ in 0..200 {
            let (mut q, mut every) = (EventQueue::new(), EventQueue::new());
            let (mut t, mut slot) = (LiveTimer::default(), TimerSlot::new());
            let (mut fired, mut want) = (Vec::new(), Vec::new());
            for step in 0..40u64 {
                // Both queues claim the same keys: an unrelated event first.
                let at = q.now() + SimTime::from_micros(rng.below(50));
                q.push(at, None);
                every.push(at, None);
                match rng.below(4) {
                    0 | 1 => {
                        let at = q.now() + SimTime::from_micros(rng.below(60));
                        let gen = slot.arm();
                        t.arm(&mut q, at, gen, Some(()));
                        every.push(at, Some(gen));
                    }
                    2 => {
                        assert_eq!(t.cancel(), slot.is_armed());
                        slot.cancel();
                    }
                    _ => {}
                }
                // Pop a little: both queues in step.
                for _ in 0..rng.below(3) + u64::from(step == 39) * 200 {
                    while let Some((at, ev)) = every.pop() {
                        if let Some(gen) = ev {
                            if slot.disarm_if(gen) {
                                want.push((at, every.cursor().seq, gen));
                            }
                            continue;
                        }
                        break;
                    }
                    while let Some((at, ev)) = q.pop() {
                        if ev.is_none() {
                            break;
                        }
                        if let Some(gen) = t.on_pop(&mut q, Some(())) {
                            fired.push((at, q.cursor().seq, gen));
                        }
                    }
                }
            }
            assert_eq!(fired, want);
            assert!(q.total_pushed() <= every.total_pushed());
        }
        assert_eq!(std::mem::size_of::<LiveTimer>(), 24);
    }
}
