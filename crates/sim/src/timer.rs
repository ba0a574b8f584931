//! Timer liveness: which armed instance of a logical timer is the live one.
//!
//! A MAC has one timer per purpose (`T_wf_rbt`, `T_wf_rdata`, `T_wf_abt`,
//! the backoff countdown, …): arming it again supersedes the armed
//! instance, and a cancel withdraws it. Cancelling an event that is already
//! inside a queue is expensive, so the kernel never does it. Instead the
//! backend keeps per node and timer kind a [`LiveTimer`], the key the live
//! instance claimed. An instance is pushed only when no entry of its kind
//! is queued at or before its key; an entry that comes up and is not the
//! live instance is dropped, or re-pushed under the live instance's own key
//! when it was the one to carry it. Every live firing keeps the key it
//! claimed when armed, so the dispatch order is the one in which every
//! instance was pushed, and only the live instance reaches the MAC.

use crate::key::Cursor;
use crate::queue::SimQueue;
use crate::time::SimTime;

/// One logical timer's live instance as a backend's queue holds it: the
/// key it claimed, whether it is live, and whether an entry is queued under
/// that key. An instance armed with no entry of its own has an entry of the
/// timer queued before it, which carries it on ([`LiveTimer::on_pop`]).
/// 24 bytes: a backend keeps one per node and timer kind.
#[derive(Clone, Copy, Debug)]
pub struct LiveTimer {
    key: Cursor,
    /// An instance is live.
    armed: bool,
    /// An entry is queued under `key`. Without `armed`, a cancelled
    /// instance whose entry is still queued; neither, nothing known queued.
    told: bool,
}

impl Default for LiveTimer {
    fn default() -> Self {
        LiveTimer {
            key: Cursor::NEVER,
            armed: false,
            told: false,
        }
    }
}

impl LiveTimer {
    /// Arm an instance due at `at`, superseding the live one: claim its
    /// key, and push `event` under it unless an entry of this timer is
    /// queued at or before it. Returns whether a live instance was
    /// superseded.
    pub fn arm<E>(&mut self, q: &mut impl SimQueue<E>, at: SimTime, event: E) -> bool {
        let key = q.claim(at);
        let superseded = self.armed;
        // Known queued: the instance's own entry at `self.key`, or, for an
        // instance without one, an entry before it.
        let carried = (self.armed || self.told) && self.key <= key;
        if !carried {
            q.push_claimed(key, event);
        }
        (self.key, self.armed, self.told) = (key, true, !carried);
        superseded
    }

    /// Cancel the live instance. Returns whether there was one.
    pub fn cancel(&mut self) -> bool {
        // An instance without an entry of its own leaves nothing known.
        std::mem::replace(&mut self.armed, false)
    }

    /// An entry of this timer came up, at the queue's cursor. Returns
    /// whether it is the live instance's entry (the instance has fired);
    /// otherwise, if the live instance has no entry of its own yet, `event`
    /// is pushed under its key.
    pub fn on_pop<E>(&mut self, q: &mut impl SimQueue<E>, event: E) -> bool {
        let at = q.cursor();
        if self.told && self.key == at {
            let fired = self.armed;
            (self.armed, self.told) = (false, false);
            return fired;
        }
        if self.armed && !self.told {
            debug_assert!(self.key > at, "a live timer passed unannounced");
            q.push_claimed(self.key, event);
            self.told = true;
        }
        false
    }

    /// Whether an instance is live.
    pub fn is_armed(&self) -> bool {
        self.armed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every instance armed, in any order and with cancels in between, is
    /// dispatched at its own key exactly when it is still live there: the
    /// queue pops what a queue holding every instance would, less the
    /// instances no longer live. The oracle queue holds every instance
    /// under a generation of its own, and fires the live one.
    #[test]
    fn a_live_timer_fires_at_its_own_key_and_nothing_else_does() {
        use crate::queue::EventQueue;
        let mut rng = crate::rng::SimRng::new(5);
        for _ in 0..200 {
            let (mut q, mut every) = (EventQueue::new(), EventQueue::new());
            let mut t = LiveTimer::default();
            // The oracle: the live generation, if an instance is live.
            let (mut gen, mut live) = (0u64, None);
            let (mut fired, mut want) = (Vec::new(), Vec::new());
            for step in 0..40u64 {
                // Both queues claim the same keys: an unrelated event first.
                let at = q.now() + SimTime::from_micros(rng.below(50));
                q.push(at, None);
                every.push(at, None);
                match rng.below(4) {
                    0 | 1 => {
                        let at = q.now() + SimTime::from_micros(rng.below(60));
                        gen += 1;
                        assert_eq!(t.arm(&mut q, at, Some(())), live.is_some());
                        live = Some(gen);
                        every.push(at, Some(gen));
                    }
                    2 => {
                        assert_eq!(t.cancel(), live.take().is_some());
                    }
                    _ => {}
                }
                // Pop a little: both queues in step.
                for _ in 0..rng.below(3) + u64::from(step == 39) * 200 {
                    while let Some((at, ev)) = every.pop() {
                        if let Some(g) = ev {
                            if live == Some(g) {
                                live = None;
                                want.push((at, every.cursor().seq));
                            }
                            continue;
                        }
                        break;
                    }
                    while let Some((at, ev)) = q.pop() {
                        if ev.is_none() {
                            break;
                        }
                        if t.on_pop(&mut q, Some(())) {
                            fired.push((at, q.cursor().seq));
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
