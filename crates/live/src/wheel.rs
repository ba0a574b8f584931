//! Pinned shim: `benchmark/README.md` § Pinned API links
//! `TimerWheel::{default, schedule, advance}`. A live node keeps time on
//! `rmac_sim::EventQueue` (`crate::node`) and the hierarchical wheel is gone;
//! new code calls the queue, and this file goes with ROADMAP item 4(d).

use rmac_sim::{EventQueue, SimQueue, SimTime};

/// An [`EventQueue`] under the retired wheel's three names.
pub struct TimerWheel<T>(EventQueue<T>);

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        TimerWheel(EventQueue::new())
    }
}

impl<T> TimerWheel<T> {
    /// [`SimQueue::push`].
    pub fn schedule(&mut self, at: SimTime, item: T) {
        self.0.push(at, item);
    }

    /// [`SimQueue::pop_at_or_before`] until empty, appended to `out`.
    pub fn advance(&mut self, now: SimTime, out: &mut Vec<(SimTime, T)>) {
        out.extend(std::iter::from_fn(|| self.0.pop_at_or_before(now)));
    }
}
