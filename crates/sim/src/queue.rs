//! The event queue.
//!
//! A discrete-event simulation advances by repeatedly popping the earliest
//! pending event. Correctness of a MAC-layer simulation additionally demands
//! *deterministic* ordering of simultaneous events — two frames scheduled to
//! end at the same nanosecond must always be processed in the same order, or
//! replications stop being reproducible. We therefore tie-break equal
//! timestamps by a monotonically increasing sequence number (FIFO insertion
//! order): the key discipline of [`crate::key`], which this file's heap and
//! the [`CalendarQueue`](crate::CalendarQueue) both embed. [`SimQueue`] is
//! the one spelling of the queue API; the queues keep only their
//! constructors and diagnostics inherent.

use std::collections::BinaryHeap;

use crate::key::{Cursor, Entry, Keys};
use crate::time::SimTime;

/// A time-ordered queue of events on a binary heap: the reference the
/// calendar queue is differentially tested against, and the queue of every
/// holder whose pending set is small — the engine's beacon timetable is
/// built through one, and each `rmac-live` node keeps its timers in one.
///
/// Events popped from the queue never travel backwards in time; pushing an
/// event earlier than the last popped time is a logic error in the caller
/// and is caught by a debug assertion in [`SimQueue::claim`].
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    keys: Keys,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue positioned at time zero.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            keys: Keys::new(),
        }
    }

    /// Grow the queue to hold at least `additional` more events without
    /// reallocating (embedders pre-size from the scenario scale so the
    /// heap never reallocates mid-replication).
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }
}

/// The queue interface the simulation engine and PHY channel schedule
/// through. Implemented by the heap [`EventQueue`] (the differential-testing
/// reference, the beacon timetable's queue and a live node's timers) and by
/// the [`CalendarQueue`](crate::CalendarQueue) the engine runs on; embedders
/// generic over `SimQueue` monomorphize to either.
pub trait SimQueue<E> {
    /// The current simulation clock (time of the last popped event).
    fn now(&self) -> SimTime;
    /// The key of the last popped event — the one being dispatched.
    fn cursor(&self) -> Cursor;
    /// Take the key the next push at `at` would get, without pushing (see
    /// [`Cursor`]). Scheduling in the past (before the current clock) is
    /// clamped to the current clock in release builds and panics in debug
    /// builds — it indicates a protocol bug such as a negative timer.
    fn claim(&mut self, at: SimTime) -> Cursor;
    /// Schedule `event` under a key taken by [`claim`](SimQueue::claim) that
    /// the clock has not passed.
    fn push_claimed(&mut self, key: Cursor, event: E);
    /// Schedule `event` at absolute time `at` (clamped to `now`).
    #[inline]
    fn push(&mut self, at: SimTime, event: E) {
        let key = self.claim(at);
        self.push_claimed(key, event);
    }
    /// Schedule `event` after a relative delay from the current clock.
    #[inline]
    fn push_after(&mut self, delay: SimTime, event: E) {
        self.push(self.now() + delay, event);
    }
    /// Pop the earliest event, advancing the clock to its timestamp.
    fn pop(&mut self) -> Option<(SimTime, E)>;
    /// The timestamp of the earliest pending event, if any.
    fn peek_time(&self) -> Option<SimTime>;
    /// Pop the earliest event only if its timestamp is `<= cutoff`; leave
    /// the queue untouched (returning `None`) otherwise. Equivalent to a
    /// `peek_time` check followed by `pop`, but implementations can fuse
    /// the two so the hot simulation loop pays for one head lookup per
    /// event instead of two.
    fn pop_at_or_before(&mut self, cutoff: SimTime) -> Option<(SimTime, E)> {
        match self.peek_time() {
            Some(t) if t <= cutoff => self.pop(),
            _ => None,
        }
    }
    /// Number of pending events.
    fn len(&self) -> usize;
    /// Whether the queue has no pending events.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Total events popped over the queue's lifetime.
    fn total_popped(&self) -> u64;
    /// Total events pushed over the queue's lifetime.
    fn total_pushed(&self) -> u64;
    /// Peak pending-event depth, a capacity diagnostic for the pre-sizing
    /// heuristics.
    fn depth_high_water(&self) -> usize;
    /// Events the queue can hold without reallocating.
    fn capacity(&self) -> usize;
}

impl<E> SimQueue<E> for EventQueue<E> {
    #[inline]
    fn now(&self) -> SimTime {
        self.keys.at.time
    }
    #[inline]
    fn cursor(&self) -> Cursor {
        self.keys.at
    }
    #[inline]
    fn claim(&mut self, at: SimTime) -> Cursor {
        self.keys.claim(at)
    }
    fn push_claimed(&mut self, key: Cursor, event: E) {
        self.heap.push(Entry { key, event });
        self.keys.note_push(key, self.heap.len());
    }
    fn pop(&mut self) -> Option<(SimTime, E)> {
        let Entry { key, event } = self.heap.pop()?;
        self.keys.note_pop(key);
        Some((key.time, event))
    }
    #[inline]
    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.key.time)
    }
    #[inline]
    fn len(&self) -> usize {
        self.heap.len()
    }
    #[inline]
    fn total_popped(&self) -> u64 {
        self.keys.popped
    }
    #[inline]
    fn total_pushed(&self) -> u64 {
        self.keys.pushed
    }
    #[inline]
    fn depth_high_water(&self) -> usize {
        self.keys.high_water
    }
    #[inline]
    fn capacity(&self) -> usize {
        self.heap.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(30), "c");
        q.push(SimTime::from_micros(10), "a");
        q.push(SimTime::from_micros(20), "b");
        assert_eq!(q.pop(), Some((SimTime::from_micros(10), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_micros(20), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_micros(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn a_claimed_key_keeps_its_place_on_both_queues() {
        fn check(mut q: impl SimQueue<u8>) {
            let t = SimTime::from_micros(5);
            q.push(t, 0);
            let claimed = q.claim(t);
            q.push(t, 2);
            q.push(SimTime::from_micros(9), 3);
            assert_eq!((claimed, q.total_pushed()), (Cursor { time: t, seq: 1 }, 3));
            // A state change at the claimed key is behind the second
            // same-instant event and ahead of the first…
            assert_eq!(q.pop(), Some((t, 0)));
            assert_eq!(q.cursor(), Cursor { time: t, seq: 0 });
            assert!(claimed > q.cursor() && claimed < Cursor::end_of(t));
            // …and an event pushed under it, late, still runs between them.
            q.push_claimed(claimed, 1);
            for want in [1, 2] {
                assert_eq!(q.pop(), Some((t, want)));
            }
            assert!(claimed < q.cursor());
            assert_eq!(q.pop(), Some((SimTime::from_micros(9), 3)));
            assert_eq!(q.cursor().seq, 3);
            // Claiming moves neither the depth nor the push count, however
            // far ahead; the farthest key a claim can return is still short
            // of `NEVER`, and fills like any other.
            let books = (q.len(), q.total_pushed(), q.depth_high_water());
            let last = q.claim(SimTime::MAX);
            assert_eq!((q.len(), q.total_pushed(), q.depth_high_water()), books);
            assert_eq!((last.time, last.seq), (SimTime::MAX, 4));
            assert!(last < Cursor::NEVER && Cursor::NEVER == Cursor::end_of(SimTime::MAX));
            q.push_claimed(last, 4);
            assert_eq!(q.peek_time(), Some(SimTime::MAX));
            assert_eq!(q.pop(), Some((SimTime::MAX, 4)));
            assert_eq!((q.cursor(), q.is_empty()), (last, true));
        }
        check(EventQueue::new());
        check(crate::CalendarQueue::new());
        check(crate::CalendarQueue::with_geometry(4, 4));
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.push(SimTime::from_micros(7), ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_micros(7));
        q.push_after(SimTime::from_micros(3), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(10)));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(10), ());
        q.pop();
        q.push(SimTime::from_micros(5), ());
    }

    #[test]
    fn capacity_hooks_presize_the_heap() {
        let mut q: EventQueue<u32> = EventQueue::with_capacity(64);
        assert!(q.capacity() >= 64);
        q.reserve(1000);
        assert!(q.capacity() >= 1000);
        // Reserving never disturbs queue contents.
        q.push(SimTime::MICRO, 9);
        q.reserve(2000);
        assert_eq!(q.pop(), Some((SimTime::MICRO, 9)));
    }

    #[test]
    fn counters_track_traffic() {
        let mut q = EventQueue::new();
        q.push(SimTime::MICRO, 1);
        q.push(SimTime::MICRO, 2);
        q.pop();
        assert_eq!(q.total_pushed(), 2);
        assert_eq!(q.total_popped(), 1);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn high_water_tracks_peak_depth() {
        let mut q = EventQueue::new();
        assert_eq!(q.depth_high_water(), 0);
        q.push(SimTime::MICRO, 1);
        q.push(SimTime::MICRO, 2);
        q.push(SimTime::MICRO, 3);
        q.pop();
        q.pop();
        // Draining never lowers the mark.
        assert_eq!(q.depth_high_water(), 3);
        q.push_after(SimTime::MICRO, 4);
        assert_eq!(q.depth_high_water(), 3);
    }

    #[test]
    fn interleaved_push_pop_never_regresses() {
        // A miniature fuzz: pseudo-random pushes relative to `now` must pop
        // in non-decreasing time order.
        let mut q = EventQueue::new();
        let mut x: u64 = 0x9E3779B97F4A7C15;
        let mut last = SimTime::ZERO;
        q.push(SimTime::ZERO, 0u32);
        let mut processed = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
            processed += 1;
            if processed > 10_000 {
                break;
            }
            // push 0..3 new events at now + pseudo-random small delays
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let n = (x % 3) as u32;
            for i in 0..n {
                let d = (x >> (8 * i)) % 50_000;
                if processed + (q.len() as u64) < 10_000 {
                    q.push_after(SimTime::from_nanos(d), i);
                }
            }
        }
    }
}
