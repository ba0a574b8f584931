//! The sharded event queue: one logical queue partitioned across shards.
//!
//! The conservative-sync engine (DESIGN.md §10) partitions the world into
//! spatial shards, each owning the events addressed to its nodes. The
//! correctness cornerstone is that a partitioned queue with a *shared*
//! sequence counter pops in exactly the same global `(time, seq)` order as
//! a single flat [`EventQueue`]: the partition changes where an event is
//! stored, never when it is dispatched. [`ShardedQueue`] is therefore
//! bit-identical to the single-queue oracle by construction, for any shard
//! count; the scheduling layer above it decides which shard *groups* may
//! run concurrently.
//!
//! Routing a push to a sub-queue other than the one whose event is
//! currently dispatching is a cross-shard hand-off — the "thin cross-shard
//! bus" of the sharded engine. The queue counts those hand-offs so the
//! bench harness can report bus traffic.

use crate::calendar::CalendarQueue;
use crate::queue::EventQueue;
use crate::time::SimTime;

/// The queue interface the simulation engine and PHY channel schedule
/// through. Implemented by the flat [`EventQueue`] (the oracle) and by
/// [`ShardedQueue`]; embedders generic over `SimQueue` monomorphize to the
/// exact pre-sharding hot loop when instantiated with `EventQueue`.
pub trait SimQueue<E> {
    /// The current simulation clock (time of the last popped event).
    fn now(&self) -> SimTime;
    /// Schedule `event` at absolute time `at` (clamped to `now`).
    fn push(&mut self, at: SimTime, event: E);
    /// Schedule `event` after a relative delay from the current clock.
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
    /// Peak pending-event depth (sum over sub-queues when sharded).
    fn depth_high_water(&self) -> usize;
    /// Current capacity (sum over sub-queues when sharded).
    fn capacity(&self) -> usize;
}

/// A [`SimQueue`] that can also serve as a *sub-queue* of a
/// [`ShardedQueue`]: it accepts caller-supplied tie-break sequence numbers
/// (the sharded front-end owns the shared counter) and exposes its head's
/// `(time, seq)` key so the front-end can find the globally earliest event.
/// Implemented by the heap oracle [`EventQueue`] and by the
/// [`CalendarQueue`], which is how the sharded engine runs on either queue.
pub trait SeqQueue<E>: SimQueue<E> + Sized {
    /// An empty queue pre-sized for roughly `cap` pending events.
    fn with_capacity(cap: usize) -> Self;
    /// Schedule `event` at `at` with a caller-supplied tie-break sequence
    /// number. Must not be mixed with [`SimQueue::push`] on the same queue.
    fn push_with_seq(&mut self, at: SimTime, seq: u64, event: E);
    /// The `(time, seq)` key of the earliest pending event, if any.
    fn peek_key(&self) -> Option<(SimTime, u64)>;
}

impl<E> SimQueue<E> for EventQueue<E> {
    #[inline]
    fn now(&self) -> SimTime {
        EventQueue::now(self)
    }
    #[inline]
    fn push(&mut self, at: SimTime, event: E) {
        EventQueue::push(self, at, event)
    }
    #[inline]
    fn push_after(&mut self, delay: SimTime, event: E) {
        EventQueue::push_after(self, delay, event)
    }
    #[inline]
    fn pop(&mut self) -> Option<(SimTime, E)> {
        EventQueue::pop(self)
    }
    #[inline]
    fn peek_time(&self) -> Option<SimTime> {
        EventQueue::peek_time(self)
    }
    #[inline]
    fn len(&self) -> usize {
        EventQueue::len(self)
    }
    #[inline]
    fn total_popped(&self) -> u64 {
        EventQueue::total_popped(self)
    }
    #[inline]
    fn total_pushed(&self) -> u64 {
        EventQueue::total_pushed(self)
    }
    #[inline]
    fn depth_high_water(&self) -> usize {
        EventQueue::depth_high_water(self)
    }
    #[inline]
    fn capacity(&self) -> usize {
        EventQueue::capacity(self)
    }
}

impl<E> SeqQueue<E> for EventQueue<E> {
    #[inline]
    fn with_capacity(cap: usize) -> Self {
        EventQueue::with_capacity(cap)
    }
    #[inline]
    fn push_with_seq(&mut self, at: SimTime, seq: u64, event: E) {
        EventQueue::push_with_seq(self, at, seq, event)
    }
    #[inline]
    fn peek_key(&self) -> Option<(SimTime, u64)> {
        EventQueue::peek_key(self)
    }
}

impl<E> SimQueue<E> for CalendarQueue<E> {
    #[inline]
    fn now(&self) -> SimTime {
        CalendarQueue::now(self)
    }
    #[inline]
    fn push(&mut self, at: SimTime, event: E) {
        CalendarQueue::push(self, at, event)
    }
    #[inline]
    fn push_after(&mut self, delay: SimTime, event: E) {
        CalendarQueue::push_after(self, delay, event)
    }
    #[inline]
    fn pop(&mut self) -> Option<(SimTime, E)> {
        CalendarQueue::pop(self)
    }
    #[inline]
    fn peek_time(&self) -> Option<SimTime> {
        CalendarQueue::peek_time(self)
    }
    #[inline]
    fn pop_at_or_before(&mut self, cutoff: SimTime) -> Option<(SimTime, E)> {
        CalendarQueue::pop_at_or_before(self, cutoff)
    }
    #[inline]
    fn len(&self) -> usize {
        CalendarQueue::len(self)
    }
    #[inline]
    fn total_popped(&self) -> u64 {
        CalendarQueue::total_popped(self)
    }
    #[inline]
    fn total_pushed(&self) -> u64 {
        CalendarQueue::total_pushed(self)
    }
    #[inline]
    fn depth_high_water(&self) -> usize {
        CalendarQueue::depth_high_water(self)
    }
    #[inline]
    fn capacity(&self) -> usize {
        CalendarQueue::capacity(self)
    }
}

impl<E> SeqQueue<E> for CalendarQueue<E> {
    #[inline]
    fn with_capacity(cap: usize) -> Self {
        CalendarQueue::with_capacity(cap)
    }
    #[inline]
    fn push_with_seq(&mut self, at: SimTime, seq: u64, event: E) {
        CalendarQueue::push_with_seq(self, at, seq, event)
    }
    #[inline]
    fn peek_key(&self) -> Option<(SimTime, u64)> {
        CalendarQueue::peek_key(self)
    }
}

/// One logical event queue partitioned across per-shard sub-queues.
///
/// Every push routes to the sub-queue owning the event's home shard (the
/// `route` function, supplied by the embedder, maps an event to a local
/// shard index) and draws its tie-break sequence number from the shared
/// counter; every pop takes the globally earliest `(time, seq)` across
/// sub-queue heads. The pop order is therefore identical to a flat
/// [`EventQueue`] fed the same pushes — the partition is observable only
/// through the per-shard occupancy and bus counters.
///
/// Generic over the sub-queue implementation `Q` (any [`SeqQueue`]): the
/// heap oracle stays the default for differential testing, while the
/// engine's fast path instantiates `ShardedQueue<Ev, CalendarQueue<Ev>>`.
pub struct ShardedQueue<E, Q: SeqQueue<E> = EventQueue<E>> {
    queues: Vec<Q>,
    route: Box<dyn Fn(&E) -> usize + Send>,
    next_seq: u64,
    now: SimTime,
    /// Local index of the shard whose event is currently dispatching
    /// (the shard of the most recently popped event).
    current: usize,
    /// Pushes that stayed on the dispatching shard.
    local_pushes: u64,
    /// Pushes routed to a different shard — cross-shard bus traffic.
    cross_pushes: u64,
    /// Tie-break sequence number of the most recently popped event.
    popped_seq: u64,
}

impl<E, Q: SeqQueue<E>> ShardedQueue<E, Q> {
    /// A queue partitioned over `shards` sub-queues, each pre-sized to
    /// `capacity_per_shard`. `route` maps an event to the local index of
    /// its home shard (`0..shards`).
    pub fn new(
        shards: usize,
        capacity_per_shard: usize,
        route: Box<dyn Fn(&E) -> usize + Send>,
    ) -> ShardedQueue<E, Q> {
        assert!(shards > 0, "a sharded queue needs at least one shard");
        ShardedQueue {
            queues: (0..shards)
                .map(|_| Q::with_capacity(capacity_per_shard))
                .collect(),
            route,
            next_seq: 0,
            now: SimTime::ZERO,
            current: 0,
            local_pushes: 0,
            cross_pushes: 0,
            popped_seq: 0,
        }
    }

    /// Number of sub-queues.
    pub fn shard_count(&self) -> usize {
        self.queues.len()
    }

    /// Pushes that crossed shards (the bus traffic tally).
    pub fn cross_pushes(&self) -> u64 {
        self.cross_pushes
    }

    /// Pushes that stayed on the dispatching shard.
    pub fn local_pushes(&self) -> u64 {
        self.local_pushes
    }

    /// The `(time, seq)` key of the globally earliest pending event, if
    /// any.
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.head().map(|(t, seq, _)| (t, seq))
    }

    /// The tie-break sequence number of the most recently popped event.
    /// The sharded engine's trace-merge path logs it per dispatch (the
    /// reconstruction handle for the oracle's global order).
    pub fn popped_seq(&self) -> u64 {
        self.popped_seq
    }

    /// The globally earliest `(time, seq)` head and the local index of the
    /// sub-queue holding it, if any event is pending.
    fn head(&self) -> Option<(SimTime, u64, usize)> {
        // Single-sub-queue fast path: a group that owns one shard has no
        // scan to make.
        if self.queues.len() == 1 {
            return self.queues[0].peek_key().map(|(t, s)| (t, s, 0));
        }
        let mut best: Option<(SimTime, u64, usize)> = None;
        for (i, q) in self.queues.iter().enumerate() {
            if let Some((t, s)) = q.peek_key() {
                if best.is_none_or(|(bt, bs, _)| (t, s) < (bt, bs)) {
                    best = Some((t, s, i));
                }
            }
        }
        best
    }
}

impl<E, Q: SeqQueue<E>> SimQueue<E> for ShardedQueue<E, Q> {
    #[inline]
    fn now(&self) -> SimTime {
        self.now
    }

    fn push(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "event scheduled in the past: at={at} now={now}",
            at = at,
            now = self.now
        );
        let at = at.max(self.now);
        // Single-sub-queue fast path: a group that owns one shard has no
        // routing decision to make, so skip the route call entirely.
        let shard = if self.queues.len() == 1 {
            0
        } else {
            (self.route)(&event)
        };
        if shard == self.current {
            self.local_pushes += 1;
        } else {
            self.cross_pushes += 1;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queues[shard].push_with_seq(at, seq, event);
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_at_or_before(SimTime::MAX)
    }

    /// One head lookup decides which sub-queue wins, whether its event is
    /// due, and the sequence number [`ShardedQueue::popped_seq`] reports.
    fn pop_at_or_before(&mut self, cutoff: SimTime) -> Option<(SimTime, E)> {
        let (t, seq, shard) = self.head()?;
        if t > cutoff {
            return None;
        }
        let (t, ev) = self.queues[shard].pop()?;
        debug_assert!(t >= self.now, "sharded pop produced time regression");
        self.now = t;
        self.current = shard;
        self.popped_seq = seq;
        Some((t, ev))
    }

    fn peek_time(&self) -> Option<SimTime> {
        if self.queues.len() == 1 {
            return self.queues[0].peek_time();
        }
        self.queues.iter().filter_map(|q| q.peek_time()).min()
    }

    fn len(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    fn total_popped(&self) -> u64 {
        self.queues.iter().map(|q| q.total_popped()).sum()
    }

    fn total_pushed(&self) -> u64 {
        self.queues.iter().map(|q| q.total_pushed()).sum()
    }

    fn depth_high_water(&self) -> usize {
        self.queues.iter().map(|q| q.depth_high_water()).sum()
    }

    fn capacity(&self) -> usize {
        self.queues.iter().map(|q| q.capacity()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Route even payloads to shard 0, odd to shard 1.
    fn two_shards() -> ShardedQueue<u64> {
        ShardedQueue::new(2, 16, Box::new(|e: &u64| (*e % 2) as usize))
    }

    #[test]
    fn pop_order_matches_flat_queue() {
        // Identical pseudo-random push traffic into a flat queue and a
        // 3-way sharded queue must pop in the identical order.
        let mut flat: EventQueue<u64> = EventQueue::new();
        let mut sharded: ShardedQueue<u64> =
            ShardedQueue::new(3, 16, Box::new(|e: &u64| (*e % 3) as usize));
        let mut x: u64 = 0x243F6A8885A308D3;
        let mut pending = Vec::new();
        for i in 0..500u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            pending.push((SimTime::from_nanos(x % 1000), i));
        }
        for &(t, i) in &pending {
            flat.push(t, i);
            sharded.push(t, i);
        }
        loop {
            let a = flat.pop();
            let b = sharded.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert_eq!(flat.total_popped(), sharded.total_popped());
    }

    #[test]
    fn simultaneous_cross_shard_events_keep_global_fifo() {
        // The pinned tie-break rule: two events at the same nanosecond on
        // different shards dispatch in push (sequence) order.
        let mut q = two_shards();
        let t = SimTime::from_micros(3);
        q.push(t, 1); // shard 1 first
        q.push(t, 0); // then shard 0, same instant
        q.push(t, 3); // shard 1 again
        assert_eq!(q.pop(), Some((t, 1)));
        assert_eq!(q.pop(), Some((t, 0)));
        assert_eq!(q.pop(), Some((t, 3)));
    }

    #[test]
    fn bus_counters_split_local_from_cross() {
        let mut q = two_shards();
        q.push(SimTime::MICRO, 0); // current shard is 0 at start: local
        q.push(SimTime::MICRO, 1); // cross to shard 1
        assert_eq!(q.local_pushes(), 1);
        assert_eq!(q.cross_pushes(), 1);
        q.pop(); // dispatches the shard-0 event
        q.pop(); // dispatches the shard-1 event; current becomes 1
        q.push(SimTime::from_micros(2), 3); // local to shard 1
        assert_eq!(q.local_pushes(), 2);
        assert_eq!(q.cross_pushes(), 1);
    }

    #[test]
    fn clock_is_global_across_shards() {
        let mut q = two_shards();
        q.push(SimTime::from_micros(1), 0);
        q.push(SimTime::from_micros(5), 1);
        q.pop();
        assert_eq!(q.now(), SimTime::from_micros(1));
        q.pop();
        assert_eq!(q.now(), SimTime::from_micros(5));
        // A push "now" lands at the global clock even though shard 0's
        // sub-queue last popped at 1 µs.
        q.push(SimTime::from_micros(5), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(5)));
    }

    #[test]
    fn peek_key_reports_the_global_head() {
        let mut q = two_shards();
        assert_eq!(q.peek_key(), None);
        let t = SimTime::from_micros(4);
        q.push(t, 1); // seq 0, shard 1
        q.push(t, 0); // seq 1, shard 0: same instant, later seq
        assert_eq!(q.peek_key(), Some((t, 0)));
        q.pop();
        assert_eq!(q.popped_seq(), 0);
        assert_eq!(q.peek_key(), Some((t, 1)));
        // Not due yet: the head and the popped seq stay put.
        assert_eq!(q.pop_at_or_before(SimTime::from_micros(3)), None);
        assert_eq!(q.pop_at_or_before(t), Some((t, 0)));
        assert_eq!(q.popped_seq(), 1);
    }

    #[test]
    fn calendar_sub_queues_match_heap_sub_queues() {
        // The sharded front-end must pop the identical stream whether its
        // sub-queues are heap oracles or calendar queues.
        let mut on_heap: ShardedQueue<u64> =
            ShardedQueue::new(3, 16, Box::new(|e: &u64| (*e % 3) as usize));
        let mut on_cal: ShardedQueue<u64, CalendarQueue<u64>> =
            ShardedQueue::new(3, 16, Box::new(|e: &u64| (*e % 3) as usize));
        let mut x: u64 = 0x13198A2E03707344;
        for i in 0..500u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let t = SimTime::from_nanos(x % 100_000);
            on_heap.push(t, i);
            on_cal.push(t, i);
        }
        loop {
            assert_eq!(on_heap.peek_key(), on_cal.peek_key());
            let a = on_heap.pop();
            let b = on_cal.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert_eq!(on_heap.cross_pushes(), on_cal.cross_pushes());
    }

    #[test]
    fn aggregate_counters_sum_sub_queues() {
        let mut q = two_shards();
        for i in 0..6u64 {
            q.push(SimTime::from_micros(i), i);
        }
        assert_eq!(q.len(), 6);
        assert_eq!(q.total_pushed(), 6);
        q.pop();
        q.pop();
        assert_eq!(q.total_popped(), 2);
        assert!(q.depth_high_water() >= 4);
        assert!(q.capacity() >= 32);
        assert!(!q.is_empty());
        assert_eq!(q.shard_count(), 2);
    }
}
