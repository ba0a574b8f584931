//! The calendar queue: an O(1)-amortized event queue for the RMAC cadence.
//!
//! The binary-heap [`EventQueue`](crate::EventQueue) pays `O(log n)`
//! compare-and-swap traffic on every operation, and the rmac-obs kernel
//! histograms show those heap ops dominating the dense 200-node workload:
//! almost every event the MAC layer schedules lands within a few tone
//! windows (~15 µs) of the current clock, so the heap keeps re-sifting a
//! working set whose order is nearly sorted already. A calendar queue
//! exploits exactly that cadence:
//!
//! * Virtual time is cut into fixed windows of `2^shift` ns. The **active
//!   window** `[base, base + width)` is materialised as two structures
//!   merged at pop time by a single key compare: a `(time, seq)`-sorted
//!   **drain buffer** (events that arrived via a bucket; popping is
//!   `pop_front`) and a small **pending min-heap** (events pushed after the
//!   window went active — every propagation-delayed PHY arrival lands
//!   here). The split matters: a sorted-buffer insert would shift half the
//!   window per push, while a pure heap would pay a sift-down on every
//!   pop; the hybrid pays `O(1)` for bucket-drained pops and `O(log p)`
//!   only for the (small) pending side.
//! * The following `nbuckets - 1` windows live in a ring of **unsorted
//!   buckets**; a push there is an append. When the active window drains,
//!   the next non-empty bucket is sorted once and becomes the new drain
//!   buffer — batching each window's events with their same-window
//!   neighbours. One **occupancy bit** per bucket says which hold events,
//!   so the window jumps straight to the next occupied one (a scan of
//!   `nbuckets / 64` words) instead of stepping through the empty ones.
//! * Buffers follow the occupied windows, not the ring: a bucket hands its
//!   buffer to the drain buffer and keeps an unallocated `Vec`, a drained
//!   drain buffer goes onto a LIFO stack of **spares**, and a bucket that
//!   receives its first event takes the most recently drained spare (still
//!   in cache). Retained capacity therefore tracks the pending depth, not
//!   the number of windows a run ever touched.
//! * Events beyond the ring horizon (beacon periods, source intervals)
//!   overflow into a small **far heap**, pulled back into the ring once per
//!   window jump. Far traffic is rare, so its `O(log n)` is harmless.
//!
//! Ordering is identical to the heap oracle by construction: every pending
//! event carries its `(time, seq)` key, keys are strictly unique, each pop
//! takes the smaller of the drain buffer's front and the pending heap's
//! top, and windows drain in ascending order — so the pop stream is the
//! unique ascending `(time, seq)` order, exactly what the oracle produces,
//! independent of either structure's internal layout. The differential harness
//! `tests/queue_equivalence.rs` holds the two implementations to identical
//! pop streams over randomized push/pop schedules, and the engine holds
//! full replications to `RunReport` bit-identity.
//!
//! The refill step runs eagerly after every pop, so "queue non-empty ⇒
//! active window non-empty (drain buffer or pending heap)" is an invariant
//! and `peek_time` is a plain front read (no interior mutability behind
//! `&self`).

use std::collections::{BinaryHeap, VecDeque};

use crate::key::{Cursor, Entry, Keys};
use crate::queue::SimQueue;
use crate::time::SimTime;

/// Default window width: 2^12 ns = 4.096 µs. Small enough that the sorted
/// active buffer holds only a handful of events (propagation delays and
/// sub-window timers), while the 15 µs tone-window cadence lands in the
/// unsorted ring with an O(1) append.
const DEFAULT_SHIFT: u32 = 12;

/// Default ring size (must be a power of two): 1024 windows ≈ 4.2 ms of
/// horizon, covering every MAC-layer timer; only beacon periods and source
/// intervals overflow into the far heap.
const DEFAULT_NBUCKETS: usize = 1024;

/// A calendar/ladder event queue, pop-order identical to
/// [`EventQueue`](crate::EventQueue).
///
/// Drop-in behind the [`SimQueue`](crate::SimQueue) trait: deterministic
/// `(time, seq)` FIFO tie-breaking for simultaneous events, a monotone
/// clock, the same past-scheduling clamp/debug-panic, and the same lifetime
/// counters (`total_pushed` / `total_popped` / `depth_high_water`) feeding
/// rmac-obs.
pub struct CalendarQueue<E> {
    /// The active window's bucket-drained events, sorted ascending by
    /// `(time, seq)` and popped from the front.
    active: VecDeque<Entry<E>>,
    /// Events pushed into the active window after it went active, as a
    /// `(time, seq)` min-heap. Merged with `active` at pop/peek time.
    pending: BinaryHeap<Entry<E>>,
    /// Ring of unsorted future windows; window at offset `d` from the
    /// active one (`1 ≤ d < nbuckets`) lives at index `(cur + d) & mask`.
    /// An empty bucket holds no allocation.
    buckets: Vec<Vec<Entry<E>>>,
    /// Drained drain buffers, empty, waiting for a bucket to fill; the last
    /// one pushed is handed out first.
    spares: Vec<Vec<Entry<E>>>,
    /// Ring index of the active window.
    cur: usize,
    /// `buckets.len() - 1` (ring size is a power of two).
    mask: usize,
    /// Start of the active window, ns.
    base: u64,
    /// log₂ of the window width in ns.
    shift: u32,
    /// Events currently resident in ring buckets.
    ring_len: usize,
    /// One bit per ring bucket (bit `i % 64` of word `i / 64`): set when a
    /// push or a far pull lands in bucket `i`, cleared when it drains into
    /// the active window.
    occupied: Vec<u64>,
    /// Events at or beyond the ring horizon, earliest `(time, seq)` first.
    far: BinaryHeap<Entry<E>>,
    /// Total pending events (active + ring + far).
    len: usize,
    keys: Keys,
    /// Window advances performed, each a jump to the next occupied window
    /// (diagnostic).
    rotations: u64,
    /// Events pulled back from the far heap into the ring (diagnostic).
    far_pulls: u64,
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> CalendarQueue<E> {
    /// An empty queue positioned at time zero, with the default geometry
    /// (4.096 µs windows, 1024-window ring).
    pub fn new() -> Self {
        Self::with_geometry(DEFAULT_SHIFT, DEFAULT_NBUCKETS)
    }

    /// An empty queue sized for roughly `cap` pending events (the same
    /// pre-sizing hook the heap oracle exposes). Ring buckets grow lazily
    /// and the drain buffer is a drained bucket's, so only the far heap
    /// pre-allocates.
    pub fn with_capacity(cap: usize) -> Self {
        let mut q = Self::new();
        q.far.reserve(cap / 8);
        q
    }

    /// An empty queue with an explicit window width of `2^shift` ns and a
    /// power-of-two ring of `nbuckets` windows. Exposed for the
    /// differential tests, which deliberately shrink the geometry so
    /// schedules straddle window and horizon boundaries constantly.
    pub fn with_geometry(shift: u32, nbuckets: usize) -> Self {
        assert!(
            nbuckets.is_power_of_two() && nbuckets >= 2,
            "calendar ring size must be a power of two ≥ 2"
        );
        assert!(shift < 48, "calendar window width out of range");
        CalendarQueue {
            active: VecDeque::new(),
            pending: BinaryHeap::new(),
            buckets: (0..nbuckets).map(|_| Vec::new()).collect(),
            spares: Vec::new(),
            cur: 0,
            mask: nbuckets - 1,
            base: 0,
            shift,
            ring_len: 0,
            occupied: vec![0; nbuckets.div_ceil(64)],
            far: BinaryHeap::new(),
            len: 0,
            keys: Keys::new(),
            rotations: 0,
            far_pulls: 0,
        }
    }

    /// Window width in ns.
    #[inline]
    fn width(&self) -> u64 {
        1u64 << self.shift
    }

    /// Ring horizon in ns past `base`.
    #[inline]
    fn span(&self) -> u64 {
        (self.buckets.len() as u64) << self.shift
    }

    /// Whether the active window holds no events (both halves empty).
    #[inline]
    fn window_empty(&self) -> bool {
        self.active.is_empty() && self.pending.is_empty()
    }

    /// Remove the head the caller just chose (the pending heap's top or the
    /// drain buffer's front) and advance the clock to it.
    #[inline(always)]
    fn take_head(&mut self, from_pending: bool) -> (SimTime, E) {
        let Entry { key, event } = if from_pending {
            self.pending.pop().expect("peeked pending event vanished")
        } else {
            self.active
                .pop_front()
                .expect("peeked active event vanished")
        };
        self.keys.note_pop(key);
        self.len -= 1;
        if self.window_empty() && self.len > 0 {
            self.refill();
        }
        (key.time, event)
    }

    /// Advance the window machinery until the active window is non-empty.
    /// Pre: window empty, `len > 0`.
    fn refill(&mut self) {
        debug_assert!(self.window_empty() && self.len > 0);
        loop {
            if !self.buckets[self.cur].is_empty() {
                // Sort the current window's bucket into the drain buffer;
                // the drained buffer waits on the spares for the next
                // bucket that fills, and this bucket keeps no allocation.
                let drained = Vec::from(std::mem::take(&mut self.active));
                if drained.capacity() > 0 {
                    self.spares.push(drained);
                }
                let mut b = std::mem::take(&mut self.buckets[self.cur]);
                self.occupied[self.cur / 64] &= !(1 << (self.cur % 64));
                self.ring_len -= b.len();
                b.sort_unstable_by_key(|x| x.key);
                self.active = VecDeque::from(b);
                return;
            }
            if self.ring_len > 0 {
                // Jump to the next occupied window. Every far event lies
                // past the old horizon, so none precedes it; those that
                // entered the new horizon land in the buckets just vacated.
                let d = self.next_occupied();
                self.base += (d as u64) << self.shift;
                self.cur = (self.cur + d) & self.mask;
            } else {
                // Everything pending lives beyond the horizon: jump the
                // window straight to the earliest far event's window.
                let t = self
                    .far
                    .peek()
                    .expect("len > 0 with empty active, ring and far")
                    .key
                    .time
                    .nanos();
                debug_assert!(t >= self.base);
                self.base += ((t - self.base) >> self.shift) << self.shift;
            }
            self.rotations += 1;
            self.pull_far();
        }
    }

    /// How many windows past the active one the nearest occupied bucket
    /// lies: the occupancy words scanned from the active bucket's, wrapping
    /// around the ring. Pre: the ring holds an event, the active bucket
    /// none.
    fn next_occupied(&self) -> usize {
        let words = self.occupied.len();
        let mut w = self.cur / 64;
        // The active bucket's word from its bit up, then every word in
        // ring order — the first again, whole, for the wrap.
        let mut word = self.occupied[w] & (!0u64 << (self.cur % 64));
        for _ in 0..=words {
            if word != 0 {
                let i = w * 64 + word.trailing_zeros() as usize;
                return i.wrapping_sub(self.cur) & self.mask;
            }
            w = if w + 1 == words { 0 } else { w + 1 };
            word = self.occupied[w];
        }
        unreachable!("ring_len > 0 with no occupied bucket")
    }

    /// File `e` in the ring bucket `d` windows past the active one.
    #[inline]
    fn file(&mut self, d: usize, e: Entry<E>) {
        let i = (self.cur + d) & self.mask;
        if self.buckets[i].capacity() == 0 {
            self.give_spare(i);
        }
        self.buckets[i].push(e);
        self.occupied[i / 64] |= 1 << (i % 64);
        self.ring_len += 1;
    }

    /// Hand bucket `i`, which holds no allocation, the most recently
    /// drained spare, if any. Cold and out of line: `file` stays small
    /// enough to inline into every push.
    #[cold]
    #[inline(never)]
    fn give_spare(&mut self, i: usize) {
        if let Some(spare) = self.spares.pop() {
            self.buckets[i] = spare;
        }
    }

    /// Move far-heap events that now fall inside the ring horizon into
    /// their buckets.
    fn pull_far(&mut self) {
        while let Some(e) = self.far.peek() {
            let t = e.key.time.nanos();
            debug_assert!(t >= self.base, "far event behind the window");
            if t - self.base >= self.span() {
                break;
            }
            let e = self.far.pop().expect("peeked far event vanished");
            self.file(((t - self.base) >> self.shift) as usize, e);
            self.far_pulls += 1;
        }
    }

    /// Window advances performed over the queue's lifetime, one per jump to
    /// the next occupied window (diagnostic: the epoch-rotation cost of the
    /// chosen geometry).
    #[inline]
    pub fn rotations(&self) -> u64 {
        self.rotations
    }

    /// Events pulled back from the far heap into the ring (diagnostic:
    /// overflow traffic of the chosen horizon).
    #[inline]
    pub fn far_pulls(&self) -> u64 {
        self.far_pulls
    }
}

impl<E> SimQueue<E> for CalendarQueue<E> {
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
        self.len += 1;
        self.keys.note_push(key, self.len);
        let t = key.time.nanos();
        // All placement arithmetic is subtraction-based so times near
        // `u64::MAX` cannot overflow a `base + span` sum.
        if t < self.base || t - self.base < self.width() {
            // Current-window event (or one earlier than the window after an
            // empty-queue fast-forward): push onto the pending heap. This
            // is the hot case — every propagation-delayed arrival lands
            // here — and a sift-up over the small pending side beats
            // shifting a sorted buffer.
            self.pending.push(Entry { key, event });
        } else if t - self.base < self.span() {
            self.file(
                ((t - self.base) >> self.shift) as usize,
                Entry { key, event },
            );
            // The push may have landed while the queue was empty (stale
            // window position): restore the eager-drain invariant.
            if self.window_empty() {
                self.refill();
            }
        } else {
            self.far.push(Entry { key, event });
            if self.window_empty() {
                self.refill();
            }
        }
    }

    /// The smaller key of the drain buffer's front and the pending heap's
    /// top.
    fn pop(&mut self) -> Option<(SimTime, E)> {
        let from_pending = match (self.active.front(), self.pending.peek()) {
            (Some(a), Some(p)) => p.key < a.key,
            (None, Some(_)) => true,
            (Some(_), None) => false,
            (None, None) => return None,
        };
        Some(self.take_head(from_pending))
    }

    #[inline]
    fn peek_time(&self) -> Option<SimTime> {
        let a = self.active.front().map(|e| e.key.time);
        let p = self.pending.peek().map(|e| e.key.time);
        match (a, p) {
            (Some(a), Some(p)) => Some(a.min(p)),
            (a, p) => a.or(p),
        }
    }

    /// Fused `peek_time` + `pop`: one head comparison decides both which
    /// half of the hybrid window wins *and* whether the event is due, so the
    /// hot loop pays a single lookup per event.
    fn pop_at_or_before(&mut self, cutoff: SimTime) -> Option<(SimTime, E)> {
        let from_pending = match (self.active.front(), self.pending.peek()) {
            (Some(a), Some(p)) => {
                let pending_first = p.key < a.key;
                let head = if pending_first {
                    p.key.time
                } else {
                    a.key.time
                };
                if head > cutoff {
                    return None;
                }
                pending_first
            }
            (None, Some(p)) => {
                if p.key.time > cutoff {
                    return None;
                }
                true
            }
            (Some(a), None) => {
                if a.key.time > cutoff {
                    return None;
                }
                false
            }
            (None, None) => return None,
        };
        Some(self.take_head(from_pending))
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
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

    /// Active buffer + pending heap + ring buckets + spares + far heap.
    fn capacity(&self) -> usize {
        self.active.capacity()
            + self.pending.capacity()
            + self.far.capacity()
            + self
                .buckets
                .iter()
                .chain(&self.spares)
                .map(|b| b.capacity())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = CalendarQueue::new();
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
        let mut q = CalendarQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = CalendarQueue::new();
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
        let mut q = CalendarQueue::new();
        q.push(SimTime::from_micros(10), ());
        q.pop();
        q.push(SimTime::from_micros(5), ());
    }

    #[test]
    fn counters_track_traffic() {
        let mut q = CalendarQueue::new();
        q.push(SimTime::MICRO, 1);
        q.push(SimTime::MICRO, 2);
        q.pop();
        assert_eq!(q.total_pushed(), 2);
        assert_eq!(q.total_popped(), 1);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        assert_eq!(q.depth_high_water(), 2);
    }

    #[test]
    fn far_horizon_events_come_back_in_order() {
        // A tiny geometry (8 ns windows, 4-bucket ring = 32 ns horizon)
        // forces constant far-heap overflow and window rotation.
        let mut q = CalendarQueue::with_geometry(3, 4);
        let times = [1_000_000u64, 5, 40, 33, 7, 1_000_000, 999_999, 0, 64];
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut sorted: Vec<(u64, usize)> = times.iter().cloned().zip(0..).collect();
        sorted.sort();
        for (t, i) in sorted {
            assert_eq!(q.pop(), Some((SimTime::from_nanos(t), i)));
        }
        assert!(q.rotations() > 0);
        assert!(q.far_pulls() > 0);
    }

    #[test]
    fn empty_queue_fast_forwards_to_sparse_events() {
        let mut q = CalendarQueue::with_geometry(3, 4);
        // Drain fully, then schedule far beyond the stale window position.
        q.push(SimTime::from_nanos(4), ());
        q.pop();
        q.push(SimTime::from_secs(3), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(3)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(3), ())));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_push_pop_never_regresses() {
        let mut q = CalendarQueue::with_geometry(6, 8);
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

    #[test]
    fn retained_capacity_tracks_the_pending_depth_not_the_windows_touched() {
        // One event at a time walks twice round the default ring, each a
        // window past the last: every bucket fills once per lap, but never
        // more than two events are pending at once.
        let mut q = CalendarQueue::new();
        let width = 1u64 << DEFAULT_SHIFT;
        q.push(SimTime::ZERO, 0usize);
        for w in 1..=2 * DEFAULT_NBUCKETS {
            q.push(SimTime::from_nanos(w as u64 * width), w);
            assert_eq!(q.pop().map(|(_, w)| w), Some(w - 1));
        }
        assert_eq!(q.pop().map(|(_, w)| w), Some(2 * DEFAULT_NBUCKETS));
        assert!(q.is_empty());
        assert_eq!(q.depth_high_water(), 2);
        // A `Vec`'s smallest allocation is four entries; the drain buffer
        // and one spare may each hold one.
        assert!(
            q.capacity() <= 8 * q.depth_high_water(),
            "{} entries retained for a high water of {}",
            q.capacity(),
            q.depth_high_water()
        );
    }

    #[test]
    fn capacity_hooks_presize() {
        let q: CalendarQueue<u32> = CalendarQueue::with_capacity(512);
        assert!(q.capacity() >= 64);
    }
}
