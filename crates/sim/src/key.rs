//! The claimed key: one contract from the queues down to a record's edge.
//!
//! Every event has a unique `(time, seq)` key and events pop in ascending
//! key order, FIFO within an instant. A key can also be *claimed* without an
//! event — a state change that mostly needs no dispatch (a busy-tone edge or
//! a frame's first bit at a receiver whose MAC could do nothing with it)
//! still happens at one exact place in the run — and filled later, as long
//! as the clock has not passed it. The contract is written once here:
//!
//! * [`Cursor`] is a key, and a reader's place in the dispatch order;
//! * `Keys` is the discipline both queues embed — the clock, the next
//!   sequence number, the past-scheduling clamp, the lifetime counters — and
//!   `Entry` is the one pending-event type they order by it;
//! * [`Edge`] is a claimed key plus whether an event carries it, with the
//!   only two operations that claim or fill a key outside the queues:
//!   [`Edge::write`] and [`Edge::catch_up`], counted by an [`EdgeTally`].

use std::cmp::Ordering;

use crate::queue::SimQueue;
use crate::time::SimTime;

/// A place in a queue's dispatch order: the `(time, seq)` key of an event.
/// Keys are unique and events pop in ascending key order, so "at or before
/// this cursor" names a prefix of the run.
///
/// A key can be [claimed](SimQueue::claim) without pushing anything: readers
/// compare it with the [cursor](SimQueue::cursor) of the event they are
/// being dispatched under, and if an event turns out to be needed after all
/// it is [pushed under the claimed key](SimQueue::push_claimed) and runs
/// where it always would have. [`Edge`] is the one caller of both.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Cursor {
    pub time: SimTime,
    pub seq: u64,
}

impl Cursor {
    /// Past every key: where something that has not happened yet is keyed
    /// (the falling edge of a tone still lasting). No
    /// [`claim`](SimQueue::claim) returns it.
    pub const NEVER: Cursor = Cursor::end_of(SimTime::MAX);

    /// Past every event at `time` (for readers that are not dispatching).
    pub const fn end_of(time: SimTime) -> Cursor {
        Cursor {
            time,
            seq: u64::MAX,
        }
    }
}

/// A bare instant reads as [`Cursor::end_of`] it: what a caller that is not
/// dispatching an event has to offer where a cursor is asked for.
impl From<SimTime> for Cursor {
    fn from(time: SimTime) -> Cursor {
        Cursor::end_of(time)
    }
}

/// A pending event under its key, reverse-ordered so a `BinaryHeap`
/// max-heap surfaces the earliest key.
pub(crate) struct Entry<E> {
    pub key: Cursor,
    pub event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

/// The key discipline of a queue, whatever holds its entries.
pub(crate) struct Keys {
    next_seq: u64,
    /// Key of the most recently popped event.
    pub at: Cursor,
    pub pushed: u64,
    pub popped: u64,
    pub high_water: usize,
}

impl Keys {
    /// Positioned at time zero, nothing claimed.
    pub fn new() -> Keys {
        Keys {
            next_seq: 0,
            at: Cursor {
                time: SimTime::ZERO,
                seq: 0,
            },
            pushed: 0,
            popped: 0,
            high_water: 0,
        }
    }

    /// The key the next push at `at` gets. Scheduling in the past (before
    /// the current clock) is clamped to the current clock in release builds
    /// and panics in debug builds — it indicates a protocol bug such as a
    /// negative timer.
    #[inline]
    pub fn claim(&mut self, at: SimTime) -> Cursor {
        let now = self.at.time;
        debug_assert!(at >= now, "event scheduled in the past: at={at} now={now}");
        let seq = self.next_seq;
        self.next_seq += 1;
        Cursor {
            time: at.max(now),
            seq,
        }
    }

    /// An event went in under `key`, leaving the queue `depth` deep.
    #[inline]
    pub fn note_push(&mut self, key: Cursor, depth: usize) {
        debug_assert!(
            key.time >= self.at.time,
            "a claimed key the clock has passed"
        );
        self.pushed += 1;
        self.high_water = self.high_water.max(depth);
    }

    /// The event under `key` came out: the clock moves to it.
    #[inline]
    pub fn note_pop(&mut self, key: Cursor) {
        debug_assert!(key.time >= self.at.time, "queue produced time regression");
        self.at = key;
        self.popped += 1;
    }
}

/// How many records of one kind were written, and how many of their edges
/// got an event: as they were written, or late.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EdgeTally {
    /// Records written. Counted by whoever writes them: a record may hold
    /// more than one edge.
    pub records: u64,
    /// Events pushed as an edge was written, for a receiver interested at
    /// that moment.
    pub scheduled: u64,
    /// Events pushed late, for an edge still in flight when its receiver's
    /// interest opened.
    pub catchups: u64,
}

/// One state change of a record: the key it claimed as it was written, and
/// whether an event carries it to whoever the change is for.
///
/// The change takes effect at [`key`](Edge::key) either way — readers
/// compare the key with their own cursor — so a run is the run with every
/// edge dispatched, less the dispatches that would have done nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edge {
    /// Where the change takes effect in the dispatch order.
    pub key: Cursor,
    told: bool,
}

impl Edge {
    /// The edge of something that has not happened yet.
    pub const NEVER: Edge = Edge::silent(Cursor::NEVER);

    /// An edge at `key` that no event carries.
    pub const fn silent(key: Cursor) -> Edge {
        Edge { key, told: false }
    }

    /// Whether an event carries the edge.
    #[inline]
    pub fn told(&self) -> bool {
        self.told
    }

    /// Write an edge taking effect at `at`: claim its key, and push `event`
    /// under it now iff its receiver is `interested`.
    pub fn write<E>(
        q: &mut impl SimQueue<E>,
        at: SimTime,
        interested: bool,
        event: E,
        tally: &mut EdgeTally,
    ) -> Edge {
        let key = q.claim(at);
        if interested {
            q.push_claimed(key, event);
            tally.scheduled += 1;
        }
        Edge {
            key,
            told: interested,
        }
    }

    /// The receiver's interest has opened: push `event` under the edge's own
    /// key — it runs where one pushed as the edge was written would have —
    /// iff nobody was told yet, the key is still ahead of the event being
    /// dispatched, and the edge is not [`NEVER`](Edge::NEVER).
    pub fn catch_up<E>(&mut self, q: &mut impl SimQueue<E>, event: E, tally: &mut EdgeTally) {
        if self.told || self.key <= q.cursor() || self.key == Cursor::NEVER {
            return;
        }
        self.told = true;
        q.push_claimed(self.key, event);
        tally.catchups += 1;
    }
}
