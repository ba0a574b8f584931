//! Busy-tone channels: what each node hears, kept as records and read on
//! demand.
//!
//! A tone emission is written down once per in-range receiver as a
//! [`ToneRec`] — when its rising and falling edges take effect there — and
//! everything else is a reading of those records: instantaneous presence,
//! the [`ToneLog`] of a watch, a node's cumulative busy time. An edge is
//! also *dispatched*, as a `ToneEdge` event that ends in a `ToneChanged`
//! indication, only for a receiver whose MAC has declared that it can act
//! on it ([`ToneInterest`]).
//!
//! Both edges of a record are [`rmac_sim::Edge`]s (DESIGN.md §4, "Claimed
//! keys"): each claims its place in the queue's order as it is written — the
//! [`Cursor`] a `ToneEdge` pushed there and then gets — whether or not the
//! event is pushed. A reader passes the cursor of the event it is being
//! dispatched under and sees exactly the edges keyed at or before it: what a
//! counter stepped by one event per edge would hold at that point of the
//! run, same-instant ties included.

use rmac_sim::{Cursor, Edge, SimTime};

/// The two narrow-band tone channels RMAC introduces (§3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Tone {
    /// Receiver Busy Tone: raised by each receiver while it waits for /
    /// receives the data frame; protects the reception (hidden-node
    /// elimination à la Tobagi & Kleinrock) and doubles as the positive
    /// answer to an MRTS.
    Rbt = 0,
    /// Acknowledgment Busy Tone: a short (17 µs) tone replacing the ACK
    /// frame, replied in the receiver's MRTS-assigned slot.
    Abt = 1,
}

impl Tone {
    /// Index for per-tone state arrays.
    #[inline]
    pub fn idx(self) -> usize {
        self as usize
    }

    /// Both tones, for iteration.
    pub const ALL: [Tone; 2] = [Tone::Rbt, Tone::Abt];
}

/// The channel changes a node's MAC has declared it can act on: tone
/// presence flips, and the data carrier rising. A change outside the
/// declared set is still visible to every query; it is just not dispatched
/// to the MAC as a `ToneChanged` or a `CarrierOn`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ToneInterest(u8);

impl ToneInterest {
    /// No flip of either tone, nor the carrier rising.
    pub const NONE: ToneInterest = ToneInterest(0);

    /// The data channel turning busy: the first bit of a frame reaching an
    /// idle node.
    pub const CARRIER: ToneInterest = ToneInterest(1 << 4);

    /// `tone` turning present (`on`) or absent.
    pub const fn flip(tone: Tone, on: bool) -> ToneInterest {
        ToneInterest(1 << (tone as u8 * 2 + on as u8))
    }

    /// Whether this set holds `tone` turning `on`.
    pub fn wants(self, tone: Tone, on: bool) -> bool {
        self.0 & Self::flip(tone, on).0 != 0
    }

    /// Whether this set holds the carrier rising.
    pub(crate) fn carrier(self) -> bool {
        self.0 & Self::CARRIER.0 != 0
    }
}

impl std::ops::BitOr for ToneInterest {
    type Output = ToneInterest;
    fn bitor(self, rhs: ToneInterest) -> ToneInterest {
        ToneInterest(self.0 | rhs.0)
    }
}

impl std::ops::BitOrAssign for ToneInterest {
    fn bitor_assign(&mut self, rhs: ToneInterest) {
        self.0 |= rhs.0;
    }
}

/// A recorded window of tone activity at one node.
///
/// A MAC opens a watch before a sensing window (e.g. RMAC's `T_wf_rbt`, or
/// the n-slot ABT collection phase) and closes it afterwards; the log then
/// answers "was the tone continuously present for at least λ within
/// sub-interval [a, b]?" — the physical semantics of busy-tone detection
/// with a λ = 15 µs Clear Channel Assessment time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ToneLog {
    /// When the watch was opened.
    pub start: SimTime,
    /// When the watch was closed.
    pub end: SimTime,
    /// Whether the tone was already present at `start`.
    pub initial_on: bool,
    /// Presence transitions after `start` and up to `end`, in the order
    /// they took effect: `(time, now_on)`.
    pub edges: Vec<(SimTime, bool)>,
}

impl ToneLog {
    /// The longest contiguous ON duration within `[a, b]` (clamped to the
    /// watch window).
    pub fn max_on_within(&self, a: SimTime, b: SimTime) -> SimTime {
        let a = a.max(self.start);
        let b = b.min(self.end);
        if b <= a {
            return SimTime::ZERO;
        }
        let mut best = SimTime::ZERO;
        let mut on = self.initial_on;
        // The time at which the current ON interval (if any) began, clamped
        // to `a` later during measurement.
        let mut on_since = self.start;
        let measure = |from: SimTime, to: SimTime, best: &mut SimTime| {
            let lo = from.max(a);
            let hi = to.min(b);
            if hi > lo {
                *best = (*best).max(hi - lo);
            }
        };
        for &(t, now_on) in &self.edges {
            if on && !now_on {
                measure(on_since, t, &mut best);
            }
            if !on && now_on {
                on_since = t;
            }
            on = now_on;
        }
        if on {
            measure(on_since, self.end, &mut best);
        }
        best
    }

    /// Whether the tone was continuously present for at least `lambda`
    /// within `[a, b]` — i.e. whether a detector with CCA time `lambda`
    /// checking that sub-window reports the tone.
    pub fn detected_within(&self, a: SimTime, b: SimTime, lambda: SimTime) -> bool {
        self.max_on_within(a, b) >= lambda
    }

    /// Longest contiguous ON duration over the whole watch.
    pub fn max_on(&self) -> SimTime {
        self.max_on_within(self.start, self.end)
    }

    /// Whether the tone was present when the watch closed.
    pub fn on_at_end(&self) -> bool {
        self.edges.last().map_or(self.initial_on, |&(_, on)| on)
    }
}

/// One emission as one receiver hears it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ToneRec {
    pub emit: u64,
    /// The rising edge; a `ToneEdge` event carries it to a MAC that was told.
    pub on: Edge,
    /// The falling edge; [`Edge::NEVER`] until the emitter stops.
    pub off: Edge,
}

impl ToneRec {
    fn covers(&self, at: Cursor) -> bool {
        self.on.key <= at && at < self.off.key
    }
}

/// Everything one node has heard, or is about to hear, on one tone channel.
#[derive(Default)]
pub(crate) struct Heard {
    pub recs: Vec<ToneRec>,
    /// Presence time before `settled`, ns; what the forgotten records leave
    /// behind, where the channel keeps busy time.
    busy_ns: u64,
    settled: SimTime,
}

impl Heard {
    /// Whether the tone is present for a reader at `at`.
    pub fn present(&self, at: Cursor) -> bool {
        self.recs.iter().any(|r| r.covers(at))
    }

    /// Whether an edge of emission `emit` keyed `at` flips presence: no
    /// other emission is audible there.
    pub fn alone(&self, emit: u64, at: Cursor) -> bool {
        !self.recs.iter().any(|r| r.emit != emit && r.covers(at))
    }

    /// The presence flips keyed in `(from, to]`, replayed in key order: the
    /// log a watch fed one event per edge would hold.
    pub fn log(&self, from: Cursor, to: Cursor) -> ToneLog {
        let mut edges: Vec<(Cursor, bool)> = self
            .recs
            .iter()
            .flat_map(|r| [(r.on.key, true), (r.off.key, false)])
            .filter(|&(key, _)| from < key && key <= to)
            .collect();
        edges.sort_unstable_by_key(|&(key, _)| key);
        let mut count = self.recs.iter().filter(|r| r.covers(from)).count();
        let mut log = ToneLog {
            start: from.time,
            end: to.time,
            initial_on: count > 0,
            edges: Vec::new(),
        };
        for (key, on) in edges {
            let was_on = count > 0;
            if on {
                count += 1;
            } else {
                count -= 1;
            }
            if (count > 0) != was_on {
                log.edges.push((key.time, count > 0));
            }
        }
        log
    }

    /// How long the tone has been present before `upto`, ns.
    pub fn busy_ns(&self, upto: SimTime) -> u64 {
        self.busy_ns + self.on_time(self.settled, upto)
    }

    /// Total presence within `[from, to)`. A scan rather than the key-order
    /// sweep of [`log`](Self::log): it visits only the intervals before `to`
    /// and allocates nothing, which at the few records a list holds is
    /// cheaper than collecting and sorting their edges.
    fn on_time(&self, from: SimTime, to: SimTime) -> u64 {
        let mut total = 0;
        let mut t = from;
        while t < to {
            let covering = self
                .recs
                .iter()
                .filter(|r| r.on.key.time <= t && t < r.off.key.time);
            if let Some(end) = covering.map(|r| r.off.key.time).max() {
                let end = end.min(to);
                total += (end - t).nanos();
                t = end;
            } else {
                let later = self
                    .recs
                    .iter()
                    .filter(|r| t < r.on.key.time && r.on.key.time < r.off.key.time);
                match later.map(|r| r.on.key.time).min() {
                    Some(rise) => t = rise,
                    None => break,
                }
            }
        }
        total
    }

    /// Forget the emissions that ended before `horizon`, which no reader
    /// will look behind again. With `fold`, their presence time stays in the
    /// busy total; without it, [`busy_ns`](Self::busy_ns) is partial from
    /// here on. Returns whether the busy time was folded.
    pub fn forget_before(&mut self, horizon: SimTime, fold: bool) -> bool {
        if !self.recs.iter().any(|r| r.off.key.time < horizon) {
            return false;
        }
        if fold {
            debug_assert!(horizon >= self.settled);
            self.busy_ns += self.on_time(self.settled, horizon);
            self.settled = horizon;
        }
        self.recs.retain(|r| r.off.key.time >= horizon);
        fold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn us(v: u64) -> SimTime {
        SimTime::from_micros(v)
    }

    fn log(start: u64, end: u64, initial: bool, edges: &[(u64, bool)]) -> ToneLog {
        ToneLog {
            start: us(start),
            end: us(end),
            initial_on: initial,
            edges: edges.iter().map(|&(t, on)| (us(t), on)).collect(),
        }
    }

    fn rec(emit: u64, on: u64, off: Option<u64>) -> ToneRec {
        let edge = |t: u64| {
            Edge::silent(Cursor {
                time: us(t),
                seq: 2 * emit + t,
            })
        };
        ToneRec {
            emit,
            on: edge(on),
            off: off.map_or(Edge::NEVER, edge),
        }
    }

    #[test]
    fn busy_time_is_the_union_of_what_was_heard_and_survives_forgetting() {
        // Two overlapping emissions, a gap, one still lasting.
        let mut heard = Heard {
            recs: vec![
                rec(0, 10, Some(50)),
                rec(1, 40, Some(100)),
                rec(2, 200, None),
            ],
            ..Heard::default()
        };
        assert_eq!(heard.busy_ns(us(30)), 20_000);
        assert_eq!(heard.busy_ns(us(300)), 90_000 + 100_000);
        heard.forget_before(us(45), true);
        assert_eq!(heard.recs.len(), 3, "nothing had ended by then");
        heard.forget_before(us(150), true);
        assert_eq!(heard.recs.len(), 1);
        assert_eq!(heard.busy_ns(us(300)), 90_000 + 100_000);
        assert!(heard.present(Cursor::end_of(us(250))));
        assert!(!heard.present(Cursor::end_of(us(199))));
    }

    #[test]
    fn a_reader_sees_the_edges_keyed_at_or_before_it() {
        let heard = Heard {
            recs: vec![rec(0, 10, Some(50)), rec(1, 50, Some(60))],
            ..Heard::default()
        };
        let (fall, rise) = (heard.recs[0].off.key, heard.recs[1].on.key);
        assert!(fall < rise, "same instant, the fall claimed its key first");
        // Between the two, nothing is audible: each edge is a flip.
        assert!(heard.present(Cursor {
            seq: fall.seq - 1,
            ..fall
        }));
        assert!(!heard.present(fall));
        assert!(heard.present(rise));
        assert!(heard.alone(0, fall) && heard.alone(1, rise));
        let log = heard.log(Cursor::end_of(us(0)), Cursor::end_of(us(100)));
        let flips = [(10, true), (50, false), (50, true), (60, false)];
        assert_eq!(log.edges, flips.map(|(t, on)| (us(t), on)));
        assert_eq!((log.initial_on, log.on_at_end()), (false, false));
        // A watch opened between the two starts silent and sees the rise.
        let log = heard.log(fall, Cursor::end_of(us(55)));
        assert_eq!((log.initial_on, log.on_at_end()), (false, true));
        assert_eq!(log.max_on(), us(5));
    }

    /// Presence within `[from, to)` as the ON spans of the log a watch over
    /// that span holds.
    fn logged_on_time(recs: &[ToneRec], from: SimTime, to: SimTime) -> u64 {
        let heard = Heard {
            recs: recs.to_vec(),
            ..Heard::default()
        };
        let log = heard.log(Cursor::end_of(from), Cursor::end_of(to));
        let (mut on, mut rise, mut total) = (log.initial_on, from, 0);
        for &(t, flip_on) in &log.edges {
            if flip_on {
                rise = t;
            } else {
                total += (t - rise).nanos();
            }
            on = flip_on;
        }
        if on {
            total += to.saturating_sub(rise).nanos();
        }
        total
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Busy time agrees with the ON spans of the watch log, before and
        /// after forgetting: records rising in any order, same-instant
        /// on/off pairs, records still open, and clip bounds inside, across
        /// and outside them.
        #[test]
        fn busy_time_matches_the_watch_log(
            draws in proptest::collection::vec((0u64..40, 0u64..24), 0..12),
            bounds in proptest::collection::vec(0u64..70, 1..4),
        ) {
            // Keys are claimed as the edges are written, a rise before its
            // fall; same-instant ties fall in draw order. A length of 20 or
            // more leaves the record open.
            let mut seq = 0;
            let mut key = |t: u64| {
                seq += 1;
                Edge::silent(Cursor { time: us(t), seq })
            };
            let recs: Vec<ToneRec> = draws
                .iter()
                .enumerate()
                .map(|(emit, &(on, len))| ToneRec {
                    emit: emit as u64,
                    on: key(on),
                    off: if len < 20 { key(on + len) } else { Edge::NEVER },
                })
                .collect();
            let mut heard = Heard { recs: recs.clone(), ..Heard::default() };
            let (from, to) = (us(bounds[0]), us(*bounds.last().unwrap()));
            prop_assert_eq!(heard.on_time(from, to), logged_on_time(&recs, from, to));
            for &upto in &bounds {
                prop_assert_eq!(heard.busy_ns(us(upto)), logged_on_time(&recs, us(0), us(upto)));
            }
            let horizon = us(*bounds.iter().min().unwrap());
            heard.forget_before(horizon, true);
            for upto in [horizon, horizon + us(7), us(80)] {
                prop_assert_eq!(heard.busy_ns(upto), logged_on_time(&recs, us(0), upto));
            }
        }
    }

    #[test]
    fn empty_window_is_silent() {
        let l = log(0, 100, false, &[]);
        assert_eq!(l.max_on(), SimTime::ZERO);
        assert!(!l.detected_within(us(0), us(100), us(15)));
    }

    #[test]
    fn always_on_window() {
        let l = log(0, 100, true, &[]);
        assert_eq!(l.max_on(), us(100));
        assert!(l.detected_within(us(10), us(30), us(15)));
        // Sub-window shorter than lambda cannot detect.
        assert!(!l.detected_within(us(10), us(20), us(15)));
    }

    #[test]
    fn single_pulse() {
        let l = log(0, 100, false, &[(20, true), (45, false)]);
        assert_eq!(l.max_on(), us(25));
        assert!(l.detected_within(us(0), us(100), us(15)));
        assert!(l.detected_within(us(20), us(45), us(25)));
        assert!(!l.detected_within(us(0), us(30), us(15))); // only 10 µs inside
        assert!(l.detected_within(us(25), us(45), us(20)));
    }

    #[test]
    fn pulse_straddling_window_edges_is_clamped() {
        let l = log(10, 50, true, &[(30, false)]);
        // ON from 10 to 30.
        assert_eq!(l.max_on_within(us(0), us(100)), us(20));
        assert_eq!(l.max_on_within(us(15), us(25)), us(10));
    }

    #[test]
    fn multiple_pulses_pick_longest() {
        let l = log(
            0,
            200,
            false,
            &[
                (10, true),
                (20, false),
                (50, true),
                (90, false),
                (100, true),
                (110, false),
            ],
        );
        assert_eq!(l.max_on(), us(40));
        assert_eq!(l.max_on_within(us(0), us(40)), us(10));
        assert_eq!(l.max_on_within(us(95), us(200)), us(10));
    }

    #[test]
    fn on_at_close_counts() {
        let l = log(0, 60, false, &[(50, true)]);
        assert_eq!(l.max_on(), us(10));
    }

    #[test]
    fn degenerate_interval() {
        let l = log(0, 100, true, &[]);
        assert_eq!(l.max_on_within(us(40), us(40)), SimTime::ZERO);
        assert_eq!(l.max_on_within(us(60), us(40)), SimTime::ZERO);
    }

    #[test]
    fn redundant_edges_are_tolerated() {
        // Two emitters: presence edges may repeat the same state when the
        // underlying counter goes 1 -> 2 (no edge) but defensive repeats of
        // `true` must not break the accounting.
        let l = log(0, 100, false, &[(10, true), (40, true), (70, false)]);
        assert_eq!(l.max_on(), us(60));
    }

    #[test]
    fn abt_slot_arithmetic_matches_paper() {
        // A receiver with slot index i=1 raises the ABT for 17 µs starting
        // at data_end + 17 µs (plus ≤ 1 µs propagation). The sender checks
        // the window [17, 34] µs after its own data end and must detect
        // ≥ 15 µs (λ) of tone.
        let prop = 1u64; // worst-case 1 µs round trip components
        let l = log(0, 3 * 17, false, &[(17 + prop, true), (34 + prop, false)]);
        assert!(l.detected_within(us(17), us(34), us(15)));
        assert!(!l.detected_within(us(0), us(17), us(15)));
        assert!(!l.detected_within(us(34), us(51), us(15)));
    }
}
