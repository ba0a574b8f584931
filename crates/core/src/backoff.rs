//! The backoff entity (§3.3.1).
//!
//! Each node maintains a Backoff Interval (BI) — the remaining deferral in
//! 20 µs slots — and a Contention Window (CW), which grows exponentially on
//! failed transmissions and seeds BI. This entity owns the counters, their
//! update rules and the countdown of BI over idle slots, shared by RMAC and
//! the baselines; which channels count as "busy" stays with the protocol.
//!
//! # The countdown sleeps
//!
//! The paper's node looks at the channel once per slot boundary: idle →
//! BI − 1, busy → suspend with BI retained. Boundaries that pass while
//! nothing changes need no event, so a countdown is not a timer per slot
//! but two kinds of `BackoffSlot` timer:
//!
//! * a **look**, armed at most one slot ahead — exactly the tick it
//!   replaces, so it keeps that tick's place among same-instant events. It
//!   counts its own boundary if the channel is idle and suspends if not;
//! * a **hop**, armed from the anchor to the boundary *before* the expiry,
//!   where it arms the look at the expiry. It decides nothing at its own
//!   instant (it credits only the boundaries behind it), so it may run
//!   before or after whatever else happens there.
//!
//! The protocol reports every idle→busy edge ([`Backoff::on_busy`]): the
//! boundaries already passed are credited and a look is armed at the next
//! one. Whoever stops or restarts the countdown first settles it
//! ([`Backoff::pause`]).
//!
//! A boundary that coincides with a busy edge counts as idle: the edge
//! reaches the node one propagation delay (< SLOT) after it was caused, so a
//! per-slot tick armed a full slot earlier would have run first. A boundary
//! that coincides with a pause does not count: frame ends, requests and NAV
//! wake-ups are scheduled more than a slot ahead, so they would have run —
//! and cancelled the tick — first.
//!
//! Slots are measured on the node's own clock ([`MacContext::local_now`]),
//! the one `schedule` delays elapse on.

use rmac_sim::{SimRng, SimTime, TimerSlot};
use rmac_wire::consts::SLOT;

use crate::api::{MacContext, TimerKind};

/// What a dispatched countdown timer found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Slot {
    /// Not the live timer: the sleep was cancelled or re-armed.
    Stale,
    /// A channel is busy at this boundary: counting stops, BI is retained.
    Suspended,
    /// Still counting (a hop landed, or a look found an idle boundary with
    /// BI left): asleep again.
    Counting,
    /// BI reached zero.
    Expired,
}

/// BI/CW bookkeeping and the BI countdown for one node.
#[derive(Clone, Debug)]
pub struct Backoff {
    bi: u64,
    cw: u64,
    cw_min: u64,
    cw_max: u64,
    /// The countdown's timer; armed exactly while counting.
    timer: TimerSlot,
    /// Local instant at which `bi` was exact: the start of the countdown or
    /// the last credited slot boundary.
    anchor: SimTime,
    /// Local instant the timer is armed for (always a boundary), and
    /// whether it is a look (else a hop).
    wake: SimTime,
    look: bool,
}

impl Backoff {
    /// A fresh entity with BI = 0 and CW = `cw_min`.
    pub fn new(cw_min: u64, cw_max: u64) -> Backoff {
        debug_assert!(cw_min > 0 && cw_min <= cw_max);
        Backoff {
            bi: 0,
            cw: cw_min,
            cw_min,
            cw_max,
            timer: TimerSlot::new(),
            anchor: SimTime::ZERO,
            wake: SimTime::ZERO,
            look: false,
        }
    }

    /// Remaining deferral, in slots. While a countdown sleeps this is the
    /// value at its anchor; it is exact whenever the countdown is stopped.
    pub fn bi(&self) -> u64 {
        self.bi
    }

    /// Current contention window, in slots.
    pub fn cw(&self) -> u64 {
        self.cw
    }

    /// Enter the backoff procedure: draw BI uniformly from `[0, CW]`
    /// (§3.3.1: "a random number between 0 and the current CW").
    pub fn draw(&mut self, rng: &mut SimRng) {
        debug_assert!(!self.counting(), "draw under a running countdown");
        self.bi = rng.range_inclusive(0, self.cw);
    }

    /// Add extra deferral slots on top of the current BI (used by the
    /// 802.11-family baselines to approximate the DIFS wait).
    pub fn add_slots(&mut self, k: u64) {
        self.bi += k;
    }

    /// A transmission failed: CW doubles (802.11 style: CW ← 2·CW + 1,
    /// capped at `cw_max`).
    pub fn fail(&mut self) {
        self.cw = (self.cw * 2 + 1).min(self.cw_max);
    }

    /// A transmission succeeded (or the frame was dropped): CW resets.
    pub fn reset_cw(&mut self) {
        self.cw = self.cw_min;
    }

    /// Whether a countdown is running.
    pub fn counting(&self) -> bool {
        self.timer.is_armed()
    }

    /// Start counting BI (> 0) down from now, on channels the caller found
    /// idle.
    pub fn start(&mut self, ctx: &mut dyn MacContext) {
        debug_assert!(self.bi > 0 && !self.counting());
        self.anchor = ctx.local_now();
        self.sleep(ctx, self.anchor);
    }

    /// An idle→busy edge on a channel the countdown defers to. Credits the
    /// boundaries that passed idle, this instant included, and makes sure a
    /// look at the next one is armed. No-op unless counting.
    pub fn on_busy(&mut self, ctx: &mut dyn MacContext) {
        if !self.counting() {
            return;
        }
        let now = ctx.local_now();
        if self.look {
            // The pending look is at the next boundary already (it was
            // armed at most a slot ahead); its own boundary is its call.
            self.credit((now + SimTime::NANO).min(self.wake));
        } else {
            self.credit(now + SimTime::NANO);
            self.arm(ctx, now, self.anchor + SLOT, true);
        }
    }

    /// Stop counting, crediting the boundaries strictly before now; BI is
    /// retained. No-op unless counting.
    pub fn pause(&mut self, ctx: &dyn MacContext) {
        if self.counting() {
            self.credit(ctx.local_now());
            self.timer.cancel();
        }
    }

    /// A `BackoffSlot` timer was dispatched; `idle` is the caller's channel
    /// sense at this instant. Unless the result is [`Slot::Counting`] the
    /// countdown has stopped.
    pub fn on_timer(&mut self, ctx: &mut dyn MacContext, gen: u64, idle: bool) -> Slot {
        if !self.timer.disarm_if(gen) {
            ctx.timer_cancelled(TimerKind::BackoffSlot);
            return Slot::Stale;
        }
        if !idle {
            // The edge that made the channel busy credited what passed
            // before it; this boundary does not count.
            return Slot::Suspended;
        }
        // A look counts its own boundary, a hop only what lies behind it.
        // Both read the clock, not the span they were armed for: a driver
        // may deliver a hop early (the testkit steps it a slot at a time).
        let now = ctx.local_now();
        self.credit(if self.look { now + SimTime::NANO } else { now });
        if self.bi == 0 {
            return Slot::Expired;
        }
        self.sleep(ctx, now);
        Slot::Counting
    }

    /// Arm the timer towards the expiry: a look if it is at most one slot
    /// away, else a hop to the boundary before it.
    fn sleep(&mut self, ctx: &mut dyn MacContext, now: SimTime) {
        let expiry = self.anchor + SLOT.mul(self.bi);
        let look = expiry - now <= SLOT;
        self.arm(ctx, now, if look { expiry } else { expiry - SLOT }, look);
    }

    fn arm(&mut self, ctx: &mut dyn MacContext, now: SimTime, wake: SimTime, look: bool) {
        (self.wake, self.look) = (wake, look);
        let gen = self.timer.arm();
        // A context running late can report an edge after `wake` has
        // passed: the timer is then due now, not a wrapped 584 years on.
        ctx.schedule(wake.saturating_sub(now), TimerKind::BackoffSlot, gen);
    }

    /// Take the boundaries after the anchor and strictly before `before`
    /// off BI, and move the anchor past them.
    fn credit(&mut self, before: SimTime) {
        let behind = before.saturating_sub(self.anchor + SimTime::NANO);
        let k = (behind.nanos() / SLOT.nanos()).min(self.bi);
        self.bi -= k;
        self.anchor += SLOT.mul(k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::Mock;
    use proptest::prelude::*;

    #[test]
    fn cw_grows_and_caps() {
        let mut b = Backoff::new(31, 1023);
        let expected = [63, 127, 255, 511, 1023, 1023, 1023];
        for &e in &expected {
            b.fail();
            assert_eq!(b.cw(), e);
        }
        b.reset_cw();
        assert_eq!(b.cw(), 31);
    }

    #[test]
    fn draw_is_within_window() {
        let mut b = Backoff::new(31, 1023);
        let mut rng = SimRng::new(3);
        for _ in 0..1000 {
            b.draw(&mut rng);
            assert!(b.bi() <= 31);
        }
        b.fail();
        let mut saw_above_31 = false;
        for _ in 0..1000 {
            b.draw(&mut rng);
            assert!(b.bi() <= 63);
            saw_above_31 |= b.bi() > 31;
        }
        assert!(saw_above_31, "CW growth had no effect on draws");
    }

    #[test]
    fn zero_draw_possible() {
        // BI may legitimately be drawn as 0, enabling immediate tx.
        let mut b = Backoff::new(31, 1023);
        let mut rng = SimRng::new(1);
        let mut saw_zero = false;
        for _ in 0..2000 {
            b.draw(&mut rng);
            saw_zero |= b.bi() == 0;
        }
        assert!(saw_zero);
    }

    const SLOT_NS: u64 = SLOT.nanos();

    /// Expiry instant, and `(instant, BI)` of every suspension before it.
    type Outcome = (u64, Vec<(u64, u64)>);

    /// §3.3.1 literally, one look at the channel per slot boundary, over
    /// busy intervals `[on, off)` (ns, disjoint, ascending). A boundary
    /// that coincides with an onset or a release sees the channel idle; a
    /// suspended countdown resumes when the interval that stopped it ends.
    fn slot_loop(mut bi: u64, busy: &[(u64, u64)]) -> Outcome {
        let covering = |t: u64| busy.iter().find(|&&(on, off)| on < t && t < off);
        let mut suspensions = Vec::new();
        let mut t = 0;
        loop {
            t += SLOT_NS;
            match covering(t) {
                Some(&(_, off)) => {
                    suspensions.push((t, bi));
                    t = off;
                }
                None => {
                    bi -= 1;
                    if bi == 0 {
                        return (t, suspensions);
                    }
                }
            }
        }
    }

    /// The same timeline through [`Backoff`] the way an engine drives it:
    /// edges as they happen, the one live timer at its own instant
    /// (same-instant order: releases, the timer, onsets). Also returns how
    /// many timers were dispatched.
    fn sleeping_countdown(bi: u64, busy: &[(u64, u64)]) -> (Outcome, usize) {
        const RELEASE: u8 = 0;
        const TIMER: u8 = 1;
        const ONSET: u8 = 2;
        let mut m = Mock::new();
        let mut b = Backoff::new(31, 1023);
        b.add_slots(bi);
        b.start(&mut m);
        let mut edges: Vec<(u64, u8)> = busy
            .iter()
            .flat_map(|&(on, off)| [(on, ONSET), (off, RELEASE)])
            .collect();
        edges.sort();
        let mut edges = edges.into_iter().peekable();
        let (mut suspensions, mut dispatched) = (Vec::new(), 0);
        loop {
            let live = m.timers.iter().find(|&&(_, _, g)| b.timer.matches(g));
            let timer = live.map(|&(at, _, g)| ((at.nanos(), TIMER), g));
            let edge = edges.peek().map(|&e| (e, 0));
            let ((t, what), gen) = [timer, edge].into_iter().flatten().min().unwrap();
            m.now = SimTime::from_nanos(t);
            if what != TIMER {
                edges.next();
            }
            match what {
                ONSET => {
                    m.data_busy = true;
                    b.on_busy(&mut m);
                }
                RELEASE => {
                    m.data_busy = false;
                    if !b.counting() {
                        b.start(&mut m);
                    }
                }
                _ => {
                    dispatched += 1;
                    let idle = !m.data_busy;
                    match b.on_timer(&mut m, gen, idle) {
                        Slot::Expired => return ((t, suspensions), dispatched),
                        Slot::Suspended => suspensions.push((t, b.bi())),
                        Slot::Counting => {}
                        Slot::Stale => unreachable!("the live timer is never stale"),
                    }
                }
            }
        }
    }

    /// `(kind, whole slots, nanoseconds under a slot)`.
    type Draw = (u8, u64, u64);

    /// Busy intervals from `(gap, length)` draws: gaps and lengths that are
    /// whole slots put onsets and releases exactly on boundaries, lengths
    /// under a slot make intervals a per-slot look may never notice.
    fn timeline(draws: &[(Draw, Draw)]) -> Vec<(u64, u64)> {
        let mut t = 0;
        draws
            .iter()
            .map(
                |&((gap_kind, gap_slots, gap_ns), (len_kind, len_slots, len_ns))| {
                    let on = t + gap_slots * SLOT_NS + if gap_kind == 0 { 0 } else { gap_ns };
                    let off = on
                        + match len_kind {
                            0 => (1 + len_slots) * SLOT_NS,
                            1 => 1 + len_ns,
                            _ => len_slots * SLOT_NS + 1 + len_ns,
                        };
                    t = off;
                    (on, off)
                },
            )
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Hops and looks decide exactly what a look per slot decides: same
        /// expiry instant, same BI at every suspension (so the same number
        /// of resumptions) — in at most three dispatches per busy interval
        /// on top of the first hop and look, however large BI is.
        #[test]
        fn sleeping_countdown_matches_the_slot_loop(
            bi in 1u64..=1023,
            draws in proptest::collection::vec(
                ((0u8..3, 0u64..150, 0..SLOT_NS), (0u8..3, 0u64..15, 0..SLOT_NS - 1)), 0..12),
        ) {
            let busy = timeline(&draws);
            let (outcome, dispatched) = sleeping_countdown(bi, &busy);
            prop_assert_eq!(&outcome, &slot_loop(bi, &busy));
            prop_assert!(dispatched <= 3 * busy.len() + 2, "{} dispatches", dispatched);
        }
    }

    #[test]
    fn boundary_ties_and_short_intervals() {
        // Onset exactly on boundary 3: it counts, the look at 4 suspends.
        let on_boundary = [(3 * SLOT_NS, 10 * SLOT_NS)];
        assert_eq!(slot_loop(7, &on_boundary).1, vec![(4 * SLOT_NS, 4)]);
        assert_eq!(
            sleeping_countdown(7, &on_boundary).0 .1,
            vec![(4 * SLOT_NS, 4)]
        );
        // Busy strictly inside one slot goes unnoticed.
        let short = [(3 * SLOT_NS + 1, 4 * SLOT_NS - 1)];
        assert_eq!(sleeping_countdown(7, &short).0, (7 * SLOT_NS, vec![]));
        // A pause on a boundary leaves that boundary uncounted.
        let mut m = Mock::new();
        let mut b = Backoff::new(31, 1023);
        b.add_slots(7);
        b.start(&mut m);
        m.now = SLOT.mul(3);
        b.pause(&m);
        assert_eq!((b.bi(), b.counting()), (5, false));
        // A hop decides nothing at its own instant: a pause that follows it
        // there leaves that boundary uncounted, a busy edge counts it.
        let hopped = || {
            let mut m = Mock::new();
            let mut b = Backoff::new(31, 1023);
            b.add_slots(7);
            b.start(&mut m);
            let (at, _, gen) = m.timers.pop_back().unwrap();
            m.now = at;
            assert_eq!(
                (at, b.on_timer(&mut m, gen, true)),
                (SLOT.mul(6), Slot::Counting)
            );
            (m, b)
        };
        let (m, mut b) = hopped();
        b.pause(&m);
        assert_eq!(b.bi(), 2);
        let (mut m, mut b) = hopped();
        b.on_busy(&mut m);
        assert_eq!(b.bi(), 1);
    }
}
