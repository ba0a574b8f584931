//! Shared 802.11-style channel access: DIFS + slotted backoff + NAV.
//!
//! The 802.11-family baselines all contend for the medium the same way: a
//! station with a pending frame waits until the medium has been idle for a
//! DIFS, counts down a random backoff in 20 µs slots, and defers to both
//! *physical* carrier sense and the *virtual* carrier sense (NAV) set by
//! overheard RTS/CTS/RAK durations. This module packages that logic as a
//! sub-state-machine producing explicit [`DcfAction`]s for the one
//! [`crate::station::Station`] all of them run on.
//!
//! DIFS (50 µs) is approximated as three extra 20 µs backoff slots added
//! to every draw — the standard slotting approximation for a simulator with
//! a slot-quantised backoff loop.

use rmac_core::api::{MacContext, TimerKind};
use rmac_core::backoff::{Backoff, Slot};
use rmac_sim::SimTime;

/// Slots prepended to every draw to account for the DIFS wait.
pub const DIFS_SLOTS: u64 = 3;

/// What the embedding protocol should do after a DCF step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DcfAction {
    /// Nothing to do yet (deferring, or no pending frame).
    Defer,
    /// The backoff countdown is running.
    Counting,
    /// Access won — transmit immediately.
    Transmit,
}

/// DCF contention state for one node.
#[derive(Default)]
pub struct Dcf {
    backoff: Backoff,
    nav_until: SimTime,
    /// Whether the current BI draw already includes the DIFS padding.
    armed_with_difs: bool,
}

impl Dcf {
    /// The virtual carrier sense deadline.
    pub fn nav_until(&self) -> SimTime {
        self.nav_until
    }

    /// Remaining backoff slots.
    pub fn bi(&self) -> u64 {
        self.backoff.bi()
    }

    /// Current contention window.
    pub fn cw(&self) -> u64 {
        self.backoff.cw()
    }

    /// Record an overheard duration field: the medium is virtually busy
    /// until `now + dur` — a busy edge for a running countdown.
    pub fn observe_nav(&mut self, ctx: &mut dyn MacContext, dur: SimTime) {
        self.nav_until = self.nav_until.max(ctx.now() + dur);
        self.backoff.on_busy(ctx);
    }

    /// The data channel went busy (`CarrierOn`).
    pub fn on_carrier(&mut self, ctx: &mut dyn MacContext) {
        self.backoff.on_busy(ctx);
    }

    /// Whether the countdown is running: the one time a carrier rise does
    /// anything.
    pub(crate) fn counting(&self) -> bool {
        self.backoff.counting()
    }

    /// Both physical and virtual carrier sense idle?
    pub fn medium_idle(&self, ctx: &dyn MacContext) -> bool {
        !ctx.data_busy() && ctx.now() >= self.nav_until
    }

    /// A transmission failed: grow CW.
    pub fn fail(&mut self) {
        self.backoff.fail();
    }

    /// A transmission succeeded or the frame was dropped: reset CW.
    pub fn reset_cw(&mut self) {
        self.backoff.reset_cw();
    }

    /// Draw a fresh BI (post-transmission pacing or retry).
    pub fn draw(&mut self, ctx: &mut dyn MacContext) {
        self.backoff.draw(ctx.rng());
        self.armed_with_difs = false;
    }

    /// Stop the countdown (the node is leaving contention, e.g. to
    /// respond to an RTS). BI is retained.
    pub fn suspend(&mut self, ctx: &mut dyn MacContext) {
        self.backoff.pause(ctx);
    }

    /// Try to gain access for a pending frame. Call from the protocol's
    /// idle-state dispatcher.
    pub fn try_access(&mut self, ctx: &mut dyn MacContext, want_tx: bool) -> DcfAction {
        if !self.medium_idle(ctx) {
            // Mirror of RMAC's condition (1): draw on first contact with a
            // busy medium so the node defers a random interval.
            if want_tx && self.backoff.bi() == 0 {
                self.backoff.draw(ctx.rng());
                self.pad_difs();
            }
            // A NAV expiry produces no channel event; arm a wake-up so the
            // node re-enters contention when the reservation lapses (the
            // `Nav` timer, on which the protocol calls `try_access` again).
            if want_tx && !ctx.data_busy() && ctx.now() < self.nav_until {
                let delay = (self.nav_until - ctx.now()) + SimTime::NANO;
                ctx.schedule(delay, TimerKind::Nav);
            }
            return DcfAction::Defer;
        }
        // Re-entered while counting (a request arrived mid-countdown): the
        // slot grid restarts here with what is left of BI.
        self.backoff.pause(ctx);
        if self.backoff.bi() == 0 && want_tx {
            // Even on an idle medium 802.11 waits DIFS before transmitting;
            // pad the (zero) draw and count it down.
            self.pad_difs();
        }
        if self.backoff.bi() > 0 {
            self.backoff.start(ctx);
            return DcfAction::Counting;
        }
        if want_tx {
            DcfAction::Transmit
        } else {
            DcfAction::Defer
        }
    }

    fn pad_difs(&mut self) {
        if !self.armed_with_difs {
            self.backoff.add_slots(DIFS_SLOTS);
            self.armed_with_difs = true;
        }
    }

    /// The countdown timer fired. Returns `Transmit` when access is won; on
    /// a busy medium the countdown suspends (BI retained) and the protocol
    /// re-enters via `try_access` when the medium clears.
    pub fn on_slot(&mut self, ctx: &mut dyn MacContext, want_tx: bool) -> DcfAction {
        let idle = self.medium_idle(ctx);
        match self.backoff.on_timer(ctx, idle) {
            Slot::Expired if want_tx => DcfAction::Transmit,
            Slot::Counting => DcfAction::Counting,
            _ => DcfAction::Defer,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmac_core::api::{MacService, TxRequest};
    use rmac_core::testkit::Mock;
    use rmac_phy::Indication;
    use rmac_wire::consts::SLOT;

    /// The least MAC around a [`Dcf`], so [`Mock::fire`] and
    /// [`Mock::set_carrier`] can drive it: always wants to transmit and
    /// remembers the last slot verdict.
    struct Station {
        dcf: Dcf,
        last: DcfAction,
    }

    impl Station {
        /// A station counting `slots` on an idle medium (for 0, the DIFS
        /// padding of an empty draw).
        fn counting(m: &mut Mock, slots: u64) -> Station {
            let mut dcf = Dcf::default();
            dcf.backoff.add_slots(slots);
            let last = dcf.try_access(m, true);
            assert_eq!(last, DcfAction::Counting);
            assert_eq!(dcf.bi(), if slots == 0 { DIFS_SLOTS } else { slots });
            Station { dcf, last }
        }
    }

    /// Dispatch timers in time order until the countdown stops.
    fn sleep(m: &mut Mock, s: &mut Station) -> DcfAction {
        while s.dcf.backoff.counting() {
            m.fire_earliest(s);
        }
        s.last
    }

    impl MacService for Station {
        fn submit(&mut self, _: &mut dyn MacContext, _: TxRequest) {}
        fn on_indication(&mut self, ctx: &mut dyn MacContext, ind: &Indication) {
            if let Indication::CarrierOn { .. } = ind {
                self.dcf.on_carrier(ctx);
            }
        }
        fn on_timer(&mut self, ctx: &mut dyn MacContext, _: TimerKind) {
            self.last = self.dcf.on_slot(ctx, true);
        }
    }

    #[test]
    fn idle_medium_with_no_frame_defers() {
        let mut m = Mock::new();
        let mut d = Dcf::default();
        assert_eq!(d.try_access(&mut m, false), DcfAction::Defer);
    }

    #[test]
    fn access_pads_difs_and_counts_down() {
        let mut m = Mock::new();
        // Idle medium, pending frame, BI=0 → DIFS padding forces counting.
        let mut s = Station::counting(&mut m, 0);
        // A hop to the boundary before the expiry, then a look at it; the
        // mock walks the hop a slot per fire, so a fire per slot in all.
        assert_eq!(m.timers.back().unwrap().0, SLOT.mul(DIFS_SLOTS - 1));
        for _ in 0..DIFS_SLOTS {
            assert_eq!(s.last, DcfAction::Counting);
            m.fire(&mut s, TimerKind::BackoffSlot);
        }
        assert_eq!(s.dcf.bi(), 0);
        assert_eq!(s.last, DcfAction::Transmit);
        assert_eq!(m.now, SLOT.mul(DIFS_SLOTS));
    }

    #[test]
    fn busy_medium_draws_once_and_defers() {
        let mut m = Mock::new();
        m.data_busy = true;
        let mut d = Dcf::default();
        assert_eq!(d.try_access(&mut m, true), DcfAction::Defer);
        let bi = d.bi();
        assert!(bi >= DIFS_SLOTS, "draw includes DIFS padding");
        // A second call must not redraw.
        assert_eq!(d.try_access(&mut m, true), DcfAction::Defer);
        assert_eq!(d.bi(), bi);
    }

    #[test]
    fn carrier_mid_countdown_suspends_at_the_next_boundary() {
        let mut m = Mock::new();
        let mut s = Station::counting(&mut m, 7);
        for _ in 0..3 {
            m.fire(&mut s, TimerKind::BackoffSlot);
        }
        m.now += SimTime::from_micros(5); // inside slot 4
        m.set_carrier(&mut s, true);
        assert!(s.dcf.backoff.counting(), "noticed only at a boundary");
        m.fire(&mut s, TimerKind::BackoffSlot);
        assert_eq!(m.now, SLOT.mul(4));
        assert_eq!((s.last, s.dcf.bi()), (DcfAction::Defer, 4));
        assert!(!s.dcf.backoff.counting());
    }

    #[test]
    fn nav_mid_countdown_defers_at_the_next_boundary_and_not_before() {
        let mut m = Mock::new();
        let mut s = Station::counting(&mut m, 7);
        m.now = SLOT.mul(2) + SimTime::from_micros(7);
        s.dcf.observe_nav(&mut m, SimTime::from_millis(2));
        assert!(s.dcf.backoff.counting());
        assert_eq!(s.dcf.bi(), 5, "the two idle boundaries are credited");
        // The sleep to expiry was pulled in to boundary 3.
        m.fire_earliest(&mut s);
        assert_eq!(m.now, SLOT.mul(3));
        assert_eq!((s.last, s.dcf.bi()), (DcfAction::Defer, 5));
        // A NAV that lapses before the boundary goes unnoticed.
        let mut m = Mock::new();
        let mut s = Station::counting(&mut m, 7);
        m.now = SLOT.mul(2) + SimTime::from_micros(7);
        s.dcf.observe_nav(&mut m, SimTime::from_micros(10));
        m.fire_earliest(&mut s);
        assert_eq!((s.last, s.dcf.bi()), (DcfAction::Counting, 4));
        assert_eq!(
            (sleep(&mut m, &mut s), m.now),
            (DcfAction::Transmit, SLOT.mul(7))
        );
    }

    #[test]
    fn reentry_while_counting_neither_loses_nor_double_counts_a_slot() {
        let mut m = Mock::new();
        let mut s = Station::counting(&mut m, 7);
        // Mid-slot: two boundaries passed, the grid restarts here.
        m.now = SLOT.mul(2) + SimTime::from_micros(7);
        assert_eq!(s.dcf.try_access(&mut m, true), DcfAction::Counting);
        assert_eq!(s.dcf.bi(), 5);
        // Exactly on a boundary of the new grid: the request runs before
        // the look it coincides with, which therefore never happens.
        m.now += SLOT.mul(2);
        assert_eq!(s.dcf.try_access(&mut m, true), DcfAction::Counting);
        assert_eq!(s.dcf.bi(), 4);
        // Re-entering at once changes nothing.
        assert_eq!(s.dcf.try_access(&mut m, true), DcfAction::Counting);
        assert_eq!(s.dcf.bi(), 4);
        let restart = m.now;
        assert_eq!(
            (sleep(&mut m, &mut s), m.now),
            (DcfAction::Transmit, restart + SLOT.mul(4))
        );
    }

    #[test]
    fn suspend_keeps_the_credited_bi() {
        let mut m = Mock::new();
        let mut s = Station::counting(&mut m, 7);
        m.now = SLOT.mul(3) + SimTime::from_micros(1);
        s.dcf.suspend(&mut m);
        assert_eq!(s.dcf.bi(), 4);
        // The cancelled sleep is withdrawn from the context.
        assert!(!m.has_timer(TimerKind::BackoffSlot));
    }

    #[test]
    fn nav_defers_and_arms_wakeup() {
        let mut m = Mock::new();
        let mut d = Dcf::default();
        d.observe_nav(&mut m, SimTime::from_millis(2));
        assert!(!d.medium_idle(&m));
        assert_eq!(d.try_access(&mut m, true), DcfAction::Defer);
        // The NAV wake-up must be armed so contention resumes, just past the
        // reservation; deferring again re-arms it, and one is left.
        let wake = SimTime::from_millis(2) + SimTime::NANO;
        assert_eq!(m.timers, [(wake, TimerKind::Nav)]);
        assert_eq!(d.try_access(&mut m, true), DcfAction::Defer);
        assert_eq!(m.timers, [(wake, TimerKind::Nav)]);
        m.now = wake;
        assert!(d.medium_idle(&m));
    }

    #[test]
    fn cw_grows_and_resets() {
        let mut d = Dcf::default();
        assert_eq!(d.cw(), 31);
        d.fail();
        d.fail();
        assert_eq!(d.cw(), 127);
        d.reset_cw();
        assert_eq!(d.cw(), 31);
    }

    #[test]
    fn observe_nav_keeps_the_latest_horizon() {
        let mut m = Mock::new();
        let mut d = Dcf::default();
        m.now = SimTime::from_millis(1);
        d.observe_nav(&mut m, SimTime::from_millis(5));
        d.observe_nav(&mut m, SimTime::from_millis(2));
        assert_eq!(d.nav_until(), SimTime::from_millis(6));
    }
}
