//! A hierarchical timing wheel for the live runtime.
//!
//! The discrete-event simulator pops timers from a binary heap; a live
//! endpoint instead needs "what is my next deadline?" and "fire everything
//! due by `now`" against a monotonic clock, with insert/cancel volumes
//! dominated by the MAC's short timers (backoff countdowns and their
//! 20 µs boundary checks, 17 µs tone windows, per-frame TxDone/RxEnd
//! events). The classic structure is the
//! hashed hierarchical wheel (Varghese & Lauck; tokio and the Linux kernel
//! use the same shape): here 6 levels × 64 slots at a 1 µs base tick, so
//! level *l* spans 64^(l+1) µs and the whole wheel covers ≈ 19 hours,
//! with a `Vec` overflow for anything farther out.
//!
//! Two deviations from a textbook wheel, both for determinism:
//!
//! * entries remember their *exact* [`SimTime`] (the wheel's 1 µs tick
//!   only buckets them) — RMAC's tone windows have ±2 µs margins, so
//!   firing at tick granularity would be a protocol change;
//! * simultaneous entries fire in insertion order (a global sequence
//!   number), the same FIFO tie-break as `rmac_sim::EventQueue`, so a
//!   loopback run is reproducible event for event.
//!
//! Each level keeps a 64-bit occupancy bitmap; finding the next occupied
//! slot is a rotate + trailing-zeros, so `next_deadline` costs O(levels)
//! plus a scan of the few entries in the earliest slot of each level.

use rmac_sim::SimTime;

const SLOT_BITS: u32 = 6;
const SLOTS: usize = 1 << SLOT_BITS; // 64
const LEVELS: usize = 6;

struct Entry<T> {
    at: SimTime,
    tick: u64,
    seq: u64,
    item: T,
}

struct Level<T> {
    occupied: u64,
    slots: Vec<Vec<Entry<T>>>,
}

impl<T> Level<T> {
    fn new() -> Level<T> {
        Level {
            occupied: 0,
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
        }
    }

    /// The slot index (within this level) holding the earliest pending
    /// unit at or after `now_unit`, if any: rotate the bitmap so the
    /// current position is bit 0, then take the first set bit.
    fn earliest_offset(&self, now_unit: u64) -> Option<u64> {
        if self.occupied == 0 {
            return None;
        }
        let rot = self.occupied.rotate_right((now_unit & 63) as u32);
        Some(rot.trailing_zeros() as u64)
    }
}

/// A hierarchical timing wheel holding items of type `T`.
pub struct TimerWheel<T> {
    tick_ns: u64,
    /// Exact current time: entries with `at <= now` have fired.
    now: SimTime,
    /// `now` in ticks; pending entries all have `tick >= now_tick`.
    now_tick: u64,
    seq: u64,
    len: usize,
    levels: Vec<Level<T>>,
    overflow: Vec<Entry<T>>,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        TimerWheel::new(SimTime::MICRO)
    }
}

impl<T> TimerWheel<T> {
    /// A wheel with the given base tick (granularity of the slotting
    /// only; firing times stay exact). The default is 1 µs, matching the
    /// finest constant in the paper (τ).
    pub fn new(tick: SimTime) -> TimerWheel<T> {
        let tick_ns = tick.nanos().max(1);
        TimerWheel {
            tick_ns,
            now: SimTime::ZERO,
            now_tick: 0,
            seq: 0,
            len: 0,
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
            overflow: Vec::new(),
        }
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The wheel's current time (the latest `advance` target).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `item` at absolute time `at`. Times not after `now` fire
    /// on the next `advance` call (they are clamped to `now`, the same
    /// contract as the event queue).
    pub fn schedule(&mut self, at: SimTime, item: T) {
        let at = at.max(self.now);
        let tick = at.nanos() / self.tick_ns;
        debug_assert!(tick >= self.now_tick);
        let seq = self.seq;
        self.seq += 1;
        self.len += 1;
        self.place(Entry {
            at,
            tick,
            seq,
            item,
        });
    }

    /// Level for a tick: position of the highest bit in which it differs
    /// from `now_tick`, divided by the slot width. Entries sharing all
    /// high bits with `now` live in level 0; each level up widens the
    /// shared prefix by 6 bits.
    fn level_for(&self, tick: u64) -> usize {
        let xor = tick ^ self.now_tick;
        if xor == 0 {
            0
        } else {
            (63 - xor.leading_zeros() as usize) / SLOT_BITS as usize
        }
    }

    fn place(&mut self, e: Entry<T>) {
        let level = self.level_for(e.tick);
        if level >= LEVELS {
            self.overflow.push(e);
            return;
        }
        let slot = ((e.tick >> (SLOT_BITS as usize * level)) & 63) as usize;
        let lv = &mut self.levels[level];
        debug_assert!(
            lv.slots[slot]
                .last()
                .is_none_or(|p| p.tick >> (SLOT_BITS as usize * level)
                    == e.tick >> (SLOT_BITS as usize * level)),
            "two units share a slot"
        );
        lv.slots[slot].push(e);
        lv.occupied |= 1 << slot;
    }

    /// The earliest pending tick in level 0, if any (exact: level-0 slots
    /// hold a single tick value each).
    fn level0_candidate(&self) -> Option<u64> {
        self.levels[0]
            .earliest_offset(self.now_tick)
            .map(|off| self.now_tick + off)
    }

    /// The higher-level (or overflow) occupied region with the smallest
    /// start tick: `(level, slot, start_tick)`, with `level == LEVELS`
    /// denoting the overflow list.
    fn higher_candidate(&self) -> Option<(usize, usize, u64)> {
        let mut best: Option<(usize, usize, u64)> = None;
        for l in 1..LEVELS {
            let shift = SLOT_BITS as usize * l;
            let now_unit = self.now_tick >> shift;
            if let Some(off) = self.levels[l].earliest_offset(now_unit) {
                let unit = now_unit + off;
                let slot = (unit & 63) as usize;
                let start = unit << shift;
                // An entry's tick is >= its slot's start, but a slot whose
                // range contains `now` starts "before" now; clamp.
                let start = start.max(self.now_tick);
                if best.is_none_or(|(_, _, s)| start < s) {
                    best = Some((l, slot, start));
                }
            }
        }
        if !self.overflow.is_empty() {
            let start = self
                .overflow
                .iter()
                .map(|e| e.tick)
                .min()
                .expect("nonempty overflow");
            if best.is_none_or(|(_, _, s)| start < s) {
                best = Some((LEVELS, 0, start));
            }
        }
        best
    }

    /// Move every entry out of a higher-level slot (or the overflow
    /// region) back through `place`, after advancing `now_tick` to the
    /// region's start. Callers guarantee no pending entry is earlier than
    /// `start`, so the jump cannot skip anything.
    fn cascade(&mut self, level: usize, slot: usize, start: u64) {
        self.now_tick = self.now_tick.max(start);
        if level == LEVELS {
            let moved = std::mem::take(&mut self.overflow);
            for e in moved {
                // Entries still beyond the horizon go straight back.
                self.place(e);
            }
            return;
        }
        let lv = &mut self.levels[level];
        lv.occupied &= !(1 << slot);
        let moved = std::mem::take(&mut lv.slots[slot]);
        for e in moved {
            debug_assert!(self.level_for(e.tick) < level || level == LEVELS);
            self.place(e);
        }
    }

    /// The exact earliest pending firing time, if any.
    pub fn next_deadline(&self) -> Option<SimTime> {
        let mut best: Option<SimTime> = None;
        let mut consider = |at: SimTime| {
            if best.is_none_or(|b| at < b) {
                best = Some(at);
            }
        };
        // Per level, slots are disjoint tick ranges, so the earliest
        // occupied slot of each level contains that level's earliest
        // entry; scan its (few) entries for the exact minimum.
        for l in 0..LEVELS {
            let shift = SLOT_BITS as usize * l;
            let now_unit = self.now_tick >> shift;
            if let Some(off) = self.levels[l].earliest_offset(now_unit) {
                let slot = ((now_unit + off) & 63) as usize;
                for e in &self.levels[l].slots[slot] {
                    consider(e.at);
                }
            }
        }
        for e in &self.overflow {
            consider(e.at);
        }
        best
    }

    /// Advance the wheel to `now`, appending every entry with `at <= now`
    /// to `out` in `(at, seq)` order. `now` earlier than the current time
    /// is treated as the current time (clocks never run backwards).
    pub fn advance(&mut self, now: SimTime, out: &mut Vec<(SimTime, T)>) {
        let now = now.max(self.now);
        let target_tick = now.nanos() / self.tick_ns;
        loop {
            let c0 = self.level0_candidate();
            let ch = self.higher_candidate();
            // Cascade any coarser region that starts at or before both the
            // target and the finest candidate — its entries may be the
            // earliest pending.
            if let Some((l, s, start)) = ch {
                if start <= target_tick && c0.is_none_or(|c| start <= c) {
                    self.cascade(l, s, start);
                    continue;
                }
            }
            let Some(c) = c0 else { break };
            if c > target_tick {
                break;
            }
            self.now_tick = c;
            let slot = (c & 63) as usize;
            let lv = &mut self.levels[0];
            lv.occupied &= !(1 << slot);
            let mut due = std::mem::take(&mut lv.slots[slot]);
            if c == target_tick {
                // The current tick may hold entries later than `now`
                // within the same tick; keep them pending.
                let (keep, fire): (Vec<Entry<T>>, Vec<Entry<T>>) =
                    due.into_iter().partition(|e| e.at > now);
                due = fire;
                if !keep.is_empty() {
                    lv.slots[slot] = keep;
                    lv.occupied |= 1 << slot;
                }
            }
            due.sort_by_key(|e| (e.at, e.seq));
            self.len -= due.len();
            out.extend(due.into_iter().map(|e| (e.at, e.item)));
            if c == target_tick {
                break;
            }
        }
        self.now = now;
        self.now_tick = target_tick;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimTime {
        SimTime::from_micros(v)
    }

    fn drain(w: &mut TimerWheel<u32>, to: SimTime) -> Vec<(SimTime, u32)> {
        let mut out = Vec::new();
        w.advance(to, &mut out);
        out
    }

    #[test]
    fn fires_in_time_order() {
        let mut w = TimerWheel::default();
        w.schedule(us(30), 3);
        w.schedule(us(10), 1);
        w.schedule(us(20), 2);
        assert_eq!(w.next_deadline(), Some(us(10)));
        let fired = drain(&mut w, us(100));
        assert_eq!(fired, vec![(us(10), 1), (us(20), 2), (us(30), 3)]);
        assert!(w.is_empty());
    }

    #[test]
    fn simultaneous_entries_are_fifo() {
        let mut w = TimerWheel::default();
        for i in 0..50u32 {
            w.schedule(us(5), i);
        }
        let fired = drain(&mut w, us(5));
        assert_eq!(fired.len(), 50);
        for (i, (t, v)) in fired.iter().enumerate() {
            assert_eq!((*t, *v), (us(5), i as u32));
        }
    }

    #[test]
    fn sub_tick_times_stay_exact() {
        // 1 µs tick, entries 300 ns apart inside one tick: exact times and
        // exact order must survive, and an advance to the middle of the
        // tick must only fire what is due.
        let mut w = TimerWheel::default();
        w.schedule(SimTime::from_nanos(1_600), 2);
        w.schedule(SimTime::from_nanos(1_300), 1);
        let mut out = Vec::new();
        w.advance(SimTime::from_nanos(1_400), &mut out);
        assert_eq!(out, vec![(SimTime::from_nanos(1_300), 1)]);
        assert_eq!(w.next_deadline(), Some(SimTime::from_nanos(1_600)));
        w.advance(SimTime::from_nanos(2_000), &mut out);
        assert_eq!(out.last(), Some(&(SimTime::from_nanos(1_600), 2)));
    }

    #[test]
    fn far_deadlines_cascade_down() {
        let mut w = TimerWheel::default();
        // Level 0 (< 64 µs), level 1, level 2 and level 3 territory.
        w.schedule(us(40), 0);
        w.schedule(us(5_000), 1);
        w.schedule(us(300_000), 2);
        w.schedule(us(20_000_000), 3);
        assert_eq!(w.next_deadline(), Some(us(40)));
        assert_eq!(drain(&mut w, us(40)), vec![(us(40), 0)]);
        assert_eq!(w.next_deadline(), Some(us(5_000)));
        assert_eq!(drain(&mut w, us(5_000)), vec![(us(5_000), 1)]);
        assert_eq!(w.next_deadline(), Some(us(300_000)));
        assert_eq!(
            drain(&mut w, us(25_000_000)),
            vec![(us(300_000), 2), (us(20_000_000), 3)]
        );
        assert!(w.is_empty());
    }

    #[test]
    fn overflow_horizon_is_handled() {
        // A coarse 1 ms tick shrinks the wheel horizon to 64^6 ms; use a
        // 1 ns tick instead so the horizon is 64^6 ns ≈ 68.7 s and a
        // 2-minute deadline exercises the overflow path.
        let mut w = TimerWheel::new(SimTime::NANO);
        w.schedule(SimTime::from_secs(120), 9);
        w.schedule(us(10), 1);
        assert_eq!(w.next_deadline(), Some(us(10)));
        assert_eq!(drain(&mut w, us(10)), vec![(us(10), 1)]);
        assert_eq!(w.next_deadline(), Some(SimTime::from_secs(120)));
        assert_eq!(
            drain(&mut w, SimTime::from_secs(120)),
            vec![(SimTime::from_secs(120), 9)]
        );
    }

    #[test]
    fn past_times_clamp_to_now_and_fire_next_advance() {
        let mut w = TimerWheel::default();
        w.advance(us(100), &mut Vec::new());
        w.schedule(us(10), 7); // in the past: clamped to now = 100 µs
        assert_eq!(w.next_deadline(), Some(us(100)));
        assert_eq!(drain(&mut w, us(100)), vec![(us(100), 7)]);
    }

    #[test]
    fn interleaved_schedule_while_advancing() {
        // Mirror the MAC's behavior: firing one timer schedules the next
        // (a backoff boundary check re-arming the rest of the countdown).
        // The wheel itself doesn't re-enter, the driver loops; emulate
        // that here.
        let mut w = TimerWheel::default();
        w.schedule(us(20), 0);
        let mut fired = Vec::new();
        let mut t = us(20);
        for i in 1..100u32 {
            let mut out = Vec::new();
            w.advance(t, &mut out);
            fired.extend(out.iter().map(|&(_, v)| v));
            w.schedule(t + us(20), i);
            t += us(20);
        }
        assert_eq!(fired, (0..99).collect::<Vec<u32>>());
    }

    /// Model check: a few thousand pseudo-random schedule/advance ops must
    /// match a sorted-vector reference model exactly, including FIFO order
    /// among equal times. Same xorshift-style fuzz as the event queue's.
    #[test]
    fn model_equivalence_fuzz() {
        let mut x: u64 = 0x243F_6A88_85A3_08D3;
        let mut step = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut wheel: TimerWheel<u64> = TimerWheel::default();
        let mut model: Vec<(SimTime, u64, u64)> = Vec::new(); // (at, seq, id)
        let mut now = SimTime::ZERO;
        let mut seq = 0u64;
        for op in 0..4_000u64 {
            if step() % 3 != 0 {
                // Schedule at now + a delay spanning all levels (0 ns to
                // ~0.26 s) with occasional sub-µs components.
                let span = match step() % 4 {
                    0 => step() % 2_000,       // sub-tick territory
                    1 => step() % 200_000,     // level 0-1
                    2 => step() % 50_000_000,  // level 2-3
                    _ => step() % 260_000_000, // level 3+
                };
                let at = now + SimTime::from_nanos(span);
                wheel.schedule(at, op);
                model.push((at.max(now), seq, op));
                seq += 1;
            } else {
                now += SimTime::from_nanos(step() % 3_000_000);
                let mut out = Vec::new();
                wheel.advance(now, &mut out);
                model.sort_by_key(|&(at, s, _)| (at, s));
                let due: Vec<(SimTime, u64)> = model
                    .iter()
                    .filter(|&&(at, _, _)| at <= now)
                    .map(|&(at, _, id)| (at, id))
                    .collect();
                model.retain(|&(at, _, _)| at > now);
                assert_eq!(out, due, "divergence at op {op}, now {now}");
                assert_eq!(wheel.len(), model.len());
            }
        }
        // Drain everything.
        let mut out = Vec::new();
        wheel.advance(now + SimTime::from_secs(300), &mut out);
        model.sort_by_key(|&(at, s, _)| (at, s));
        let rest: Vec<(SimTime, u64)> = model.iter().map(|&(at, _, id)| (at, id)).collect();
        assert_eq!(out, rest);
        assert!(wheel.is_empty());
    }
}
