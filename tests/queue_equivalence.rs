//! The calendar queue's equivalence contract (property-based).
//!
//! `CalendarQueue` replaced the binary-heap `EventQueue` as the engine's
//! scheduler; the heap stays in `rmac-sim` as the ground-truth reference,
//! reachable from the engine only through `Run::reference`. This harness
//! pins the contract at two levels:
//!
//! 1. **Queue level** — for random operation schedules (bursty
//!    same-timestamp clusters, delays that straddle the calendar's
//!    window/ring/far boundaries, interleaved pops, keys claimed ahead and
//!    filled late or never) the calendar pops the *identical* `(time,
//!    event)` stream as the heap under the identical cursor (event ids are
//!    unique, so the stream pins the `(time, seq)` order), on the default
//!    geometry and on deliberately tiny geometries that force constant
//!    rotation and far-heap traffic.
//! 2. **Replication level** — for scenarios drawn from the fuzz generator,
//!    a full replication produces a **bit-identical** `RunReport` as one
//!    group on the heap reference, as one group on the calendar queue, and
//!    cut into 2/4/8 shards on the calendar queue.
//!
//! Same philosophy as `tests/shard_equivalence.rs`: the optimised path
//! must be observationally invisible.

use proptest::collection::vec;
use proptest::prelude::*;
use rmac::engine::Reference;
use rmac::prelude::*;
use rmac::sim::{CalendarQueue, Cursor, EventQueue, SimQueue, SimTime};
use rmac_experiments::fuzz::{materialize, scenario_strategy};

mod common;
use common::faulted;

/// The replication on the binary-heap reference queue.
fn heap_reference(cfg: &ScenarioConfig, p: Protocol, seed: u64, plan: &FaultPlan) -> RunReport {
    Run::new(cfg, p, seed)
        .reference(Reference::HeapQueue)
        .faults(plan)
        .execute()
        .report
}

/// One step of a random queue workload. Push delays are relative to the
/// clock at apply time so schedules stay legal under any pop interleaving.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Push at `now + delta_ns`.
    Push(u64),
    /// Pop the earliest event (no-op on an empty queue).
    Pop,
    /// Claim the key a push at `now + delta_ns` would get, pushing nothing.
    Claim(u64),
    /// Push under the `i`-th soonest outstanding claimed key (modulo how many
    /// there are) if the dispatch cursor has not passed it; forget it
    /// otherwise.
    Fill(usize),
}

/// Delays chosen to land in every region of the calendar's default
/// geometry (4096 ns windows × 1024 buckets ≈ 4.2 ms ring horizon):
/// zero-delay bursts, in-window, in-ring, ring-boundary-straddling, and
/// far-overflow. The tiny test geometries compress the same draws into
/// constant rotation/far traffic.
fn delta_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        // Same-timestamp bursts: the FIFO tie-break must carry the order.
        Just(0u64),
        // One tone window (λ) ahead: what is pushed and what is claimed in
        // one instant meets again in a later one, where a late fill has the
        // smaller `seq` of the two.
        Just(15_000u64),
        // Inside the active window.
        1u64..4_096,
        // Inside the bucket ring.
        4_096u64..4_194_304,
        // Straddling the ring horizon (the far-heap handoff boundary).
        4_100_000u64..4_300_000,
        // Deep in the far heap (epochs ahead).
        4_300_000u64..80_000_000,
    ]
}

/// Push-heavy schedules with enough pops to advance the clock mid-stream
/// (rotations and far pulls only happen on pop-driven refills), so a key
/// claimed far ahead is filled after rotations, after a far pull, into a
/// drained queue, or in the very instant the clock reaches it.
fn schedule_strategy() -> impl Strategy<Value = Vec<Op>> {
    // The vendored proptest shim's `prop_oneof!` is unweighted; listing
    // the push arm three times biases schedules push-heavy so queues build
    // real depth before drains.
    vec(
        prop_oneof![
            delta_strategy().prop_map(Op::Push),
            delta_strategy().prop_map(Op::Push),
            delta_strategy().prop_map(Op::Push),
            delta_strategy().prop_map(Op::Claim),
            // Half of the fills take the key next in line: filled in the
            // window, often the instant, the clock has reached.
            prop_oneof![Just(0usize), 0usize..64].prop_map(Op::Fill),
            Just(Op::Pop),
            Just(Op::Pop),
        ],
        0..400,
    )
}

/// Apply one schedule to the heap oracle and a calendar twin, asserting
/// the head time, the popped `(time, event)` pair and the cursor agree at
/// every step; drain both to empty the same way, fill what is still
/// claimed ahead into the drained queues, and drain again. Hands the
/// drained calendar back for its diagnostics.
fn assert_pops_identical(
    ops: &[Op],
    mut cal: CalendarQueue<u32>,
) -> Result<CalendarQueue<u32>, TestCaseError> {
    let mut heap: EventQueue<u32> = EventQueue::new();
    let mut claimed: Vec<Cursor> = Vec::new();
    let step = |heap: &mut EventQueue<u32>, cal: &mut CalendarQueue<u32>| {
        let now = heap.now();
        prop_assert_eq!(
            heap.peek_time(),
            cal.peek_time(),
            "peek_time diverged at t={}",
            now
        );
        let h = heap.pop();
        let c = cal.pop();
        prop_assert_eq!(h, c, "pop diverged at t={}", now);
        prop_assert_eq!(heap.cursor(), cal.cursor());
        prop_assert_eq!(heap.len(), cal.len());
        Ok(())
    };
    // Event ids are the push count so far: unique, and the same on both.
    let fill = |heap: &mut EventQueue<u32>, cal: &mut CalendarQueue<u32>, key: Cursor| {
        if key > heap.cursor() {
            let id = heap.total_pushed() as u32;
            heap.push_claimed(key, id);
            cal.push_claimed(key, id);
        }
    };
    for op in ops {
        match *op {
            Op::Push(delta) => {
                let at = heap.now() + SimTime::from_nanos(delta);
                let id = heap.total_pushed() as u32;
                heap.push(at, id);
                cal.push(at, id);
            }
            Op::Pop => step(&mut heap, &mut cal)?,
            Op::Claim(delta) => {
                let at = heap.now() + SimTime::from_nanos(delta);
                let books = (heap.len(), heap.total_pushed(), cal.total_pushed());
                let key = heap.claim(at);
                prop_assert_eq!(key, cal.claim(at));
                prop_assert_eq!((cal.len(), heap.total_pushed(), cal.total_pushed()), books);
                claimed.push(key);
            }
            Op::Fill(i) if !claimed.is_empty() => {
                claimed.sort_unstable();
                let key = claimed.remove(i % claimed.len());
                fill(&mut heap, &mut cal, key);
            }
            Op::Fill(_) => {}
        }
    }
    while !heap.is_empty() || !cal.is_empty() {
        step(&mut heap, &mut cal)?;
    }
    for key in claimed {
        fill(&mut heap, &mut cal, key);
    }
    while !heap.is_empty() || !cal.is_empty() {
        step(&mut heap, &mut cal)?;
    }
    prop_assert_eq!(heap.total_pushed(), cal.total_pushed());
    prop_assert_eq!(heap.total_popped(), cal.total_popped());
    Ok(cal)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random push/pop schedules pop identically on the default calendar
    /// geometry.
    #[test]
    fn random_schedules_pop_identically(ops in schedule_strategy()) {
        assert_pops_identical(&ops, CalendarQueue::new())?;
    }

    /// The same schedules on deliberately tiny geometries, so every case
    /// hammers window rotation, the ring-horizon handoff, and the
    /// empty-ring fast-forward instead of staying inside one wide window.
    #[test]
    fn tiny_geometries_pop_identically(
        ops in schedule_strategy(),
        shift in 3u32..8,
        nbuckets_log2 in 1u32..5,
    ) {
        assert_pops_identical(&ops, CalendarQueue::with_geometry(shift, 1 << nbuckets_log2))?;
    }
}

/// The window width of the directed schedules below: the default's 4 096 ns.
const W: u64 = 4_096;

/// Their ring sizes: the default geometry's 1024 buckets, 64 (one
/// occupancy word) and 4 (part of one).
const RINGS: [usize; 3] = [1024, 64, 4];

/// A sparse schedule, so every refill jumps over tens to hundreds of empty
/// windows: first one pending event at a time, 700 and then 40 windows past
/// the last; then rounds of four, 100, 300 and twice 500 windows out. The
/// occupancy scan wraps around the end of the default ring and of the
/// 64-bucket one; where a gap lies past the horizon the event comes back
/// through the far heap. Each refill is one window advance, so there are no
/// more advances than pops (a scan that misses the wrap still pops in
/// order here — its jumps overshoot and everything after lands in the
/// pending heap — but advances once per bucket it steps back through).
#[test]
fn sparse_events_hundreds_of_windows_apart_pop_identically() {
    let mut ops = Vec::new();
    for gap in [700 * W, 40 * W] {
        for round in 0..40u64 {
            ops.extend([Op::Push(gap + round), Op::Pop]);
        }
    }
    for round in 0..40u64 {
        ops.extend([
            Op::Push(100 * W + round),
            Op::Push(300 * W + 17),
            Op::Push(500 * W + 13 * round),
            Op::Push(500 * W + 13 * round),
            Op::Pop,
            Op::Pop,
            Op::Pop,
            Op::Pop,
        ]);
    }
    for n in RINGS {
        let cal = assert_pops_identical(&ops, CalendarQueue::with_geometry(12, n)).unwrap();
        let (advances, pops) = (cal.rotations(), cal.total_popped());
        assert!(
            advances <= pops,
            "{n} buckets: {advances} advances, {pops} pops"
        );
    }
}

/// A schedule at the top of the clock: the clock stands three ring horizons
/// short of `u64::MAX` ns, and events straddle the far horizon up to the
/// last representable instant, whose key is claimed first and filled last.
#[test]
fn events_at_the_top_of_the_clock_pop_identically() {
    for n in RINGS {
        let span = n as u64 * W;
        // Offsets from the clock at the time of each push; the comments
        // give the instant, as `u64::MAX` minus.
        let ops = [
            Op::Push(u64::MAX - 3 * span),
            Op::Pop,
            Op::Claim(3 * span), // 0
            Op::Push(W - 1),
            Op::Push(span - 1),
            Op::Push(span), // 2 horizons: the first past the ring
            Op::Push(span + 1),
            Op::Push(2 * span),
            Op::Push(3 * span - 1), // 1 ns
            Op::Push(3 * span),     // 0, after the claimed key
            Op::Pop,
            Op::Push(span),
            Op::Pop,
            Op::Pop,
            Op::Push(2 * span - 1), // 1 ns again, FIFO
            Op::Fill(0),
        ];
        assert_pops_identical(&ops, CalendarQueue::with_geometry(12, n)).unwrap();
    }
}

proptest! {
    // Full replications are ~10⁴× the cost of a queue schedule; a smaller
    // case budget still covers both topology families, both protocols,
    // every fault class and all four shard counts.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The replication-level contract: for randomized fuzz scenarios the
    /// engine produces bit-identical `RunReport`s on the heap queue and on
    /// the calendar queue — as one group, and at 2/4/8 shards under the
    /// calendar, every variant compared field-for-field against the
    /// one-group heap run. (The heap under several groups is held by the
    /// golden matrix and `tests/shard_equivalence.rs`.)
    #[test]
    fn replications_are_bit_identical_across_queues(
        fs in scenario_strategy(),
        seed in 0u64..10_000,
    ) {
        let (cfg, protocol, plan) = materialize(&fs);
        let cfg = cfg.with_shards(1);
        let oracle = heap_reference(&cfg, protocol, seed, &plan);
        let calendar = faulted(&cfg, protocol, seed, &plan);
        prop_assert_eq!(&calendar, &oracle, "one-group calendar vs heap oracle");
        prop_assert_eq!(calendar.events, oracle.events, "processed event count");
        for shards in [2usize, 4, 8] {
            let sharded = faulted(&cfg.clone().with_shards(shards), protocol, seed, &plan);
            prop_assert_eq!(&sharded, &oracle, "calendar shards={}", shards);
        }
    }
}

/// A directed bit-identity check on the paper-shaped dense scenario (the
/// bench workload's family): big enough that the calendar actually
/// rotates through many windows, cheap enough for every CI run.
#[test]
fn dense_paper_scenario_is_bit_identical() {
    let mut cfg = ScenarioConfig::paper_stationary(10.0)
        .with_nodes(30)
        .with_packets(12);
    cfg.bounds = rmac::mobility::Bounds::new(200.0, 150.0);
    let oracle = heap_reference(&cfg, Protocol::Rmac, 42, &FaultPlan::none());
    let calendar = Run::new(&cfg, Protocol::Rmac, 42).execute().report;
    assert_eq!(calendar, oracle);
    assert_eq!(calendar.events, oracle.events);
}
