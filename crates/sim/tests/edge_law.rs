//! The edge law, over [`Edge`] alone.
//!
//! An edge's event is pushed exactly once iff its receiver was interested
//! when the edge was written, or became interested while its key was still
//! ahead of the dispatch cursor; never once the cursor has passed it; never
//! for `NEVER`. Everything the PHY's records promise about who is told of
//! what (DESIGN.md §4, "Claimed keys") rests on these four clauses.

use proptest::collection::vec;
use proptest::prelude::*;
use rmac_sim::{CalendarQueue, Cursor, Edge, EdgeTally, EventQueue, SimQueue, SimTime};

#[derive(Clone, Copy, Debug)]
enum Op {
    /// Write an edge `delta` ns ahead, its receiver interested or not.
    Write(u64, bool),
    /// Push an unrelated event `delta` ns ahead (something to pop towards).
    Filler(u64),
    /// Dispatch the next event.
    Pop,
    /// The receiver's interest opens: every edge written so far catches up.
    Open,
}

/// Same-instant ties, the same window, the ring and the far heap of the
/// tiny calendar geometry below.
fn delta() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), 1u64..16, 16u64..300, 300u64..5_000]
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    vec(
        prop_oneof![
            (delta(), any::<bool>()).prop_map(|(d, told)| Op::Write(d, told)),
            (delta(), any::<bool>()).prop_map(|(d, told)| Op::Write(d, told)),
            delta().prop_map(Op::Filler),
            Just(Op::Pop),
            Just(Op::Pop),
            Just(Op::Open),
        ],
        0..200,
    )
}

/// What the queue carries: an edge's index, or a filler.
type Ev = Option<usize>;

/// Dispatch the next event, if any: keys only ascend, and an edge's event
/// runs under the key the edge claimed.
fn dispatch(
    q: &mut impl SimQueue<Ev>,
    edges: &[(Edge, bool)],
    popped: &mut [u32],
) -> Result<(), TestCaseError> {
    let before = q.cursor();
    let Some((t, ev)) = q.pop() else {
        return Ok(());
    };
    prop_assert!(q.cursor() > before, "the cursor only moves forward");
    if let Some(i) = ev {
        prop_assert_eq!(q.cursor(), edges[i].0.key);
        prop_assert_eq!(t, edges[i].0.key.time);
        popped[i] += 1;
    }
    Ok(())
}

fn check(ops: &[Op], mut q: impl SimQueue<Ev>) -> Result<(), TestCaseError> {
    // A queue that has dispatched nothing stands at the key its first claim
    // returns; a run's first key belongs to an event (the engine seeds its
    // queue before anything is written), so here too.
    q.push(SimTime::ZERO, None);
    q.pop();
    let mut fillers = 1;
    let mut tally = EdgeTally::default();
    // Each edge with whether the law owes it an event. One that has not
    // happened yet rides along: no opening of interest may ever push it.
    let mut edges = vec![(Edge::NEVER, false)];
    let mut popped = vec![0u32; 1];
    for &op in ops {
        match op {
            Op::Write(d, interested) => {
                let (i, at) = (edges.len(), q.now() + SimTime::from_nanos(d));
                let edge = Edge::write(&mut q, at, interested, Some(i), &mut tally);
                prop_assert_eq!(edge.told(), interested);
                prop_assert!(edge.key > q.cursor() && edge.key < Cursor::NEVER);
                edges.push((edge, interested));
                popped.push(0);
            }
            Op::Filler(d) => {
                q.push_after(SimTime::from_nanos(d), None);
                fillers += 1;
            }
            Op::Pop => dispatch(&mut q, &edges, &mut popped)?,
            Op::Open => {
                let at = q.cursor();
                for (i, (edge, owed)) in edges.iter_mut().enumerate() {
                    let ahead = edge.key > at && edge.key != Cursor::NEVER;
                    let pushed = q.total_pushed();
                    edge.catch_up(&mut q, Some(i), &mut tally);
                    let caught_up = q.total_pushed() - pushed;
                    prop_assert_eq!(caught_up, u64::from(ahead && !*owed), "edge {}", i);
                    *owed |= ahead;
                    prop_assert_eq!(edge.told(), *owed);
                }
            }
        }
    }
    while !q.is_empty() {
        dispatch(&mut q, &edges, &mut popped)?;
    }
    for (i, &(edge, owed)) in edges.iter().enumerate() {
        prop_assert_eq!(popped[i], u32::from(owed), "edge {} at {:?}", i, edge.key);
    }
    let written = edges.len() as u64 - 1;
    prop_assert!(tally.scheduled + tally.catchups <= written);
    prop_assert_eq!(tally.scheduled + tally.catchups + fillers, q.total_pushed());
    prop_assert_eq!(tally.records, 0, "counted by whoever writes the records");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn an_edge_is_pushed_once_iff_interest_met_it_ahead_of_the_cursor(ops in ops()) {
        check(&ops, EventQueue::new())?;
        // 8 ns windows, a 32 ns ring: claimed keys are filled after
        // rotations, far pulls and empty-queue fast-forwards.
        check(&ops, CalendarQueue::with_geometry(3, 4))?;
    }
}
