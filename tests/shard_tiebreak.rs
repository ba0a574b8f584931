//! Regression tests pinning the cross-shard tie-break rule.
//!
//! The latent ordering hazard in any partitioned event queue: two events
//! at the *same nanosecond* on *different shards* — e.g. a tone edge and a
//! frame arrival start reaching two receivers equidistant from their
//! emitters, right at the τ propagation horizon. A naive per-shard pop
//! would dispatch them in shard order; the contract is **global FIFO**:
//! same-timestamp events dispatch in push (sequence) order, exactly as in
//! the flat oracle queue. These tests pin that rule at the queue layer
//! with real engine events, and end-to-end through a scenario built to
//! mass-produce boundary-straddling simultaneous events.

use rmac::engine::world::Ev;
use rmac::mobility::{Bounds, Pos};
use rmac::phy::{PhyEvent, Tone};
use rmac::prelude::*;

mod common;
use rmac::sim::{ShardedQueue, SimQueue};

/// The queue-level pin with real engine events: a ToneEdge to a node on
/// shard 1 and a FrameArriveStart to a node on shard 0, pushed at the
/// identical timestamp (an exact τ horizon boundary), must pop in push
/// order — tone first here, because it was pushed first — not in shard
/// order.
#[test]
fn same_instant_tone_edge_and_frame_start_keep_push_order() {
    // Route by node id parity: even → shard 0, odd → shard 1.
    let nodes = 4usize;
    let mut q: ShardedQueue<Ev> =
        ShardedQueue::new(2, 16, Box::new(move |ev: &Ev| ev.home_slot(nodes) % 2));
    // τ for the paper's 75 m range is 250 ns; pick a boundary instant.
    let tau = SimTime::from_nanos(250);
    let t = SimTime::from_micros(100) + tau;
    q.push(
        t,
        Ev::Phy(PhyEvent::ToneEdge {
            rx: NodeId(1),
            tone: Tone::Rbt,
            on: true,
            emit: 9,
        }),
    );
    q.push(
        t,
        Ev::Phy(PhyEvent::FrameArriveStart {
            rx: NodeId(2),
            tx: 4,
            power: 1.0,
        }),
    );
    q.push(
        t,
        Ev::Phy(PhyEvent::ToneEdge {
            rx: NodeId(3),
            tone: Tone::Abt,
            on: false,
            emit: 9,
        }),
    );
    let order: Vec<Ev> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
    assert_eq!(order.len(), 3);
    assert!(
        matches!(order[0], Ev::Phy(PhyEvent::ToneEdge { rx: NodeId(1), .. })),
        "first push must dispatch first, got {:?}",
        order[0]
    );
    assert!(
        matches!(
            order[1],
            Ev::Phy(PhyEvent::FrameArriveStart { rx: NodeId(2), .. })
        ),
        "cross-shard same-instant event lost FIFO order, got {:?}",
        order[1]
    );
    assert!(
        matches!(order[2], Ev::Phy(PhyEvent::ToneEdge { rx: NodeId(3), .. })),
        "third push must dispatch last, got {:?}",
        order[2]
    );
}

/// Same-instant events within one shard and across shards interleaved:
/// the dispatch order is exactly the push order, regardless of which
/// sub-queue each event landed in.
#[test]
fn interleaved_same_instant_events_dispatch_in_sequence_order() {
    let nodes = 8usize;
    let mut q: ShardedQueue<Ev> =
        ShardedQueue::new(4, 16, Box::new(move |ev: &Ev| ev.home_slot(nodes) % 4));
    let t = SimTime::from_millis(5);
    let pushed: Vec<u16> = vec![3, 0, 1, 2, 7, 4, 6, 5];
    for &n in &pushed {
        q.push(
            t,
            Ev::MacTimer {
                node: NodeId(n),
                kind: rmac::mac::api::TimerKind::BackoffSlot,
                gen: 0,
                epoch: 0,
            },
        );
    }
    let popped: Vec<u16> = std::iter::from_fn(|| q.pop())
        .map(|(_, e)| match e {
            Ev::MacTimer { node, .. } => node.0,
            other => panic!("unexpected event {other:?}"),
        })
        .collect();
    assert_eq!(
        popped, pushed,
        "same-instant dispatch must follow push order"
    );
}

/// End-to-end pin: a sender parked exactly on a stripe boundary with
/// receivers mirrored at equal distances on both sides. Every frame
/// arrival and tone edge it emits reaches both sides at the *same
/// nanosecond* on *different shards* — the adversarial case for the
/// tie-break — and the sharded report must still match the oracle bit for
/// bit, at every shard count.
#[test]
fn boundary_straddling_receivers_match_oracle() {
    // Bounds 300 m wide: with 2 shards the stripe boundary is x = 150;
    // with 4 it is x ∈ {75, 150, 225}. Sender at the 150 m boundary,
    // receiver pairs mirrored ±10, ±25, ±40 m around it.
    let mut positions = vec![Pos::new(150.0, 50.0)];
    for d in [10.0, 25.0, 40.0] {
        positions.push(Pos::new(150.0 - d, 50.0));
        positions.push(Pos::new(150.0 + d, 50.0));
    }
    let mut cfg = ScenarioConfig::paper_stationary(20.0)
        .with_nodes(positions.len())
        .with_packets(12)
        .with_positions(positions);
    cfg.bounds = Bounds::new(300.0, 100.0);
    let oracle = common::checked(&cfg, Protocol::Rmac, 17);
    for shards in [2usize, 4, 8] {
        let out = Run::new(&cfg.clone().with_shards(shards), Protocol::Rmac, 17)
            .check()
            .execute()
            .assert_clean();
        assert_eq!(out.report, oracle, "shards={shards}");
        let stats = out.shard.expect("sharded stats");
        // The layout must actually exercise the bus: receivers sit on
        // both sides of a stripe boundary, so arrivals cross shards.
        assert!(
            stats.cross_pushes > 0,
            "boundary scenario produced no cross-shard traffic at shards={shards}"
        );
    }
}
