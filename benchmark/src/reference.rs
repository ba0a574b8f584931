//! The reference kernel: how fast the host is *around a measured call*.
//!
//! The benchmark runs on a few cores of a shared host whose speed moves with
//! the neighbours for minutes at a stretch: identical replications were seen
//! to take 0.55 and 1.19 s, and whole 15 s runs of one commit disagreed by a
//! quartile distance of 43-55 % of their median, whichever statistic over
//! their children was reported. CPU seconds moved as far as wall seconds
//! did, so the guest cannot see what it loses. Only a second measurement on
//! the same host at the same time removes that.
//!
//! So every measured call sits in a [`Bracket`]: one fixed piece of work
//! (about a seventh of a second) timed on the calling thread right before the
//! call and again right after it, with the same clock as the call. Every
//! host time the benchmark reports is then multiplied by
//! `NOMINAL_S / mean of the two`: seconds *at reference speed*. The kernel
//! is the benchmark's own and frozen: a change to the program cannot touch
//! it, so a scaled time moves exactly as much as the program's speed does.
//! It is a miniature of what the program does (a discrete-event loop over a
//! binary heap, per-node state, neighbour fan-out, a little floating point,
//! and one read and write per event somewhere in a 1 MB table), so that it
//! slows down the way the program does. How far that is depends on what the
//! neighbours take, and two regimes were measured. In the first (minutes
//! long, cache and memory bandwidth) a pure register loop barely noticed
//! them (4 % where a replication moved by 15 %), the kernel without the
//! table moved half as far as the program (exponent of the fit between
//! window medians 1.8 to 1.95) and with two table accesses per event as far
//! (0.91 to 0.96). In the second (bursts shorter than a second; the register
//! loop did not move at all) medians over 15 s windows of the program moved
//! by ±17 % (`dense200_static`, `paper75_bmmm`) to ±27 % (`paper75_mobile`,
//! `live_soak_ge20`), of the kernel without the table by ±16 %, with one
//! access by ±18 % and with two by ±27 %, and two accesses put the scaled
//! times of that regime 20 % *below* those of a quiet host. One access is
//! the middle: it follows the program a little short in the first regime and
//! as far in the second. Each side is a kernel of its own, built, run in and
//! dropped on the spot: both sides do exactly the same work, and nothing of
//! the kernel is resident during the call. It runs uninterrupted and never
//! sleeps, so a host that takes the core away in slices takes them from the
//! kernel in the same proportion as from the call.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use crate::inputs::Rng;

/// Seconds one side of a bracket takes on the host the baseline was
/// recorded on while it is quiet. Only a scale: it makes scaled seconds
/// read like that host's own seconds.
pub const NOMINAL_S: f64 = 0.14;

/// Events of one side of a bracket.
const SIDE_EVENTS: u32 = 3_500_000;
/// Events run untimed before each side, to pull the kernel into the
/// core's caches.
const WARM_EVENTS: u32 = 200_000;

/// Words of the table every event reads and writes one of: 1 MB, more than
/// a core's first-level cache and less than what the cores share.
const TABLE_WORDS: usize = 1 << 17;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

const NODES: usize = 200;
const RANGE_M: f64 = 75.0;

struct Node {
    x: f64,
    y: f64,
    backoff: u32,
    received: u64,
    neighbours: Vec<u32>,
}

/// The miniature simulator.
pub struct Kernel {
    rng: Rng,
    nodes: Vec<Node>,
    /// (time in ns, tie-break, node, is an arrival)
    queue: BinaryHeap<Reverse<(u64, u32, u32, bool)>>,
    seq: u32,
    table: Vec<u64>,
    checksum: u64,
}

impl Kernel {
    pub fn new() -> Kernel {
        let mut rng = Rng::new(0x5EED_CA11);
        // Paper density: 200 nodes on 816 m x 490 m.
        let mut nodes: Vec<Node> = (0..NODES)
            .map(|_| Node {
                x: rng.range(0.0, 816.0),
                y: rng.range(0.0, 490.0),
                backoff: 1 + (rng.next_u64() % 16) as u32,
                received: 0,
                neighbours: Vec::new(),
            })
            .collect();
        for i in 0..NODES {
            for j in 0..NODES {
                let (dx, dy) = (nodes[i].x - nodes[j].x, nodes[i].y - nodes[j].y);
                if i != j && (dx * dx + dy * dy).sqrt() <= RANGE_M {
                    nodes[i].neighbours.push(j as u32);
                }
            }
        }
        let mut queue = BinaryHeap::new();
        for id in 0..NODES as u32 {
            queue.push(Reverse((rng.next_u64() % 20_000, id, id, false)));
        }
        Kernel {
            rng,
            nodes,
            queue,
            seq: NODES as u32,
            table: (0..TABLE_WORDS as u64).collect(),
            checksum: 0,
        }
    }

    /// Handle `events` events; the checksum depends on every one of them.
    pub fn run(&mut self, events: u32) -> u64 {
        for _ in 0..events {
            let Reverse((now, tie, id, is_arrival)) =
                self.queue.pop().expect("every node keeps a timer");
            // Per-event state somewhere in the table: where the access
            // goes depends on what the previous arrival read.
            let hash = (self.checksum ^ now ^ u64::from(tie)).wrapping_mul(FNV_PRIME);
            let slot = (hash >> 17) as usize % TABLE_WORDS;
            let seen = self.table[slot];
            self.table[slot] = seen.wrapping_add(hash);
            let hash = (hash ^ seen).wrapping_mul(FNV_PRIME);
            let node = &mut self.nodes[id as usize];
            if is_arrival {
                node.received += 1;
                self.checksum = hash;
                continue;
            }
            // A backoff slot: count down, and at zero "transmit" to every
            // neighbour after the propagation delay.
            node.backoff -= 1;
            if node.backoff == 0 {
                node.backoff = 1 + (self.rng.next_u64() % 32) as u32;
                let (x, y) = (node.x, node.y);
                let fanout = std::mem::take(&mut node.neighbours);
                for &to in &fanout {
                    let peer = &self.nodes[to as usize];
                    let metres = ((x - peer.x).powi(2) + (y - peer.y).powi(2)).sqrt();
                    let at = now + (metres * 3.34) as u64;
                    self.queue.push(Reverse((at, self.seq, to, true)));
                    self.seq = self.seq.wrapping_add(1);
                }
                self.nodes[id as usize].neighbours = fanout;
            }
            self.queue
                .push(Reverse((now + 20_000, self.seq, id, false)));
            self.seq = self.seq.wrapping_add(1);
        }
        self.checksum
    }
}

/// Host seconds of one side of a bracket: a fresh kernel, run in, then
/// timed over [`SIDE_EVENTS`] events.
fn side() -> f64 {
    let mut kernel = Kernel::new();
    std::hint::black_box(kernel.run(WARM_EVENTS));
    let start = Instant::now();
    std::hint::black_box(kernel.run(SIDE_EVENTS));
    start.elapsed().as_secs_f64()
}

/// The reference kernel timed before and after whatever happens between
/// [`Bracket::open`] and [`Bracket::close`].
pub struct Bracket {
    before_s: f64,
}

impl Bracket {
    pub fn open() -> Bracket {
        Bracket { before_s: side() }
    }

    /// Mean host seconds of the two sides.
    pub fn close(self) -> f64 {
        (self.before_s + side()) / 2.0
    }
}

/// What a host time measured inside a bracket that read `ref_s` is
/// multiplied by to stand at reference speed.
pub fn factor(ref_s: f64) -> f64 {
    NOMINAL_S / ref_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_one_fixed_piece_of_work() {
        let first = Kernel::new().run(50_000);
        assert_eq!(first, Kernel::new().run(50_000));
        assert_ne!(first, 0);
        // The event population stays bounded: a timer per node plus the
        // arrivals in flight.
        let mut k = Kernel::new();
        k.run(500_000);
        assert!(k.queue.len() < 40 * NODES, "{}", k.queue.len());
    }

    #[test]
    fn a_bracket_reads_the_host_speed_on_both_sides() {
        let bracket = Bracket::open();
        let before_s = bracket.before_s;
        let ref_s = bracket.close();
        assert!(before_s > 1e-3 && before_s < 10.0, "{before_s}");
        // The mean lies between the sides, and two sides a moment apart
        // agree within a factor of two even on a busy host.
        let after_s = 2.0 * ref_s - before_s;
        assert!(after_s > before_s / 2.0 && after_s < before_s * 2.0);
        assert!((factor(NOMINAL_S) - 1.0).abs() < 1e-12);
        assert!(factor(2.0 * NOMINAL_S) < factor(NOMINAL_S));
    }
}
