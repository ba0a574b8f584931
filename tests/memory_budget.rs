//! The memory budget of one replication and of a live soak, in live heap
//! bytes, and the soak's allocations per step.
//!
//! Peak RSS swings with allocator layout and with whatever else the host is
//! doing; the peak of *live* heap bytes during a run does not. This binary
//! installs a counting allocator (here only: the crates stay free of
//! `unsafe`) and holds the peak above the bytes live before the run.
//! The calendar queue keeps buffers only for windows that hold events, so
//! its retained capacity tracks the pending depth; a queue that keeps one
//! buffer per ring window it ever touched (1 024 of them) fails here. (The
//! report's sample copies, folded in place since, came after the peak and
//! never set it.) The replication is one shard group, run on the calling
//! thread, so the count repeats exactly.
//!
//! A replication's live state does not grow with its packets: a node keeps
//! the ids it has seen as a low-water mark plus a bitset window, its delays
//! as one nanosecond sum, and the beacon timetable one 4-byte jitter per
//! fire, so four times the packets hold at most a small slack more at the
//! peak. A hash set of seen ids, a delay sample per reception or absolute
//! beacon times fail here.
//!
//! A live soak keeps only what is live: the harness takes every node's
//! deliveries and the MAC counts MRTSs per receiver count, so the soak's
//! peak does not grow with its length. A harness that leaves the
//! publishers' deliveries in their nodes, or a counter that keeps one
//! sample per MRTS, fails here.
//!
//! A live soak's allocations per runner step are counted too: the hub
//! keeps the buffer a node hands it rather than copying it, and a node's
//! outbox is drained rather than taken. A hub that copies every control
//! datagram fails here. (A tone edge's one encoding is held by `rmac-live`'s
//! node tests: a copy per neighbour costs an allocation as an encoding
//! does.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use rmac::prelude::*;
use rmac_live::{run_loopback_soak, SoakConfig};

/// The system allocator, counting live bytes and their high water.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Calls that handed out memory: `alloc`, `alloc_zeroed` and `realloc`.
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::SeqCst);
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::SeqCst);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the counters
// are plain atomics and never touch the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            grew(new_size);
            shrank(layout.size());
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Live heap bytes at the peak of `protocol`'s replication of `cfg`, seed 1,
/// above those live before it started.
fn peak_bytes(cfg: &ScenarioConfig, protocol: Protocol) -> usize {
    let run = Run::new(cfg, protocol, 1);
    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let out = run.execute();
    let peak = PEAK.load(Ordering::SeqCst) - before;
    assert_eq!(out.report.packets_sent, cfg.packets);
    peak
}

/// The budget of BMMM's and RMAC's replications of the paper's stationary
/// scenario at 40 pkt/s, 100 packets: 5.5 % above today's larger peak
/// (BMMM's 377 929 B; RMAC's is 372 293 B in release, 372 791 B in debug).
/// With a buffer per touched window they held 1.3–1.7 MB; with a hash set
/// of seen ids, a delay sample per reception and absolute beacon times,
/// 0.51–0.52 MB.
const BUDGET: usize = 400_000;

/// The flat-in-length replications are RMAC's of the paper's stationary
/// scenario at 20 pkt/s: the short one runs this many packets, the long one
/// four times as many.
const FLAT_PACKETS: u64 = 100;

/// How much more the long replication may hold than the short one. With a
/// hash set of seen ids, a delay sample per reception and absolute beacon
/// times the peak grew by 419 KB; the bitset window of a node that lost a
/// packet still grows by a bit per packet, and the beacon table by 4 B per
/// node per beacon.
const FLAT_SLACK: usize = 32 * 1024;

/// What a live loopback soak of `packets` per publisher — 2 publishers × 3
/// subscribers, 500 B payloads, 20 % Gilbert–Elliott loss, seed 1 — held
/// and made: live heap bytes at its peak above those live before it
/// started, allocations, and runner steps.
fn soak_counts(packets: u64) -> (usize, usize, u64) {
    let cfg = SoakConfig {
        publishers: 2,
        subscribers: 3,
        packets_per_publisher: packets,
        payload_len: 500,
        ..SoakConfig::default()
    };
    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let allocs = ALLOCS.load(Ordering::SeqCst);
    let report = run_loopback_soak(&cfg);
    let allocs = ALLOCS.load(Ordering::SeqCst) - allocs;
    let peak = PEAK.load(Ordering::SeqCst) - before;
    assert!(report.complete(), "{report:?}");
    (peak, allocs, report.steps)
}

/// The short soak's packets per publisher; the long one runs four times
/// as many.
const SOAK_PACKETS: u64 = 250;

/// How much more the long soak may hold than the short one. With the
/// publishers' deliveries left in their nodes the peak grew by 1.3 MB;
/// with one `u32` kept per MRTS sent, by 12 KB.
const SOAK_SLACK: usize = 4_096;

/// Either soak's budget. With the publishers' deliveries left in their
/// nodes the short soak held 0.46 MB and the long one 1.77 MB.
const SOAK_BUDGET: usize = 100_000;

/// The short soak's allocations per runner step: 1.5 % above today's
/// 68 475 in 18 053 steps (3.79). With a received frame's body copied out
/// of its datagram before decoding it made 75 643 (4.19); with an encoding
/// per neighbour per tone edge, a hub copy of every control datagram, the
/// outbox taken by `mem::take` and a `BTreeSet` per tone, 110 661 (6.13).
const SOAK_ALLOCS_PER_STEP: f64 = 3.85;

/// One test, so that no other test allocates while a run is counted.
#[test]
fn a_replication_holds_memory_only_for_what_is_live() {
    let budgeted = ScenarioConfig::paper_stationary(40.0).with_packets(100);
    let peaks = [Protocol::Bmmm, Protocol::Rmac].map(|p| (p, peak_bytes(&budgeted, p)));
    let flat = |packets| ScenarioConfig::paper_stationary(20.0).with_packets(packets);
    let flats = [FLAT_PACKETS, 4 * FLAT_PACKETS].map(|n| (n, peak_bytes(&flat(n), Protocol::Rmac)));
    let [short_soak, long_soak] = [SOAK_PACKETS, 4 * SOAK_PACKETS].map(soak_counts);
    let soaks = [
        (SOAK_PACKETS, short_soak.0),
        (4 * SOAK_PACKETS, long_soak.0),
    ];
    for (protocol, peak) in peaks {
        println!("{protocol:?}: {peak} live heap bytes at the peak");
    }
    for (packets, peak) in flats {
        println!("RMAC at 20 pkt/s, {packets} packets: {peak} live heap bytes at the peak");
    }
    for (packets, peak) in soaks {
        println!("soak of {packets} packets per publisher: {peak} live heap bytes at the peak");
    }
    let (_, allocs, steps) = short_soak;
    let per_step = allocs as f64 / steps as f64;
    println!("soak of {SOAK_PACKETS} packets per publisher: {allocs} allocations in {steps} steps, {per_step:.4} a step");
    for (protocol, peak) in peaks {
        assert!(
            peak <= BUDGET,
            "{protocol:?} held {peak} live heap bytes at its peak (budget {BUDGET})"
        );
    }
    let [(short, short_peak), (long, long_peak)] = flats;
    assert!(
        long_peak <= short_peak + FLAT_SLACK,
        "the replication's peak grew with its length: {short_peak} live heap bytes at \
         {short} packets, {long_peak} at {long} (slack {FLAT_SLACK})"
    );
    let [(short, short_peak), (long, long_peak)] = soaks;
    assert!(
        long_peak <= short_peak + SOAK_SLACK,
        "the soak's peak grew with its length: {short_peak} live heap bytes at {short} \
         packets per publisher, {long_peak} at {long} (slack {SOAK_SLACK})"
    );
    assert!(
        per_step <= SOAK_ALLOCS_PER_STEP,
        "the soak of {SOAK_PACKETS} packets per publisher made {per_step:.4} allocations \
         a step ({allocs} in {steps}; budget {SOAK_ALLOCS_PER_STEP})"
    );
    for (packets, peak) in soaks {
        assert!(
            peak <= SOAK_BUDGET,
            "the soak of {packets} packets per publisher held {peak} live heap bytes \
             at its peak (budget {SOAK_BUDGET})"
        );
    }
}
