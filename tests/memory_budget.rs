//! The memory budget of one replication, in live heap bytes.
//!
//! Peak RSS swings with allocator layout and with whatever else the host is
//! doing; the peak of *live* heap bytes during a replication does not. This
//! binary installs a counting allocator (here only: the crates stay free of
//! `unsafe`) and holds the peak above the bytes live before `execute()`.
//! The calendar queue keeps buffers only for windows that hold events, so
//! its retained capacity tracks the pending depth; a queue that keeps one
//! buffer per ring window it ever touched (1 024 of them) fails here. (The
//! report's sample copies, folded in place since, came after the peak and
//! never set it.) The replication is one shard group, run on the calling
//! thread, so the count repeats exactly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use rmac::prelude::*;

/// The system allocator, counting live bytes and their high water.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
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

/// Live heap bytes at the peak of `protocol`'s replication of the paper's
/// stationary scenario at 40 pkt/s, 100 packets, seed 1, above those live
/// before it started.
fn peak_bytes(protocol: Protocol) -> usize {
    let cfg = ScenarioConfig::paper_stationary(40.0).with_packets(100);
    let run = Run::new(&cfg, protocol, 1);
    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let out = run.execute();
    let peak = PEAK.load(Ordering::SeqCst) - before;
    assert_eq!(out.report.packets_sent, 100);
    peak
}

/// Both replications' budget. With a buffer per touched window they
/// held 1.3–1.7 MB.
const BUDGET: usize = 1_000_000;

/// One test, so that no other test allocates while a replication is
/// counted.
#[test]
fn a_replication_holds_memory_only_for_what_is_live() {
    let peaks = [Protocol::Bmmm, Protocol::Rmac].map(|p| (p, peak_bytes(p)));
    for (protocol, peak) in peaks {
        println!("{protocol:?}: {peak} live heap bytes at the peak");
    }
    for (protocol, peak) in peaks {
        assert!(
            peak <= BUDGET,
            "{protocol:?} held {peak} live heap bytes at its peak (budget {BUDGET})"
        );
    }
}
