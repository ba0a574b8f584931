//! Property tests for the simulation kernel.

use proptest::prelude::*;
use rmac_sim::{EventQueue, SimQueue, SimRng, SimTime};

proptest! {
    /// Events always pop in non-decreasing time order, whatever the
    /// insertion order.
    #[test]
    fn queue_pops_sorted(times in proptest::collection::vec(0u64..1_000_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    /// Simultaneous events preserve insertion (FIFO) order.
    #[test]
    fn queue_fifo_at_equal_times(n in 1usize..100, t in 0u64..1_000_000) {
        let mut q = EventQueue::new();
        for i in 0..n {
            q.push(SimTime::from_nanos(t), i);
        }
        for i in 0..n {
            let (_, v) = q.pop().unwrap();
            prop_assert_eq!(v, i);
        }
    }

    /// SimTime saturating arithmetic never panics and brackets the exact
    /// result.
    #[test]
    fn time_arithmetic(a in 0u64..u64::MAX / 2, b in 0u64..u64::MAX / 2) {
        let x = SimTime::from_nanos(a);
        let y = SimTime::from_nanos(b);
        prop_assert_eq!((x + y).nanos(), a + b);
        prop_assert_eq!(x.saturating_sub(y).nanos(), a.saturating_sub(b));
        prop_assert_eq!(x.max(y).nanos(), a.max(b));
        prop_assert_eq!(x.min(y).nanos(), a.min(b));
    }

    /// Split RNG streams are deterministic functions of (seed, label).
    #[test]
    fn rng_split_deterministic(seed in any::<u64>(), label in any::<u64>()) {
        let mut a = SimRng::new(seed).split(label);
        let mut b = SimRng::new(seed).split(label);
        for _ in 0..16 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// `below(n)` is always within bounds.
    #[test]
    fn rng_below_in_bounds(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut r = SimRng::new(seed);
        for _ in 0..32 {
            prop_assert!(r.below(bound) < bound);
        }
    }
}
