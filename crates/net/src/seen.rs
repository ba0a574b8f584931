//! The set of application packet ids a node has seen.
//!
//! Ids come from the root's one counter, so the ids a node has seen are,
//! after a short while, every id below some mark plus a few above it. The
//! set keeps exactly that: a low-water mark below which every id is seen,
//! and one bit per id from the mark up to the highest id seen. Its size
//! follows the span of ids above the mark, not the number of packets the
//! run sends.

use std::collections::VecDeque;

/// Bits per window word.
const WORD: u32 = u64::BITS;

/// The packet ids one node has seen: the answers of a `HashSet<u32>`'s
/// `insert`, in memory that follows the span of ids above the low-water
/// mark.
#[derive(Clone, Debug, Default)]
pub(crate) struct SeenIds {
    /// Every id below `low` is seen; `low` is a multiple of [`WORD`].
    low: u32,
    /// Bit `b` of word `w` says whether id `low + w·64 + b` is seen. The
    /// first word is never full: a full one is dropped and `low` advances.
    window: VecDeque<u64>,
}

impl SeenIds {
    /// Record `id`; true if it was not seen before.
    pub(crate) fn insert(&mut self, id: u32) -> bool {
        let Some(offset) = id.checked_sub(self.low) else {
            return false;
        };
        let (w, bit) = ((offset / WORD) as usize, 1u64 << (offset % WORD));
        if w >= self.window.len() {
            self.window.resize(w + 1, 0);
        }
        if self.window[w] & bit != 0 {
            return false;
        }
        self.window[w] |= bit;
        while self.window.front() == Some(&u64::MAX) {
            self.window.pop_front();
            self.low += WORD;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use rmac_sim::DetHashSet;

    impl SeenIds {
        /// Words the window holds.
        fn words(&self) -> usize {
            self.window.len()
        }
    }

    /// Every `insert` answers as a `DetHashSet<u32>`'s does.
    fn answers_as_a_hash_set(ids: &[u32]) -> SeenIds {
        let (mut seen, mut oracle) = (SeenIds::default(), DetHashSet::default());
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(
                seen.insert(id),
                oracle.insert(id),
                "insert #{i} of {id}: {ids:?}"
            );
        }
        seen
    }

    /// A root's ids as one node hears them: in order, overtaken by later
    /// ones, repeated and skipped, from id 0 or, as a node that comes up
    /// mid-run hears them, from a later one.
    fn heard() -> impl Strategy<Value = Vec<u32>> {
        (
            prop_oneof![Just(0u32), 0u32..1000],
            vec((0u32..4, 0u32..6), 0..300),
        )
            .prop_map(|(base, steps)| {
                let mut ids: Vec<u32> = Vec::new();
                let mut next = 0u32;
                for (op, k) in steps {
                    match op {
                        // In order.
                        0 => {
                            ids.push(next);
                            next += 1;
                        }
                        // A gap of `k` ids that arrive later, if at all.
                        1 => next += k,
                        // Reordered: an id up to three ahead overtakes the next.
                        2 => {
                            ids.push(next + k.min(3));
                            ids.push(next);
                            next += 1;
                        }
                        // A duplicate of an id up to `k` back.
                        _ => ids.push(next.saturating_sub(k)),
                    }
                }
                ids.into_iter().map(|id| base + id).collect()
            })
    }

    #[test]
    fn ids_in_order_leave_no_window_behind() {
        let mut seen = SeenIds::default();
        for id in 0..10_000 {
            assert!(seen.insert(id));
            assert!(!seen.insert(id));
        }
        assert_eq!(seen.low, 9_984);
        assert_eq!(seen.words(), 1);
        assert!(!seen.insert(0));
    }

    /// The window holds no more words than the ids from the low-water mark
    /// to the highest id seen span.
    #[test]
    fn retained_words_are_bounded_by_the_span_above_the_low_water_mark() {
        let mut seen = SeenIds::default();
        // Id 70 never arrives and pins the mark at 64.
        for id in (0..5_000).filter(|&id| id != 70) {
            seen.insert(id);
            let span = id + 1 - seen.low;
            assert!(seen.words() <= span.div_ceil(WORD) as usize);
        }
        assert_eq!(seen.low, 64);
        assert_eq!(seen.words(), (5_000 - 64usize).div_ceil(64));
        // It arrives: the window drains to the one word above the mark.
        assert!(seen.insert(70));
        assert_eq!(seen.low, 4_992);
        assert_eq!(seen.words(), 1);
        // A late straggler far above the mark costs the words up to it.
        assert!(seen.insert(4_992 + 64 * 9));
        assert_eq!(seen.words(), 10);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// One id, when the stream has one to lose, never arrives and pins
        /// the low-water mark below it.
        #[test]
        fn insert_answers_as_a_hash_set(ids in heard(), lost in any::<usize>()) {
            let lost = ids.get(lost % (ids.len() + 1)).copied();
            let ids: Vec<u32> = ids.into_iter().filter(|&id| Some(id) != lost).collect();
            let seen = answers_as_a_hash_set(&ids);
            if let Some(lost) = lost {
                prop_assert!(seen.low <= lost);
            }
        }
    }
}
