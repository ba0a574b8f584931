//! Statistical reducers.

/// The `p`-th percentile (0 < p ≤ 100) of `samples` using the
/// nearest-rank method: the smallest value such that at least `p` percent
/// of samples are ≤ it. Returns 0 for an empty slice.
///
/// ```
/// use rmac_metrics::percentile;
///
/// let hops: Vec<f64> = (1..=100).map(f64::from).collect();
/// assert_eq!(percentile(&hops, 99.0), 99.0);
/// assert_eq!(percentile(&[], 99.0), 0.0);
/// ```
///
/// The input is copied and sorted; for the evaluation's per-node vectors
/// (≤ a few thousand entries) this is the simplest correct tool.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let rank = nearest_rank(p, samples.len() as u64);
    if rank == 0 {
        return 0.0;
    }
    let mut v: Vec<f64> = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    v[rank as usize - 1]
}

/// [`percentile`] of samples given as `(value, count)` pairs in ascending
/// value order: the same nearest rank, read off the running count instead
/// of a sorted copy of the expanded samples. Returns 0 when the counts sum
/// to zero.
///
/// ```
/// use rmac_metrics::{percentile, percentile_counted};
///
/// let counts = [(12.0, 3), (14.0, 96), (30.0, 1)];
/// assert_eq!(percentile_counted(counts, 99.0), 14.0);
/// assert_eq!(percentile_counted(counts, 100.0), 30.0);
/// assert_eq!(percentile_counted([], 99.0), percentile(&[], 99.0));
/// ```
pub fn percentile_counted<I>(counts: I, p: f64) -> f64
where
    I: IntoIterator<Item = (f64, u64)>,
    I::IntoIter: Clone,
{
    let counts = counts.into_iter();
    let rank = nearest_rank(p, counts.clone().map(|(_, c)| c).sum());
    if rank == 0 {
        return 0.0;
    }
    let mut seen = 0;
    for (value, count) in counts {
        seen += count;
        if seen >= rank {
            return value;
        }
    }
    unreachable!("the nearest rank is at most the sum of the counts")
}

/// The 1-based rank of the `p`-th percentile among `n` sorted samples
/// (0 for none): the smallest rank at or above `p` percent of `n`.
fn nearest_rank(p: f64, n: u64) -> u64 {
    assert!((0.0..=100.0).contains(&p), "percentile out of range");
    if n == 0 {
        return 0;
    }
    ((p / 100.0 * n as f64).ceil() as u64).clamp(1, n)
}

#[cfg(test)]
mod tests {
    use proptest::collection::vec;
    use proptest::prelude::*;

    use super::*;

    const PS: [f64; 5] = [0.0, 1.0, 50.0, 99.0, 100.0];

    /// The samples `counts` stand for, in descending order (an order
    /// `percentile` must not care about).
    fn expand(counts: &[(u32, u64)]) -> Vec<f64> {
        let mut samples: Vec<f64> = counts
            .iter()
            .flat_map(|&(v, c)| (0..c).map(move |_| f64::from(v)))
            .collect();
        samples.reverse();
        samples
    }

    fn counted(counts: &[(u32, u64)], p: f64) -> f64 {
        percentile_counted(counts.iter().map(|&(v, c)| (f64::from(v), c)), p)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn counted_percentile_is_the_percentile_of_the_expanded_samples(
            raw in vec((0u32..400, 0u64..40), 0..30),
        ) {
            let mut counts: Vec<(u32, u64)> = Vec::new();
            let mut v = 0;
            for (step, c) in raw {
                v += step;
                counts.push((v, c));
                v += 1;
            }
            let samples = expand(&counts);
            for p in PS {
                prop_assert_eq!(
                    counted(&counts, p).to_bits(),
                    percentile(&samples, p).to_bits(),
                    "p = {} over {:?}", p, counts
                );
            }
        }

        #[test]
        fn counted_percentile_of_one_sample_all_tied_or_none(
            v in 0u32..2000,
            n in 1u64..500,
        ) {
            prop_assert_eq!(counted(&[(v, 0), (v + 1, 0)], 99.0), 0.0);
            for counts in [[(v, 1)], [(v, n)]] {
                for p in PS {
                    prop_assert_eq!(counted(&counts, p), f64::from(v));
                    prop_assert_eq!(percentile(&expand(&counts), p), f64::from(v));
                }
            }
        }
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 1.0), 1.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn percentile_small_vectors() {
        assert_eq!(percentile(&[], 99.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[3.0, 1.0], 99.0), 3.0);
        assert_eq!(percentile(&[3.0, 1.0], 50.0), 1.0);
    }

    #[test]
    fn percentile_is_order_independent() {
        let a = percentile(&[5.0, 1.0, 9.0, 3.0], 75.0);
        let b = percentile(&[9.0, 3.0, 5.0, 1.0], 75.0);
        assert_eq!(a, b);
    }
}
