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
    assert!((0.0..=100.0).contains(&p), "percentile out of range");
    if samples.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    if p == 0.0 {
        return v[0];
    }
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

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
