//! Log-bucketed histograms.
//!
//! A [`LogHistogram`] buckets non-negative integer samples (typically
//! nanoseconds) by their binary order of magnitude: bucket 0 holds the
//! value 0, bucket `k` (k ≥ 1) holds values in `[2^(k-1), 2^k)`. Recording
//! is two instructions (a `leading_zeros` and an increment), which is what
//! lets the kernel profiler sit inside the event loop without perturbing
//! the measurement it is taking. Exact `min`/`max`/`sum` ride along so the
//! mean is exact; quantiles are bucket-resolution (within 2× of the true
//! value), which is plenty for "where does the time go" profiling.

use rmac_wire::json;

/// Number of buckets: value 0 plus one per binary order of magnitude.
pub const BUCKETS: usize = 65;

/// A power-of-two-bucketed histogram of `u64` samples.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogHistogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// The bucket index a value falls into.
#[inline]
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// The inclusive upper bound of bucket `i`.
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram::default()
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact smallest sample (0 if empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact mean (0.0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Bucket-resolution quantile: the upper bound of the bucket holding
    /// the `q`-quantile sample (`q` in `[0, 1]`; 0 if empty). Within 2× of
    /// the exact order statistic by construction.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The summary exported to JSON, written into an object: count, sum,
    /// min, mean, p50, p99, max.
    pub fn write_json(&self, o: &mut json::Obj<'_>) {
        o.u64("count", self.count)
            .u64("sum", self.sum)
            .u64("min", self.min())
            .fixed("mean", self.mean(), 1)
            .u64("p50", self.quantile(0.5))
            .u64("p99", self.quantile(0.99))
            .u64("max", self.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.99), 0);
    }

    #[test]
    fn buckets_by_order_of_magnitude() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn exact_moments_and_bounded_quantiles() {
        let mut h = LogHistogram::new();
        for v in [3u64, 5, 9, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1117);
        assert_eq!(h.min(), 3);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 223.4).abs() < 1e-9);
        // p50 sample is 9 → bucket [8,15] → upper bound 15.
        assert_eq!(h.quantile(0.5), 15);
        // The top quantile is clamped to the exact max.
        assert_eq!(h.quantile(1.0), 1000);
    }

    #[test]
    fn merge_is_sum_of_parts() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        a.record(10);
        a.record(20);
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 1030);
        assert_eq!(a.max(), 1000);
        assert_eq!(a.min(), 10);
    }

    #[test]
    fn json_summary_has_all_fields() {
        let mut h = LogHistogram::new();
        h.record(42);
        let j = json::object(|o| h.write_json(o));
        for key in ["count", "sum", "min", "mean", "p50", "p99", "max"] {
            assert!(j.contains(key), "{j} missing {key}");
        }
    }
}
