//! Fixed-bucket log₂ histogram.
//!
//! 65 buckets: bucket 0 holds the value 0; bucket `i` (1..=64) holds
//! values `v` with `floor(log2 v) == i - 1`, i.e. `2^(i-1) ..= 2^i - 1`
//! (bucket 64 is capped at `u64::MAX`). Recording is one shift and one
//! add, so histograms are cheap enough for per-event use inside the
//! simulators. Quantile *estimates* are bucket-resolution: they are
//! guaranteed to land in the same bucket as the exact rank-selected
//! sample (see `tests/properties.rs`), not to equal it.

/// Number of buckets: one for zero plus one per power of two.
pub(crate) const NUM_BUCKETS: usize = 65;

/// A fixed-size log₂-bucket histogram over `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: [u64; NUM_BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram { buckets: [0; NUM_BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

/// Bucket index of a value: 0 for 0, else `floor(log2 v) + 1`.
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive upper bound of a bucket.
pub(crate) fn bucket_upper_bound(index: usize) -> u64 {
    match index {
        0 => 0,
        i if i >= 64 => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        if let Some(b) = self.buckets.get_mut(bucket_index(value)) {
            *b += 1;
        }
        self.count += 1;
        self.sum += value as u128;
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded sample (0 when empty).
    pub(crate) fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Bucket-resolution quantile estimate for `q` in `[0, 1]`.
    ///
    /// Uses the same rank convention as
    /// `crate::stats::percentile_sorted_ns` — `rank = round((n-1)·q)`
    /// — then returns the upper bound of the bucket containing that
    /// rank, clamped to the observed maximum. The estimate therefore
    /// always lands in the same log₂ bucket as the exact rank-selected
    /// sample.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((self.count - 1) as f64 * q).round() as u64;
        let mut cumulative = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cumulative += c;
            if cumulative > rank {
                return bucket_upper_bound(i).min(self.max).max(self.min());
            }
        }
        self.max
    }

    /// Median estimate (bucket resolution).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th-percentile estimate (bucket resolution).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inclusive lower bound of a bucket.
    fn bucket_lower_bound(index: usize) -> u64 {
        match index {
            0 => 0,
            i if i >= 64 => 1u64 << 63,
            i => 1u64 << (i - 1),
        }
    }

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 0..NUM_BUCKETS {
            assert_eq!(bucket_index(bucket_lower_bound(i)), i);
            assert_eq!(bucket_index(bucket_upper_bound(i)), i);
            assert!(bucket_lower_bound(i) <= bucket_upper_bound(i));
        }
    }

    #[test]
    fn record_tracks_count_sum_min_max() {
        let mut h = Log2Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        for v in [0u64, 1, 7, 8, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.sum, 1016);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[10], 1); // 1000 lies in 512..=1023
    }

    #[test]
    fn bucket_occupancy_is_exact() {
        let mut h = Log2Histogram::new();
        for v in [7u64, 8] {
            h.record(v);
        }
        assert_eq!(h.buckets[3], 1); // 4..=7
        assert_eq!(h.buckets[4], 1); // 8..=15
    }

    #[test]
    fn quantile_same_bucket_as_exact() {
        let mut h = Log2Histogram::new();
        let mut raw: Vec<u64> = (0..200u64).map(|i| i * i % 977).collect();
        for &v in &raw {
            h.record(v);
        }
        raw.sort_unstable();
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let rank = ((raw.len() - 1) as f64 * q).round() as usize;
            let exact = raw[rank];
            let est = h.quantile(q);
            assert_eq!(bucket_index(est), bucket_index(exact), "q={q}: est {est} vs exact {exact}");
        }
    }
}
