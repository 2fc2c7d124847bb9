//! Summary statistics: exact quantiles of small samples and a
//! fixed-memory histogram for per-task durations.
//!
//! Per-task latencies go into a [`Histogram`] rather than a growing
//! vector, so the benchmark's own memory does not scale with the
//! throughput it measures (the peak resident set is an end-to-end
//! metric).

use std::time::Duration;

/// Linear-interpolated quantile of an ascending-sorted slice (`q` in
/// `0.0..=1.0`); 0.0 for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of an unsorted sample; 0.0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Sub-buckets per power of two: values are kept to within 1/128
/// (0.8%) of their magnitude.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB as usize;

/// Log-linear histogram of nanosecond values (HdrHistogram layout):
/// exact below 128 ns, then 128 linear sub-buckets per power of two.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn index(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let shift = 63 - v.leading_zeros() - SUB_BITS;
        let sub = (v >> shift) - SUB;
        ((u64::from(shift) + 1) * SUB + sub) as usize
    }

    /// Lowest value and width of bucket `idx`.
    fn bounds(idx: usize) -> (u64, u64) {
        let idx = idx as u64;
        if idx < SUB {
            return (idx, 1);
        }
        let shift = idx / SUB - 1;
        ((SUB + idx % SUB) << shift, 1 << shift)
    }

    /// Records one value in nanoseconds.
    pub fn record_ns(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.total += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Records one duration.
    pub fn record(&mut self, d: Duration) {
        self.record_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean in nanoseconds; 0.0 when empty.
    pub fn mean_ns(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The `q`-quantile in nanoseconds; 0.0 when empty. The rank is
    /// located in its bucket and the value interpolated within the
    /// bucket, so the result keeps the digits of the measurement rather
    /// than snapping to bucket edges.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.total - 1) as f64;
        let mut below = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if rank < (below + c) as f64 {
                let (lo, width) = Self::bounds(idx);
                let frac = (rank - below as f64 + 0.5) / c as f64;
                let v = lo as f64 + frac * width as f64;
                return v.clamp(self.min as f64, self.max as f64);
            }
            below += c;
        }
        self.max as f64
    }

    /// Adds every value of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_linearly() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.5) - 2.5).abs() < 1e-12);
        assert!((quantile(&v, 0.25) - 1.75).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn buckets_tile_the_value_range() {
        for v in [
            0u64,
            1,
            127,
            128,
            129,
            255,
            256,
            1000,
            1 << 20,
            u64::MAX / 3,
        ] {
            let (lo, width) = Histogram::bounds(Histogram::index(v));
            assert!(
                lo <= v && v - lo < width,
                "{v} outside [{lo}, {lo}+{width})"
            );
        }
        assert!(Histogram::index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn histogram_quantiles_track_exact_ones() {
        let mut h = Histogram::new();
        let mut exact = Vec::new();
        // A skewed sample spanning five decades.
        for i in 1..=10_000u64 {
            let v = (i * i) % 9_999_991 + 50;
            h.record_ns(v);
            exact.push(v as f64);
        }
        exact.sort_by(f64::total_cmp);
        for q in [0.01, 0.25, 0.5, 0.9, 0.99] {
            let want = quantile(&exact, q);
            let got = h.quantile_ns(q);
            assert!(
                (got - want).abs() <= want / 64.0,
                "q{q}: got {got}, want {want}"
            );
        }
        assert_eq!(h.count(), 10_000);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(Duration::from_micros(10));
        b.record(Duration::from_micros(30));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!((a.mean_ns() - 20_000.0).abs() < 1e-9);
        assert_eq!(Histogram::new().quantile_ns(0.5), 0.0);
    }
}
