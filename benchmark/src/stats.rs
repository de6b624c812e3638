//! Percentile, histogram and window-median arithmetic.
//!
//! The timed phases record into fixed-size log-linear histograms, not
//! sample vectors: a faster system completes more requests in the same
//! window, and a sample vector would make `rss_mb` grow with speed.

/// Sub-buckets per power of two: 128 gives buckets under 0.8 % wide, and
/// percentiles interpolate inside the bucket.
const SUB: usize = 128;
const SUB_BITS: u32 = SUB.trailing_zeros();
/// Values at or above 2^40 ns (18 minutes) land in the last bucket.
const MAX_EXP: u32 = 40;

/// A log-linear histogram of nanosecond durations.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; (MAX_EXP - SUB_BITS + 1) as usize * SUB],
            total: 0,
        }
    }

    /// Bucket index of `ns`: values below `SUB` get one bucket each, above
    /// that each power of two is split into `SUB` equal parts.
    fn index(ns: u64) -> usize {
        if ns < SUB as u64 {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros();
        if exp >= MAX_EXP {
            return (MAX_EXP - SUB_BITS + 1) as usize * SUB - 1;
        }
        let shift = exp - SUB_BITS;
        let sub = ((ns >> shift) as usize) & (SUB - 1);
        (exp - SUB_BITS + 1) as usize * SUB + sub
    }

    /// Lower bound and width of bucket `idx`, in ns.
    fn bounds(idx: usize) -> (f64, f64) {
        if idx < SUB {
            return (idx as f64, 1.0);
        }
        let octave = (idx / SUB) as u32 - 1;
        let sub = (idx % SUB) as u64;
        let width = 1u64 << octave;
        (((SUB as u64 + sub) * width) as f64, width as f64)
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `p` quantile (0 < p < 1) in ns, interpolated inside its bucket;
    /// 0 for an empty histogram.
    pub fn quantile_ns(&self, p: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = p * self.total as f64;
        let mut seen = 0u64;
        for (idx, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if (seen + count) as f64 >= rank {
                let (low, width) = Self::bounds(idx);
                let inside = (rank - seen as f64) / count as f64;
                return low + width * inside.clamp(0.0, 1.0);
            }
            seen += count;
        }
        let (low, width) = Self::bounds(self.counts.len() - 1);
        low + width
    }

    pub fn quantile_us(&self, p: f64) -> f64 {
        self.quantile_ns(p) / 1e3
    }
}

/// A percentile is reported only when at least ten samples lie beyond it.
pub fn supports(p: f64, samples: u64) -> bool {
    (1.0 - p) * samples as f64 >= 10.0
}

/// The `p` quantile of exact samples (sorted in place), by linear
/// interpolation between closest ranks; 0 for no samples.
pub fn quantile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = p * (values.len() - 1) as f64;
    let low = pos.floor() as usize;
    let high = pos.ceil() as usize;
    values[low] + (values[high] - values[low]) * (pos - low as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(&mut values.to_vec(), 0.5)
}

/// Distance between the first and third quartile as a share of the median:
/// the run's own noise figure, printed beside every window median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    let q1 = quantile(&mut sorted, 0.25);
    let q3 = quantile(&mut sorted, 0.75);
    let mid = quantile(&mut sorted, 0.5);
    if mid == 0.0 {
        0.0
    } else {
        (q3 - q1) / mid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_five_windows_ignores_one_outlier() {
        assert_eq!(
            median(&[40_000.0, 41_000.0, 12_000.0, 40_500.0, 39_000.0]),
            40_000.0
        );
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn exact_quantile_interpolates_between_ranks() {
        let mut v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 51.0);
        assert_eq!(quantile(&mut v, 0.99), 100.0);
        assert_eq!(quantile(&mut [10.0, 20.0], 0.25), 12.5);
    }

    #[test]
    fn quartile_spread_is_relative_to_the_median() {
        let spread = quartile_spread(&[90.0, 95.0, 100.0, 105.0, 110.0]);
        assert!((spread - 0.10).abs() < 1e-12, "{spread}");
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert!(supports(0.99, 1_000));
        assert!(!supports(0.99, 999));
        assert!(supports(0.999, 10_000));
        assert!(!supports(0.999, 9_999));
        assert!(supports(0.5, 20));
        assert!(!supports(0.5, 19));
    }

    #[test]
    fn histogram_quantiles_track_exact_ones_within_a_bucket() {
        let mut hist = Histogram::new();
        let mut exact = Vec::new();
        // 3.5 µs body with a 2 % tail at 40 µs, like a cache-hit request.
        for i in 0..100_000u64 {
            let ns = if i % 50 == 0 {
                40_000 + i % 977
            } else {
                3_500 + (i * 7) % 600
            };
            hist.record(ns);
            exact.push(ns as f64);
        }
        for p in [0.5, 0.9, 0.99, 0.999] {
            let want = quantile(&mut exact, p);
            let got = hist.quantile_ns(p);
            assert!((got - want).abs() / want < 0.01, "p{p}: {got} vs {want}");
        }
        assert_eq!(hist.count(), 100_000);
    }

    #[test]
    fn histogram_covers_small_huge_and_merged_values() {
        let mut a = Histogram::new();
        a.record(0);
        a.record(5);
        a.record(u64::MAX);
        let mut b = Histogram::new();
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        // The last bucket takes everything from 255 x 2^32 ns up.
        assert!(a.quantile_ns(0.99) >= 255.0 * (1u64 << 32) as f64);
        assert_eq!(Histogram::new().quantile_ns(0.5), 0.0);
    }

    #[test]
    fn bucket_bounds_invert_the_index() {
        for ns in [
            1u64,
            127,
            128,
            129,
            255,
            256,
            4_096,
            4_100,
            1 << 20,
            (1 << 39) + 12345,
        ] {
            let (low, width) = Histogram::bounds(Histogram::index(ns));
            assert!(
                low <= ns as f64 && (ns as f64) < low + width,
                "{ns}: {low}+{width}"
            );
        }
    }
}
