//! A fixed-size log-linear latency histogram in nanoseconds.
//!
//! The bucketing is that of `mspt_serve::LatencyHistogram`: 32 sub-buckets
//! per octave, a relative bucket width of at most 3 %, 16 KiB in all. That
//! type reports a quantile as its bucket's upper edge, so a median that
//! stays inside one bucket reads exactly the same on every run; this one
//! interpolates inside the bucket, so a reported median keeps all its
//! digits. The size never depends on how many samples a run records.

use std::time::Duration;

const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = 64 * SUB as usize;

/// Latency samples folded into log-linear buckets.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Box<[u64]>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            total: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, elapsed: Duration) {
        self.record_ns(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Records one sample given in nanoseconds.
    pub fn record_ns(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
        self.total += 1;
    }

    /// Adds every sample of `other`. Only the buckets `other` uses are
    /// written, so merging into a fresh histogram touches few pages.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, &theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            if theirs != 0 {
                *mine += theirs;
            }
        }
        self.total += other.total;
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile in nanoseconds (0 when empty), interpolated
    /// linearly inside its bucket.
    #[must_use]
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut before = 0u64;
        for (bucket, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if before + count >= rank {
                let (lower, width) = bounds(bucket);
                let within = (rank - before) as f64 - 0.5;
                return lower + width * within / count as f64;
            }
            before += count;
        }
        unreachable!("rank is at most the total count")
    }
}

fn index(ns: u64) -> usize {
    if ns < 2 * SUB {
        return ns as usize;
    }
    let octave = 63 - ns.leading_zeros();
    let shift = octave - SUB_BITS;
    (u64::from(shift) * SUB + (ns >> shift)) as usize
}

/// Lower edge and width of a bucket, in nanoseconds.
fn bounds(bucket: usize) -> (f64, f64) {
    let bucket = bucket as u64;
    if bucket < 2 * SUB {
        return (bucket as f64, 1.0);
    }
    let shift = bucket / SUB - 1;
    let top = bucket - shift * SUB;
    ((top << shift) as f64, (1u64 << shift) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_contain_their_values() {
        for ns in [
            0u64,
            1,
            1023,
            1024,
            1025,
            4095,
            4096,
            123_456_789,
            u64::MAX / 3,
        ] {
            let (lower, width) = bounds(index(ns));
            assert!(lower <= ns as f64 && (ns as f64) < lower + width, "{ns}");
            assert!(
                width <= (lower / SUB as f64).max(1.0),
                "{ns}: width {width}"
            );
        }
        assert_eq!(index(1023) + 1, index(1024));
    }

    #[test]
    fn quantiles_track_exact_order_statistics() {
        let mut histogram = Histogram::new();
        for ns in 1..=100_000u64 {
            histogram.record_ns(ns * 7);
        }
        let median = histogram.quantile_ns(0.5);
        assert!((median / 350_000.0 - 1.0).abs() < 0.003, "{median}");
        let p99 = histogram.quantile_ns(0.99);
        assert!((p99 / 693_000.0 - 1.0).abs() < 0.003, "{p99}");
    }
}
