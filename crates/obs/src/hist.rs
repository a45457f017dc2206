//! Fixed-layout latency histograms.
//!
//! The bucket layout is **machine-independent**: logarithmic octaves of
//! nanoseconds, each split into [`SUB_BUCKETS`] linear sub-buckets —
//! the classic HDR shape, so a bucket index means the same interval on
//! every host and two runs' histograms can be diffed bucket-by-bucket.
//! What varies across machines is only *which* buckets fill, never what
//! they mean. Relative quantization error is bounded by
//! `1 / SUB_BUCKETS` (12.5%), plenty for p50/p99/p999 reporting.
//!
//! Recording is O(1) (a `leading_zeros` and two shifts), merging is
//! element-wise addition, and percentile readout reports the recorded
//! **upper bound** of the bucket holding the p-th sample, so quantiles
//! never understate latency.

use std::sync::{Mutex, MutexGuard};

use sp_json::{json, Value};

/// Linear sub-buckets per power-of-two octave (2^3 — the HDR
/// "3 significant bits" layout).
pub const SUB_BUCKETS: usize = 8;
const SUB_BITS: u32 = 3; // log2(SUB_BUCKETS)

/// Number of octaves: values up to 2^43 ns (~2.4 hours) resolve; larger
/// ones clamp into the last bucket.
const OCTAVES: usize = 41;

const BUCKETS: usize = OCTAVES * SUB_BUCKETS;

/// A fixed-bucket log-linear histogram of nanosecond values.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    max: u64,
    min: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Index of the bucket `value` lands in.
fn bucket_of(value: u64) -> usize {
    // Values below SUB_BUCKETS map 1:1 (exact); above, the top SUB_BITS
    // bits after the leading one select the sub-bucket within the
    // octave given by the magnitude.
    if value < SUB_BUCKETS as u64 {
        return value as usize;
    }
    let magnitude = 63 - u64::leading_zeros(value); // >= SUB_BITS
    let octave = (magnitude - SUB_BITS + 1) as usize;
    let sub = ((value >> (magnitude - SUB_BITS)) & (SUB_BUCKETS as u64 - 1)) as usize;
    ((octave * SUB_BUCKETS) + sub).min(BUCKETS - 1)
}

/// Inclusive upper bound of bucket `index` — the value a percentile in
/// this bucket reports.
fn bucket_upper(index: usize) -> u64 {
    if index < SUB_BUCKETS {
        return index as u64;
    }
    let octave = (index / SUB_BUCKETS) as u32;
    let sub = (index % SUB_BUCKETS) as u64;
    let unit = 1u64 << (octave - 1); // sub-bucket width in this octave
    (SUB_BUCKETS as u64 + sub + 1) * unit - 1
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
            max: 0,
            min: u64::MAX,
        }
    }

    /// Records one value (nanoseconds).
    pub fn record(&mut self, value: u64) {
        if let Some(c) = self.counts.get_mut(bucket_of(value)) {
            *c += 1;
        }
        self.total += 1;
        self.max = self.max.max(value);
        self.min = self.min.min(value);
    }

    /// Adds every count of `other` into `self` (bucket layouts are
    /// identical by construction).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
    }

    /// Number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Largest recorded value (exact, not bucketed).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Smallest recorded value (exact, not bucketed); 0 when empty.
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// The value at quantile `q` in `[0, 1]`: the recorded upper bound
    /// of the first bucket whose cumulative count reaches `q × total`.
    /// Returns 0 for an empty histogram.
    #[must_use]
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Never report beyond the true max (the last bucket's
                // bound can overshoot it).
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// The standard report triple plus extremes, as a JSON object with
    /// a fixed key order (ns units).
    #[must_use]
    pub fn to_value(&self) -> Value {
        json!({
            "count": self.total as usize,
            "min_ns": if self.total == 0 { 0 } else { self.min as usize },
            "p50_ns": self.value_at_quantile(0.50) as usize,
            "p99_ns": self.value_at_quantile(0.99) as usize,
            "p999_ns": self.value_at_quantile(0.999) as usize,
            "max_ns": self.max as usize,
        })
    }
}

/// A shared histogram: a [`Histogram`] behind its own mutex (one
/// metric, one lock — never shared across metrics).
#[derive(Debug, Default)]
pub struct HistogramCell(Mutex<Histogram>);

impl HistogramCell {
    fn lock(&self) -> MutexGuard<'_, Histogram> {
        // A histogram is a bag of monotone counts; a panicked writer
        // cannot leave it inconsistent in any way a reader must fear.
        self.0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Records one nanosecond value.
    pub fn record(&self, value_ns: u64) {
        self.lock().record(value_ns);
    }

    /// The standard summary of the current contents.
    #[must_use]
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary::of(&self.lock())
    }
}

/// The fixed summary a histogram exports (ns units throughout).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSummary {
    /// Values recorded.
    pub count: u64,
    /// Smallest recorded value (0 when empty).
    pub min_ns: u64,
    /// Median (bucket upper bound).
    pub p50_ns: u64,
    /// 99th percentile (bucket upper bound).
    pub p99_ns: u64,
    /// 99.9th percentile (bucket upper bound).
    pub p999_ns: u64,
    /// Largest recorded value (exact).
    pub max_ns: u64,
}

impl HistogramSummary {
    /// Summarises `h`.
    #[must_use]
    pub fn of(h: &Histogram) -> HistogramSummary {
        HistogramSummary {
            count: h.count(),
            min_ns: h.min(),
            p50_ns: h.value_at_quantile(0.50),
            p99_ns: h.value_at_quantile(0.99),
            p999_ns: h.value_at_quantile(0.999),
            max_ns: h.max(),
        }
    }
}

/// Formats nanoseconds for human output (µs/ms above the noise floor).
#[must_use]
pub fn format_ns(ns: u64) -> String {
    if ns >= 10_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 10_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_cover_u64() {
        let mut last = 0;
        for i in 1..BUCKETS {
            let upper = bucket_upper(i);
            assert!(upper > last, "bucket {i} bound {upper} <= {last}");
            last = upper;
        }
        // Every value maps into range, and into a bucket whose bound
        // does not undershoot it (except the final clamp bucket).
        for v in [0, 1, 7, 8, 9, 100, 1_000, 123_456, u64::from(u32::MAX)] {
            let b = bucket_of(v);
            assert!(b < BUCKETS);
            assert!(bucket_upper(b) >= v, "value {v} above its bucket bound");
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_bound_the_data_within_sub_bucket_error() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v * 1000); // 1µs .. 1ms
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.value_at_quantile(0.50);
        // True median 500_000; bucketed answer may overshoot by at most
        // one sub-bucket (12.5%).
        assert!(p50 >= 500_000, "p50 {p50} understates");
        assert!(p50 <= 570_000, "p50 {p50} overshoots the bucket bound");
        let p999 = h.value_at_quantile(0.999);
        assert!((999_000..=1_000_000).contains(&p999), "p999 {p999}");
        assert_eq!(h.value_at_quantile(1.0), 1_000_000);
    }

    #[test]
    fn merge_is_elementwise_addition() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [10u64, 200, 3_000] {
            a.record(v);
        }
        for v in [40_000u64, 500_000] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.max(), 500_000);
        let v = a.to_value();
        assert_eq!(v["count"].as_usize(), Some(5));
        assert!(v["p999_ns"].as_usize().unwrap() >= 500_000);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..8u64 {
            h.record(v);
        }
        assert_eq!(h.value_at_quantile(0.125), 0);
        assert_eq!(h.value_at_quantile(1.0), 7);
    }

    /// The exact report shape the load generator's `summary:` line
    /// embeds — pinned so moving the histogram between crates (or any
    /// future refactor) cannot silently change loadgen output bytes.
    #[test]
    fn to_value_bytes_are_pinned() {
        let mut h = Histogram::new();
        for v in [10u64, 200, 3_000, 40_000, 500_000] {
            h.record(v);
        }
        assert_eq!(
            h.to_value().to_string_compact(),
            r#"{"count":5,"min_ns":10,"p50_ns":3071,"p99_ns":500000,"p999_ns":500000,"max_ns":500000}"#
        );
        assert_eq!(
            Histogram::new().to_value().to_string_compact(),
            r#"{"count":0,"min_ns":0,"p50_ns":0,"p99_ns":0,"p999_ns":0,"max_ns":0}"#,
        );
        assert_eq!(format_ns(9_999), "9999ns");
        assert_eq!(format_ns(10_000), "10.0us");
        assert_eq!(format_ns(10_000_000), "10.0ms");
    }
}
