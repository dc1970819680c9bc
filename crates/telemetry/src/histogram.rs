//! Log-linear-bucket histograms with quantile estimation.
//!
//! Buckets follow the HdrHistogram layout: the value range is split into
//! octaves (powers of two above a configurable start), and each octave is
//! split into a fixed number of linear sub-buckets. This keeps relative
//! quantile error bounded (≈ 1/sub_buckets within an octave) over many
//! orders of magnitude with a fixed, small bucket count — microsecond stage
//! timings and multi-second tail latencies share one layout.

use std::sync::Arc;

use parking_lot::Mutex;

/// Bucket layout of a log-linear histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BucketSpec {
    /// Upper bound of the first bucket; values at or below it land there.
    pub start: f64,
    /// Number of powers of two covered above `start`.
    pub octaves: u32,
    /// Linear sub-buckets per octave.
    pub sub_buckets: u32,
}

impl BucketSpec {
    /// Layout for durations in seconds: 1 µs to ~4300 s at ≤ 25% relative
    /// bucket width (32 octaves × 4 sub-buckets).
    #[must_use]
    pub fn seconds() -> Self {
        Self {
            start: 1e-6,
            octaves: 32,
            sub_buckets: 4,
        }
    }

    /// Layout for dimensionless ratios in [0, 1]-ish ranges: 1e-4 to ~6.5
    /// at fine resolution.
    #[must_use]
    pub fn ratio() -> Self {
        Self {
            start: 1e-4,
            octaves: 16,
            sub_buckets: 4,
        }
    }

    /// The increasing bucket upper bounds (excluding the implicit +Inf
    /// overflow bucket).
    ///
    /// # Panics
    ///
    /// Panics if the spec is degenerate (`start <= 0`, zero octaves or
    /// sub-buckets).
    #[must_use]
    pub fn bounds(&self) -> Vec<f64> {
        assert!(
            self.start > 0.0 && self.octaves > 0 && self.sub_buckets > 0,
            "degenerate bucket spec {self:?}"
        );
        (0..self.num_bounds()).map(|i| self.bound(i)).collect()
    }

    /// How many bounds the layout has.
    fn num_bounds(&self) -> usize {
        1 + (self.octaves * self.sub_buckets) as usize
    }

    /// Bound `i` of [`Self::bounds`], computed rather than looked up: `start`,
    /// then octave `o`'s `start · 2^o · (1 + sub / sub_buckets)` for
    /// `sub = 1 ..= sub_buckets`.
    fn bound(&self, i: usize) -> f64 {
        if i == 0 {
            return self.start;
        }
        // In 32 bits: a 64-bit division costs an observation several times
        // as much.
        let i = (i - 1) as u32;
        let (octave, sub) = (i / self.sub_buckets, i % self.sub_buckets + 1);
        // 2^octave, exactly.
        let scale = f64::from_bits((1023 + u64::from(octave)) << 52);
        self.start * scale * (1.0 + f64::from(sub) / f64::from(self.sub_buckets))
    }
}

#[derive(Debug)]
struct HistData {
    counts: Vec<u64>, // one per bound, plus a trailing overflow bucket
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

/// A concurrent log-linear histogram. Clones share the same storage.
#[derive(Debug, Clone)]
pub struct Histogram {
    spec: BucketSpec,
    data: Arc<Mutex<HistData>>,
}

impl Histogram {
    /// Creates an empty histogram with the given bucket layout.
    #[must_use]
    pub fn new(spec: BucketSpec) -> Self {
        let n = spec.bounds().len() + 1;
        Self {
            spec,
            data: Arc::new(Mutex::new(HistData {
                counts: vec![0; n],
                count: 0,
                sum: 0.0,
                min: f64::INFINITY,
                max: f64::NEG_INFINITY,
            })),
        }
    }

    /// Records one observation. Non-finite values are ignored; values at or
    /// below the first bound land in the first bucket.
    pub fn observe(&self, value: f64) {
        if !value.is_finite() {
            return;
        }
        let idx = self.bucket(value);
        let mut d = self.data.lock();
        d.counts[idx] += 1;
        d.count += 1;
        d.sum += value;
        d.min = d.min.min(value);
        d.max = d.max.max(value);
    }

    /// The bucket `value` lands in: the first bound at or above it, or the
    /// overflow bucket past the last — `bounds.partition_point(|b| *b <
    /// value)`. The layout's arithmetic guesses it from the value's binary
    /// exponent and mantissa, and the bounds next to the guess, computed as
    /// [`BucketSpec::bounds`] computes them, settle it: an observation reads
    /// no bound from memory (cold lines, when a step observes after a
    /// forward pass), where a binary search read seven. A guess whose
    /// position within its octave is far from whole, by many times what the
    /// few roundings in the ratio and the bounds can move it, is the bucket,
    /// and no bound is computed.
    fn bucket(&self, value: f64) -> usize {
        let (spec, len) = (&self.spec, self.spec.num_bounds());
        let ratio = value / spec.start;
        let mut idx = if ratio.is_normal() && ratio > 1.0 {
            let bits = ratio.to_bits();
            let octave = (bits >> 52) as usize - 1023;
            let mantissa = f64::from_bits(bits & ((1 << 52) - 1) | (1023 << 52));
            let sub_buckets = f64::from(spec.sub_buckets);
            let position = (mantissa - 1.0) * sub_buckets;
            let sub = position.ceil();
            let idx = octave * spec.sub_buckets as usize + sub as usize;
            let margin = sub_buckets * 1e-12;
            if idx < len && sub - position > margin && sub - position < 1.0 - margin {
                return idx;
            }
            idx.min(len)
        } else {
            0
        };
        while idx > 0 && spec.bound(idx - 1) >= value {
            idx -= 1;
        }
        while idx < len && spec.bound(idx) < value {
            idx += 1;
        }
        idx
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.data.lock().count
    }

    /// Sum of the recorded observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.data.lock().sum
    }

    /// A consistent point-in-time copy of the histogram state.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let d = self.data.lock();
        HistogramSnapshot {
            bounds: self.spec.bounds(),
            counts: d.counts.clone(),
            count: d.count,
            sum: d.sum,
            min: if d.count == 0 { 0.0 } else { d.min },
            max: if d.count == 0 { 0.0 } else { d.max },
        }
    }
}

/// Immutable histogram state: per-bucket counts (the last entry is the +Inf
/// overflow bucket), totals, and observed extrema.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Increasing bucket upper bounds (no +Inf entry).
    pub bounds: Vec<f64>,
    /// Non-cumulative bucket counts; `counts.len() == bounds.len() + 1`.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: f64,
    /// Smallest observed value (0 when empty).
    pub min: f64,
    /// Largest observed value (0 when empty).
    pub max: f64,
}

impl HistogramSnapshot {
    /// Mean of the observed values, or `None` when empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum / self.count as f64)
        }
    }

    /// Estimated `q`-quantile (`q` in `[0, 1]`) by linear interpolation
    /// within the containing bucket, clamped to the observed `[min, max]`.
    /// Quantiles landing in the +Inf overflow bucket are clamped to the top
    /// finite bound (the layout cannot resolve positions beyond it).
    /// Returns `None` when empty or `q` is out of range.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let target = q * self.count as f64;
        let mut cumulative = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let previous = cumulative;
            cumulative += c as f64;
            if cumulative >= target {
                if i >= self.bounds.len() {
                    // Overflow bucket: clamp into the top finite bound
                    // rather than interpolating toward an unbounded max.
                    return self.bounds.last().copied();
                }
                let lower = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let upper = self.bounds[i];
                let frac = ((target - previous) / c as f64).clamp(0.0, 1.0);
                let v = lower + frac * (upper - lower);
                return Some(v.clamp(self.min, self.max));
            }
        }
        Some(
            self.max
                .min(self.bounds.last().copied().unwrap_or(self.max)),
        )
    }

    /// Merges another snapshot recorded with the same bucket layout into
    /// this one.
    ///
    /// # Errors
    ///
    /// Returns a description of the mismatch if the bucket layouts differ.
    pub fn merge(&mut self, other: &HistogramSnapshot) -> Result<(), String> {
        if self.bounds != other.bounds {
            return Err(format!(
                "bucket layout mismatch: {} vs {} bounds",
                self.bounds.len(),
                other.bounds.len()
            ));
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.sum += other.sum;
        match (self.count, other.count) {
            (_, 0) => {}
            (0, _) => {
                self.min = other.min;
                self.max = other.max;
            }
            _ => {
                self.min = self.min.min(other.min);
                self.max = self.max.max(other.max);
            }
        }
        self.count += other.count;
        Ok(())
    }

    /// Internal consistency: bucket counts sum to `count` and the layout
    /// lengths line up (used by CI sanity checks).
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        self.counts.len() == self.bounds.len() + 1
            && self.counts.iter().sum::<u64>() == self.count
            && self.bounds.windows(2).all(|w| w[0] < w[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> BucketSpec {
        BucketSpec {
            start: 1.0,
            octaves: 3,
            sub_buckets: 2,
        }
    }

    #[test]
    fn computed_bounds_are_the_layout_loop_bits() {
        for spec in [BucketSpec::seconds(), BucketSpec::ratio(), tiny_spec()] {
            let mut want = vec![spec.start];
            for octave in 0..spec.octaves {
                let base = spec.start * 2f64.powi(octave as i32);
                for sub in 1..=spec.sub_buckets {
                    want.push(base * (1.0 + f64::from(sub) / f64::from(spec.sub_buckets)));
                }
            }
            let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            assert_eq!(bits(spec.bounds()), bits(want), "{spec:?}");
        }
    }

    #[test]
    fn bucket_is_the_bounds_partition_point() {
        for spec in [BucketSpec::seconds(), BucketSpec::ratio(), tiny_spec()] {
            let h = Histogram::new(spec);
            let bounds = spec.bounds();
            let mut values = vec![0.0, -1.0, f64::MIN_POSITIVE, 1e300, -0.0];
            for &b in &bounds {
                values.extend([b, b.next_up(), b.next_down(), b * 0.999, b * 1.001]);
            }
            let mut s = 0x2545_f491_4f6c_dd1du64;
            for _ in 0..10_000 {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                // Log-uniform over 1e-9 .. 1e6.
                values.push(10f64.powf((s >> 11) as f64 / (1u64 << 53) as f64 * 15.0 - 9.0));
            }
            for v in values {
                let want = bounds.partition_point(|b| *b < v);
                assert_eq!(h.bucket(v), want, "{spec:?}: value {v:e}");
            }
        }
    }

    #[test]
    fn bounds_are_log_linear_and_increasing() {
        // start=1, 3 octaves × 2 sub-buckets: 1, 1.5, 2, 3, 4, 6, 8.
        let bounds = tiny_spec().bounds();
        assert_eq!(bounds, vec![1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0]);
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        let secs = BucketSpec::seconds().bounds();
        assert!(secs.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(secs.len(), 1 + 32 * 4);
    }

    #[test]
    fn boundary_values_land_in_lower_bucket() {
        let h = Histogram::new(tiny_spec());
        // Exactly on a bound → that bucket (le semantics).
        h.observe(1.0);
        h.observe(1.5);
        h.observe(2.0);
        // Strictly above a bound → next bucket.
        h.observe(2.0000001);
        // Below start → first bucket; above the top → overflow.
        h.observe(0.001);
        h.observe(100.0);
        let s = h.snapshot();
        assert_eq!(s.counts[0], 2); // 1.0 and 0.001
        assert_eq!(s.counts[1], 1); // 1.5
        assert_eq!(s.counts[2], 1); // 2.0
        assert_eq!(s.counts[3], 1); // 2.0000001
        assert_eq!(*s.counts.last().unwrap(), 1); // 100.0 overflow
        assert_eq!(s.count, 6);
        assert!(s.is_consistent());
    }

    #[test]
    fn non_finite_observations_ignored() {
        let h = Histogram::new(tiny_spec());
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        assert_eq!(h.count(), 0);
        let s = h.snapshot();
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 0.0);
    }

    #[test]
    fn quantiles_bracket_the_data() {
        let h = Histogram::new(BucketSpec::seconds());
        for i in 1..=1000 {
            h.observe(f64::from(i) * 1e-3); // 1 ms .. 1 s uniform
        }
        let s = h.snapshot();
        let p50 = s.quantile(0.5).unwrap();
        let p99 = s.quantile(0.99).unwrap();
        assert!((p50 - 0.5).abs() / 0.5 < 0.3, "p50 {p50}");
        assert!((p99 - 0.99).abs() / 0.99 < 0.3, "p99 {p99}");
        assert!(s.quantile(0.0).unwrap() >= s.min);
        assert!(s.quantile(1.0).unwrap() <= s.max);
        assert!(p50 <= p99);
        assert_eq!(s.quantile(1.5), None);
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let s = Histogram::new(tiny_spec()).snapshot();
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.quantile(0.0), None);
        assert_eq!(s.quantile(1.0), None);
        assert_eq!(s.mean(), None);
        assert!(s.is_consistent());
    }

    #[test]
    fn single_sample_quantiles_return_the_sample() {
        let h = Histogram::new(tiny_spec());
        h.observe(3.5);
        let s = h.snapshot();
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(s.quantile(q), Some(3.5), "q={q}");
        }
        assert_eq!(s.quantile(-0.1), None);
        assert_eq!(s.quantile(1.1), None);
    }

    #[test]
    fn overflow_samples_clamp_to_top_bound() {
        let spec = tiny_spec(); // top finite bound is 8.0
        let h = Histogram::new(spec);
        h.observe(1e12);
        h.observe(2e12);
        let s = h.snapshot();
        // Every quantile resolves to the top finite bound, never the raw
        // (unresolvable) overflow values.
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(s.quantile(q), Some(8.0), "q={q}");
        }
        // Mixed: half in range, half overflowing — the upper quantiles
        // still clamp to the top bound.
        let h = Histogram::new(tiny_spec());
        h.observe(2.0);
        h.observe(1e12);
        let s = h.snapshot();
        assert_eq!(s.quantile(1.0), Some(8.0));
        assert!(s.quantile(0.25).unwrap() <= 2.0);
    }

    #[test]
    fn merge_adds_counts_and_extrema() {
        let a = Histogram::new(tiny_spec());
        let b = Histogram::new(tiny_spec());
        a.observe(1.0);
        a.observe(4.0);
        b.observe(7.0);
        let mut s = a.snapshot();
        s.merge(&b.snapshot()).unwrap();
        assert_eq!(s.count, 3);
        assert!((s.sum - 12.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 7.0);
        assert!(s.is_consistent());
    }

    #[test]
    fn merge_rejects_layout_mismatch() {
        let a = Histogram::new(tiny_spec());
        let b = Histogram::new(BucketSpec::seconds());
        let mut s = a.snapshot();
        assert!(s.merge(&b.snapshot()).is_err());
    }

    #[test]
    fn merge_into_empty_takes_other_extrema() {
        let a = Histogram::new(tiny_spec());
        let b = Histogram::new(tiny_spec());
        b.observe(3.0);
        let mut s = a.snapshot();
        s.merge(&b.snapshot()).unwrap();
        assert_eq!((s.min, s.max), (3.0, 3.0));
    }
}
