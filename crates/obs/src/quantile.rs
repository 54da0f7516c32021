//! Streaming quantile sketches.
//!
//! A [`QuantileSketch`] counts observations in log-linear buckets, as in
//! HdrHistogram and DDSketch: each power-of-two octave is subdivided into
//! [`SUBBUCKETS`] linear sub-buckets, so any recorded value is attributed
//! to a bucket whose width is at most `value / SUBBUCKETS`. Quantile
//! estimates are bucket midpoints, which bounds the relative error at
//! `1 / (2 · SUBBUCKETS)` ≈ 1.6% — comfortably inside the 5% budget the
//! SLO watchdog's `p99` rules are specified against.
//!
//! Design constraints, in order:
//!
//! - **O(1), allocation-free record**: the bucket array is allocated once
//!   at registration; the hot path is two shifts and an array increment.
//! - **Deterministic**: integer-only bucketing, so two identical seeded
//!   simulation runs produce bit-identical sketches (and dumps).
//! - **Mergeable**: frozen sketches sum bucket-wise without losing
//!   accuracy ([`SketchSnapshot::merge`]), so per-layer registries
//!   combine into one view ([`crate::MetricsSnapshot::merge`]).

/// Linear sub-buckets per power-of-two octave. 32 gives a worst-case
/// relative quantile error of 1/64 ≈ 1.6%.
pub const SUBBUCKETS: u64 = 32;

/// Total buckets: the zero bucket plus 64 octaves × `SUBBUCKETS`.
pub const SKETCH_BUCKETS: usize = 1 + 64 * SUBBUCKETS as usize;

/// Bucket index for a value. Bucket 0 holds the value 0; values in
/// `[2^k, 2^(k+1))` land in sub-bucket `(v - 2^k) · SUBBUCKETS >> k` of
/// octave `k`. Values below `SUBBUCKETS` are exact (sub-bucket width < 1).
#[inline]
pub fn sketch_bucket(value: u64) -> usize {
    if value == 0 {
        return 0;
    }
    let k = 63 - value.leading_zeros() as u64;
    let offset = if k >= 5 {
        (value - (1 << k)) >> (k - 5)
    } else {
        // Octaves narrower than SUBBUCKETS: every value is its own bucket
        // (the remaining sub-buckets of the octave stay empty).
        value - (1 << k)
    };
    (1 + k * SUBBUCKETS + offset) as usize
}

/// Inclusive lower bound of a bucket.
pub fn sketch_bucket_lo(bucket: usize) -> u64 {
    if bucket == 0 {
        return 0;
    }
    let b = (bucket - 1) as u64;
    let (k, offset) = (b / SUBBUCKETS, b % SUBBUCKETS);
    if k >= 5 {
        (1 << k) + (offset << (k - 5))
    } else {
        (1 << k) + offset
    }
}

/// Midpoint of a bucket — the value quantile queries report.
fn sketch_bucket_mid(bucket: usize) -> u64 {
    let lo = sketch_bucket_lo(bucket);
    let hi = if bucket + 1 < SKETCH_BUCKETS {
        sketch_bucket_lo(bucket + 1)
    } else {
        u64::MAX
    };
    lo + (hi - lo) / 2
}

/// A streaming quantile sketch over `u64` observations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantileSketch {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl QuantileSketch {
    /// Creates an empty sketch (allocates the dense bucket array once).
    pub fn new() -> Self {
        Self {
            buckets: vec![0; SKETCH_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one observation. O(1), no allocation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[sketch_bucket(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`). Returns 0 on an empty
    /// sketch. The estimate is the midpoint of the bucket containing the
    /// rank-`⌈q·count⌉` observation; exact min/max are reported at the
    /// extremes.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q <= 0.0 {
            return self.min();
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            seen += n;
            if seen >= rank {
                // Clamp to the observed range so single-bucket sketches
                // report the true value, not the bucket midpoint.
                return sketch_bucket_mid(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Occupied buckets as `(lower_bound, count)` pairs, ascending — the
    /// sparse form snapshots and JSON export use.
    pub fn occupied(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (sketch_bucket_lo(i), n))
            .collect()
    }
}

/// A frozen sparse copy of a sketch, independent of the live registry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SketchSnapshot {
    /// Occupied buckets as `(lower_bound, count)`, ascending.
    pub buckets: Vec<(u64, u64)>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations (saturating).
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
}

impl SketchSnapshot {
    /// Snapshots a live sketch.
    pub fn of(s: &QuantileSketch) -> Self {
        Self {
            buckets: s.occupied(),
            count: s.count(),
            sum: s.sum(),
            min: s.min(),
            max: s.max(),
        }
    }

    /// Quantile estimate from the frozen buckets (same semantics as
    /// [`QuantileSketch::quantile`]).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q <= 0.0 {
            return self.min;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(lo, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                let i = sketch_bucket(lo);
                return sketch_bucket_mid(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Observations accumulated since `earlier` (bucket-wise subtraction;
    /// `earlier` must be a prefix of the same stream, as with
    /// [`crate::MetricsSnapshot::delta`]). The delta's min/max are bucket
    /// bounds, not exact observations: the true extremes of the window are
    /// not recoverable from two cumulative snapshots.
    pub fn subtract(&self, earlier: &SketchSnapshot) -> SketchSnapshot {
        let mut map: std::collections::BTreeMap<u64, u64> = self.buckets.iter().copied().collect();
        for &(lo, n) in &earlier.buckets {
            let e = map.entry(lo).or_insert(0);
            *e = e.saturating_sub(n);
        }
        let buckets: Vec<(u64, u64)> = map.into_iter().filter(|&(_, n)| n > 0).collect();
        let count = self.count.saturating_sub(earlier.count);
        let min = buckets.first().map_or(0, |&(lo, _)| lo.max(self.min));
        let max = buckets.last().map_or(0, |&(lo, _)| {
            let b = sketch_bucket(lo);
            if b + 1 < SKETCH_BUCKETS {
                (sketch_bucket_lo(b + 1) - 1).min(self.max)
            } else {
                self.max
            }
        });
        SketchSnapshot {
            buckets,
            count,
            sum: self.sum.saturating_sub(earlier.sum),
            min,
            max,
        }
    }

    /// Union with `other`, summing counts on shared buckets.
    pub fn merge(&self, other: &SketchSnapshot) -> SketchSnapshot {
        let mut map: std::collections::BTreeMap<u64, u64> = self.buckets.iter().copied().collect();
        for &(lo, n) in &other.buckets {
            *map.entry(lo).or_insert(0) += n;
        }
        SketchSnapshot {
            buckets: map.into_iter().collect(),
            count: self.count + other.count,
            sum: self.sum.saturating_add(other.sum),
            min: if self.count == 0 {
                other.min
            } else if other.count == 0 {
                self.min
            } else {
                self.min.min(other.min)
            },
            max: self.max.max(other.max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_roundtrip_and_monotonicity() {
        assert_eq!(sketch_bucket(0), 0);
        assert_eq!(sketch_bucket_lo(0), 0);
        // For every reachable bucket, the lower bound maps back into it
        // (low octaves have unreachable sub-buckets — width < SUBBUCKETS —
        // which never receive observations).
        let mut last = 0;
        for v in [1u64, 2, 3, 31, 32, 33, 63, 64, 1000, 1 << 20, u64::MAX] {
            let b = sketch_bucket(v);
            assert!(b >= last, "bucket({v}) = {b} < {last}");
            assert!(b < SKETCH_BUCKETS);
            assert!(sketch_bucket_lo(b) <= v);
            assert_eq!(sketch_bucket(sketch_bucket_lo(b)), b, "value {v}");
            last = b;
        }
        // Exhaustive bracket check over the first two MiB of values.
        for v in 0..(2u64 << 20) {
            let b = sketch_bucket(v);
            assert!(
                sketch_bucket_lo(b) <= v && v < sketch_bucket_lo(b + 1),
                "{v}"
            );
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut s = QuantileSketch::new();
        for v in 0..SUBBUCKETS {
            s.record(v);
        }
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            let est = s.quantile(q);
            assert!(est < SUBBUCKETS, "q={q} est={est}");
        }
        assert_eq!(s.quantile(1.0), SUBBUCKETS - 1);
        assert_eq!(s.min(), 0);
    }

    #[test]
    fn p99_relative_error_under_5pct() {
        // A latency-shaped stream: bulk around 25k cycles with a heavy
        // tail — the distribution invoke costs actually follow.
        let mut s = QuantileSketch::new();
        let mut exact: Vec<u64> = Vec::new();
        let mut rng = crate::rng::SmallRng::seed_from_u64(99);
        for _ in 0..50_000 {
            let base = 20_000 + rng.gen_range(0u64..10_000);
            let v = if rng.gen_bool(0.02) {
                base * rng.gen_range(2u64..30)
            } else {
                base
            };
            s.record(v);
            exact.push(v);
        }
        exact.sort_unstable();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let rank = ((q * exact.len() as f64).ceil() as usize).clamp(1, exact.len());
            let truth = exact[rank - 1] as f64;
            let est = s.quantile(q) as f64;
            let err = (est - truth).abs() / truth;
            assert!(
                err < 0.05,
                "q={q}: est {est} vs exact {truth} (err {err:.4})"
            );
        }
    }

    #[test]
    fn merge_equals_combined_stream() {
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        let mut all = QuantileSketch::new();
        let mut rng = crate::rng::SmallRng::seed_from_u64(7);
        for i in 0..10_000u64 {
            let v = rng.gen_range(1u64..1_000_000);
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            all.record(v);
        }
        let merged = SketchSnapshot::of(&a).merge(&SketchSnapshot::of(&b));
        let whole = SketchSnapshot::of(&all);
        assert_eq!(merged, whole, "merge is exact at bucket granularity");
        assert_eq!(merged.merge(&SketchSnapshot::default()), merged);
        assert_eq!(merged.quantile(0.99), whole.quantile(0.99));
    }

    #[test]
    fn snapshot_quantiles_match_live() {
        let mut s = QuantileSketch::new();
        for v in [5u64, 100, 1000, 1000, 50_000, 1 << 40] {
            s.record(v);
        }
        let snap = SketchSnapshot::of(&s);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(snap.quantile(q), s.quantile(q), "q={q}");
        }
        assert_eq!(snap.count, 6);
        assert_eq!(snap.min, 5);
        assert_eq!(snap.max, 1 << 40);
    }

    #[test]
    fn empty_sketch_reads_zero() {
        let s = QuantileSketch::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.99), 0);
        assert_eq!(s.min(), 0);
        assert_eq!(SketchSnapshot::of(&s).quantile(0.5), 0);
    }
}
