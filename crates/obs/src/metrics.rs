//! Log-bucketed histograms for the per-phase latency breakdown.
//!
//! The bucketing follows the HdrHistogram idea specialized to a fixed
//! precision: values below [`SUB`] get exact unit buckets; above that,
//! each power-of-two range is split into [`SUB`] sub-buckets, so the
//! reported value for any recorded sample is at most a factor
//! `1 + 1/SUB` above the true value (relative error ≤ 1/32 ≈ 3.1%),
//! which is plenty for p99.9 latency reporting.

/// log2 of the sub-bucket count.
const SUB_BITS: u32 = 5;
/// Sub-buckets per power-of-two range (and the exact-bucket cutoff).
const SUB: u64 = 1 << SUB_BITS;

/// Index of the bucket `v` falls into.
fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let shift = e - SUB_BITS;
    let mantissa = (v >> shift) & (SUB - 1);
    (((e - SUB_BITS + 1) as u64 * SUB) + mantissa) as usize
}

/// Largest value mapping into bucket `i` (the value reported for it).
fn upper_of(i: usize) -> u64 {
    let i = i as u64;
    if i < SUB {
        return i;
    }
    let block = i / SUB;
    let m = i % SUB;
    let shift = (block - 1) as u32;
    ((SUB + m) << shift) + (1u64 << shift) - 1
}

/// A deterministic log-bucketed histogram of `u64` values.
///
/// Quantiles are reported as the upper bound of the bucket holding the
/// rank, so a reported quantile `r` for a true sample `v` satisfies
/// `v <= r <= v * (1 + 1/32) ` (exact below 32).
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    max: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let b = bucket_of(v);
        if self.counts.len() <= b {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += 1;
        self.total += 1;
        self.sum += v as u128;
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Largest recorded sample (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded samples (exact), or 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.sum as f64 / self.total as f64
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the holding bucket's upper
    /// bound, clamped to the exact max. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the sample to report, 1-based; ceil so q=1.0 is the max.
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return upper_of(i).min(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..SUB {
            assert_eq!(bucket_of(v), v as usize);
            assert_eq!(upper_of(v as usize), v);
        }
    }

    #[test]
    fn bucket_bounds_are_consistent() {
        // Every bucket's upper bound maps back into that bucket, and the
        // next value up maps into the next bucket. Bucket 1919 is the
        // last one reachable from a u64 (it holds u64::MAX), so stop
        // short of it to keep `hi + 1` representable.
        for i in 0..1919usize {
            let hi = upper_of(i);
            assert_eq!(bucket_of(hi), i, "upper_of({i}) = {hi}");
            assert_eq!(bucket_of(hi + 1), i + 1, "upper bound {hi} must end bucket {i}");
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        // Property: for a spread of values, the bucket upper bound
        // over-reports by at most 1/SUB.
        let mut v = 1u64;
        while v < 1 << 50 {
            for off in [0u64, 1, v / 3, v / 2] {
                let x = v + off;
                let rep = upper_of(bucket_of(x));
                assert!(rep >= x, "reported {rep} < recorded {x}");
                let err = (rep - x) as f64 / x as f64;
                assert!(err <= 1.0 / SUB as f64, "error {err} too big at {x}");
            }
            v = v.wrapping_mul(3) + 7;
        }
    }

    #[test]
    fn quantiles_hit_bucket_bounds() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.max(), 1000);
        // p50 of 1..=1000 is 500; reported value within the error bound.
        let p50 = h.quantile(0.50);
        assert!((500..=516).contains(&p50), "p50 = {p50}");
        let p999 = h.quantile(0.999);
        assert!((999..=1000).contains(&p999), "p99.9 = {p999}");
        // Quantile never exceeds the true max even at q=1.
        assert_eq!(h.quantile(1.0), 1000);
        assert_eq!(h.quantile(0.0), 1);
    }

    #[test]
    fn quantile_of_singleton_and_empty() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        h.record(77);
        for q in [0.0, 0.5, 0.999, 1.0] {
            let r = h.quantile(q);
            assert!((77..=77 + 77 / SUB).contains(&r), "q={q} r={r}");
        }
        // Reported quantile is clamped to the exact max.
        assert_eq!(h.quantile(1.0), 77);
    }

    #[test]
    fn recorded_quantile_within_error_bound_property() {
        // For a deterministic pseudo-random stream, check every decile
        // against the exact sorted answer.
        let mut vals = Vec::new();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..5000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            vals.push(x % 10_000_000);
        }
        let mut h = Histogram::new();
        for &v in &vals {
            h.record(v);
        }
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
            let exact = sorted[rank - 1];
            let got = h.quantile(q);
            assert!(got >= exact, "q={q}: got {got} < exact {exact}");
            let err = (got - exact) as f64 / exact.max(1) as f64;
            assert!(err <= 1.0 / SUB as f64 + 1e-12, "q={q}: err {err}");
        }
    }
}
