//! Small statistics helpers: guarded percentiles, medians, quartile
//! spread, and the FNV-1a run digest.

/// Fewest samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Percentile `q` (0–100) of an ascending-sorted slice, nearest rank with
/// linear interpolation — `None` when fewer than [`MIN_BEYOND`] samples
/// lie beyond it on the far side, because such a percentile is one or two
/// outliers, not a property of the distribution.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=100.0).contains(&q), "percentile out of range");
    let beyond = (sorted.len() as f64 * (1.0 - q.max(100.0 - q) / 100.0)).floor() as usize;
    if beyond < MIN_BEYOND {
        return None;
    }
    Some(spider_harness::percentile(sorted, q))
}

/// Median of unsorted values (`0.0` when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    spider_harness::percentile(&v, 50.0)
}

pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Median and 99th percentile of a latency sample, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Latency {
    pub count: u64,
    /// `0.0` when the sample is too small for a median.
    pub p50_ms: f64,
    /// `0.0` when the sample is too small for a 99th percentile.
    pub p99_ms: f64,
}

impl Latency {
    pub fn of(mut ms: Vec<f64>) -> Latency {
        ms.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        Latency {
            count: ms.len() as u64,
            p50_ms: percentile(&ms, 50.0).unwrap_or(0.0),
            p99_ms: percentile(&ms, 99.0).unwrap_or(0.0),
        }
    }
}

/// FNV-1a 64-bit, fed whole `u64`s.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method); `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = median(values);
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond() {
        let sample = |n: usize| -> Vec<f64> { (0..n).map(|i| i as f64).collect() };
        // 999 samples leave 9 beyond the 99th percentile, 1000 leave 10.
        assert_eq!(percentile(&sample(999), 99.0), None);
        assert!(percentile(&sample(1000), 99.0).is_some());
        // The median has half the sample beyond it: 20 samples suffice.
        assert_eq!(percentile(&sample(19), 50.0), None);
        assert_eq!(percentile(&sample(20), 50.0), Some(9.5));
        // Low percentiles are guarded on their own side.
        assert_eq!(percentile(&sample(999), 1.0), None);
        assert!(percentile(&[], 50.0).is_none());
        let l = Latency::of(sample(500));
        assert_eq!((l.count, l.p50_ms, l.p99_ms), (500, 249.5, 0.0));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(1.0));
    }

    #[test]
    fn digest_depends_on_every_value_and_their_order() {
        let of = |vs: &[u64]| {
            let mut h = Fnv::new();
            vs.iter().for_each(|v| h.u64(*v));
            h.finish()
        };
        assert_eq!(of(&[1, 2, 3]), of(&[1, 2, 3]));
        assert_ne!(of(&[1, 2, 3]), of(&[1, 3, 2]));
        assert_ne!(of(&[1, 2, 3]), of(&[1, 2, 4]));
    }
}
