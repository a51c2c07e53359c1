//! Latency statistics: percentiles and time-bucketed series.

use serde::{Deserialize, Serialize};
use spider::Sample;
use spider_types::SimTime;

/// Summary of a latency distribution, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: usize,
    /// Median.
    pub p50_ms: f64,
    /// 90th percentile (the paper's second reported quantile).
    pub p90_ms: f64,
    /// 99th percentile (tail latency).
    pub p99_ms: f64,
    /// 99.9th percentile (deep tail; meaningful only with enough samples).
    pub p999_ms: f64,
    /// Mean.
    pub mean_ms: f64,
}

impl LatencySummary {
    /// Summarizes a set of latencies; `None` if empty.
    pub fn of(latencies: &[SimTime]) -> Option<LatencySummary> {
        if latencies.is_empty() {
            return None;
        }
        let mut ms: Vec<f64> = latencies.iter().map(|l| l.as_millis_f64()).collect();
        ms.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        Some(LatencySummary {
            count: ms.len(),
            p50_ms: percentile(&ms, 50.0),
            p90_ms: percentile(&ms, 90.0),
            p99_ms: percentile(&ms, 99.0),
            p999_ms: percentile(&ms, 99.9),
            mean_ms: ms.iter().sum::<f64>() / ms.len() as f64,
        })
    }

    /// Summarizes samples directly.
    pub fn of_samples(samples: &[Sample]) -> Option<LatencySummary> {
        let lats: Vec<SimTime> = samples.iter().map(Sample::latency).collect();
        LatencySummary::of(&lats)
    }
}

/// Percentile of an ascending-sorted slice (nearest-rank with linear
/// interpolation).
///
/// # Panics
///
/// Panics if `sorted` is empty or `q` is outside `[0, 100]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "empty distribution");
    assert!((0.0..=100.0).contains(&q), "percentile out of range");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = q / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// One fixed-width bucket of a response-time-over-time series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeBucket {
    /// Bucket start time.
    pub start: SimTime,
    /// Mean latency of completions in the bucket (ms).
    pub mean_ms: f64,
    /// 99th-percentile latency in the bucket (ms).
    pub p99_ms: f64,
    /// 99.9th-percentile latency in the bucket (ms).
    pub p999_ms: f64,
    /// Completions in the bucket.
    pub count: usize,
}

/// Buckets sample latencies into fixed-width time buckets (Fig 10's
/// response-time-over-time plots), reporting mean and tail percentiles
/// per non-empty bucket. Sparse buckets pin the tails to the bucket max,
/// which is exactly what a per-bucket p99.9 degrades to with few samples.
pub fn timeline(samples: &[Sample], bucket: SimTime, until: SimTime) -> Vec<TimeBucket> {
    let n_buckets = (until.as_nanos() / bucket.as_nanos()) as usize + 1;
    let mut lats: Vec<Vec<f64>> = vec![Vec::new(); n_buckets];
    for s in samples {
        let b = (s.completed.as_nanos() / bucket.as_nanos()) as usize;
        if b < n_buckets {
            lats[b].push(s.latency().as_millis_f64());
        }
    }
    lats.into_iter()
        .enumerate()
        .filter(|(_, ms)| !ms.is_empty())
        .map(|(b, mut ms)| {
            ms.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
            TimeBucket {
                start: SimTime::from_nanos(b as u64 * bucket.as_nanos()),
                mean_ms: ms.iter().sum::<f64>() / ms.len() as f64,
                p99_ms: percentile(&ms, 99.0),
                p999_ms: percentile(&ms, 99.9),
                count: ms.len(),
            }
        })
        .collect()
}

/// Mean completed-ops-per-second over `[start, end)`.
pub fn mean_goodput(samples: &[Sample], start: SimTime, end: SimTime) -> f64 {
    if end <= start {
        return 0.0;
    }
    let n = samples.iter().filter(|s| s.completed >= start && s.completed < end).count();
    n as f64 / (end - start).as_secs_f64()
}

/// The longest interval within `[start, end]` containing zero completed
/// operations — the unavailability window clients actually experienced.
pub fn longest_unavailability(samples: &[Sample], start: SimTime, end: SimTime) -> SimTime {
    if end <= start {
        return SimTime::ZERO;
    }
    let mut completions: Vec<SimTime> =
        samples.iter().map(|s| s.completed).filter(|c| *c >= start && *c <= end).collect();
    completions.sort();
    let mut longest = SimTime::ZERO;
    let mut prev = start;
    for c in completions {
        longest = longest.max(c.saturating_sub(prev));
        prev = c;
    }
    longest.max(end.saturating_sub(prev))
}

/// Recovery time after a heal: the delay from `heal` until bucketed
/// goodput first returns to `fraction` of `reference_rps`, scanning
/// heal-aligned buckets of width `bucket` up to `until`. Returns the end
/// of the first recovered bucket (relative to `heal`), or `None` if
/// goodput never recovers within the horizon.
pub fn recovery_time(
    samples: &[Sample],
    heal: SimTime,
    reference_rps: f64,
    fraction: f64,
    bucket: SimTime,
    until: SimTime,
) -> Option<SimTime> {
    assert!(bucket > SimTime::ZERO, "bucket must be positive");
    assert!((0.0..=1.0).contains(&fraction), "fraction out of range");
    let target = reference_rps * fraction;
    let mut lo = heal;
    while lo < until {
        let hi = (lo + bucket).min(until);
        if mean_goodput(samples, lo, hi) >= target {
            return Some(hi.saturating_sub(heal));
        }
        lo = hi;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_types::OpKind;

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 50.0), 2.5);
    }

    #[test]
    fn summary_of_uniform_values() {
        let lats: Vec<SimTime> = (1..=100).map(SimTime::from_millis).collect();
        let s = LatencySummary::of(&lats).unwrap();
        assert_eq!(s.count, 100);
        assert!((s.p50_ms - 50.5).abs() < 0.01);
        assert!((s.p90_ms - 90.1).abs() < 0.51);
        assert!((s.mean_ms - 50.5).abs() < 0.01);
    }

    #[test]
    fn tail_percentiles_pin_distribution_edges() {
        // A single sample: every quantile collapses to that sample.
        let one = LatencySummary::of(&[SimTime::from_millis(7)]).unwrap();
        assert_eq!(one.p99_ms, 7.0);
        assert_eq!(one.p999_ms, 7.0);
        // Uniform 1..=1000 ms: interpolated nearest-rank values.
        let lats: Vec<SimTime> = (1..=1000).map(SimTime::from_millis).collect();
        let s = LatencySummary::of(&lats).unwrap();
        assert!((s.p99_ms - 990.01).abs() < 1e-6);
        assert!((s.p999_ms - 999.001).abs() < 1e-6);
        // Two samples: p99.9 interpolates almost entirely to the max.
        assert!((percentile(&[1.0, 2.0], 99.9) - 1.999).abs() < 1e-12);
        // p100 is exactly the max, p0 exactly the min.
        assert_eq!(percentile(&[3.0, 9.0, 27.0], 100.0), 27.0);
        assert_eq!(percentile(&[3.0, 9.0, 27.0], 0.0), 3.0);
    }

    #[test]
    fn summary_of_empty_is_none() {
        assert!(LatencySummary::of(&[]).is_none());
    }

    #[test]
    fn timeline_buckets_by_completion() {
        let mk = |at_ms: u64, lat_ms: u64| Sample {
            kind: OpKind::Write,
            issued: SimTime::from_millis(at_ms - lat_ms),
            completed: SimTime::from_millis(at_ms),
        };
        let samples = vec![mk(500, 100), mk(900, 300), mk(1500, 200)];
        let tl = timeline(&samples, SimTime::from_secs(1), SimTime::from_secs(2));
        assert_eq!(tl.len(), 2);
        assert_eq!(tl[0].start, SimTime::ZERO);
        assert!((tl[0].mean_ms - 200.0).abs() < 1e-9, "mean of 100 and 300");
        assert_eq!(tl[0].count, 2);
        assert_eq!(tl[1].start, SimTime::from_secs(1));
        assert!((tl[1].mean_ms - 200.0).abs() < 1e-9);
        // Tails interpolate toward the bucket max and stay ordered.
        assert!(tl[0].p99_ms <= tl[0].p999_ms && tl[0].p999_ms <= 300.0);
        assert!(tl[0].p999_ms > 299.0, "p99.9 of {{100, 300}} sits at the max");
        assert_eq!(tl[1].p999_ms, 200.0, "single-sample bucket collapses");
    }

    #[test]
    #[should_panic(expected = "empty distribution")]
    fn percentile_rejects_empty() {
        let _ = percentile(&[], 50.0);
    }

    fn done_at(ms: &[u64]) -> Vec<Sample> {
        ms.iter()
            .map(|&at| Sample {
                kind: OpKind::Write,
                issued: SimTime::from_millis(at.saturating_sub(10)),
                completed: SimTime::from_millis(at),
            })
            .collect()
    }

    #[test]
    fn longest_unavailability_spans_gaps_and_edges() {
        // Completions at 1s and 2s over a [0, 10s] window: the longest
        // dead interval is the trailing 8 seconds.
        let samples = done_at(&[1000, 2000]);
        let gap = longest_unavailability(&samples, SimTime::ZERO, SimTime::from_secs(10));
        assert_eq!(gap, SimTime::from_secs(8));
        // No completions at all: the entire window is dead.
        let empty = longest_unavailability(&[], SimTime::ZERO, SimTime::from_secs(10));
        assert_eq!(empty, SimTime::from_secs(10));
    }

    #[test]
    fn recovery_time_finds_first_recovered_bucket() {
        // Heal at 10s; goodput returns at 5 ops/s from t=12s on.
        let mut ms = Vec::new();
        for t in (12_000..20_000).step_by(200) {
            ms.push(t);
        }
        let samples = done_at(&ms);
        let rec = recovery_time(
            &samples,
            SimTime::from_secs(10),
            5.0,
            0.9,
            SimTime::from_secs(1),
            SimTime::from_secs(20),
        );
        assert_eq!(rec, Some(SimTime::from_secs(3)), "buckets 10-11s and 11-12s are dead");
        let never = recovery_time(
            &samples,
            SimTime::from_secs(10),
            500.0,
            0.9,
            SimTime::from_secs(1),
            SimTime::from_secs(20),
        );
        assert_eq!(never, None);
    }

    #[test]
    fn mean_goodput_is_rate_over_window() {
        let samples = done_at(&[500, 1500, 2500, 9500]);
        let rate = mean_goodput(&samples, SimTime::ZERO, SimTime::from_secs(10));
        assert!((rate - 0.4).abs() < 1e-9);
        assert_eq!(mean_goodput(&samples, SimTime::from_secs(5), SimTime::from_secs(5)), 0.0);
    }
}
