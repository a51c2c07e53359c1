//! Offline stand-in for the `criterion` crate.
//!
//! Provides the subset of the criterion API the bench targets use —
//! [`Criterion::benchmark_group`], [`BenchmarkGroup::bench_function`],
//! [`Bencher::iter`], [`Throughput`], and the [`criterion_group!`] /
//! [`criterion_main!`] macros — with a simple wall-clock measurement loop
//! instead of criterion's statistical machinery. Results print as
//! `name    time: [median per iteration]` so `cargo bench` remains
//! useful; `cargo bench --no-run` compiles targets identically to the
//! real crate.

#![forbid(unsafe_code)]
#![allow(
    clippy::disallowed_types,
    reason = "a benchmark harness times host code with the OS clock"
)]

use std::time::{Duration, Instant};

/// Prevents the optimizer from deleting a benchmarked computation.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Throughput annotation for a benchmark group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Elements processed per iteration.
    Elements(u64),
}

/// How many inputs [`Bencher::iter_batched`] prepares ahead; accepted for
/// API compatibility, the stub always prepares one input per sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small inputs.
    SmallInput,
}

/// Top-level benchmark driver; mirrors `criterion::Criterion`.
#[derive(Debug)]
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion { sample_size: 10 }
    }
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("\nbenchmark group: {name}");
        BenchmarkGroup { _criterion: self, name, sample_size: 10, throughput: None }
    }

    /// Registers a standalone benchmark.
    pub fn bench_function<F>(&mut self, name: impl Into<String>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(&name.into(), self.sample_size, None, f);
        self
    }
}

/// A named group of benchmarks; mirrors `criterion::BenchmarkGroup`.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Sets the per-iteration throughput used in reports.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F>(&mut self, name: impl Into<String>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, name.into());
        run_one(&full, self.sample_size, self.throughput, f);
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

fn run_one<F>(name: &str, samples: usize, throughput: Option<Throughput>, mut f: F)
where
    F: FnMut(&mut Bencher),
{
    let mut bencher = Bencher { samples: Vec::with_capacity(samples), target: samples };
    f(&mut bencher);
    let mut per_iter: Vec<Duration> = bencher.samples;
    if per_iter.is_empty() {
        println!("  {name:<40} (no samples)");
        return;
    }
    per_iter.sort_unstable();
    let median = per_iter[per_iter.len() / 2];
    let rate = match throughput {
        Some(Throughput::Bytes(b)) if median.as_nanos() > 0 => {
            let gib = b as f64 / median.as_secs_f64() / (1u64 << 30) as f64;
            format!("  {gib:>8.3} GiB/s")
        }
        Some(Throughput::Elements(e)) if median.as_nanos() > 0 => {
            let meps = e as f64 / median.as_secs_f64() / 1e6;
            format!("  {meps:>8.3} Melem/s")
        }
        _ => String::new(),
    };
    println!("  {name:<40} time: [{median:>12.3?}]{rate}");
}

/// Times a closure; mirrors `criterion::Bencher`.
pub struct Bencher {
    samples: Vec<Duration>,
    target: usize,
}

impl Bencher {
    /// Measures `routine`, recording one timed sample per configured
    /// sample-count after a single warm-up call.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        black_box(routine());
        for _ in 0..self.target {
            let start = Instant::now();
            black_box(routine());
            self.samples.push(start.elapsed());
        }
    }

    /// Measures `routine` on a fresh `setup()` value per sample; the
    /// setup is not timed.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        black_box(routine(setup()));
        for _ in 0..self.target {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            self.samples.push(start.elapsed());
        }
    }
}

/// Bundles benchmark functions into a runnable group; mirrors
/// `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Emits `fn main` running the given groups; mirrors
/// `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // `cargo bench` forwards harness flags such as `--bench`;
            // accept and ignore them.
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bench(c: &mut Criterion) {
        let mut g = c.benchmark_group("stub");
        g.sample_size(3);
        g.throughput(Throughput::Bytes(1024));
        g.bench_function("sum", |b| b.iter(|| (0u64..100).sum::<u64>()));
        g.bench_function("sum_batched", |b| {
            b.iter_batched(|| vec![1u64; 100], |v| v.iter().sum::<u64>(), BatchSize::SmallInput)
        });
        g.finish();
    }

    criterion_group!(benches, sample_bench);

    #[test]
    fn group_runs_and_records() {
        benches();
    }
}
