//! The quick scales of the checked-in artifacts, shared by
//! `bench_summary` and `SPIDER_QUICK=1 paper_figures` (the disaster
//! suite's is `disaster::Config::quick`), and the timer of the `micro_*`
//! benches.
//!
//! The crate's benches are the `micro_*` host-time measurements and the
//! `ablations` sweeps, all plain programs; the paper's figures are printed
//! by the `paper_figures` example.

#![forbid(unsafe_code)]

use spider_harness::experiments::fig10;
use spider_harness::scenarios::ScenarioCfg;
use spider_types::SimTime;

/// Quick scale of the checked-in artifacts: `bench_summary`'s Figure 7
/// sweep and `SPIDER_QUICK=1 paper_figures`.
pub fn quick_scale() -> ScenarioCfg {
    ScenarioCfg {
        clients_per_region: 3,
        rate_per_client: 2.0,
        duration: SimTime::from_secs(12),
        warmup: SimTime::from_secs(2),
        ..ScenarioCfg::default()
    }
}

/// Figure 10 at the quick scale of the checked-in artifacts.
pub fn quick_fig10() -> fig10::Config {
    fig10::Config {
        clients_per_region: 3,
        duration: SimTime::from_secs(40),
        join_at: SimTime::from_secs(25),
        bucket: SimTime::from_secs(5),
    }
}

/// Timed samples per row of a micro bench; a row reports their median.
const SAMPLES: usize = 31;

/// Least work in one timed sample, in nanoseconds: the two clock reads
/// around it (tens of ns) are then under 1 % of it.
const SAMPLE_NS: u128 = 10_000;

/// Prints `name` and the host nanoseconds one `call` takes: the median
/// over `SAMPLES` (31) samples. Each sample runs `setup` untimed, then
/// times one loop of calls on its value. The loop length is fixed before
/// the first sample, doubling from one call until a loop takes `SAMPLE_NS`
/// (10 µs); a call that takes that long on its own runs once per sample,
/// so it always sees a fresh `setup`.
#[expect(clippy::disallowed_types, reason = "a micro bench times host code with the OS clock")]
pub fn time_per_call<I, O>(
    name: &str,
    mut setup: impl FnMut() -> I,
    mut call: impl FnMut(&mut I) -> O,
) {
    let mut sample = |calls: u32| {
        let mut input = setup();
        let start = std::time::Instant::now();
        for _ in 0..calls {
            std::hint::black_box(call(&mut input));
        }
        start.elapsed().as_nanos()
    };
    let mut calls = 1;
    while sample(calls) < SAMPLE_NS {
        calls *= 2;
    }
    let mut per_call: Vec<f64> =
        (0..SAMPLES).map(|_| sample(calls) as f64 / f64::from(calls)).collect();
    per_call.sort_by(f64::total_cmp);
    println!("  {name:<40} {:>12.1} ns", per_call[SAMPLES / 2]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn each_sample_loops_on_a_fresh_setup_and_the_loop_length_is_fixed_first() {
        // Calls made on each setup's value, in order.
        let loops = RefCell::new(Vec::new());
        time_per_call(
            "test/sum",
            || {
                loops.borrow_mut().push(0u32);
                loops.borrow().len() - 1
            },
            |i: &mut usize| {
                loops.borrow_mut()[*i] += 1;
                (0..64u64).sum::<u64>()
            },
        );
        let loops = loops.into_inner();
        let (calibration, samples) = loops.split_at(loops.len() - SAMPLES);
        let calls = *calibration.last().expect("at least one calibration loop");
        let doubling: Vec<u32> = (0..calibration.len()).map(|k| 1 << k).collect();
        assert_eq!(calibration, doubling, "calibration doubles from one call");
        assert!(samples.iter().all(|&n| n == calls), "every sample loops {calls} times");
    }
}
