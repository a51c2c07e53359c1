//! Host-plane plumbing: a counting global allocator, `/proc` readers for
//! peak RSS and CPU time, and the environment note printed with every run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator with two counters in front of it.
pub struct CountingAlloc;

// Statistics only: nothing is published through these, so `Relaxed`.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations for `alloc_zeroed` are passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `(allocations, bytes requested)` by this process so far. Read it before
/// and after a section and subtract.
pub fn alloc_counts() -> (u64, u64) {
    (ALLOCS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}

fn warn_unavailable(what: &str) {
    eprintln!("warning: {what} unavailable on this host; reporting 0");
}

/// Peak resident set size of this process in MiB (`VmHWM`), `0.0` with a
/// warning where `/proc` is absent.
pub fn peak_rss_mb() -> f64 {
    let kb = std::fs::read_to_string("/proc/self/status").ok().and_then(|s| {
        let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
        line.split_whitespace().nth(1)?.parse::<f64>().ok()
    });
    match kb {
        Some(kb) => kb / 1024.0,
        None => {
            warn_unavailable("/proc/self/status VmHWM");
            0.0
        }
    }
}

/// Seconds this process has spent on a CPU (`/proc/self/schedstat`), `0.0`
/// with a warning where `/proc` is absent.
pub fn cpu_s() -> f64 {
    let ns = std::fs::read_to_string("/proc/self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok());
    match ns {
        Some(ns) => ns / 1e9,
        None => {
            warn_unavailable("/proc/self/schedstat");
            0.0
        }
    }
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(0, |n| n.get())
}

/// `rustc --version` of the toolchain on the path, or `"unknown"`.
pub fn toolchain() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// Steps of the calibration loop per sample.
const CALIBRATION_STEPS: u32 = 600_000;

/// The reference speed host times are scaled to: one step of the
/// calibration loop in 1.5 ns, about what the sandbox does when nothing
/// else competes for the core.
const REFERENCE_STEP_NS: f64 = 1.5;

/// Seconds a fixed chain of dependent integer operations takes right now:
/// the fastest of three samples, since interference only ever adds time.
/// It touches no memory and none of the repository's code, so it moves
/// with the core's effective clock and with nothing else.
fn calibration_s() -> f64 {
    (0..3)
        .map(|_| {
            let t = std::time::Instant::now();
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            for _ in 0..CALIBRATION_STEPS {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                x ^= x >> 29;
            }
            std::hint::black_box(x);
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Host time of one section: as the wall clock gave it, and scaled to the
/// reference speed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timing {
    pub raw_s: f64,
    pub scaled_s: f64,
}

impl std::ops::AddAssign for Timing {
    fn add_assign(&mut self, rhs: Timing) {
        self.raw_s += rhs.raw_s;
        self.scaled_s += rhs.scaled_s;
    }
}

/// A stopwatch that corrects for the speed of the machine.
///
/// The sandbox's effective clock drifts by a fifth over seconds to
/// minutes (a pure integer loop shows the same drift), which would swamp
/// any change of a few percent in the code under test. The stopwatch
/// runs the calibration loop before and after every section it times —
/// sections are kept to about a tenth of a second — and scales the
/// section's wall time by reference speed over measured speed. A change
/// in the code under test moves a section's time and leaves the
/// calibration alone, so it shows in full.
pub struct SpeedClock {
    /// The most recent calibration sample, seconds.
    last: f64,
}

impl SpeedClock {
    pub fn start() -> SpeedClock {
        SpeedClock { last: calibration_s() }
    }

    /// Runs and times `section`.
    pub fn time<T>(&mut self, section: impl FnOnce() -> T) -> (T, Timing) {
        let before = self.last;
        let t = std::time::Instant::now();
        let out = section();
        let raw_s = t.elapsed().as_secs_f64();
        self.last = calibration_s();
        let step_ns = (before + self.last) / 2.0 * 1e9 / f64::from(CALIBRATION_STEPS);
        (out, Timing { raw_s, scaled_s: raw_s * REFERENCE_STEP_NS / step_ns })
    }
}
