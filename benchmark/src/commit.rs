//! The `commit_channel` workload: `irmc` + `crypto` alone, no `consensus`
//! and no `core`. Four agreement-side senders flood one IRMC subchannel to
//! three execution-side receivers (Virginia → Tokyo) with ranges of
//! `range` slots; a paced pass at the same mode and range measures
//! submit→deliver latency.
//!
//! The harness API returns aggregate rows, not per-slot records, so this
//! workload has no per-op oracle: a pass fails as a whole if either the
//! flood or the paced run delivers nothing or returns a non-finite number.

use crate::host::{self, SpeedClock};
use crate::model::{Modelled, Pass};
use crate::spans::Spans;
use crate::stats::{Fnv, Latency, MIN_BEYOND};
use spider_harness::experiments::commit_channel::{self, CommitRow, Config};
use spider_irmc::ChannelMode;
use spider_types::SimTime;

/// Senders / receivers of the benchmark channel (`fa = fe = 1`).
const N_RECEIVERS: f64 = 3.0;

/// The commit mode Spider deploys by default.
pub const MODE: ChannelMode = ChannelMode::ReliableCast { dedup: true };

#[derive(Debug, Clone)]
pub struct CommitSpec {
    pub range: usize,
    pub msg_size: usize,
    /// Simulated length of the flood and of the paced pass.
    pub duration: SimTime,
    /// Simulated length of the untimed set-up flood.
    pub warmup: SimTime,
}

impl CommitSpec {
    pub fn config(&self, duration: SimTime, seed: u64) -> Config {
        Config { msg_size: self.msg_size, duration, seed, ..Config::default() }
    }
}

/// Slots one receiver had delivered when the run ended.
pub fn slots(row: &CommitRow, duration: SimTime) -> u64 {
    let n = row.slots_per_sec * duration.as_secs_f64();
    if n.is_finite() {
        n.round() as u64
    } else {
        0
    }
}

pub fn run_pass(spec: &CommitSpec, seed: u64, traced: bool, spans: &mut Spans) -> Pass {
    let mut clock = SpeedClock::start();
    let s = spans.enter("setup");
    let warm_cfg = spec.config(spec.warmup, seed);
    let (warm, setup) = clock.time(|| commit_channel::run_flood(MODE, spec.range, &warm_cfg));
    spans.exit_counted(s, slots(&warm, spec.warmup));

    let cfg = spec.config(spec.duration, seed);
    let (a0, b0) = host::alloc_counts();
    let s_timed = spans.enter("timed");
    let s = spans.enter("irmc.run_flood");
    let ((flood, obs), mut wall) = clock.time(|| {
        if traced {
            let (row, obs) = commit_channel::run_flood_traced(MODE, spec.range, &cfg);
            (row, Some(obs))
        } else {
            (commit_channel::run_flood(MODE, spec.range, &cfg), None)
        }
    });
    let delivered = slots(&flood, spec.duration);
    spans.exit_counted(s, delivered);
    let s = spans.enter("irmc.run_paced");
    let (paced, paced_time) = clock.time(|| commit_channel::run_paced(MODE, spec.range, &cfg));
    wall += paced_time;
    let paced_samples = (slots(&paced, spec.duration) as f64 * N_RECEIVERS).round() as u64;
    spans.exit_counted(s, paced_samples);
    spans.exit_counted(s_timed, delivered);
    let (a1, b1) = host::alloc_counts();

    let s = spans.enter("collect");
    let numbers = [
        flood.slots_per_sec,
        flood.sender_cpu,
        flood.receiver_cpu,
        paced.slots_per_sec,
        paced.commit_p50_ms,
        paced.commit_p99_ms,
    ];
    let sound = numbers.iter().all(|v| v.is_finite()) && delivered > 0 && paced_samples > 0;
    let mut digest = Fnv::new();
    for v in numbers {
        digest.u64(v.to_bits());
    }
    let modelled = Modelled {
        digest: digest.finish(),
        attempted: delivered.max(1),
        completed: if sound { delivered } else { 0 },
        timed_ops: delivered,
        timed_sim_s: spec.duration.as_secs_f64(),
        goodput: flood.slots_per_sec,
        latency: Latency {
            count: paced_samples,
            p50_ms: paced.commit_p50_ms,
            // The harness computes the percentile itself; report it only
            // with the ten samples beyond it that this benchmark requires.
            p99_ms: if paced_samples as usize >= 100 * MIN_BEYOND {
                paced.commit_p99_ms
            } else {
                0.0
            },
        },
        end_ms: spec.duration.as_millis_f64(),
        sender_cpu_us_per_slot: flood.sender_cpu / flood.slots_per_sec * 1e6,
        receiver_cpu_us_per_slot: flood.receiver_cpu / flood.slots_per_sec * 1e6,
        ..Modelled::default()
    };
    spans.exit(s);
    Pass { modelled, setup, wall, allocs: a1 - a0, alloc_bytes: b1 - b0, obs }
}
