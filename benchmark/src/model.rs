//! What one pass of a workload yields: the numbers on the simulated clock
//! ([`Modelled`]) and the host-clock measurements around them ([`Pass`]).

use crate::host::Timing;
use crate::stats;
use spider_sim::ObsReport;

/// Everything a pass measured on the simulated clock. Two passes from the
/// same seed must be equal field for field.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Modelled {
    pub digest: u64,
    pub attempted: u64,
    pub completed: u64,
    /// Ops completed inside the timed section (the divisor of
    /// `allocs_per_op`).
    pub timed_ops: u64,
    pub lost: u64,
    pub duplicated: u64,
    pub diverged: u64,
    /// Replicas behind the last sequence number when the pass stopped.
    pub lagging: u64,
    pub goodput: f64,
    pub latency: stats::Latency,
    pub stall_ms: f64,
    pub recovery_ms: f64,
    pub final_view: u64,
    pub events: u64,
    pub timed_events: u64,
    /// Simulated seconds the timed section covers.
    pub timed_sim_s: f64,
    pub msgs: u64,
    pub dropped_msgs: u64,
    pub wan_bytes: u64,
    pub lan_bytes: u64,
    /// Modelled busy nanoseconds of agreement / execution / client nodes.
    pub busy_ns: [u64; 3],
    pub agreement_util_max: f64,
    /// Simulated time at which the pass stopped.
    pub end_ms: f64,
    /// p50 / p99 by op kind (write, strong read, weak read); 0 if too few.
    pub kind_p50_ms: [f64; 3],
    pub kind_p99_ms: [f64; 3],
    /// Write p50 by client region, `REGIONS4` order.
    pub region_p50_ms: [f64; 4],
    /// Commit-channel workload only: modelled CPU per delivered slot.
    pub sender_cpu_us_per_slot: f64,
    pub receiver_cpu_us_per_slot: f64,
}

impl Modelled {
    /// Ops that failed: not completed by the deadline, lost or applied
    /// twice; a diverged replica fails the whole run.
    pub fn failed(&self) -> u64 {
        if self.diverged > 0 {
            return self.attempted;
        }
        (self.attempted - self.completed + self.lost + self.duplicated).min(self.attempted)
    }
}

/// One complete simulation of a workload.
pub struct Pass {
    pub modelled: Modelled,
    /// Host time of the set-up and of the timed section, wall clock and
    /// speed-corrected (see [`crate::host::SpeedClock`]).
    pub setup: Timing,
    pub wall: Timing,
    /// Heap allocations / bytes during the timed section.
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub obs: Option<ObsReport>,
}
