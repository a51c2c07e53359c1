//! The metric tables: every name the benchmark prints, with its unit, its
//! direction and the clock it was measured on. `BENCHMARK.json` lists the
//! same names (a test checks that), and `benchmark/README.md` defines them.

/// The clock a number was measured on. *Modelled* numbers are simulated
/// time and counters under `CostModel::default()` and repeat exactly for a
/// seed; *host* numbers are this process on this machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    Host,
    Modelled,
}

impl Clock {
    pub fn as_str(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Modelled => "modelled",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub clock: Clock,
}

const fn m(name: &'static str, unit: &'static str, better: Better, clock: Clock) -> Metric {
    Metric { name, unit, better, clock }
}

use Better::{Higher, Lower};
use Clock::{Host, Modelled};

/// End-to-end metrics, reported by every workload with `--trace 0`. Their
/// bounds live in `BENCHMARK.json`.
pub const END_TO_END: [Metric; 7] = [
    m("setup_s", "s", Lower, Host),
    m("wall_s", "s", Lower, Host),
    m("allocs_per_op", "count", Lower, Host),
    m("peak_rss_mb", "MiB", Lower, Host),
    m("goodput_ops_per_sim_s", "1/s", Higher, Modelled),
    m("op_p50_ms", "ms", Lower, Modelled),
    m("op_p99_ms", "ms", Lower, Modelled),
];

/// Per-layer metrics, reported by every workload with `--trace 1`; the
/// prefix is the layer (a crate of the workspace, or `bench` for the
/// benchmark's own self-check). A metric that does not apply to a
/// workload reads `0`.
pub const PER_LAYER: [Metric; 89] = [
    // crypto: direct drives, host clock.
    m("crypto.sha256_mb_per_s", "MB/s", Higher, Host),
    m("crypto.sha256_64b_ns", "ns", Lower, Host),
    m("crypto.hmac_64b_ns", "ns", Lower, Host),
    m("crypto.merkle_root32_ns", "ns", Lower, Host),
    m("crypto.sign_ns", "ns", Lower, Host),
    m("crypto.verify_ns", "ns", Lower, Host),
    m("crypto.model_ratio_hash", "ratio", Lower, Host),
    m("crypto.model_ratio_hmac", "ratio", Lower, Host),
    // sim
    m("sim.events_per_op", "count", Lower, Modelled),
    m("sim.msgs_per_op", "count", Lower, Modelled),
    m("sim.dropped_msgs", "count", Lower, Modelled),
    m("sim.host_ns_per_event", "ns", Lower, Host),
    m("sim.sim_s_per_host_s", "ratio", Higher, Host),
    m("sim.empty_event_ns", "ns", Lower, Host),
    // irmc
    m("irmc.flood_slots_per_sim_s.dedup_r32", "1/s", Higher, Modelled),
    m("irmc.flood_slots_per_sim_s.rc_r32", "1/s", Higher, Modelled),
    m("irmc.flood_slots_per_sim_s.sc_r32", "1/s", Higher, Modelled),
    m("irmc.flood_slots_per_sim_s.dedup_r1", "1/s", Higher, Modelled),
    m("irmc.sender_cpu_us_per_slot", "us", Lower, Modelled),
    m("irmc.receiver_cpu_us_per_slot", "us", Lower, Modelled),
    m("irmc.host_ns_per_slot.dedup_r32", "ns", Lower, Host),
    m("irmc.host_ns_per_slot.rc_r32", "ns", Lower, Host),
    m("irmc.host_ns_per_slot.sc_r32", "ns", Lower, Host),
    m("irmc.paced_p50_ms.dedup", "ms", Lower, Modelled),
    m("irmc.paced_p50_ms.sc_overlap", "ms", Lower, Modelled),
    m("irmc.paced_p50_ms.sc_bundle", "ms", Lower, Modelled),
    m("irmc.cpu_share.range_sign", "share", Lower, Modelled),
    m("irmc.cpu_share.range_hash", "share", Lower, Modelled),
    m("irmc.tail_cast_wire_share", "share", Lower, Modelled),
    m("irmc.wan_bytes_per_msg.rc_1k", "B", Lower, Modelled),
    m("irmc.wan_bytes_per_msg.sc_1k", "B", Lower, Modelled),
    // consensus
    m("consensus.host_ns_per_req.b1", "ns", Lower, Host),
    m("consensus.host_ns_per_req.b64", "ns", Lower, Host),
    m("consensus.msgs_per_req.b64", "count", Lower, Host),
    m("consensus.allocs_per_req.b64", "count", Lower, Host),
    m("consensus.propose_commit_p50_ms", "ms", Lower, Modelled),
    m("consensus.propose_commit_p99_ms", "ms", Lower, Modelled),
    m("consensus.propose_commit_samples", "count", Higher, Modelled),
    m("consensus.final_view", "count", Lower, Modelled),
    // core
    m("core.phase_p50_ms.client_propose", "ms", Lower, Modelled),
    m("core.phase_p50_ms.propose_commit", "ms", Lower, Modelled),
    m("core.phase_p50_ms.commit_deliver", "ms", Lower, Modelled),
    m("core.phase_p50_ms.deliver_reply", "ms", Lower, Modelled),
    m("core.write_p50_ms", "ms", Lower, Modelled),
    m("core.write_p99_ms", "ms", Lower, Modelled),
    m("core.strong_read_p50_ms", "ms", Lower, Modelled),
    m("core.strong_read_p99_ms", "ms", Lower, Modelled),
    m("core.weak_read_p50_ms", "ms", Lower, Modelled),
    m("core.weak_read_p99_ms", "ms", Lower, Modelled),
    m("core.region_p50_ms.virginia", "ms", Lower, Modelled),
    m("core.region_p50_ms.oregon", "ms", Lower, Modelled),
    m("core.region_p50_ms.ireland", "ms", Lower, Modelled),
    m("core.region_p50_ms.tokyo", "ms", Lower, Modelled),
    m("core.agreement_cpu_us_per_op", "us", Lower, Modelled),
    m("core.execution_cpu_us_per_op", "us", Lower, Modelled),
    m("core.client_cpu_us_per_op", "us", Lower, Modelled),
    m("core.agreement_util_max", "share", Lower, Modelled),
    m("core.wan_bytes_per_op", "B", Lower, Modelled),
    m("core.lan_bytes_per_op", "B", Lower, Modelled),
    m("core.stall_ms", "ms", Lower, Modelled),
    m("core.recovery_ms", "ms", Lower, Modelled),
    m("core.lost_ops", "count", Lower, Modelled),
    m("core.dup_ops", "count", Lower, Modelled),
    m("core.diverged_replicas", "count", Lower, Modelled),
    m("core.lagging_replicas", "count", Lower, Modelled),
    m("core.ladder_p99_ms.r4", "ms", Lower, Modelled),
    m("core.ladder_p99_ms.r8", "ms", Lower, Modelled),
    m("core.ladder_p99_ms.r16", "ms", Lower, Modelled),
    m("core.ladder_goodput.r4", "1/s", Higher, Modelled),
    m("core.ladder_goodput.r8", "1/s", Higher, Modelled),
    m("core.ladder_goodput.r16", "1/s", Higher, Modelled),
    m("core.max_rate_under_500ms", "1/s", Higher, Modelled),
    // obs
    m("obs.trace_overhead_ratio", "ratio", Lower, Host),
    m("obs.spans_per_op", "count", Lower, Modelled),
    m("obs.spans_dropped", "count", Lower, Modelled),
    m("obs.edges_dropped", "count", Lower, Modelled),
    m("obs.report_ms", "ms", Lower, Host),
    m("obs.assemble_ms", "ms", Lower, Host),
    m("obs.record_ns", "ns", Lower, Host),
    m("obs.record_off_ns", "ns", Lower, Host),
    m("obs.stalls_unexplained", "count", Lower, Modelled),
    // bench: spread and self-check of the benchmark itself.
    m("bench.wall_min_s", "s", Lower, Host),
    m("bench.wall_max_s", "s", Lower, Host),
    m("bench.traced_wall_s", "s", Lower, Host),
    m("bench.cpu_s", "s", Lower, Host),
    m("bench.alloc_bytes_per_op", "B", Lower, Host),
    m("bench.repeats", "count", Higher, Host),
    m("bench.samples", "count", Higher, Modelled),
    m("bench.span_count", "count", Lower, Host),
];

/// A name → value ledger over one of the tables above: it starts at zero
/// for every metric of the table and refuses names the table lacks.
pub struct Ledger {
    table: &'static [Metric],
    values: Vec<f64>,
}

impl Ledger {
    pub fn new(table: &'static [Metric]) -> Ledger {
        Ledger { table, values: vec![0.0; table.len()] }
    }

    /// # Panics
    ///
    /// Panics on a name that is not in the table — a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .table
            .iter()
            .position(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the table"));
        self.values[i] = value;
    }

    pub fn rows(&self) -> impl Iterator<Item = (&'static Metric, f64)> + '_ {
        self.table.iter().zip(self.values.iter().copied())
    }
}
