//! The five workloads and their parameters.
//!
//! Sizes were probed on the 2-core sandbox so that one pass (set-up plus
//! timed section) takes two to three seconds of host time: a 10-second run
//! then fits at least three passes, which is what the median needs. All
//! gated workloads sit well below saturation — see `benchmark/README.md`
//! for why, and for the numbers behind these choices.

use crate::commit::{self, CommitSpec};
use crate::geo::{self, Fault, GeoSpec, Ladder};
use crate::model::Pass;
use crate::spans::Spans;
use spider_types::SimTime;

pub enum Spec {
    Geo(GeoSpec),
    Commit(CommitSpec),
}

pub struct Workload {
    pub name: &'static str,
    /// One line on why the workload exists (the `why` of BENCHMARK.json).
    pub why: &'static str,
    pub spec: Spec,
}

impl Workload {
    pub fn run_pass(&self, seed: u64, traced: bool, spans: &mut Spans) -> Pass {
        match &self.spec {
            Spec::Geo(spec) => geo::run_pass(spec, seed, traced, spans),
            Spec::Commit(spec) => commit::run_pass(spec, seed, traced, spans),
        }
    }

    pub fn geo(&self) -> Option<&GeoSpec> {
        match &self.spec {
            Spec::Geo(spec) => Some(spec),
            Spec::Commit(_) => None,
        }
    }
}

/// The gated workloads: the ones `BENCHMARK.json` lists.
pub const NAMES: [&str; 5] =
    ["geo_writes", "geo_reads", "commit_channel", "wan_degrade", "backup_outage"];

/// Runnable by name but not listed in `BENCHMARK.json`: on a few percent
/// of the seeds ops fail on them (see `benchmark/README.md`, "Ungated").
pub const UNGATED: [&str; 2] = ["wan_partition", "leader_storm"];

const fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

/// Full Spider, healthy network, 200-byte operations as in the paper.
/// Goodput is counted until the first clients can run out of budget.
fn healthy(rate: f64, write: f64, strong: f64, budget: u64, goodput_end: SimTime) -> GeoSpec {
    GeoSpec {
        clients_per_region: 20,
        rate,
        write_fraction: write,
        strong_read_fraction: strong,
        payload: 200,
        budget,
        warmup: secs(2),
        goodput_end,
        deadline: secs(120),
        tight_windows: false,
        fault: Fault::None,
        ladder: None,
    }
}

/// The disaster suite's load (3 writes/s per client, 64 bytes) with a
/// fault over `[6 s, 14 s)`; goodput covers four seconds before it, the
/// fault, and four seconds of recovery.
fn faulted(clients_per_region: usize, budget: u64, tight_windows: bool, fault: Fault) -> GeoSpec {
    GeoSpec {
        clients_per_region,
        rate: 3.0,
        write_fraction: 1.0,
        strong_read_fraction: 0.0,
        payload: 64,
        budget,
        warmup: secs(2),
        goodput_end: secs(18),
        deadline: secs(120),
        tight_windows,
        fault,
        ladder: None,
    }
}

pub fn by_name(name: &str) -> Option<Workload> {
    let name = NAMES.iter().chain(&UNGATED).copied().find(|n| *n == name)?;
    let (why, spec) = match name {
        "geo_writes" => (
            "100% writes through every layer (request channel, PBFT, commit channel, execution): \
             the paper's Fig 7 path below saturation",
            Spec::Geo(GeoSpec {
                ladder: Some(Ladder { clients_per_region: 25, measured: secs(4) }),
                ..healthy(3.0, 1.0, 0.0, 36, secs(9))
            }),
        ),
        "geo_reads" => (
            "80% weak reads answered by the local execution group: same code, but most ops \
             bypass consensus and the commit channel (Fig 8)",
            Spec::Geo(healthy(8.0, 0.1, 0.1, 100, secs(10))),
        ),
        "commit_channel" => (
            "irmc + crypto alone (dedup reliable-cast flood and paced latency, range 32, \
             Virginia->Tokyo): bypasses consensus and core",
            Spec::Commit(CommitSpec {
                range: 32,
                msg_size: 512,
                duration: secs(1),
                warmup: SimTime::from_millis(100),
            }),
        ),
        "wan_degrade" => (
            "Virginia-Tokyo links drop 2% of messages and add 100 ms for 8 s: every lost message \
             must be recovered (retransmit, recast, refetch) over a slow WAN, without a cut",
            Spec::Geo(faulted(
                12,
                50,
                false,
                Fault::WanDegrade {
                    from: secs(6),
                    until: secs(14),
                    drop_rate: 0.02,
                    extra_delay: SimTime::from_millis(100),
                },
            )),
        ),
        "backup_outage" => (
            "one replica of every group (agreement and execution) cut off for 8 s: quorums of \
             exactly 2f+1 / f+1, no view change, checkpoint catch-up after the rejoin",
            Spec::Geo(faulted(
                12,
                50,
                false,
                Fault::BackupOutage { from: secs(6), until: secs(14) },
            )),
        ),
        // 12 clients per region and 36 ops each: the 24 ops that Oregon and
        // Tokyo clients had in flight wait out the whole partition, and with
        // about 1 600 samples the 99th percentile falls inside that cohort
        // (seven from its lower edge) instead of on its boundary.
        "wan_partition" => (
            "ungated: agreement side cut from Oregon+Tokyo for 8 s at z=0: windows fill, \
             back-pressure stalls every client, recast and backlog drain after the heal",
            Spec::Geo(faulted(
                12,
                36,
                false,
                Fault::WanPartition { from: secs(6), until: secs(14) },
            )),
        ),
        "leader_storm" => (
            "ungated: three leader isolations 1.5 s apart under the disaster suite's tight \
             windows; the only workload that runs view changes",
            Spec::Geo(faulted(
                4,
                72,
                true,
                Fault::LeaderStorm {
                    from: secs(6),
                    acts: 3,
                    gap: SimTime::from_millis(1_500),
                    hold: SimTime::from_millis(900),
                },
            )),
        ),
        _ => return None,
    };
    Some(Workload { name, why, spec })
}

/// A few-hundred-millisecond version of a workload for the tests: two
/// clients per region, eight ops each (a tenth of a second of flood).
#[cfg(test)]
pub fn smoke(name: &str) -> Workload {
    let mut w = by_name(name).expect("known workload");
    match &mut w.spec {
        Spec::Geo(spec) => {
            spec.clients_per_region = 2;
            spec.budget = 8;
            spec.warmup = SimTime::from_millis(500);
            spec.goodput_end = secs(2);
            spec.deadline = secs(40);
            spec.ladder = spec.ladder.map(|_| Ladder { clients_per_region: 2, measured: secs(1) });
            spec.fault = match spec.fault {
                Fault::None => Fault::None,
                Fault::WanPartition { .. } => Fault::WanPartition {
                    from: SimTime::from_millis(800),
                    until: SimTime::from_millis(2_300),
                },
                Fault::WanDegrade { drop_rate, extra_delay, .. } => Fault::WanDegrade {
                    from: SimTime::from_millis(800),
                    until: SimTime::from_millis(2_300),
                    drop_rate,
                    extra_delay,
                },
                Fault::BackupOutage { .. } => Fault::BackupOutage {
                    from: SimTime::from_millis(800),
                    until: SimTime::from_millis(2_300),
                },
                Fault::LeaderStorm { acts, gap, hold, .. } => {
                    Fault::LeaderStorm { from: SimTime::from_millis(800), acts, gap, hold }
                }
            };
        }
        Spec::Commit(spec) => {
            spec.duration = SimTime::from_millis(200);
            spec.warmup = SimTime::from_millis(100);
        }
    }
    w
}
