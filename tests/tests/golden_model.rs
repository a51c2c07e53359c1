//! Golden digests of the modelled plane: small-scale runs of every
//! measurement mechanism, pinned to the numbers they produced at the
//! commit that introduced this file.
//!
//! `determinism.rs` compares a run with itself, so a refactor that
//! shifts every number still passes it. These digests do not move
//! unless simulated behaviour moves: a change that is meant to be
//! behaviour-preserving must leave them alone, and a change that is
//! meant to move the model updates them in the same commit as the
//! regenerated `BENCH_*` artifacts.

use spider::execution::ExecutionReplica;
use spider::{SpiderConfig, WorkloadSpec};
use spider_app::{kv_op_factory, KvStore};
use spider_baselines::{BftDeployment, BftReplica, StewardDeployment, StewardReplica};
use spider_harness::experiments::{commit_channel, disaster, fig11, fig9bcd};
use spider_harness::scenarios::{run_scenario, run_scenario_obs, ScenarioCfg, SystemKind};
use spider_harness::{ec2_topology, REGIONS4};
use spider_irmc::{ChannelMode, Variant};
use spider_sim::{FaultPlan, Simulation};
use spider_tests::{digest, standard_deployment};
use spider_types::{NodeId, SimTime};

fn small() -> ScenarioCfg {
    ScenarioCfg {
        clients_per_region: 2,
        rate_per_client: 3.0,
        duration: SimTime::from_secs(5),
        warmup: SimTime::from_secs(1),
        ..ScenarioCfg::default()
    }
}

#[track_caller]
fn pin(what: &str, rendered: String, expected: u64) {
    let got = digest(&rendered);
    assert_eq!(got, expected, "{what} moved: digest {got:#018x}, rendered:\n{rendered}");
}

#[test]
fn scenario_sample_traces() {
    for (kind, expected) in [
        (SystemKind::Spider { leader_zone: 0 }, 0x29c3_22a0_c2ef_fe88),
        (SystemKind::Bft { leader: 0 }, 0xe160_7028_388b_1a78),
        (SystemKind::Hft { leader_site: 0 }, 0xafcf_d915_a1d4_a33f),
        (SystemKind::Spider0E, 0x134f_6c88_2796_9a8f),
    ] {
        pin(&kind.to_string(), format!("{:?}", run_scenario(kind, &small())), expected);
    }
}

#[test]
fn fig9bcd_points() {
    let cfg = fig9bcd::Config { duration: SimTime::from_secs(1), ..fig9bcd::Config::default() };
    for (variant, expected) in [
        (Variant::ReceiverCollect, 0x630b_f214_5132_003a),
        (Variant::SenderCollect, 0xa125_1520_92f4_c4d7),
    ] {
        pin(
            &variant.to_string(),
            format!("{:?}", fig9bcd::run_point(variant, 1024, &cfg)),
            expected,
        );
    }
}

#[test]
fn commit_channel_flood_and_paced() {
    let cfg = commit_channel::Config { duration: SimTime::from_secs(1), ..Default::default() };
    let flood = commit_channel::run_flood(ChannelMode::ReliableCast { dedup: true }, 32, &cfg);
    pin("dedup flood, range 32", format!("{flood:?}"), 0xb1c9_893d_0fd6_16b8);
    let paced = commit_channel::run_paced(ChannelMode::SenderCast { overlap: true }, 64, &cfg);
    pin("overlapped SC paced, range 64", format!("{paced:?}"), 0x9971_1ec6_f4c9_0cb6);
    let flood = commit_channel::run_flood(ChannelMode::ReliableCast { dedup: false }, 8, &cfg);
    pin("legacy RC flood, range 8", format!("{flood:?}"), 0x3184_6b7a_ead4_ec95);
    let paced = commit_channel::run_paced(ChannelMode::SenderCast { overlap: false }, 32, &cfg);
    pin("ship-after-bundle SC paced, range 32", format!("{paced:?}"), 0x3433_56a9_007d_1668);
}

/// System-wide IRMC-SC (request and commit channels) is otherwise only
/// exercised by `crates/core/tests/failover.rs`.
#[test]
fn spider_over_sender_collect_channels() {
    let mut cfg = small();
    cfg.spider = SpiderConfig::default().with_variant(Variant::SenderCollect);
    let kind = SystemKind::Spider { leader_zone: 0 };
    pin("Spider over IRMC-SC", format!("{:?}", run_scenario(kind, &cfg)), 0x3f53_32ac_f700_e029);
}

#[test]
fn wan_partition_row() {
    let cfg = disaster::Config {
        warmup: SimTime::from_secs(1),
        fault_at: SimTime::from_secs(3),
        heal_at: SimTime::from_secs(6),
        duration: SimTime::from_secs(10),
        ..disaster::Config::default()
    };
    pin("wan-partition", row(disaster::run_wan_partition(&cfg)), 0x1a20_9487_7f48_5650);
}

/// A disaster row as these pins hash it: without `lost_votes`, which
/// joined the row after them and must be 0.
fn row(row: disaster::DisasterRow) -> String {
    assert_eq!(row.lost_votes, 0, "{row:?}");
    format!("{row:?}").replace(", lost_votes: 0 }", " }")
}

/// The fault paths no other digest covers: PBFT's `ViewChanged` and
/// `Skipped` with the agreement checkpoint fetch they start (the storm),
/// and an execution group's `TooOld` → fetch → snapshot restore (the
/// outage).
#[test]
fn disaster_fault_path_rows() {
    let cfg = disaster::Config::quick();
    let storm = disaster::run_view_change_storm(&cfg);
    pin("view-change storm", row(storm), 0x8e2b_38bb_4969_4f4a);
    let outage = disaster::run_correlated_outage(&cfg);
    pin("correlated outage", row(outage), 0xff35_72ca_581b_48f6);
}

#[test]
fn fig11_f2_rows() {
    let scenario = ScenarioCfg { clients_per_region: 1, ..small() };
    pin("fig11", format!("{:?}", fig11::run(&scenario)), 0x8c83_54da_28c9_f42f);
}

/// BFT-WV (`BftDeployment::build_weighted`) is the one PBFT host no other
/// digest here covers; only the fig 10 CSV does.
#[test]
fn bft_weighted_voting_run() {
    let mut sim = Simulation::new(ec2_topology(), 17);
    let regions = ["virginia", "oregon", "ireland", "tokyo", "saopaulo"];
    let mut dep = BftDeployment::build_weighted(
        &mut sim,
        SpiderConfig::default(),
        &regions,
        1,
        &[0, 1],
        KvStore::new,
    );
    for region in regions {
        let workload = WorkloadSpec::writes_per_sec(4.0, 200).with_max_ops(8);
        dep.spawn_clients(&mut sim, region, 1, workload.with_op_factory(kv_op_factory(100)));
    }
    sim.run_until_quiescent(SimTime::from_secs(60));
    let rendered = format!("{:?}\n{:?}", dep.collect_samples(&sim), sim.stats());
    pin("BFT-WV", rendered, 0x7bbb_ab15_9d21_5042);
}

/// Writes, strong reads and weak reads from one client per region.
fn baseline_mix() -> WorkloadSpec {
    WorkloadSpec {
        write_fraction: 0.4,
        strong_read_fraction: 0.3,
        ..WorkloadSpec::writes_per_sec(4.0, 200).with_max_ops(12)
    }
    .with_op_factory(kv_op_factory(20))
}

/// Writes from a client that is cut off while its first write's replies
/// are on their way: its retransmission is answered from the replicas'
/// reply cache.
fn resending_client() -> WorkloadSpec {
    WorkloadSpec::writes_per_sec(2.0, 200)
        .with_max_ops(3)
        .with_start_delay(SimTime::from_millis(500))
        .with_op_factory(kv_op_factory(20))
}

fn cut_off_across_a_reply(sim: &mut Simulation<spider_baselines::BaseMsg>, client: NodeId) {
    let plan = FaultPlan::new().isolate_replica(
        client,
        SimTime::from_millis(530),
        SimTime::from_millis(1_500),
    );
    sim.install_fault_plan(plan);
}

/// The BFT replica's client-facing paths the other digests miss (they run
/// writes only): strong and weak reads answered from committed state,
/// and a retransmitted write answered from the reply cache.
#[test]
fn bft_reads_and_a_resend_run() {
    let mut sim = Simulation::new(ec2_topology(), 29);
    let mut dep = BftDeployment::build(&mut sim, SpiderConfig::default(), &REGIONS4, KvStore::new);
    for region in REGIONS4 {
        dep.spawn_clients(&mut sim, region, 1, baseline_mix());
    }
    let resender = dep.spawn_clients(&mut sim, "tokyo", 1, resending_client());
    cut_off_across_a_reply(&mut sim, resender[0]);
    sim.run_until_quiescent(SimTime::from_secs(60));

    let mut rendered = format!("{:?}\n{:?}\n", dep.collect_samples(&sim), sim.stats());
    for node in &dep.replicas {
        let replica = sim.actor::<BftReplica<KvStore>>(*node);
        rendered.push_str(&format!("{node:?} {:?} {:?}\n", replica.view(), replica.app_digest()));
    }
    pin("BFT reads and resend", rendered, 0x6fe0_b435_4449_17a8);
}

/// The HFT counterpart: strong reads ordered through the hierarchy, weak
/// reads answered by the client's own site, and a retransmitted write
/// answered from the reply cache.
#[test]
fn hft_reads_and_a_resend_run() {
    let mut sim = Simulation::new(ec2_topology(), 31);
    let mut dep =
        StewardDeployment::build(&mut sim, SpiderConfig::default(), &REGIONS4, 0, KvStore::new);
    for (site, region) in REGIONS4.iter().enumerate() {
        dep.spawn_clients(&mut sim, site as u16, region, 1, baseline_mix());
    }
    let resender = dep.spawn_clients(&mut sim, 3, "tokyo", 1, resending_client());
    cut_off_across_a_reply(&mut sim, resender[0]);
    sim.run_until_quiescent(SimTime::from_secs(60));

    let mut rendered = format!("{:?}\n{:?}\n", dep.collect_samples(&sim), sim.stats());
    for node in dep.sites.iter().flatten() {
        let replica = sim.actor::<StewardReplica<KvStore>>(*node);
        rendered.push_str(&format!("{node:?} {:?}\n", replica.app_digest()));
    }
    pin("HFT reads and resend", rendered, 0x290a_e95e_6f66_7a43);
}

/// A group added at runtime: the agreement replicas replay `hist` into
/// its commit channel, its replicas fan a `FetchRequest` out to the
/// other groups and install a foreign snapshot (§3.5, §3.6).
#[test]
fn runtime_add_group_run() {
    let cfg =
        SpiderConfig { ke: 8, ka: 8, ag_win: 16, commit_capacity: 16, ..SpiderConfig::default() };
    let (mut sim, mut dep) = standard_deployment(22, cfg);
    let workload = WorkloadSpec::writes_per_sec(10.0, 200).with_max_ops(40);
    dep.spawn_clients(&mut sim, 1, 2, workload.with_op_factory(kv_op_factory(100)));
    dep.add_execution_group(&mut sim, "saopaulo", SimTime::from_secs(3));
    sim.run_until_quiescent(SimTime::from_secs(120));

    let mut rendered = format!("{:?}\n{:?}\n", dep.collect_samples(&sim), sim.stats());
    for (group, _, nodes) in &dep.groups {
        for node in nodes {
            let seq = sim.actor::<ExecutionReplica<KvStore>>(*node).sequence();
            rendered.push_str(&format!("{group:?} {node:?} {seq:?}\n"));
        }
    }
    for node in &dep.agreement {
        let seq = sim.actor::<spider::agreement::AgreementReplica>(*node).sequence();
        rendered.push_str(&format!("agreement {node:?} {seq:?}\n"));
    }
    pin("runtime AddGroup", rendered, 0xe88d_bde6_cb91_7021);
}

/// The recorder's whole report of a traced Spider run — spans, edges,
/// `cpu_by_op`, health marks. `determinism.rs` only compares such a run
/// with itself.
#[test]
fn traced_spider_obs_report() {
    let (_, obs) = run_scenario_obs(SystemKind::Spider { leader_zone: 0 }, &small());
    let rendered = spider_obs::export::digest_render(&obs);
    assert!(rendered.contains("span ") && rendered.contains("edge ") && rendered.contains("cpu "));
    let got = digest(&rendered);
    // The render runs to megabytes: report the digest, not the text.
    assert_eq!(got, 0xe802_a528_224c_2673, "traced Spider ObsReport moved: digest {got:#018x}");
}

/// The storm again, at the level of every sample, the simulator's
/// counters and where each agreement replica ended: the rows above
/// summarise, and moving a `Skipped` reaction past PBFT's closing charge
/// left them equal while it moved this.
#[test]
fn view_change_storm_trace() {
    let cfg = SpiderConfig {
        ke: 8,
        ka: 8,
        ag_win: 16,
        commit_capacity: 16,
        view_change_timeout: SimTime::from_millis(400),
        ..SpiderConfig::default()
    };
    let (mut sim, mut dep) = standard_deployment(42, cfg);
    let workload = WorkloadSpec::writes_per_sec(3.0, 64).with_max_ops(60);
    for group in 0..4 {
        dep.spawn_clients(&mut sim, group, 2, workload.clone().with_op_factory(kv_op_factory(500)));
    }
    let mut plan = FaultPlan::new();
    for act in 0..4u64 {
        let from = SimTime::from_millis(6_000 + 1_500 * act);
        let leader = dep.agreement[act as usize % dep.agreement.len()];
        plan = plan.isolate_replica(leader, from, from + SimTime::from_millis(900));
    }
    sim.install_fault_plan(plan);
    sim.run_until_quiescent(SimTime::from_secs(90));

    let mut rendered = format!("{:?}\n{:?}\n", dep.collect_samples(&sim), sim.stats());
    for node in &dep.agreement {
        let replica = sim.actor::<spider::agreement::AgreementReplica>(*node);
        rendered.push_str(&format!("{node:?} {:?} {:?}\n", replica.view(), replica.sequence()));
    }
    pin("view-change storm trace", rendered, 0x68b7_86d2_26bb_42a6);
}
