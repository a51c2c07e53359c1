//! End-to-end tests of the three baseline systems on a four-region
//! topology, checking both correctness (total order, convergence) and the
//! latency *shapes* the paper reports for them (§5).

use spider::{SpiderConfig, WorkloadSpec};
use spider_app::{kv_op_factory, KvStore};
use spider_baselines::{BftDeployment, StewardDeployment};
use spider_sim::{Simulation, Topology};
use spider_types::{OpKind, SimTime};

/// Virginia / Oregon / Ireland / Tokyo with EC2-like one-way latencies.
fn topo() -> Topology {
    Topology::builder()
        .region("virginia", 4)
        .region("oregon", 3)
        .region("ireland", 3)
        .region("tokyo", 3)
        .symmetric_latency("virginia", "oregon", SimTime::from_micros(31_000))
        .symmetric_latency("virginia", "ireland", SimTime::from_micros(38_000))
        .symmetric_latency("virginia", "tokyo", SimTime::from_micros(73_000))
        .symmetric_latency("oregon", "ireland", SimTime::from_micros(62_000))
        .symmetric_latency("oregon", "tokyo", SimTime::from_micros(49_000))
        .symmetric_latency("ireland", "tokyo", SimTime::from_micros(106_000))
        .build()
}

const REGIONS: [&str; 4] = ["virginia", "oregon", "ireland", "tokyo"];

fn median(lats: &mut [SimTime]) -> SimTime {
    assert!(!lats.is_empty());
    lats.sort();
    lats[lats.len() / 2]
}

#[test]
fn bft_orders_writes_across_regions() {
    let mut sim = Simulation::new(topo(), 1);
    let mut dep = BftDeployment::build(&mut sim, SpiderConfig::default(), &REGIONS, KvStore::new);
    for region in REGIONS {
        dep.spawn_clients(
            &mut sim,
            region,
            1,
            WorkloadSpec::writes_per_sec(5.0, 200)
                .with_max_ops(10)
                .with_op_factory(kv_op_factory(100)),
        );
    }
    sim.run_until_quiescent(SimTime::from_secs(60));
    let samples = dep.collect_samples(&sim);
    let total: usize = samples.iter().map(|(_, s)| s.len()).sum();
    assert_eq!(total, 40);

    // All replicas converged to the same store state.
    let digests: Vec<_> = dep
        .replicas
        .iter()
        .map(|n| sim.actor::<spider_baselines::BftReplica<KvStore>>(*n).app_digest())
        .collect();
    assert!(digests.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn bft_write_latency_tracks_leader_distance() {
    // Leader in Virginia: Virginia clients commit after one WAN round to
    // the quorum (~2 * 38ms); Tokyo clients add their RTT to the leader.
    let mut sim = Simulation::new(topo(), 2);
    let mut dep = BftDeployment::build(&mut sim, SpiderConfig::default(), &REGIONS, KvStore::new);
    let mut nodes = Vec::new();
    for region in REGIONS {
        nodes.push(dep.spawn_clients(
            &mut sim,
            region,
            1,
            WorkloadSpec::writes_per_sec(4.0, 200).with_max_ops(15),
        ));
    }
    sim.run_until_quiescent(SimTime::from_secs(60));
    let samples = dep.collect_samples(&sim);
    let lat = |i: usize| {
        let mut l: Vec<SimTime> = samples[i].1.iter().map(|s| s.latency()).collect();
        median(&mut l)
    };
    let (virginia, tokyo) = (lat(0), lat(3));
    // A client needs f+1 matching replies, so the response time is the
    // *second* fastest replica's commit plus the return leg — roughly two
    // WAN rounds with the leader co-located, clearly more when remote.
    assert!(
        virginia > SimTime::from_millis(60) && virginia < SimTime::from_millis(220),
        "virginia median {virginia} should be ~ a couple of WAN legs"
    );
    assert!(tokyo > virginia, "remote clients pay extra ({tokyo} vs {virginia})");
}

#[test]
fn bft_weak_reads_need_a_remote_replica() {
    let mut sim = Simulation::new(topo(), 3);
    let mut dep = BftDeployment::build(&mut sim, SpiderConfig::default(), &REGIONS, KvStore::new);
    dep.spawn_clients(
        &mut sim,
        "virginia",
        1,
        WorkloadSpec::weak_reads_per_sec(5.0, 200).with_max_ops(10),
    );
    sim.run_until_quiescent(SimTime::from_secs(30));
    let samples = dep.collect_samples(&sim);
    let mut lats: Vec<SimTime> = samples[0].1.iter().map(|s| s.latency()).collect();
    let m = median(&mut lats);
    // f + 1 = 2 matching replies: one is remote (nearest region ~31ms one
    // way), so a weak read costs about one WAN round trip — unlike
    // Spider/HFT, which answer locally (Fig 8b).
    assert!(m > SimTime::from_millis(55), "weak read median {m}");
    assert_eq!(samples[0].1.len(), 10);
    assert!(samples[0].1.iter().all(|s| s.kind == OpKind::WeakRead));
}

#[test]
fn bft_wv_with_five_replicas_still_orders() {
    let mut sim = Simulation::new(
        Topology::builder()
            .region("virginia", 4)
            .region("oregon", 3)
            .region("ireland", 3)
            .region("tokyo", 3)
            .region("saopaulo", 3)
            .symmetric_latency("virginia", "oregon", SimTime::from_micros(31_000))
            .symmetric_latency("virginia", "ireland", SimTime::from_micros(38_000))
            .symmetric_latency("virginia", "tokyo", SimTime::from_micros(73_000))
            .symmetric_latency("virginia", "saopaulo", SimTime::from_micros(58_000))
            .symmetric_latency("oregon", "ireland", SimTime::from_micros(62_000))
            .symmetric_latency("oregon", "tokyo", SimTime::from_micros(49_000))
            .symmetric_latency("oregon", "saopaulo", SimTime::from_micros(91_000))
            .symmetric_latency("ireland", "tokyo", SimTime::from_micros(106_000))
            .symmetric_latency("ireland", "saopaulo", SimTime::from_micros(92_000))
            .symmetric_latency("tokyo", "saopaulo", SimTime::from_micros(128_000))
            .build(),
        4,
    );
    // Five replicas, Vmax = 2 in Virginia and Oregon (the paper's best
    // weight assignment for this scenario, Fig 10).
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
        dep.spawn_clients(
            &mut sim,
            region,
            1,
            WorkloadSpec::writes_per_sec(4.0, 200).with_max_ops(8),
        );
    }
    sim.run_until_quiescent(SimTime::from_secs(60));
    let samples = dep.collect_samples(&sim);
    let total: usize = samples.iter().map(|(_, s)| s.len()).sum();
    assert_eq!(total, 40);
}

#[test]
fn steward_orders_and_converges() {
    let mut sim = Simulation::new(topo(), 5);
    let mut dep =
        StewardDeployment::build(&mut sim, SpiderConfig::default(), &REGIONS, 0, KvStore::new);
    for (si, region) in REGIONS.iter().enumerate() {
        dep.spawn_clients(
            &mut sim,
            si as u16,
            region,
            1,
            WorkloadSpec::writes_per_sec(4.0, 200)
                .with_max_ops(8)
                .with_op_factory(kv_op_factory(50)),
        );
    }
    sim.run_until_quiescent(SimTime::from_secs(60));
    let samples = dep.collect_samples(&sim);
    let total: usize = samples.iter().map(|(_, _, s)| s.len()).sum();
    assert_eq!(total, 32);

    // Every replica of every site executed the same sequence.
    let mut digests = Vec::new();
    for site in &dep.sites {
        for n in site {
            digests.push(sim.actor::<spider_baselines::StewardReplica<KvStore>>(*n).app_digest());
        }
    }
    assert!(digests.windows(2).all(|w| w[0] == w[1]), "sites diverged");
}

#[test]
fn steward_weak_reads_are_site_local() {
    let mut sim = Simulation::new(topo(), 6);
    let mut dep =
        StewardDeployment::build(&mut sim, SpiderConfig::default(), &REGIONS, 0, KvStore::new);
    dep.spawn_clients(
        &mut sim,
        3,
        "tokyo",
        1,
        WorkloadSpec::weak_reads_per_sec(5.0, 200).with_max_ops(10),
    );
    sim.run_until_quiescent(SimTime::from_secs(30));
    let samples = dep.collect_samples(&sim);
    let mut lats: Vec<SimTime> = samples[0].2.iter().map(|s| s.latency()).collect();
    assert_eq!(lats.len(), 10);
    let m = median(&mut lats);
    assert!(
        m < SimTime::from_millis(5),
        "HFT weak reads stay inside the site (paper: <= 2ms), got {m}"
    );
}

#[test]
fn steward_writes_cost_more_than_spider_but_complete() {
    let mut sim = Simulation::new(topo(), 7);
    let mut dep =
        StewardDeployment::build(&mut sim, SpiderConfig::default(), &REGIONS, 0, KvStore::new);
    dep.spawn_clients(
        &mut sim,
        2,
        "ireland",
        1,
        WorkloadSpec::writes_per_sec(3.0, 200).with_max_ops(10),
    );
    sim.run_until_quiescent(SimTime::from_secs(60));
    let samples = dep.collect_samples(&sim);
    let mut lats: Vec<SimTime> = samples[0].2.iter().map(|s| s.latency()).collect();
    assert_eq!(lats.len(), 10);
    let m = median(&mut lats);
    // Ireland -> Virginia forward + proposal fan-out + accepts: at least
    // 1.5 WAN legs plus threshold-crypto time; well above Spider's single
    // round trip but far below timeout territory.
    assert!(m > SimTime::from_millis(80), "median {m}");
    assert!(m < SimTime::from_millis(400), "median {m}");
}

#[test]
#[should_panic(expected = "unknown group")]
fn steward_clients_of_a_missing_site_are_refused() {
    let mut sim = Simulation::new(topo(), 8);
    let mut dep =
        StewardDeployment::build(&mut sim, SpiderConfig::default(), &REGIONS, 0, KvStore::new);
    dep.spawn_clients(&mut sim, 4, "tokyo", 1, WorkloadSpec::writes_per_sec(3.0, 200));
}
