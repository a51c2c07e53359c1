//! The BFT baseline: one PBFT group spread across regions (Fig 1a), with
//! optional weighted voting (BFT-WV).

use crate::client::ClientSet;
use crate::messages::{BaseMsg, Request};
use crate::replica::{Front, Ordering};
use spider::app::Application;
use spider::directory::Directory;
use spider::host;
use spider::keys::AGREEMENT_GROUP;
use spider::SpiderConfig;
use spider_consensus::{Input, PbftConfig};
use spider_sim::{Actor, Context, Simulation, Timer};
use spider_types::{ClientId, NodeId, OpKind};

/// A replica of the traditional geo-distributed PBFT deployment.
pub struct BftReplica<A: Application> {
    /// The global consensus, kept apart from the front, which executes
    /// what it delivers while it runs.
    pbft: Ordering,
    front: Front<A>,
}

impl<A: Application> BftReplica<A> {
    /// Digest of the application state (tests).
    pub fn app_digest(&self) -> spider_crypto::Digest {
        self.front.app.state_digest()
    }

    /// Current view of the global consensus.
    pub fn view(&self) -> spider_types::ViewNr {
        self.pbft.view()
    }

    fn step(&mut self, ctx: &mut Context<'_, BaseMsg>, input: Input<Request>) {
        let front = &mut self.front;
        self.pbft.step(ctx, input, |ctx, req| front.execute(ctx, req, true));
    }
}

impl<A: Application> Actor<BaseMsg> for BftReplica<A> {
    fn on_message(&mut self, ctx: &mut Context<'_, BaseMsg>, from: NodeId, msg: BaseMsg) {
        ctx.charge(self.front.cfg.cost.msg_overhead());
        let input = match msg {
            // PBFT's optimized read path (§5 "Reads"): replicas answer
            // reads directly from their committed state. Weak reads need
            // f+1 matching replies at the client; strongly consistent
            // reads need 2f+1 (the read quorum intersects every write
            // quorum in a correct replica).
            BaseMsg::Request(req) => self
                .front
                .admit(ctx, req, &[OpKind::StrongRead, OpKind::WeakRead])
                .map(Input::Order),
            BaseMsg::Pbft(m) => self.pbft.frame(from, m),
            BaseMsg::Reply(_) | BaseMsg::Steward(_) => None,
        };
        if let Some(input) = input {
            self.step(ctx, input);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, BaseMsg>, timer: Timer) {
        if let Some(input) = host::pbft_timer(timer.tag) {
            self.step(ctx, input);
        }
    }
}

/// A built BFT / BFT-WV deployment.
pub struct BftDeployment {
    /// Replica nodes, replica-index order (replica 0 = initial leader).
    pub replicas: Vec<NodeId>,
    clients: ClientSet,
}

impl BftDeployment {
    /// Builds the classic BFT baseline: `3f + 1` replicas, one per region
    /// in `regions` order — `regions[0]` hosts the initial leader.
    ///
    /// # Panics
    ///
    /// Panics unless `regions.len() == 3f + 1`.
    pub fn build<A: Application>(
        sim: &mut Simulation<BaseMsg>,
        cfg: SpiderConfig,
        regions: &[&str],
        app_factory: impl Fn() -> A,
    ) -> Self {
        let placements: Vec<_> = regions.iter().map(|r| (*r, 0)).collect();
        Self::build_in_zones(sim, cfg, &placements, app_factory)
    }

    /// Builds BFT-WV: `3f + 1 + delta` replicas, WHEAT weights on the
    /// replicas listed in `vmax_regions` (indices into `regions`).
    pub fn build_weighted<A: Application>(
        sim: &mut Simulation<BaseMsg>,
        cfg: SpiderConfig,
        regions: &[&str],
        delta: usize,
        vmax_holders: &[usize],
        app_factory: impl Fn() -> A,
    ) -> Self {
        assert_eq!(regions.len(), 3 * cfg.fa + 1 + delta);
        let pbft_cfg = cfg.tune_pbft(PbftConfig::weighted(cfg.fa, delta, vmax_holders));
        let placements: Vec<_> = regions.iter().map(|r| (*r, 0)).collect();
        Self::build_with_pbft(sim, cfg, pbft_cfg, &placements, app_factory)
    }

    /// Builds a PBFT group with explicit per-replica `(region, zone)`
    /// placement — used for the Spider-0E comparison point (Fig 9a) where
    /// all replicas live in different zones of one region.
    ///
    /// # Panics
    ///
    /// Panics unless `placements.len() == 3f + 1`.
    pub fn build_in_zones<A: Application>(
        sim: &mut Simulation<BaseMsg>,
        cfg: SpiderConfig,
        placements: &[(&str, u8)],
        app_factory: impl Fn() -> A,
    ) -> Self {
        assert_eq!(placements.len(), 3 * cfg.fa + 1, "one replica per placement");
        let pbft_cfg = cfg.tune_pbft(PbftConfig::new(cfg.fa));
        Self::build_with_pbft(sim, cfg, pbft_cfg, placements, app_factory)
    }

    fn build_with_pbft<A: Application>(
        sim: &mut Simulation<BaseMsg>,
        cfg: SpiderConfig,
        pbft_cfg: PbftConfig,
        placements: &[(&str, u8)],
        app_factory: impl Fn() -> A,
    ) -> Self {
        let directory = Directory::new();
        let mut replicas = Vec::new();
        for (i, (region, zone)) in placements.iter().enumerate() {
            let zone = sim.topology().zone(region, *zone);
            let replica = BftReplica {
                pbft: Ordering::new(pbft_cfg.clone(), i, directory.clone(), AGREEMENT_GROUP),
                front: Front::new(cfg.clone(), directory.clone(), app_factory()),
            };
            replicas.push(sim.add_node(zone, replica));
        }
        directory.set_agreement(replicas.clone());
        // PBFT optimized reads need 2f+1 matching replies; with weighted
        // voting (n > 3f+1) a count-based conservative equivalent is n-1
        // matching replies.
        let n = replicas.len();
        let strong_reads = if n > 3 * cfg.fa + 1 { n - 1 } else { 2 * cfg.fa + 1 };
        BftDeployment { replicas, clients: ClientSet::new(cfg, directory, strong_reads) }
    }

    /// Spawns `count` clients in `region` issuing `workload`; they talk to
    /// every replica of the global group.
    pub fn spawn_clients(
        &mut self,
        sim: &mut Simulation<BaseMsg>,
        region: &str,
        count: usize,
        workload: spider::WorkloadSpec,
    ) -> Vec<NodeId> {
        self.clients.spawn(sim, AGREEMENT_GROUP, region, count, workload)
    }

    /// Collects samples from every client.
    pub fn collect_samples(
        &self,
        sim: &Simulation<BaseMsg>,
    ) -> Vec<(ClientId, Vec<spider::Sample>)> {
        self.clients.samples(sim).map(|(id, _, samples)| (id, samples)).collect()
    }
}
