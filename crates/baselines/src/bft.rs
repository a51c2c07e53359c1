//! The BFT baseline: one PBFT group spread across regions (Fig 1a), with
//! optional weighted voting (BFT-WV).

use crate::messages::{BaseMsg, Request};
use bytes::Bytes;
use spider::app::Application;
use spider::directory::Directory;
use spider::host;
use spider::keys::AGREEMENT_GROUP;
use spider::messages::Reply;
use spider::SpiderConfig;
use spider_consensus::{Input, Output, Pbft, PbftConfig};
use spider_sim::{Actor, Context, Simulation, Timer};
use spider_types::{ClientId, NodeId, OpKind, SeqNr};
use std::collections::BTreeMap;

/// Unilateral consensus garbage collection interval (the baselines skip
/// the full checkpoint protocol; its CPU cost is negligible next to the
/// WAN round trips being measured).
const GC_INTERVAL: u64 = 64;

/// A replica of the traditional geo-distributed PBFT deployment.
pub struct BftReplica<A: Application> {
    directory: Directory,
    cfg: SpiderConfig,
    pbft: Pbft<Request>,
    app: A,
    executed: BTreeMap<ClientId, (u64, Bytes)>,
    delivered: u64,
}

impl<A: Application> BftReplica<A> {
    /// Creates replica `me` of the global group.
    pub fn new(
        cfg: SpiderConfig,
        pbft_cfg: PbftConfig,
        me: usize,
        directory: Directory,
        app: A,
    ) -> Self {
        BftReplica {
            directory,
            cfg,
            pbft: Pbft::new(pbft_cfg, me),
            app,
            executed: BTreeMap::new(),
            delivered: 0,
        }
    }

    /// Digest of the application state (tests).
    pub fn app_digest(&self) -> spider_crypto::Digest {
        self.app.state_digest()
    }

    /// Current view of the global consensus.
    pub fn view(&self) -> spider_types::ViewNr {
        self.pbft.view()
    }

    /// Runs one input through the global consensus, executing what it
    /// delivers as it delivers it.
    fn pbft_step(&mut self, ctx: &mut Context<'_, BaseMsg>, input: Input<Request>) {
        let replicas = self.directory.agreement();
        let mut gc = None;
        self.pbft.handle(ctx.now(), input, &mut |output| {
            let Some(Output::Deliver { batch, .. }) =
                host::pbft_io(ctx, &replicas, BaseMsg::Pbft, output)
            else {
                return;
            };
            for req in batch.iter() {
                let fresh = self.executed.get(&req.client).is_none_or(|(tc, _)| *tc < req.tc);
                if !fresh {
                    continue;
                }
                ctx.charge(self.cfg.cost.app_execute());
                let result = self.app.execute(&req.operation.op);
                self.executed.insert(req.client, (req.tc, result.clone()));
                if let Some(node) = self.directory.client_node(req.client) {
                    ctx.charge(self.cfg.cost.hmac(result.len()));
                    let reply = Reply { tc: req.tc, result, weak: false, resubmit: false };
                    ctx.send(node, BaseMsg::Reply(reply));
                }
            }
            self.delivered += 1;
            if self.delivered.is_multiple_of(GC_INTERVAL) && self.delivered > GC_INTERVAL {
                gc = Some(SeqNr(self.delivered - GC_INTERVAL));
            }
        });
        // `gc` only raises a horizon, so the last one requested covers
        // every earlier one.
        if let Some(before) = gc {
            self.pbft.gc(before);
        }
    }
}

impl<A: Application> Actor<BaseMsg> for BftReplica<A> {
    fn on_message(&mut self, ctx: &mut Context<'_, BaseMsg>, from: NodeId, msg: BaseMsg) {
        ctx.charge(self.cfg.cost.msg_overhead());
        match msg {
            BaseMsg::Request(req) => {
                ctx.charge(self.cfg.cost.hmac(spider_types::WireSize::wire_size(&req)));
                if req.operation.kind != OpKind::Write {
                    // PBFT's optimized read path (§5 "Reads"): replicas
                    // answer reads directly from their committed state.
                    // Weak reads need f+1 matching replies at the client;
                    // strongly consistent reads need 2f+1 (the read quorum
                    // intersects every write quorum in a correct replica).
                    ctx.charge(self.cfg.cost.app_execute());
                    let result = self.app.execute_read(&req.operation.op);
                    if let Some(node) = self.directory.client_node(req.client) {
                        ctx.send(
                            node,
                            BaseMsg::Reply(Reply {
                                tc: req.tc,
                                result,
                                weak: req.operation.kind == OpKind::WeakRead,
                                resubmit: false,
                            }),
                        );
                    }
                    return;
                }
                // Retried request already executed? Resend the reply.
                if let Some((tc, result)) = self.executed.get(&req.client) {
                    if *tc >= req.tc {
                        if *tc == req.tc {
                            if let Some(node) = self.directory.client_node(req.client) {
                                ctx.send(
                                    node,
                                    BaseMsg::Reply(Reply {
                                        tc: req.tc,
                                        result: result.clone(),
                                        weak: false,
                                        resubmit: false,
                                    }),
                                );
                            }
                        }
                        return;
                    }
                }
                ctx.charge(self.cfg.cost.rsa_verify());
                self.pbft_step(ctx, Input::Order(req));
            }
            BaseMsg::Pbft(m) => {
                if let Some(idx) = self.directory.replica_index(AGREEMENT_GROUP, from) {
                    self.pbft_step(ctx, Input::Message { from: idx, msg: m });
                }
            }
            BaseMsg::Reply(_) | BaseMsg::Steward(_) => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, BaseMsg>, timer: Timer) {
        if let Some(input) = host::pbft_timer(timer.tag) {
            self.pbft_step(ctx, input);
        }
    }
}

/// A built BFT / BFT-WV deployment.
pub struct BftDeployment {
    /// Shared directory.
    pub directory: Directory,
    /// Replica nodes, replica-index order (replica 0 = initial leader).
    pub replicas: Vec<NodeId>,
    /// Configuration.
    pub cfg: SpiderConfig,
    /// Reply quorum clients wait for (`f + 1`).
    pub reply_quorum: usize,
    next_client: u32,
    /// Spawned clients.
    pub clients: Vec<(ClientId, NodeId)>,
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
            let replica =
                BftReplica::new(cfg.clone(), pbft_cfg.clone(), i, directory.clone(), app_factory());
            replicas.push(sim.add_node(zone, replica));
        }
        directory.set_agreement(replicas.clone());
        BftDeployment {
            directory,
            replicas,
            reply_quorum: cfg.fa + 1,
            cfg,
            next_client: 0,
            clients: Vec::new(),
        }
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
        let mut nodes = Vec::new();
        for zone in sim.topology().cycle_zones(&[region], 0, count) {
            let id = ClientId(self.next_client);
            self.next_client += 1;
            let client = crate::client::BaselineClient::new(
                self.cfg.clone(),
                id,
                self.replicas.clone(),
                self.reply_quorum,
                Some(workload.clone()),
            )
            // PBFT optimized reads need 2f+1 matching replies; with
            // weighted voting (n > 3f+1) a count-based conservative
            // equivalent is n-1 matching replies.
            .with_strong_read_quorum(if self.replicas.len() > 3 * self.cfg.fa + 1 {
                self.replicas.len() - 1
            } else {
                2 * self.cfg.fa + 1
            });
            let node = sim.add_node(zone, client);
            self.directory.register_client(id, node);
            self.clients.push((id, node));
            nodes.push(node);
        }
        nodes
    }

    /// Collects samples from every client.
    pub fn collect_samples(
        &self,
        sim: &Simulation<BaseMsg>,
    ) -> Vec<(ClientId, Vec<spider::Sample>)> {
        self.clients
            .iter()
            .map(|(id, node)| {
                (*id, sim.actor::<crate::client::BaselineClient>(*node).samples.clone())
            })
            .collect()
    }
}
