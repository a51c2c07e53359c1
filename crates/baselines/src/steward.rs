//! The HFT baseline: a Steward-style hierarchical architecture (Fig 1b).
//!
//! Every region ("site") hosts a cluster of `3f + 1` replicas running a
//! site-local BFT agreement; threshold signatures let each site speak with
//! one voice, so the wide-area protocol only needs to tolerate crashes:
//!
//! 1. A client submits its request to the local site; the site forwards it
//!    to the *leader site*.
//! 2. The leader site orders the request locally (PBFT) and emits a
//!    threshold-signed `Proposal(seq, request)` to every site.
//! 3. Each site locally agrees on the proposal, threshold-signs an
//!    `Accept(seq)`, and exchanges it with all sites.
//! 4. A request is globally committed once a majority of sites accepted
//!    it; replicas execute in sequence order and the client's local site
//!    replies.
//!
//! The expensive part — threshold-RSA shares and combines on every local
//! agreement (§5) — is charged via the cost model, which is why HFT pays
//! noticeably more CPU per request than Spider's plain channels.

use crate::client::ClientSet;
use crate::messages::{accept_digest, proposal_digest, BaseMsg, Request, StewardMsg};
use crate::replica::{Front, Ordering};
use spider::app::Application;
use spider::directory::Directory;
use spider::host;
use spider::SpiderConfig;
use spider_consensus::{Input, PbftConfig};
use spider_crypto::threshold::ThresholdGroupId;
use spider_crypto::{Digest, Digestible, SigShare, ThresholdKeyring};
use spider_sim::{Actor, Context, Simulation, Timer};
use spider_types::{ClientId, GroupId, NodeId, OpKind, SeqNr, WireSize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// A replica of one Steward site.
pub struct StewardReplica<A: Application> {
    /// Site-local agreement (orders requests at the leader site, proposals
    /// at follower sites). It is kept apart from the rest of the replica,
    /// which handles what it delivers while it runs.
    pbft: Ordering,
    steward: Steward<A>,
}

/// Everything of a Steward replica but its site-local agreement.
struct Steward<A: Application> {
    front: Front<A>,
    site: u16,
    me: usize,
    leader_site: u16,
    num_sites: usize,
    tkr: ThresholdKeyring,

    /// Leader site: next global sequence number to assign.
    next_seq: u64,
    /// Leader site: global seq already assigned per request digest —
    /// a request re-delivered by the local agreement (e.g. after view
    /// changes) must not consume a second sequence number.
    assigned: BTreeMap<Digest, u64>,
    /// Proposals known: seq -> (request, proposal digest).
    proposals: BTreeMap<u64, (Request, Digest)>,
    /// Follower site: proposals awaiting local agreement, by request
    /// digest.
    pending_local: BTreeMap<Digest, Vec<SeqNr>>,
    /// Follower site: digests the local agreement already delivered.
    /// Needed because the site-local PBFT (driven by peers) may deliver a
    /// proposal's request *before* this replica receives the `Proposal`
    /// message itself — the accept share must then be produced
    /// immediately instead of waiting for a re-delivery that never comes.
    locally_delivered: BTreeSet<Digest>,
    locally_delivered_order: VecDeque<Digest>,
    /// Representative (replica 0): collected threshold shares per
    /// (seq, accept?) slot.
    shares: BTreeMap<(u64, bool), Vec<SigShare>>,
    /// Sites that accepted each sequence number (leader site implicit).
    accepts: BTreeMap<u64, BTreeSet<u16>>,
    /// Next sequence number to execute.
    exec_next: u64,
    /// Requests already handed to local agreement (dedup).
    forwarded: BTreeMap<ClientId, u64>,
}

impl<A: Application> StewardReplica<A> {
    /// Creates replica `me` of `site`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        cfg: SpiderConfig,
        site: u16,
        me: usize,
        leader_site: u16,
        num_sites: usize,
        directory: Directory,
        app: A,
    ) -> Self {
        let pbft_cfg = cfg.tune_pbft(PbftConfig::new(cfg.fa));
        let pbft = Ordering::new(pbft_cfg, me, directory.clone(), GroupId(site));
        let steward = Steward {
            site,
            me,
            leader_site,
            num_sites,
            tkr: ThresholdKeyring::new(spider::keys::KEY_SEED, cfg.fa + 1),
            front: Front::new(cfg, directory, app),
            next_seq: 0,
            assigned: BTreeMap::new(),
            proposals: BTreeMap::new(),
            pending_local: BTreeMap::new(),
            locally_delivered: BTreeSet::new(),
            locally_delivered_order: VecDeque::new(),
            shares: BTreeMap::new(),
            accepts: BTreeMap::new(),
            exec_next: 1,
            forwarded: BTreeMap::new(),
        };
        StewardReplica { pbft, steward }
    }

    /// Digest of the application state (tests).
    pub fn app_digest(&self) -> spider_crypto::Digest {
        self.steward.front.app.state_digest()
    }
}

impl<A: Application> Steward<A> {
    fn site_nodes(&self, site: u16) -> Arc<[NodeId]> {
        self.front.directory.group_replicas(GroupId(site))
    }

    fn my_site_nodes(&self) -> Arc<[NodeId]> {
        self.site_nodes(self.site)
    }

    fn is_leader_site(&self) -> bool {
        self.site == self.leader_site
    }

    fn majority(&self) -> usize {
        self.num_sites / 2 + 1
    }

    /// The site-local agreement delivered a request.
    fn on_local_delivery(&mut self, ctx: &mut Context<'_, BaseMsg>, req: &Request) {
        if self.is_leader_site() {
            // Assign the next global sequence number and produce a
            // threshold share for the proposal (deterministic across the
            // site: same local order => same numbering). Duplicate local
            // deliveries (possible across view changes) are ignored.
            let rd = req.digest();
            if self.assigned.contains_key(&rd) {
                return;
            }
            self.next_seq += 1;
            self.assigned.insert(rd, self.next_seq);
            if self.assigned.len() > 50_000 {
                // Bound memory: forget the distant past.
                let horizon = self.next_seq.saturating_sub(25_000);
                self.assigned.retain(|_, s| *s > horizon);
            }
            let seq = SeqNr(self.next_seq);
            let pd = proposal_digest(seq, req);
            self.proposals.insert(seq.0, (req.clone(), pd));
            // The leader site accepts its own proposal implicitly.
            self.accepts.entry(seq.0).or_default().insert(self.site);
            self.share(ctx, seq, pd, false);
        } else {
            // A follower site finished local agreement on a proposal's
            // request: threshold-share the Accept for every sequence
            // number it was proposed under (normally exactly one).
            let rd = req.digest();
            if self.locally_delivered.insert(rd) {
                self.locally_delivered_order.push_back(rd);
                const CAP: usize = 16_384;
                if self.locally_delivered_order.len() > CAP {
                    if let Some(old) = self.locally_delivered_order.pop_front() {
                        self.locally_delivered.remove(&old);
                    }
                }
            }
            if let Some(seqs) = self.pending_local.remove(&rd) {
                for seq in seqs {
                    self.emit_accept_share(ctx, seq);
                }
            }
        }
        self.try_execute(ctx);
    }

    /// Produces and routes this replica's accept share for `seq` (the
    /// site-local agreement on the proposal is complete).
    fn emit_accept_share(&mut self, ctx: &mut Context<'_, BaseMsg>, seq: SeqNr) {
        let Some((_, pd)) = self.proposals.get(&seq.0) else {
            return;
        };
        self.share(ctx, seq, accept_digest(seq, pd), true);
    }

    /// Threshold-shares `digest` and sends the share to the site
    /// representative (replica 0), or collects it if this is the
    /// representative.
    fn share(&mut self, ctx: &mut Context<'_, BaseMsg>, seq: SeqNr, digest: Digest, accept: bool) {
        ctx.charge(self.front.cfg.cost.threshold_share());
        let share = self.tkr.share(ThresholdGroupId(self.site as u32), self.me as u32, &digest);
        if self.me == 0 {
            self.collect_share(ctx, seq, digest, share, accept);
        } else {
            let rep = self.my_site_nodes()[0];
            ctx.send(rep, BaseMsg::Steward(StewardMsg::Share { seq, digest, share, accept }));
        }
    }

    /// Representative-side share collection and combination.
    fn collect_share(
        &mut self,
        ctx: &mut Context<'_, BaseMsg>,
        seq: SeqNr,
        digest: Digest,
        share: SigShare,
        accept: bool,
    ) {
        if !self.tkr.verify_share(&digest, &share) {
            return;
        }
        let entry = self.shares.entry((seq.0, accept)).or_default();
        if entry.iter().any(|s| s.member == share.member) {
            return;
        }
        entry.push(share);
        if entry.len() < self.front.cfg.fa + 1 {
            return;
        }
        let shares = entry.clone();
        ctx.charge(self.front.cfg.cost.threshold_combine());
        let Some(tsig) = self.tkr.combine(&digest, &shares) else {
            return;
        };
        let msg = if accept {
            StewardMsg::Accept { seq, digest, site: self.site, tsig }
        } else {
            let Some((request, _)) = self.proposals.get(&seq.0).cloned() else {
                return;
            };
            StewardMsg::Proposal { seq, request, tsig }
        };
        // The site's acceptance goes to every other replica everywhere, its
        // proposal to the other sites.
        let me = ctx.node_id();
        for site in (0..self.num_sites as u16).filter(|s| accept || *s != self.site) {
            for &node in self.site_nodes(site).iter().filter(|n| **n != me) {
                ctx.send(node, BaseMsg::Steward(msg.clone()));
            }
        }
        if accept {
            self.on_accept(ctx, seq, self.site);
        }
    }

    fn on_accept(&mut self, ctx: &mut Context<'_, BaseMsg>, seq: SeqNr, site: u16) {
        self.accepts.entry(seq.0).or_default().insert(site);
        self.try_execute(ctx);
    }

    fn try_execute(&mut self, ctx: &mut Context<'_, BaseMsg>) {
        loop {
            let seq = self.exec_next;
            let enough_accepts = self.accepts.get(&seq).is_some_and(|s| s.len() >= self.majority());
            if !enough_accepts {
                return;
            }
            let Some((req, _)) = self.proposals.get(&seq) else {
                return;
            };
            let req = req.clone();
            self.exec_next += 1;
            // Only the client's local site replies (Fig 1b).
            let local = self.front.directory.client_group(req.client) == Some(GroupId(self.site));
            self.front.execute(ctx, &req, local);
            // Bound memory: drop far-past bookkeeping.
            let horizon = seq.saturating_sub(256);
            self.proposals.retain(|s, _| *s > horizon);
            self.accepts.retain(|s, _| *s > horizon);
            self.shares.retain(|(s, _), _| *s > horizon);
        }
    }

    fn order_locally(&mut self, ctx: &mut Context<'_, BaseMsg>, pbft: &mut Ordering, req: Request) {
        let last = self.forwarded.get(&req.client).copied().unwrap_or(0);
        if req.tc <= last {
            return;
        }
        self.forwarded.insert(req.client, req.tc);
        pbft.step(ctx, Input::Order(req), |ctx, req| self.on_local_delivery(ctx, req));
    }
}

impl<A: Application> Actor<BaseMsg> for StewardReplica<A> {
    fn on_message(&mut self, ctx: &mut Context<'_, BaseMsg>, from: NodeId, msg: BaseMsg) {
        let StewardReplica { pbft, steward } = self;
        ctx.charge(steward.front.cfg.cost.msg_overhead());
        match msg {
            BaseMsg::Request(req) => {
                // Weak reads are answered by the local site; strong reads
                // are ordered like writes.
                let Some(req) = steward.front.admit(ctx, req, &[OpKind::WeakRead]) else {
                    return;
                };
                if steward.is_leader_site() {
                    steward.order_locally(ctx, pbft, req);
                } else {
                    // Forward to the counterpart replica at the leader
                    // site (Fig 1b: requests flow through the hierarchy).
                    let leader_nodes = steward.site_nodes(steward.leader_site);
                    if let Some(node) = leader_nodes.get(steward.me) {
                        ctx.send(*node, BaseMsg::Steward(StewardMsg::Forward(req)));
                    }
                }
            }
            BaseMsg::Steward(StewardMsg::Forward(req)) => {
                if steward.is_leader_site() {
                    ctx.charge(steward.front.cfg.cost.hmac(req.wire_size()));
                    steward.order_locally(ctx, pbft, req);
                }
            }
            BaseMsg::Steward(StewardMsg::Proposal { seq, request, tsig }) => {
                ctx.charge(steward.front.cfg.cost.threshold_verify());
                let pd = proposal_digest(seq, &request);
                if !steward.tkr.verify(&pd, &tsig) {
                    return;
                }
                if steward.proposals.contains_key(&seq.0) {
                    return;
                }
                steward.proposals.insert(seq.0, (request.clone(), pd));
                // Leader's voice counts as an accept.
                steward.accepts.entry(seq.0).or_default().insert(steward.leader_site);
                if !steward.is_leader_site() {
                    let rd = request.digest();
                    if steward.locally_delivered.contains(&rd) {
                        // The site already agreed on this request (the
                        // local PBFT outran this Proposal's delivery):
                        // produce the accept share right away.
                        steward.emit_accept_share(ctx, seq);
                    } else {
                        steward.pending_local.entry(rd).or_default().push(seq);
                        steward.order_locally(ctx, pbft, request);
                    }
                }
                steward.try_execute(ctx);
            }
            BaseMsg::Steward(StewardMsg::Share { seq, digest, share, accept }) => {
                if steward.me != 0 {
                    return; // Only the representative collects.
                }
                ctx.charge(steward.front.cfg.cost.rsa_verify());
                steward.collect_share(ctx, seq, digest, share, accept);
            }
            BaseMsg::Steward(StewardMsg::Accept { seq, digest, site, tsig }) => {
                ctx.charge(steward.front.cfg.cost.threshold_verify());
                // Validate against the proposal we know for that seq.
                let Some((_, pd)) = steward.proposals.get(&seq.0) else {
                    // Accept before proposal: remember optimistically once
                    // the proposal arrives (simplification: verify against
                    // the digest carried in the message).
                    if steward.tkr.verify(&digest, &tsig) {
                        steward.accepts.entry(seq.0).or_default().insert(site);
                    }
                    return;
                };
                let expected = accept_digest(seq, pd);
                if digest != expected || !steward.tkr.verify(&digest, &tsig) {
                    return;
                }
                steward.on_accept(ctx, seq, site);
            }
            BaseMsg::Pbft(m) => {
                if let Some(input) = pbft.frame(from, m) {
                    pbft.step(ctx, input, |ctx, req| steward.on_local_delivery(ctx, req));
                }
            }
            BaseMsg::Reply(_) => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, BaseMsg>, timer: Timer) {
        let StewardReplica { pbft, steward } = self;
        if let Some(input) = host::pbft_timer(timer.tag) {
            pbft.step(ctx, input, |ctx, req| steward.on_local_delivery(ctx, req));
        }
    }
}

/// A built Steward (HFT) deployment.
pub struct StewardDeployment {
    /// Replica nodes per site.
    pub sites: Vec<Vec<NodeId>>,
    clients: ClientSet,
}

impl StewardDeployment {
    /// Builds an HFT deployment with one site per region;
    /// `regions[leader_site]` hosts the wide-area leader.
    pub fn build<A: Application>(
        sim: &mut Simulation<BaseMsg>,
        cfg: SpiderConfig,
        regions: &[&str],
        leader_site: u16,
        app_factory: impl Fn() -> A,
    ) -> Self {
        let spans: Vec<Vec<&str>> = regions.iter().map(|r| vec![*r]).collect();
        Self::build_span(sim, cfg, &spans, leader_site, app_factory)
    }

    /// Builds an HFT deployment whose sites cycle their replicas over a
    /// region span (the `f = 2` setup places extra replicas in a nearby
    /// region, Fig 11). Clients of site `i` attach at `spans[i][0]`.
    pub fn build_span<A: Application>(
        sim: &mut Simulation<BaseMsg>,
        cfg: SpiderConfig,
        spans: &[Vec<&str>],
        leader_site: u16,
        app_factory: impl Fn() -> A,
    ) -> Self {
        let directory = Directory::new();
        let num_sites = spans.len();
        let mut sites = Vec::new();
        for (si, span) in spans.iter().enumerate() {
            let zones = sim.topology().cycle_zones(span, 0, 3 * cfg.fa + 1);
            let mut nodes = Vec::new();
            for (j, zone) in zones.into_iter().enumerate() {
                let replica = StewardReplica::new(
                    cfg.clone(),
                    si as u16,
                    j,
                    leader_site,
                    num_sites,
                    directory.clone(),
                    app_factory(),
                );
                nodes.push(sim.add_node(zone, replica));
            }
            directory.register_group(
                GroupId(si as u16),
                spider::directory::GroupInfo { replicas: nodes.clone(), active: true },
            );
            sites.push(nodes);
        }
        // Strong reads are ordered, so f + 1 matching replies answer them.
        let strong_reads = cfg.fa + 1;
        StewardDeployment { sites, clients: ClientSet::new(cfg, directory, strong_reads) }
    }

    /// Spawns clients attached to site `site` (their local cluster).
    /// Panics if the deployment has no site `site`.
    pub fn spawn_clients(
        &mut self,
        sim: &mut Simulation<BaseMsg>,
        site: u16,
        region: &str,
        count: usize,
        workload: spider::WorkloadSpec,
    ) -> Vec<NodeId> {
        self.clients.spawn(sim, GroupId(site), region, count, workload)
    }

    /// Collects samples from every client.
    pub fn collect_samples(
        &self,
        sim: &Simulation<BaseMsg>,
    ) -> Vec<(ClientId, u16, Vec<spider::Sample>)> {
        self.clients.samples(sim).map(|(id, site, samples)| (id, site.0, samples)).collect()
    }
}
