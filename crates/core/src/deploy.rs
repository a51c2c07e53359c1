//! Deployment builder: wires replicas, channels, and clients into a
//! simulation.

use crate::agreement::AgreementReplica;
use crate::app::{Application, CounterApp};
use crate::client::{Sample, SpiderClient, WorkloadSpec};
use crate::config::SpiderConfig;
use crate::directory::{Directory, GroupInfo};
use crate::execution::ExecutionReplica;
use crate::messages::{AdminCommand, SpiderMsg};
use spider_sim::{Actor, Context, Simulation, Timer};
use spider_types::{ClientId, GroupId, NodeId, SimTime, ZoneId};
use std::collections::BTreeSet;

/// Builds a full Spider deployment inside a [`Simulation`].
///
/// See the [crate docs](crate) for a complete example.
pub struct DeploymentBuilder<A: Application = CounterApp> {
    cfg: SpiderConfig,
    agreement_region: String,
    leader_zone: u8,
    /// Optional explicit per-replica region list for the agreement group
    /// (cycled), used when one region lacks enough fault domains (Fig 11).
    agreement_span: Option<Vec<String>>,
    /// Per-group, per-replica region list (cycled over the group size).
    exec_groups: Vec<Vec<String>>,
    app_factory: Box<dyn Fn() -> A>,
}

impl DeploymentBuilder<CounterApp> {
    /// Starts a deployment running the built-in [`CounterApp`].
    pub fn new(cfg: SpiderConfig) -> Self {
        DeploymentBuilder {
            cfg,
            agreement_region: String::new(),
            leader_zone: 0,
            agreement_span: None,
            exec_groups: Vec::new(),
            app_factory: Box::new(CounterApp::default),
        }
    }
}

impl<A: Application> DeploymentBuilder<A> {
    /// Uses a custom application; `factory` creates one fresh instance per
    /// execution replica.
    pub fn with_app<B: Application>(
        self,
        factory: impl Fn() -> B + 'static,
    ) -> DeploymentBuilder<B> {
        DeploymentBuilder {
            cfg: self.cfg,
            agreement_region: self.agreement_region,
            leader_zone: self.leader_zone,
            agreement_span: self.agreement_span,
            exec_groups: self.exec_groups,
            app_factory: Box::new(factory),
        }
    }

    /// Region hosting the agreement group (needs `3·fa + 1` zones to put
    /// every replica in its own fault domain; fewer zones wrap around).
    #[must_use]
    pub fn agreement_region(mut self, region: &str) -> Self {
        self.agreement_region = region.to_owned();
        self
    }

    /// Availability zone of the initial consensus leader (replica 0) —
    /// the paper's "Leader in V-1/V-2/…" configurations (Fig 7).
    #[must_use]
    pub fn agreement_leader_zone(mut self, zone: u8) -> Self {
        self.leader_zone = zone;
        self
    }

    /// Adds an execution group in `region`. Groups get ids in call order.
    #[must_use]
    pub fn execution_group(mut self, region: &str) -> Self {
        self.exec_groups.push(vec![region.to_owned()]);
        self
    }

    /// Adds an execution group whose replicas cycle over `regions` — the
    /// paper's `f = 2` setup places extra replicas in a nearby region to
    /// gain fault domains (Fig 11). Clients attach to `regions[0]`.
    #[must_use]
    pub fn execution_group_span(mut self, regions: &[&str]) -> Self {
        assert!(!regions.is_empty());
        self.exec_groups.push(regions.iter().map(|r| (*r).to_owned()).collect());
        self
    }

    /// Overrides agreement-replica placement with a per-replica region
    /// cycle (e.g. six Virginia zones plus one Ohio zone for `fa = 2`).
    #[must_use]
    pub fn agreement_span(mut self, regions: &[&str]) -> Self {
        assert!(!regions.is_empty());
        self.agreement_span = Some(regions.iter().map(|r| (*r).to_owned()).collect());
        self
    }

    /// Spawns every replica and returns the deployment handle.
    ///
    /// # Panics
    ///
    /// Panics if no agreement region was set or the config is invalid.
    pub fn build(self, sim: &mut Simulation<SpiderMsg>) -> Deployment {
        self.cfg.validate();
        if self.cfg.tracing && !sim.obs().is_enabled() {
            sim.enable_obs();
        }
        assert!(
            !self.agreement_region.is_empty() || self.agreement_span.is_some(),
            "agreement region required"
        );
        let directory = Directory::new();
        let initial_groups: Vec<GroupId> =
            (0..self.exec_groups.len()).map(|i| GroupId(i as u16)).collect();

        // Agreement replicas, one per availability zone, leader first.
        let (span, leader_zone) = match self.agreement_span {
            Some(span) => (span, 0),
            None => (vec![self.agreement_region], self.leader_zone),
        };
        let zones = sim.topology().cycle_zones(&span, leader_zone, self.cfg.agreement_size());
        let mut agreement = Vec::new();
        for (i, zone) in zones.into_iter().enumerate() {
            let replica =
                AgreementReplica::new(self.cfg.clone(), i, directory.clone(), &initial_groups);
            agreement.push(sim.add_node(zone, replica));
        }
        directory.set_agreement(agreement.clone());

        // Execution groups, replicas spread over their span's zones.
        let (cfg, dir, factory) = (self.cfg.clone(), directory.clone(), self.app_factory);
        let spawn_replica: SpawnReplica = Box::new(move |sim, zone, group, j| {
            let replica = ExecutionReplica::new(cfg.clone(), group, j, dir.clone(), factory());
            sim.add_node(zone, replica)
        });
        let mut groups = Vec::new();
        for (gi, span) in self.exec_groups.iter().enumerate() {
            let group = GroupId(gi as u16);
            let home = &span[0];
            let zones = sim.topology().cycle_zones(span, 0, self.cfg.execution_size());
            let mut nodes = Vec::new();
            for (j, zone) in zones.into_iter().enumerate() {
                nodes.push(spawn_replica(sim, zone, group, j));
            }
            directory.register_group(group, GroupInfo { replicas: nodes.clone(), active: true });
            groups.push((group, home.clone(), nodes));
        }

        Deployment {
            cfg: self.cfg,
            directory,
            agreement,
            groups,
            clients: Vec::new(),
            next_client: 0,
            byzantine: BTreeSet::new(),
            spawn_replica,
        }
    }
}

/// Adds replica `j` of execution group `group` in a zone, running the
/// deployment's application; kept so groups added at runtime run the same
/// replica type as the initial ones.
type SpawnReplica = Box<dyn Fn(&mut Simulation<SpiderMsg>, ZoneId, GroupId, usize) -> NodeId>;

/// Minimal admin-client actor: submits a reconfiguration command to the
/// agreement group at a configured time (§3.6).
struct AdminClient {
    directory: Directory,
    command: AdminCommand,
    at: SimTime,
}

impl Actor<SpiderMsg> for AdminClient {
    fn on_start(&mut self, ctx: &mut Context<'_, SpiderMsg>) {
        let delay = self.at.saturating_sub(ctx.now());
        ctx.set_timer(delay, 1);
    }

    fn on_message(&mut self, _ctx: &mut Context<'_, SpiderMsg>, _from: NodeId, _msg: SpiderMsg) {}

    fn on_timer(&mut self, ctx: &mut Context<'_, SpiderMsg>, _timer: Timer) {
        for &node in self.directory.agreement().iter() {
            ctx.send(node, SpiderMsg::Admin(self.command.clone()));
        }
    }
}

/// A built Spider deployment: handles to every node plus client
/// management.
pub struct Deployment {
    /// The configuration the deployment runs.
    pub cfg: SpiderConfig,
    /// Shared directory (execution-replica registry stand-in).
    pub directory: Directory,
    /// Agreement replica nodes, replica-index order.
    pub agreement: Vec<NodeId>,
    /// `(group, region name, replica nodes)` per execution group.
    pub groups: Vec<(GroupId, String, Vec<NodeId>)>,
    /// All spawned clients: `(client, group, node)`.
    pub clients: Vec<(ClientId, GroupId, NodeId)>,
    next_client: u32,
    /// Nodes made Byzantine ([`Deployment::make_byzantine`]).
    byzantine: BTreeSet<NodeId>,
    spawn_replica: SpawnReplica,
}

impl Deployment {
    /// Spawns `count` clients attached to `groups[group_idx]`, running
    /// `workload`. Returns their node ids.
    pub fn spawn_clients(
        &mut self,
        sim: &mut Simulation<SpiderMsg>,
        group_idx: usize,
        count: usize,
        workload: WorkloadSpec,
    ) -> Vec<NodeId> {
        let (group, region, _) = self.groups[group_idx].clone();
        let zones = sim.topology().cycle_zones(&[region], 0, count);
        let mut nodes = Vec::new();
        for zone in zones {
            let id = ClientId(self.next_client);
            self.next_client += 1;
            let client = SpiderClient::new(
                self.cfg.clone(),
                id,
                group,
                self.directory.clone(),
                Some(workload.clone()),
            );
            let node = sim.add_node(zone, client);
            self.directory.register_client(id, node);
            self.clients.push((id, group, node));
            nodes.push(node);
        }
        nodes
    }

    /// Makes `node` Byzantine: from now on `adversary` rewrites or drops
    /// everything it sends ([`Simulation::set_adversary`]; the behaviours
    /// of §3.7 are in [`crate::byzantine`]).
    ///
    /// # Panics
    ///
    /// Panics if the node's group would then hold more Byzantine members
    /// than it tolerates: `fa` in the agreement group, `fe` in an
    /// execution group. Any number of clients may be Byzantine.
    pub fn make_byzantine(
        &mut self,
        sim: &mut Simulation<SpiderMsg>,
        node: NodeId,
        adversary: impl FnMut(NodeId, SpiderMsg) -> Option<SpiderMsg> + 'static,
    ) {
        self.byzantine.insert(node);
        let faulty = |group: &[NodeId]| group.iter().filter(|n| self.byzantine.contains(n)).count();
        assert!(
            faulty(&self.agreement) <= self.cfg.fa,
            "more than fa Byzantine agreement replicas"
        );
        for (group, _, nodes) in &self.groups {
            assert!(faulty(nodes) <= self.cfg.fe, "more than fe Byzantine replicas in {group:?}");
        }
        sim.set_adversary(node, adversary);
    }

    /// Spawns a new execution group in `region` at runtime: replicas start
    /// immediately (inactive), and an admin client submits `AddGroup` at
    /// `activate_at` (§3.6). Returns the new group id.
    pub fn add_execution_group(
        &mut self,
        sim: &mut Simulation<SpiderMsg>,
        region: &str,
        activate_at: SimTime,
    ) -> GroupId {
        let group = GroupId(self.groups.len() as u16);
        let zones = sim.topology().cycle_zones(&[region], 0, self.cfg.execution_size());
        let mut nodes = Vec::new();
        for (j, zone) in zones.into_iter().enumerate() {
            nodes.push((self.spawn_replica)(sim, zone, group, j));
        }
        self.directory.register_group(group, GroupInfo { replicas: nodes.clone(), active: false });
        self.groups.push((group, region.to_owned(), nodes));

        // Admin client lives next to the agreement group; placement is
        // irrelevant for the experiment.
        let zone = sim.zone_of(self.agreement[0]);
        sim.add_node(
            zone,
            AdminClient {
                directory: self.directory.clone(),
                command: AdminCommand::AddGroup { group },
                at: activate_at,
            },
        );
        group
    }

    /// Collects `(client, group, samples)` from every spawned client.
    pub fn collect_samples(
        &self,
        sim: &Simulation<SpiderMsg>,
    ) -> Vec<(ClientId, GroupId, Vec<Sample>)> {
        self.clients
            .iter()
            .map(|(id, group, node)| {
                let samples = sim.actor::<SpiderClient>(*node).samples.clone();
                (*id, *group, samples)
            })
            .collect()
    }

    /// Node ids of one execution group.
    pub fn group_nodes(&self, group_idx: usize) -> &[NodeId] {
        &self.groups[group_idx].2
    }
}
