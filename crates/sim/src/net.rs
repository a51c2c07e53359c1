//! Topology: regions, availability zones, and the latency model.
//!
//! The paper's deployments place replica groups in availability zones of
//! EC2 regions. A [`Topology`] captures exactly that structure: named
//! regions with a number of zones each, a symmetric inter-region one-way
//! latency matrix, and two intra-region constants (zone-to-zone and
//! same-zone latency). Jitter is a one-sided multiplicative factor drawn
//! per message.

use rand::Rng;
use serde::{Deserialize, Serialize};
use spider_types::{NodeId, RegionId, SimTime, ZoneId};
use std::collections::BTreeMap;

/// Static description of the simulated world: regions, zones, latencies.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Topology {
    region_names: Vec<String>,
    zones_per_region: Vec<u8>,
    /// One-way latency between regions, indexed `[from][to]`.
    inter_region: Vec<Vec<SimTime>>,
    /// One-way latency between distinct zones of the same region.
    inter_zone: SimTime,
    /// One-way latency between nodes in the same zone.
    intra_zone: SimTime,
    /// One-sided multiplicative jitter: latency is scaled by
    /// `U(1.0, 1.0 + jitter)`.
    jitter: f64,
    /// NIC bandwidth in bytes per second (serialization delay = size / bw).
    bandwidth_bps: u64,
}

impl Topology {
    /// Starts building a topology.
    pub fn builder() -> TopologyBuilder {
        TopologyBuilder::default()
    }

    /// Looks up a region by name.
    ///
    /// # Panics
    ///
    /// Panics if no region has that name — a configuration error.
    pub fn region(&self, name: &str) -> RegionId {
        RegionId(
            self.region_names
                .iter()
                .position(|n| n == name)
                .unwrap_or_else(|| panic!("unknown region {name:?}")) as u16,
        )
    }

    /// The `zone`-th availability zone of the region called `name`.
    ///
    /// # Panics
    ///
    /// Panics if the region does not exist or has fewer zones.
    pub fn zone(&self, name: &str, zone: u8) -> ZoneId {
        let r = self.region(name);
        assert!(
            zone < self.zones_per_region[r.0 as usize],
            "region {name} has only {} zones",
            self.zones_per_region[r.0 as usize]
        );
        ZoneId::new(r, zone)
    }

    /// Zones for a row of `n` nodes that takes its regions from `span` in
    /// turn, cycled: the `c`-th node of the row to land in a region gets
    /// that region's zone `(first_zone + c) % zones` — its own fault
    /// domain while the region has zones left, wrapping around after.
    ///
    /// # Panics
    ///
    /// Panics if `span` is empty or names an unknown region.
    pub fn cycle_zones<S: AsRef<str>>(&self, span: &[S], first_zone: u8, n: usize) -> Vec<ZoneId> {
        let mut placed = vec![first_zone as usize; self.num_regions()];
        (0..n)
            .map(|j| {
                let r = self.region(span[j % span.len()].as_ref());
                let c = &mut placed[r.0 as usize];
                *c += 1;
                ZoneId::new(r, ((*c - 1) % self.num_zones(r) as usize) as u8)
            })
            .collect()
    }

    /// Number of regions.
    pub fn num_regions(&self) -> usize {
        self.region_names.len()
    }

    /// Number of availability zones in region `r`.
    pub fn num_zones(&self, r: RegionId) -> u8 {
        self.zones_per_region[r.0 as usize]
    }

    /// Base one-way latency between two zones (before jitter).
    pub fn base_latency(&self, from: ZoneId, to: ZoneId) -> SimTime {
        if from.region() != to.region() {
            self.inter_region[from.region().0 as usize][to.region().0 as usize]
        } else if from.zone() != to.zone() {
            self.inter_zone
        } else {
            self.intra_zone
        }
    }

    /// Draws a jittered one-way latency between two zones.
    pub fn sample_latency<R: Rng>(&self, from: ZoneId, to: ZoneId, rng: &mut R) -> SimTime {
        let base = self.base_latency(from, to);
        if self.jitter <= 0.0 {
            return base;
        }
        base.mul_f64(1.0 + rng.gen_range(0.0..self.jitter))
    }

    /// NIC bandwidth in bytes/second.
    pub fn bandwidth_bps(&self) -> u64 {
        self.bandwidth_bps
    }

    /// Serialization delay of a message of `bytes` bytes.
    pub fn serialization_delay(&self, bytes: usize) -> SimTime {
        SimTime::from_nanos((bytes as u64).saturating_mul(1_000_000_000) / self.bandwidth_bps)
    }
}

/// Builder for [`Topology`] ([C-BUILDER]).
///
/// [C-BUILDER]: https://rust-lang.github.io/api-guidelines/type-safety.html
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    region_names: Vec<String>,
    zones_per_region: Vec<u8>,
    latencies: BTreeMap<(String, String), SimTime>,
    inter_zone: SimTime,
    intra_zone: SimTime,
    jitter: f64,
    bandwidth_bps: u64,
}

impl Default for TopologyBuilder {
    fn default() -> Self {
        TopologyBuilder {
            region_names: Vec::new(),
            zones_per_region: Vec::new(),
            latencies: BTreeMap::new(),
            // EC2-like defaults: ~0.5 ms between AZs, ~0.15 ms inside one.
            inter_zone: SimTime::from_micros(500),
            intra_zone: SimTime::from_micros(150),
            jitter: 0.10,
            // 5 Gbit/s NIC.
            bandwidth_bps: 5_000_000_000 / 8,
        }
    }
}

impl TopologyBuilder {
    /// Adds a region with `zones` availability zones.
    pub fn region(mut self, name: &str, zones: u8) -> Self {
        assert!(zones >= 1, "a region needs at least one zone");
        self.region_names.push(name.to_owned());
        self.zones_per_region.push(zones);
        self
    }

    /// Sets the symmetric one-way latency between two regions.
    pub fn symmetric_latency(mut self, a: &str, b: &str, one_way: SimTime) -> Self {
        self.latencies.insert((a.to_owned(), b.to_owned()), one_way);
        self.latencies.insert((b.to_owned(), a.to_owned()), one_way);
        self
    }

    /// Sets the one-way latency between distinct zones of one region.
    pub fn inter_zone_latency(mut self, one_way: SimTime) -> Self {
        self.inter_zone = one_way;
        self
    }

    /// Sets the one-way latency between nodes in the same zone.
    pub fn intra_zone_latency(mut self, one_way: SimTime) -> Self {
        self.intra_zone = one_way;
        self
    }

    /// Sets the one-sided multiplicative jitter (0.1 = up to +10 %).
    pub fn jitter(mut self, jitter: f64) -> Self {
        assert!((0.0..=2.0).contains(&jitter), "jitter out of range");
        self.jitter = jitter;
        self
    }

    /// Sets NIC bandwidth in bits per second.
    pub fn bandwidth_bits_per_sec(mut self, bps: u64) -> Self {
        assert!(bps > 0);
        self.bandwidth_bps = bps / 8;
        self
    }

    /// Finalizes the topology.
    ///
    /// # Panics
    ///
    /// Panics if a latency is missing for any pair of distinct regions.
    pub fn build(self) -> Topology {
        let n = self.region_names.len();
        let mut inter = vec![vec![SimTime::ZERO; n]; n];
        for (i, a) in self.region_names.iter().enumerate() {
            for (j, b) in self.region_names.iter().enumerate() {
                if i == j {
                    continue;
                }
                let lat = self
                    .latencies
                    .get(&(a.clone(), b.clone()))
                    .unwrap_or_else(|| panic!("missing latency {a} -> {b}"));
                inter[i][j] = *lat;
            }
        }
        Topology {
            region_names: self.region_names,
            zones_per_region: self.zones_per_region,
            inter_region: inter,
            inter_zone: self.inter_zone,
            intra_zone: self.intra_zone,
            jitter: self.jitter,
            bandwidth_bps: self.bandwidth_bps,
        }
    }
}

/// Symmetric link-quality override between two regions: a drop
/// probability plus fixed extra one-way delay for survivors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkQuality {
    /// Per-message drop probability in `[0, 1]`.
    pub drop_rate: f64,
    /// Fixed extra one-way delay for messages that get through.
    pub extra_delay: SimTime,
}

impl LinkQuality {
    /// Whether this override changes nothing (and can be cleared).
    pub fn is_clean(&self) -> bool {
        self.drop_rate == 0.0 && self.extra_delay == SimTime::ZERO
    }
}

/// Runtime network fault injection: partitions, link blocks, extra delay.
///
/// Consulted at send time for every message; used by tests and
/// [`FaultPlan`](crate::FaultPlan)s to exercise checkpoint catch-up, view
/// changes, and IRMC `TooOld` paths.
///
/// Convention: cuts are **symmetric by default** — `partition_*`,
/// `isolate`, region outages, and region cuts all sever both directions,
/// matching how `crash` behaves. The directed forms ([`block_until`],
/// [`set_drop_rate`], [`set_extra_delay`]) remain available for
/// asymmetric-loss scenarios.
///
/// [`block_until`]: NetworkControl::block_until
/// [`set_drop_rate`]: NetworkControl::set_drop_rate
/// [`set_extra_delay`]: NetworkControl::set_extra_delay
#[derive(Debug, Default)]
pub struct NetworkControl {
    /// Pairs (a, b): messages from a to b are dropped while blocked.
    blocked: BTreeMap<(NodeId, NodeId), SimTime>,
    /// Nodes whose messages are all dropped (crashed).
    crashed: std::collections::BTreeSet<NodeId>,
    /// Nodes cut off the network both ways (state machines keep running).
    isolated: std::collections::BTreeSet<NodeId>,
    /// Extra one-way delay per ordered pair.
    extra_delay: BTreeMap<(NodeId, NodeId), SimTime>,
    /// Probability of dropping a message per ordered pair.
    drop_rate: BTreeMap<(NodeId, NodeId), f64>,
    /// Region of each node, registered by the simulation at `add_node`.
    node_region: BTreeMap<NodeId, RegionId>,
    /// Regions currently cut off the network entirely.
    offline_regions: std::collections::BTreeSet<RegionId>,
    /// Severed region pairs (stored in both orders).
    region_cuts: std::collections::BTreeSet<(RegionId, RegionId)>,
    /// Degraded region pairs (stored in both orders).
    region_degrade: BTreeMap<(RegionId, RegionId), LinkQuality>,
}

impl NetworkControl {
    /// Blocks the directed link `from -> to` until simulated time `until`
    /// — the explicit *directed* form; prefer
    /// [`NetworkControl::partition_pair_until`] for realistic cuts.
    pub fn block_until(&mut self, from: NodeId, to: NodeId, until: SimTime) {
        self.blocked.insert((from, to), until);
    }

    /// Blocks both directions between `a` and `b` until `until`.
    pub fn partition_pair_until(&mut self, a: NodeId, b: NodeId, until: SimTime) {
        self.block_until(a, b, until);
        self.block_until(b, a, until);
    }

    /// Severs every `a`-side node from every `b`-side node (symmetric)
    /// until `until` — the group-level convenience for partitioning, say,
    /// an agreement group from an execution group.
    pub fn partition_groups_until(&mut self, a: &[NodeId], b: &[NodeId], until: SimTime) {
        for &x in a {
            for &y in b {
                self.partition_pair_until(x, y, until);
            }
        }
    }

    /// Marks a node as crashed: it neither sends nor receives from now on.
    pub fn crash(&mut self, node: NodeId) {
        self.crashed.insert(node);
    }

    /// Revives a crashed node (state is whatever it was — rejoin logic is
    /// the protocol's business).
    pub fn revive(&mut self, node: NodeId) {
        self.crashed.remove(&node);
    }

    /// Whether the node is currently crashed.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.crashed.contains(&node)
    }

    /// Cuts `node` off the network in both directions while its state
    /// machine and timers keep running — unlike
    /// [`NetworkControl::crash`], a later [`NetworkControl::rejoin`]
    /// lets it recover via the protocol's own catch-up paths.
    pub fn isolate(&mut self, node: NodeId) {
        self.isolated.insert(node);
    }

    /// Reconnects an isolated node.
    pub fn rejoin(&mut self, node: NodeId) {
        self.isolated.remove(&node);
    }

    /// Whether the node is currently isolated.
    pub fn is_isolated(&self, node: NodeId) -> bool {
        self.isolated.contains(&node)
    }

    /// Registers the region a node lives in. The simulation calls this
    /// from `add_node`; region-level faults only affect registered nodes.
    pub fn set_node_region(&mut self, node: NodeId, region: RegionId) {
        self.node_region.insert(node, region);
    }

    /// Cuts every node in `region` off the network, both directions
    /// (the region-outage convenience; see
    /// [`FaultEvent::RegionOutage`](crate::FaultEvent::RegionOutage) for
    /// the semantics).
    pub fn outage_region(&mut self, region: RegionId) {
        self.offline_regions.insert(region);
    }

    /// Reconnects a region taken down by
    /// [`NetworkControl::outage_region`].
    pub fn restore_region(&mut self, region: RegionId) {
        self.offline_regions.remove(&region);
    }

    /// Whether the region is currently offline.
    pub fn is_region_offline(&self, region: RegionId) -> bool {
        self.offline_regions.contains(&region)
    }

    /// Severs all traffic between two regions (symmetric).
    pub fn partition_regions(&mut self, a: RegionId, b: RegionId) {
        self.region_cuts.insert((a, b));
        self.region_cuts.insert((b, a));
    }

    /// Removes a region-level cut installed by
    /// [`NetworkControl::partition_regions`].
    pub fn heal_region_cut(&mut self, a: RegionId, b: RegionId) {
        self.region_cuts.remove(&(a, b));
        self.region_cuts.remove(&(b, a));
    }

    /// Degrades every link between two regions (symmetric). A clean
    /// [`LinkQuality`] (zero drop, zero delay) clears the degradation.
    pub fn degrade_regions(&mut self, a: RegionId, b: RegionId, quality: LinkQuality) {
        assert!((0.0..=1.0).contains(&quality.drop_rate), "drop rate out of range");
        if quality.is_clean() {
            self.region_degrade.remove(&(a, b));
            self.region_degrade.remove(&(b, a));
        } else {
            self.region_degrade.insert((a, b), quality);
            self.region_degrade.insert((b, a), quality);
        }
    }

    /// Clears every network-level fault: timed blocks, isolation, region
    /// outages, region cuts, degradation, and the per-pair drop/delay
    /// overrides. Crashed nodes stay crashed — a crash is not a network
    /// condition (and their timers are already gone).
    pub fn heal(&mut self) {
        self.blocked.clear();
        self.isolated.clear();
        self.offline_regions.clear();
        self.region_cuts.clear();
        self.region_degrade.clear();
        self.extra_delay.clear();
        self.drop_rate.clear();
    }

    /// Adds fixed extra one-way delay on the directed link.
    pub fn set_extra_delay(&mut self, from: NodeId, to: NodeId, delay: SimTime) {
        if delay == SimTime::ZERO {
            self.extra_delay.remove(&(from, to));
        } else {
            self.extra_delay.insert((from, to), delay);
        }
    }

    /// Sets a drop probability on the directed link.
    pub fn set_drop_rate(&mut self, from: NodeId, to: NodeId, p: f64) {
        assert!((0.0..=1.0).contains(&p));
        if p == 0.0 {
            self.drop_rate.remove(&(from, to));
        } else {
            self.drop_rate.insert((from, to), p);
        }
    }

    fn region_pair(&self, from: NodeId, to: NodeId) -> Option<(RegionId, RegionId)> {
        Some((*self.node_region.get(&from)?, *self.node_region.get(&to)?))
    }

    pub(crate) fn extra_delay(&self, from: NodeId, to: NodeId) -> SimTime {
        let pair = self.extra_delay.get(&(from, to)).copied().unwrap_or(SimTime::ZERO);
        let regional = self
            .region_pair(from, to)
            .and_then(|key| self.region_degrade.get(&key))
            .map(|q| q.extra_delay)
            .unwrap_or(SimTime::ZERO);
        pair + regional
    }

    pub(crate) fn should_drop<R: Rng>(
        &self,
        from: NodeId,
        to: NodeId,
        now: SimTime,
        rng: &mut R,
    ) -> bool {
        if self.crashed.contains(&from) || self.crashed.contains(&to) {
            return true;
        }
        if self.isolated.contains(&from) || self.isolated.contains(&to) {
            return true;
        }
        if let Some((ra, rb)) = self.region_pair(from, to) {
            if self.offline_regions.contains(&ra) || self.offline_regions.contains(&rb) {
                return true;
            }
            if self.region_cuts.contains(&(ra, rb)) {
                return true;
            }
            if let Some(q) = self.region_degrade.get(&(ra, rb)) {
                if q.drop_rate > 0.0 && rng.gen_bool(q.drop_rate) {
                    return true;
                }
            }
        }
        if let Some(until) = self.blocked.get(&(from, to)) {
            if now < *until {
                return true;
            }
        }
        if let Some(p) = self.drop_rate.get(&(from, to)) {
            if rng.gen_bool(*p) {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn topo() -> Topology {
        Topology::builder()
            .region("va", 3)
            .region("or", 3)
            .symmetric_latency("va", "or", SimTime::from_millis(30))
            .jitter(0.0)
            .build()
    }

    #[test]
    fn latency_classes_are_distinct() {
        let t = topo();
        let va0 = t.zone("va", 0);
        let va1 = t.zone("va", 1);
        let or0 = t.zone("or", 0);
        assert_eq!(t.base_latency(va0, or0), SimTime::from_millis(30));
        assert_eq!(t.base_latency(va0, va1), SimTime::from_micros(500));
        assert_eq!(t.base_latency(va0, va0), SimTime::from_micros(150));
    }

    #[test]
    fn cycle_zones_spreads_a_row_over_its_span() {
        let t = topo();
        let zones = |span: &[&str], first, n| t.cycle_zones(span, first, n);
        // One region: one zone each, wrapping around, from `first_zone`.
        assert_eq!(
            zones(&["va"], 2, 4),
            [t.zone("va", 2), t.zone("va", 0), t.zone("va", 1), t.zone("va", 2)]
        );
        // Regions in turn; a region named twice still counts its nodes once.
        assert_eq!(
            zones(&["va", "va", "or"], 0, 5),
            [t.zone("va", 0), t.zone("va", 1), t.zone("or", 0), t.zone("va", 2), t.zone("va", 0)]
        );
    }

    #[test]
    fn jitter_is_one_sided() {
        let t = Topology::builder()
            .region("a", 1)
            .region("b", 1)
            .symmetric_latency("a", "b", SimTime::from_millis(10))
            .jitter(0.5)
            .build();
        let mut rng = SmallRng::seed_from_u64(1);
        let a = t.zone("a", 0);
        let b = t.zone("b", 0);
        for _ in 0..100 {
            let l = t.sample_latency(a, b, &mut rng);
            assert!(l >= SimTime::from_millis(10));
            assert!(l <= SimTime::from_millis(15));
        }
    }

    #[test]
    fn serialization_delay_scales_with_size() {
        let t = Topology::builder()
            .region("a", 1)
            .bandwidth_bits_per_sec(8_000_000) // 1 MB/s
            .build();
        assert_eq!(t.serialization_delay(1_000_000), SimTime::from_secs(1));
        assert_eq!(t.serialization_delay(1_000), SimTime::from_millis(1));
    }

    #[test]
    #[should_panic(expected = "unknown region")]
    fn unknown_region_panics() {
        topo().region("nowhere");
    }

    #[test]
    fn network_control_blocks_and_expires() {
        let mut nc = NetworkControl::default();
        let mut rng = SmallRng::seed_from_u64(2);
        let (a, b) = (NodeId(1), NodeId(2));
        nc.block_until(a, b, SimTime::from_secs(5));
        assert!(nc.should_drop(a, b, SimTime::from_secs(1), &mut rng));
        assert!(!nc.should_drop(b, a, SimTime::from_secs(1), &mut rng));
        assert!(!nc.should_drop(a, b, SimTime::from_secs(5), &mut rng));
    }

    #[test]
    fn network_control_region_faults_are_symmetric_and_heal() {
        let mut nc = NetworkControl::default();
        let mut rng = SmallRng::seed_from_u64(7);
        let (va, or) = (RegionId(0), RegionId(1));
        let (a, b) = (NodeId(1), NodeId(2));
        nc.set_node_region(a, va);
        nc.set_node_region(b, or);

        nc.partition_regions(va, or);
        assert!(nc.should_drop(a, b, SimTime::ZERO, &mut rng));
        assert!(nc.should_drop(b, a, SimTime::ZERO, &mut rng));
        nc.heal_region_cut(or, va); // either argument order heals
        assert!(!nc.should_drop(a, b, SimTime::ZERO, &mut rng));

        nc.outage_region(or);
        assert!(nc.is_region_offline(or));
        assert!(nc.should_drop(a, b, SimTime::ZERO, &mut rng));
        assert!(nc.should_drop(b, a, SimTime::ZERO, &mut rng));
        nc.restore_region(or);
        assert!(!nc.should_drop(a, b, SimTime::ZERO, &mut rng));

        nc.degrade_regions(
            va,
            or,
            LinkQuality { drop_rate: 1.0, extra_delay: SimTime::from_millis(5) },
        );
        assert!(nc.should_drop(a, b, SimTime::ZERO, &mut rng));
        assert_eq!(nc.extra_delay(b, a), SimTime::from_millis(5));
        nc.outage_region(va);
        nc.heal();
        assert!(!nc.should_drop(a, b, SimTime::ZERO, &mut rng));
        assert_eq!(nc.extra_delay(a, b), SimTime::ZERO);
    }

    #[test]
    fn network_control_isolation_is_recoverable_and_heal_spares_crashes() {
        let mut nc = NetworkControl::default();
        let mut rng = SmallRng::seed_from_u64(8);
        let (a, b, c) = (NodeId(1), NodeId(2), NodeId(3));
        nc.isolate(a);
        assert!(nc.is_isolated(a));
        assert!(nc.should_drop(a, b, SimTime::ZERO, &mut rng));
        assert!(nc.should_drop(b, a, SimTime::ZERO, &mut rng));
        assert!(!nc.should_drop(b, c, SimTime::ZERO, &mut rng));
        nc.crash(c);
        nc.heal();
        assert!(!nc.should_drop(a, b, SimTime::ZERO, &mut rng), "heal rejoins isolated nodes");
        assert!(nc.should_drop(b, c, SimTime::ZERO, &mut rng), "heal never revives crashes");
    }

    #[test]
    fn network_control_group_partition_cuts_cross_pairs_only() {
        let mut nc = NetworkControl::default();
        let mut rng = SmallRng::seed_from_u64(9);
        let (a1, a2, b1) = (NodeId(1), NodeId(2), NodeId(3));
        nc.partition_groups_until(&[a1, a2], &[b1], SimTime::from_secs(5));
        assert!(nc.should_drop(a1, b1, SimTime::ZERO, &mut rng));
        assert!(nc.should_drop(b1, a2, SimTime::ZERO, &mut rng));
        assert!(!nc.should_drop(a1, a2, SimTime::ZERO, &mut rng), "intra-side traffic flows");
        assert!(!nc.should_drop(a1, b1, SimTime::from_secs(5), &mut rng), "cut expires");
    }

    #[test]
    fn network_control_crash_drops_both_directions() {
        let mut nc = NetworkControl::default();
        let mut rng = SmallRng::seed_from_u64(3);
        let (a, b) = (NodeId(1), NodeId(2));
        nc.crash(a);
        assert!(nc.is_crashed(a));
        assert!(nc.should_drop(a, b, SimTime::ZERO, &mut rng));
        assert!(nc.should_drop(b, a, SimTime::ZERO, &mut rng));
        nc.revive(a);
        assert!(!nc.should_drop(a, b, SimTime::ZERO, &mut rng));
    }
}
