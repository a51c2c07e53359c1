//! Topology: regions, availability zones, and the latency model; and the
//! network's fault state.
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

use crate::fault::{Effect, FaultEvent, Site};

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

/// The simulated network's fault state: which nodes are crashed, and the
/// link rules of the open [`FaultPlan`](crate::FaultPlan) windows.
/// Consulted at send time for every message.
#[derive(Debug, Default)]
pub(crate) struct NetworkControl {
    /// Region of each node, indexed by `NodeId` (nodes register in id order).
    node_region: Vec<RegionId>,
    /// Whether each node is crashed, indexed by `NodeId`; nodes past the
    /// end are not.
    crashed: Vec<bool>,
    /// Active link rules, in the order their windows opened.
    rules: Vec<Rule>,
}

/// A [`LinkRule`] as installed: its window, and its ends resolved.
#[derive(Debug)]
struct Rule {
    window: u32,
    from: End,
    to: End,
    effect: Effect,
}

/// A [`Site`] with its region name resolved.
#[derive(Debug, Clone, Copy)]
enum End {
    Any,
    Region(RegionId),
    Node(NodeId),
}

impl End {
    /// # Panics
    ///
    /// Panics if `site` names a region the topology doesn't know.
    fn resolve(site: &Site, topology: &Topology) -> End {
        match site {
            Site::Any => End::Any,
            Site::Region(name) => End::Region(topology.region(name)),
            Site::Node(node) => End::Node(*node),
        }
    }
}

impl NetworkControl {
    /// Registers the next node, placed in `region`.
    pub(crate) fn add_node(&mut self, region: RegionId) {
        self.node_region.push(region);
    }

    pub(crate) fn is_crashed(&self, node: NodeId) -> bool {
        self.crashed.get(node.0 as usize) == Some(&true)
    }

    /// Checks that every region `event` names exists in `topology`.
    ///
    /// # Panics
    ///
    /// Panics if one does not.
    pub(crate) fn validate(event: &FaultEvent, topology: &Topology) {
        if let FaultEvent::Open { rules, .. } = event {
            for rule in rules {
                End::resolve(&rule.from, topology);
                End::resolve(&rule.to, topology);
            }
        }
    }

    /// Applies one fault event, resolving the regions it names.
    pub(crate) fn apply(&mut self, event: FaultEvent, topology: &Topology) {
        match event {
            FaultEvent::Open { window, rules } => {
                self.rules.extend(rules.iter().map(|rule| Rule {
                    window,
                    from: End::resolve(&rule.from, topology),
                    to: End::resolve(&rule.to, topology),
                    effect: rule.effect,
                }));
            }
            FaultEvent::Close { window } => self.rules.retain(|rule| rule.window != window),
            FaultEvent::CrashReplica { node } => {
                let i = node.0 as usize;
                if self.crashed.len() <= i {
                    self.crashed.resize(i + 1, false);
                }
                self.crashed[i] = true;
            }
            FaultEvent::Heal => self.rules.clear(),
        }
    }

    /// The effects of the rules covering the link `from -> to`.
    fn effects(&self, from: NodeId, to: NodeId) -> impl Iterator<Item = Effect> + '_ {
        let covers = move |end: End, node: NodeId| match end {
            End::Any => true,
            End::Region(r) => self.node_region.get(node.0 as usize) == Some(&r),
            End::Node(n) => n == node,
        };
        let rules = self.rules.iter();
        rules.filter(move |r| covers(r.from, from) && covers(r.to, to)).map(|r| r.effect)
    }

    /// Extra one-way delay on `from -> to`: the sum over its degrade rules.
    pub(crate) fn extra_delay(&self, from: NodeId, to: NodeId) -> SimTime {
        self.effects(from, to).fold(SimTime::ZERO, |sum, effect| match effect {
            Effect::Cut => sum,
            Effect::Degrade { extra_delay, .. } => sum + extra_delay,
        })
    }

    /// Whether a message sent `from -> to` is lost. Crashes and cuts are
    /// checked first and draw nothing from `rng`; then each degrade rule
    /// with a nonzero drop rate draws once, until one drops the message.
    pub(crate) fn should_drop<R: Rng>(&self, from: NodeId, to: NodeId, rng: &mut R) -> bool {
        if self.is_crashed(from) || self.is_crashed(to) {
            return true;
        }
        if self.effects(from, to).any(|effect| effect == Effect::Cut) {
            return true;
        }
        self.effects(from, to).any(|effect| match effect {
            Effect::Cut => false,
            Effect::Degrade { drop_rate, .. } => drop_rate > 0.0 && rng.gen_bool(drop_rate),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultPlan;
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

    /// The network after every event of `plan` due by `t`, over nodes
    /// 0 and 1 in `va` and 2 and 3 in `or`.
    fn network_at(plan: &FaultPlan, t: SimTime) -> NetworkControl {
        let topo = topo();
        let mut nc = NetworkControl::default();
        for region in ["va", "va", "or", "or"] {
            nc.add_node(topo.region(region));
        }
        for (_, event) in plan.clone().into_events(0).0.into_iter().filter(|(at, _)| *at <= t) {
            nc.apply(event, &topo);
        }
        nc
    }

    fn drops(nc: &NetworkControl, from: u32, to: u32) -> bool {
        nc.should_drop(NodeId(from), NodeId(to), &mut SmallRng::seed_from_u64(7))
    }

    #[test]
    fn network_control_region_faults_are_symmetric_and_heal() {
        let (s, ms) = (SimTime::from_secs, SimTime::from_millis);
        let plan = FaultPlan::new()
            .wan_partition(&["va"], &["or"], s(1), s(2))
            .region_outage("or", s(3), s(4))
            .link_degrade("va", "or", 1.0, ms(5), s(5), s(9))
            .region_outage("va", s(6), s(9))
            .heal_at(s(7));
        let nc = network_at(&plan, s(1));
        assert!(drops(&nc, 0, 2) && drops(&nc, 2, 0));
        assert!(!drops(&nc, 0, 1) && !drops(&nc, 2, 3), "traffic within a side flows");
        assert!(!drops(&network_at(&plan, s(2)), 0, 2));

        let nc = network_at(&plan, s(3));
        assert!(drops(&nc, 0, 2) && drops(&nc, 2, 0) && drops(&nc, 2, 3));
        assert!(!drops(&nc, 0, 1));
        assert!(!drops(&network_at(&plan, s(4)), 0, 2));

        let nc = network_at(&plan, s(5));
        assert!(drops(&nc, 0, 2));
        assert_eq!(nc.extra_delay(NodeId(2), NodeId(0)), ms(5));
        assert_eq!(nc.extra_delay(NodeId(0), NodeId(1)), SimTime::ZERO);
        assert!(drops(&network_at(&plan, s(6)), 0, 1));
        let nc = network_at(&plan, s(7));
        assert!(!drops(&nc, 0, 2) && !drops(&nc, 0, 1));
        assert_eq!(nc.extra_delay(NodeId(0), NodeId(2)), SimTime::ZERO);
    }

    #[test]
    fn network_control_isolation_is_recoverable_and_heal_spares_crashes() {
        let s = SimTime::from_secs;
        let plan = FaultPlan::new()
            .isolate_replica(NodeId(1), s(1), s(5))
            .crash_replica(NodeId(3), s(1))
            .heal_at(s(2));
        let nc = network_at(&plan, s(1));
        assert!(drops(&nc, 1, 2) && drops(&nc, 2, 1));
        assert!(!drops(&nc, 2, 0));
        let nc = network_at(&plan, s(2));
        assert!(!drops(&nc, 1, 2), "heal rejoins isolated nodes");
        assert!(drops(&nc, 2, 3), "heal never revives crashes");
    }

    #[test]
    fn network_control_group_partition_cuts_cross_pairs_only() {
        let s = SimTime::from_secs;
        let plan = FaultPlan::new().wan_partition(&["va"], &["or"], SimTime::ZERO, s(5));
        let nc = network_at(&plan, SimTime::ZERO);
        assert!(drops(&nc, 0, 2));
        assert!(drops(&nc, 2, 1));
        assert!(!drops(&nc, 0, 1), "intra-side traffic flows");
        assert!(!drops(&network_at(&plan, s(5)), 0, 2), "cut expires");
    }

    #[test]
    fn network_control_crash_drops_both_directions() {
        let s = SimTime::from_secs;
        let plan = FaultPlan::new().crash_replica(NodeId(1), s(1)).crash_replica(NodeId(40), s(1));
        assert!(!drops(&network_at(&plan, SimTime::ZERO), 1, 2));
        let nc = network_at(&plan, s(1));
        assert!(drops(&nc, 1, 2));
        assert!(drops(&nc, 2, 1));
        // The crashed table is dense: ids it never saw are up.
        assert!(nc.is_crashed(NodeId(40)) && !nc.is_crashed(NodeId(39)));
        assert!(!nc.is_crashed(NodeId(41)) && !nc.is_crashed(NodeId(u32::MAX)));
    }
}
