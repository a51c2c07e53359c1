//! Scripted fault plans: a deterministic timeline of typed fault events.
//!
//! A [`FaultPlan`] is a declarative schedule of faults — region outages,
//! WAN partitions, link degradation, replica isolation and crashes — that
//! the [`Simulation`](crate::Simulation) applies at fixed `SimTime`s, and
//! the only way to break the simulated network. Plans are written in
//! *placement* terms (region names), not region ids: the simulation
//! resolves regions against its [`Topology`](crate::Topology) when each
//! event fires, so the same plan works across deployments of different
//! sizes.
//!
//! Every network fault is a *window* of [`LinkRule`]s: each rule names a
//! directed set of links by its two ends ([`Site`]) and an [`Effect`] on
//! them. A window's [`FaultEvent::Open`] adds its rules and its
//! [`FaultEvent::Close`] removes exactly those, so overlapping windows
//! compose: a node isolated over `[0 s, 10 s)` and again over
//! `[5 s, 7 s)` rejoins at 10 s.
//!
//! Determinism: a plan is pure data. Event application consumes no
//! randomness, ties at the same instant apply in insertion order, and the
//! only RNG in the system stays the simulation's single seeded stream —
//! so a faulted run is exactly as reproducible as an unfaulted one. A send
//! that a crash or a cut drops draws nothing from it, and a send over a
//! degraded link draws once per rule with a nonzero drop rate (until one
//! drops it).
//!
//! Semantics worth knowing:
//!
//! * A region outage cuts every node placed in the region off the network
//!   (both directions). Node state machines stay alive — timers keep
//!   firing into the void — so the window's close (or a
//!   [`FaultEvent::Heal`]) lets them recover via the protocol's own
//!   catch-up paths. This matches a WAN disaster (the region is
//!   unreachable), not a power loss; use [`FaultEvent::CrashReplica`] for
//!   the latter.
//! * [`FaultEvent::CrashReplica`] is a true fail-stop: the node's queued
//!   and future events (including its timers) are discarded for good —
//!   crash faults model permanent loss within the `f` budget.
//! * Messages already in flight when a cut lands still arrive: drops are
//!   decided at send time, mirroring packets that left the NIC before
//!   the cable was pulled.

use spider_types::{NodeId, SimTime};

/// One end of a [`LinkRule`]: the nodes it covers.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Site {
    /// Every node.
    Any,
    /// Every node placed in the named region.
    Region(String),
    /// One node.
    Node(NodeId),
}

/// What a [`LinkRule`] does to each message sent over its links.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Effect {
    /// The message is dropped.
    Cut,
    /// The message is dropped with probability `drop_rate`; if it gets
    /// through, it arrives `extra_delay` late.
    Degrade {
        /// Per-message drop probability in `[0, 1]`.
        drop_rate: f64,
        /// Fixed extra one-way delay for messages that get through.
        extra_delay: SimTime,
    },
}

/// The directed links from every node of `from` to every node of `to`,
/// and what happens on them.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LinkRule {
    /// The senders.
    pub(crate) from: Site,
    /// The receivers.
    pub(crate) to: Site,
    /// What happens to each message.
    pub(crate) effect: Effect,
}

/// One typed fault, applied at a scheduled instant.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum FaultEvent {
    /// Opens fault window `window`: adds its link rules.
    Open {
        /// The window: numbered within its plan, and renumbered into the
        /// simulation's count when the plan is installed.
        window: u32,
        /// The rules the window holds while it is open.
        rules: Vec<LinkRule>,
    },
    /// Closes fault window `window`: removes exactly the rules its
    /// [`FaultEvent::Open`] added.
    Close {
        /// The window.
        window: u32,
    },
    /// Fail-stops one node: its pending and future events are discarded.
    CrashReplica {
        /// The node to crash.
        node: NodeId,
    },
    /// Removes every link rule, of open windows too. Crashed nodes stay
    /// crashed — a crash is not a network condition.
    Heal,
}

/// A scripted, seed-deterministic timeline of typed fault events.
///
/// Built with the fluent helpers below and installed via
/// [`Simulation::install_fault_plan`](crate::Simulation::install_fault_plan).
/// Events apply in time order; ties apply in the order they were added.
///
/// # Examples
///
/// ```
/// use spider_sim::FaultPlan;
/// use spider_types::{NodeId, SimTime};
///
/// let plan = FaultPlan::new()
///     .wan_partition(
///         &["virginia", "ireland"],
///         &["oregon", "tokyo"],
///         SimTime::from_secs(10),
///         SimTime::from_secs(20),
///     )
///     .region_outage("tokyo", SimTime::from_secs(30), SimTime::from_secs(40))
///     .degrade_links(
///         &[NodeId(0), NodeId(1)],
///         &[NodeId(5)],
///         0.2,
///         SimTime::from_millis(50),
///         SimTime::from_secs(45),
///         SimTime::from_secs(50),
///     );
/// assert_eq!(plan.len(), 6); // each window is an open + a close event
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<(SimTime, FaultEvent)>,
    /// Windows opened so far; the next one gets this number.
    windows: u32,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    fn at(mut self, at: SimTime, event: FaultEvent) -> Self {
        self.events.push((at, event));
        self
    }

    /// Holds `rules` over `[from, until)`; `what` names the fault in the
    /// panic message.
    fn window(mut self, what: &str, from: SimTime, until: SimTime, rules: Vec<LinkRule>) -> Self {
        assert!(from < until, "{what} window is empty");
        let window = self.windows;
        self.windows += 1;
        self.at(from, FaultEvent::Open { window, rules }).at(until, FaultEvent::Close { window })
    }

    /// Takes `region` offline over `[from, until)`: every link into or
    /// out of it is cut.
    #[must_use]
    pub fn region_outage(self, region: &str, from: SimTime, until: SimTime) -> Self {
        let region = Site::Region(region.to_owned());
        let rules = vec![cut(region.clone(), Site::Any), cut(Site::Any, region)];
        self.window("outage", from, until, rules)
    }

    /// Severs `side_a` from `side_b` over `[from, until)` (symmetric);
    /// traffic within each side is untouched.
    #[must_use]
    pub fn wan_partition(
        self,
        side_a: &[&str],
        side_b: &[&str],
        from: SimTime,
        until: SimTime,
    ) -> Self {
        assert!(!side_a.is_empty() && !side_b.is_empty(), "partition side is empty");
        let mut rules = Vec::new();
        for a in side_a {
            for b in side_b {
                let (a, b) = (Site::Region((*a).to_owned()), Site::Region((*b).to_owned()));
                rules.extend([cut(a.clone(), b.clone()), cut(b, a)]);
            }
        }
        self.window("partition", from, until, rules)
    }

    /// Degrades every link between regions `a` and `b` over
    /// `[from, until)`, both directions: messages are dropped with
    /// `drop_rate` and the ones that get through delayed by `extra_delay`.
    #[must_use]
    pub fn link_degrade(
        self,
        a: &str,
        b: &str,
        drop_rate: f64,
        extra_delay: SimTime,
        from: SimTime,
        until: SimTime,
    ) -> Self {
        let effect = degrade(drop_rate, extra_delay);
        let (a, b) = (Site::Region(a.to_owned()), Site::Region(b.to_owned()));
        let mut rules = vec![LinkRule { from: a.clone(), to: b.clone(), effect }];
        if a != b {
            rules.push(LinkRule { from: b, to: a, effect });
        }
        self.window("degrade", from, until, rules)
    }

    /// Degrades the directed links from each of `senders` to each of
    /// `receivers` over `[from, until)`, like
    /// [`FaultPlan::link_degrade`] does between two regions.
    #[must_use]
    pub fn degrade_links(
        self,
        senders: &[NodeId],
        receivers: &[NodeId],
        drop_rate: f64,
        extra_delay: SimTime,
        from: SimTime,
        until: SimTime,
    ) -> Self {
        let effect = degrade(drop_rate, extra_delay);
        let rules = senders.iter().flat_map(|&s| {
            receivers.iter().map(move |&r| LinkRule {
                from: Site::Node(s),
                to: Site::Node(r),
                effect,
            })
        });
        self.window("degrade", from, until, rules.collect())
    }

    /// Fail-stops `node` at `at`: its pending and future events, timers
    /// included, are discarded for good.
    #[must_use]
    pub fn crash_replica(self, node: NodeId, at: SimTime) -> Self {
        self.at(at, FaultEvent::CrashReplica { node })
    }

    /// Cuts `node` off the network over `[from, until)`, both directions;
    /// its timers keep running, so it recovers via the protocol's
    /// catch-up paths.
    #[must_use]
    pub fn isolate_replica(self, node: NodeId, from: SimTime, until: SimTime) -> Self {
        let rules = vec![cut(Site::Node(node), Site::Any), cut(Site::Any, Site::Node(node))];
        self.window("isolation", from, until, rules)
    }

    /// Clears every network-level fault at `at` (crashes persist).
    #[must_use]
    pub fn heal_at(self, at: SimTime) -> Self {
        self.at(at, FaultEvent::Heal)
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The timeline in application order (stable sort by time, so
    /// same-instant events keep insertion order), its windows numbered
    /// from `first_window` up; the second value is the number after its
    /// last window.
    pub(crate) fn into_events(mut self, first_window: u32) -> (Vec<(SimTime, FaultEvent)>, u32) {
        self.events.sort_by_key(|(at, _)| *at);
        for (_, event) in &mut self.events {
            if let FaultEvent::Open { window, .. } | FaultEvent::Close { window } = event {
                *window += first_window;
            }
        }
        (self.events, first_window + self.windows)
    }
}

fn cut(from: Site, to: Site) -> LinkRule {
    LinkRule { from, to, effect: Effect::Cut }
}

fn degrade(drop_rate: f64, extra_delay: SimTime) -> Effect {
    assert!((0.0..=1.0).contains(&drop_rate), "drop rate out of range");
    Effect::Degrade { drop_rate, extra_delay }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_emits_paired_events_in_time_order() {
        let plan = FaultPlan::new()
            .region_outage("b", SimTime::from_secs(5), SimTime::from_secs(9))
            .crash_replica(NodeId(3), SimTime::from_secs(1))
            .isolate_replica(NodeId(2), SimTime::from_secs(6), SimTime::from_secs(7))
            .heal_at(SimTime::from_secs(20));
        // Windows are numbered from where the simulation's count stands.
        let (events, next_window) = plan.into_events(4);
        assert_eq!(next_window, 6);
        assert_eq!(events.len(), 6);
        assert_eq!(
            events[0],
            (SimTime::from_secs(1), FaultEvent::CrashReplica { node: NodeId(3) })
        );
        let b = || Site::Region("b".into());
        let outage = vec![cut(b(), Site::Any), cut(Site::Any, b())];
        assert_eq!(events[1].1, FaultEvent::Open { window: 4, rules: outage });
        assert!(matches!(events[2].1, FaultEvent::Open { window: 5, .. }));
        assert_eq!(events[3].1, FaultEvent::Close { window: 5 });
        assert_eq!(events[4].1, FaultEvent::Close { window: 4 });
        assert_eq!(events[5].1, FaultEvent::Heal);
    }

    #[test]
    fn same_instant_events_keep_insertion_order() {
        let t = SimTime::from_secs(2);
        let plan = FaultPlan::new()
            .at(t, FaultEvent::Open { window: 0, rules: vec![] })
            .at(t, FaultEvent::Close { window: 0 });
        let (events, _) = plan.into_events(0);
        assert!(matches!(events[0].1, FaultEvent::Open { .. }));
        assert!(matches!(events[1].1, FaultEvent::Close { .. }));
    }

    #[test]
    fn symmetric_builders_add_both_directions_once() {
        let s = SimTime::from_secs;
        let rules = |plan: FaultPlan| match plan.into_events(0).0.swap_remove(0).1 {
            FaultEvent::Open { rules, .. } => rules,
            other => panic!("expected an open event, got {other:?}"),
        };
        let region = |r: &str| Site::Region(r.into());
        let partition = rules(FaultPlan::new().wan_partition(&["a"], &["b", "c"], s(1), s(2)));
        assert_eq!(
            partition,
            [
                cut(region("a"), region("b")),
                cut(region("b"), region("a")),
                cut(region("a"), region("c")),
                cut(region("c"), region("a")),
            ]
        );
        let effect = degrade(0.5, s(1));
        let within = rules(FaultPlan::new().link_degrade("a", "a", 0.5, s(1), s(1), s(2)));
        assert_eq!(within, [LinkRule { from: region("a"), to: region("a"), effect }]);
        let nodes = rules(FaultPlan::new().degrade_links(
            &[NodeId(1), NodeId(2)],
            &[NodeId(7)],
            0.5,
            s(1),
            s(1),
            s(2),
        ));
        let link = |from, to| LinkRule {
            from: Site::Node(NodeId(from)),
            to: Site::Node(NodeId(to)),
            effect,
        };
        assert_eq!(nodes, [link(1, 7), link(2, 7)], "directed: nothing back from 7");
    }

    #[test]
    #[should_panic(expected = "outage window is empty")]
    fn empty_outage_window_panics() {
        let _ = FaultPlan::new().region_outage("a", SimTime::from_secs(2), SimTime::from_secs(2));
    }
}
