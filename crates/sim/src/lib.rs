//! Deterministic discrete-event simulator for geo-distributed protocols.
//!
//! The paper evaluates Spider on Amazon EC2 virtual machines spread over
//! four (later five) regions. This crate is the substitute substrate: a
//! deterministic discrete-event simulation (DES) of nodes, links, CPUs, and
//! timers that lets the exact same sans-IO protocol state machines run at
//! laptop scale with reproducible latency distributions.
//!
//! # Model
//!
//! * **Nodes** are actors implementing [`Actor`]; each lives in an
//!   availability zone of a region ([`Topology`]).
//! * **Messages** carry a [`WireSize`]; delivery time is
//!   `departure + serialization (size / NIC bandwidth) + propagation
//!   (latency matrix) + jitter`.
//! * **CPU** follows a busy-server model: a node processes one event at a
//!   time; handlers charge processing cost via [`Context::charge`]; messages
//!   depart when the handler's charged work completes. This produces
//!   realistic saturation behaviour and CPU-utilization numbers. An event
//!   that meets its node busy is turned away: it is due again when the
//!   node frees up, behind everything queued for that instant, and each
//!   turn-away counts as an event ([`SimStats::total_events`]).
//! * **Lines**: a node's turned-away events wait in its line, a FIFO inside
//!   the event queue with one heap key, the head's. When the node frees up
//!   and is busy again after one handler, the rest of the line is turned
//!   away in one step instead of one heap sift per event. The line keeps
//!   the pop order of re-keying every event bit for bit, with four rules:
//!   (a) the rest of a line is turned away in one step, with consecutive
//!   fresh sequence numbers, only when no other event at the line's
//!   instant would pop between its members, and otherwise the members go
//!   back into the heap at their own keys; (b) an event joins a line only
//!   while the head's key is at the node's current busy-until instant, and
//!   is otherwise re-keyed in the heap alone; (c) a head that charged
//!   nothing hands over to the next member at that member's own key; (d) a
//!   crashed node drops its whole line, each member counted once. So a
//!   line moves no event count and no run.
//! * **Determinism**: one seed, one execution. All randomness flows through
//!   a single seeded RNG, and ties in the event queue are broken by
//!   insertion order.
//! * **Faults**: a scripted [`FaultPlan`] is the one way to break the
//!   network. It is a deterministic timeline of typed fault events — region
//!   outages, WAN partitions, link degradation, isolated and crashed
//!   replicas — applied at scheduled times and written in placement terms.
//!   Every network fault is a window of directed link rules (cut, or
//!   drop with a probability plus a fixed delay) that the window's close
//!   removes again, so overlapping windows compose.
//! * **Byzantine nodes**: [`Simulation::set_adversary`] puts a rewrite on
//!   one node's outbox, so the protocols under test carry no fault
//!   behaviour of their own.
//!
//! # Examples
//!
//! ```
//! use spider_sim::{Actor, Context, Simulation, Topology};
//! use spider_types::{NodeId, RegionId, SimTime, WireSize};
//!
//! #[derive(Clone)]
//! struct Ping(u32);
//! impl WireSize for Ping {
//!     fn wire_size(&self) -> usize { 64 }
//! }
//!
//! struct Echo;
//! impl Actor<Ping> for Echo {
//!     fn on_message(&mut self, ctx: &mut Context<'_, Ping>, from: NodeId, msg: Ping) {
//!         if msg.0 < 3 {
//!             ctx.send(from, Ping(msg.0 + 1));
//!         }
//!     }
//! }
//!
//! let topology = Topology::builder()
//!     .region("a", 1)
//!     .region("b", 1)
//!     .symmetric_latency("a", "b", SimTime::from_millis(10))
//!     .build();
//! let mut sim = Simulation::new(topology, 7);
//! let a = sim.add_node(sim.topology().zone("a", 0), Echo);
//! let b = sim.add_node(sim.topology().zone("b", 0), Echo);
//! sim.post(SimTime::ZERO, a, b, Ping(0));
//! sim.run_until_quiescent(SimTime::from_secs(1));
//! assert!(sim.now() >= SimTime::from_millis(30), "three hops of 10ms each");
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::wildcard_enum_match_arm))]
#![cfg_attr(not(test), warn(clippy::match_wildcard_for_single_variants))]
#![warn(missing_docs)]

mod actor;
mod event;
mod fault;
mod metrics;
mod net;
mod world;

pub use actor::{Actor, Context, Timer};
pub use fault::FaultPlan;
pub use metrics::{LinkClass, NetStats, NodeStats, SimStats};
pub use net::{Topology, TopologyBuilder};
pub use world::Simulation;

pub use spider_obs::{
    req_id, ObsConfig, ObsReport, Recorder, PHASE_BATCH, PHASE_COMMIT, PHASE_DELIVER, PHASE_EXEC,
    PHASE_PROPOSE, PHASE_RECAST, PHASE_REQUEST, PHASE_SHIP,
};
pub use spider_types::{NodeId, SimTime, WireSize, ZoneId};
