//! # Spider — resilient cloud-based replication with low latency
//!
//! This crate is the primary contribution of the reproduced paper
//! (Eischer & Distler, Middleware 2020): a BFT system architecture that
//! models a geo-replicated service as a collection of loosely coupled
//! replica groups, each placed across the availability zones of one cloud
//! region.
//!
//! * The **agreement group** (`3·fa + 1` replicas, [`spider_consensus`]
//!   PBFT) establishes the global total order on writes and strongly
//!   consistent reads (§3.1).
//! * **Execution groups** (`2·fe + 1` replicas each) host the application,
//!   talk to clients, apply the ordered requests, and answer weakly
//!   consistent reads locally (§3.3).
//! * All inter-group communication crosses exactly two abstractions: a
//!   *request channel* (one subchannel per client) and a *commit channel*
//!   (one subchannel), both [`spider_irmc`] IRMCs (§3.2).
//! * Checkpointing (§3.4), global flow control with `z` skippable trailing
//!   groups (§3.5), and runtime addition/removal of execution groups
//!   (§3.6) are implemented per the paper's pseudocode (appendix Figs
//!   15–17).
//!
//! The replicas and clients here are [`spider_sim::Actor`]s: deterministic
//! state machines scheduled by the discrete-event simulator, which plays
//! the role of the paper's EC2 deployment.
//!
//! # Quick start
//!
//! ```
//! use spider::{DeploymentBuilder, SpiderConfig, WorkloadSpec};
//! use spider_sim::{Simulation, Topology};
//! use spider_types::SimTime;
//!
//! // Two regions; the agreement group lives in "virginia".
//! let topology = Topology::builder()
//!     .region("virginia", 4)
//!     .region("oregon", 3)
//!     .symmetric_latency("virginia", "oregon", SimTime::from_millis(31))
//!     .build();
//! let mut sim = Simulation::new(topology, 42);
//! let mut deployment = DeploymentBuilder::new(SpiderConfig::default())
//!     .agreement_region("virginia")
//!     .execution_group("virginia")
//!     .execution_group("oregon")
//!     .build(&mut sim);
//! // One client per group issuing a few writes:
//! deployment.spawn_clients(&mut sim, 0, 1, WorkloadSpec::writes_per_sec(10.0, 100));
//! deployment.spawn_clients(&mut sim, 1, 1, WorkloadSpec::writes_per_sec(10.0, 100));
//! sim.run_until(SimTime::from_secs(3));
//! let samples = deployment.collect_samples(&sim);
//! assert!(!samples.is_empty());
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::wildcard_enum_match_arm))]
#![cfg_attr(not(test), warn(clippy::match_wildcard_for_single_variants))]
#![warn(missing_docs)]

pub mod agreement;
pub mod app;
pub mod byzantine;
pub mod checkpoint;
pub mod client;
pub mod config;
pub mod deploy;
pub mod directory;
pub mod execution;
pub mod host;
pub mod keys;
pub mod messages;

pub use app::{Application, CounterApp};
pub use checkpoint::{Part, Snapshot};
pub use client::{Sample, SpiderClient, WorkloadSpec};
pub use config::SpiderConfig;
pub use deploy::{Deployment, DeploymentBuilder};
pub use directory::Directory;
pub use messages::SpiderMsg;
