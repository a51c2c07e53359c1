//! Shared fixtures for the workspace-level integration tests (the actual
//! tests live in `tests/tests/`).

#![forbid(unsafe_code)]

use spider::{DeploymentBuilder, SpiderConfig};
use spider_app::KvStore;
use spider_harness::ec2_topology;
use spider_sim::Simulation;

/// FNV-1a over a string: a stable digest for Debug-rendered traces and
/// rows.
pub use spider_obs::export::fnv64 as digest;

/// Builds the canonical four-region Spider deployment over the kv store.
pub fn standard_deployment(
    seed: u64,
    cfg: SpiderConfig,
) -> (Simulation<spider::SpiderMsg>, spider::Deployment) {
    let mut sim = Simulation::new(ec2_topology(), seed);
    let dep = DeploymentBuilder::new(cfg)
        .with_app(KvStore::new)
        .agreement_region("virginia")
        .execution_group("virginia")
        .execution_group("oregon")
        .execution_group("ireland")
        .execution_group("tokyo")
        .build(&mut sim);
    (sim, dep)
}
