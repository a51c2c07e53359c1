//! Deployment-wide configuration.

use crate::keys;
use spider_consensus::{BatcherConfig, PbftConfig, VIEW_CHANGE_TIMEOUT};
use spider_crypto::CostModel;
use spider_irmc::{ChannelMode, IrmcConfig, Variant};
use spider_types::{GroupId, SimTime};

/// Capacity of each client's request subchannel (Fig 16 uses 2).
pub(crate) const REQUEST_CAPACITY: u64 = 2;

/// Configuration of a Spider deployment.
///
/// Field constraints follow the paper: the checkpoint interval of a group
/// must stay below the capacity of its input IRMC (§3.4 — liveness), and
/// the agreement window must cover at least one checkpoint interval
/// (Fig 17, `AG-WIN >= ka`).
///
/// Values no deployment varies are constants in the one module that uses
/// them, not fields:
///
/// * the request subchannel capacity is `REQUEST_CAPACITY` in this
///   module (2, as in Fig 16);
/// * the commit channel's range cap is [`IrmcConfig::max_range`], whose
///   default [`spider_irmc::MAX_RANGE`] the agreement group's grid cut
///   also reads;
/// * the seed of the shared simulated PKI is [`keys::KEY_SEED`];
/// * the consensus pipelining depth is [`PbftConfig::pipeline_depth`],
///   and the watermark window a consensus constant;
/// * the client retry interval is [`crate::client::CLIENT_RETRY`], and a
///   client's group failover and weak-read escalation thresholds are
///   constants in [`crate::client`].
#[derive(Debug, Clone)]
pub struct SpiderConfig {
    /// Faults tolerated by the agreement group (group size `3·fa + 1`).
    pub fa: usize,
    /// Faults tolerated by each execution group (group size `2·fe + 1`).
    pub fe: usize,
    /// Agreement checkpoint interval `ka`.
    pub ka: u64,
    /// Execution checkpoint interval `ke`.
    pub ke: u64,
    /// Agreement window size (`AG-WIN`): how far ordering may run ahead of
    /// the last stable agreement checkpoint.
    pub ag_win: u64,
    /// Number of trailing execution groups the agreement group may skip
    /// when inserting `Execute`s (§3.5, `0 <= z < ne`).
    pub z: usize,
    /// Capacity of the commit subchannel (must be `>= ke`).
    pub commit_capacity: u64,
    /// IRMC implementation for request channels.
    pub request_variant: Variant,
    /// IRMC implementation and tuning for commit channels: which fan-in
    /// the channel uses plus the knob that matters for it (digest-only
    /// dedup for IRMC-RC, §A.9 overlap for IRMC-SC).
    pub commit_mode: ChannelMode,
    /// View-change timeout of the agreement group's consensus protocol
    /// (default [`VIEW_CHANGE_TIMEOUT`], PBFT's own).
    pub view_change_timeout: SimTime,
    /// Consensus batching policy (size and linger caps, adaptive sizing),
    /// handed unchanged to the agreement group's PBFT leader and to every
    /// PBFT baseline.
    pub batching: BatcherConfig,
    /// CPU cost model applied by all nodes.
    pub cost: CostModel,
    /// End-to-end request tracing: when set, the deployment harness
    /// enables the simulator's observability recorder so replicas record
    /// request-scoped phase spans, per-node metrics, and CPU attribution.
    /// Off by default — with tracing disabled every record call is a
    /// single branch.
    pub tracing: bool,
}

impl Default for SpiderConfig {
    fn default() -> Self {
        SpiderConfig {
            fa: 1,
            fe: 1,
            ka: 32,
            ke: 32,
            ag_win: 64,
            z: 0,
            commit_capacity: 128,
            request_variant: Variant::ReceiverCollect,
            commit_mode: ChannelMode::ReliableCast { dedup: true },
            view_change_timeout: VIEW_CHANGE_TIMEOUT,
            batching: BatcherConfig::default(),
            cost: CostModel::default(),
            tracing: false,
        }
    }
}

impl SpiderConfig {
    /// Validates the liveness-critical relations between parameters.
    ///
    /// # Panics
    ///
    /// Panics if `ke > commit_capacity` (execution liveness, §3.4), if
    /// `ag_win < ka` (Fig 17), or if bounds are degenerate.
    pub fn validate(&self) {
        assert!(self.fa >= 1 && self.fe >= 1, "need at least f = 1");
        assert!(
            self.commit_capacity >= self.ke,
            "commit capacity must be >= ke for liveness (§3.4)"
        );
        assert!(self.ag_win >= self.ka, "AG-WIN must be >= ka (Fig 17)");
        let b = &self.batching;
        assert!(b.max_batch >= 1);
        assert!(
            !b.adaptive || b.delay > SimTime::ZERO,
            "adaptive batching needs a non-zero batching.delay (the linger cap it adapts within)"
        );
    }

    /// Size of the agreement group.
    pub fn agreement_size(&self) -> usize {
        3 * self.fa + 1
    }

    /// Size of each execution group.
    pub fn execution_size(&self) -> usize {
        2 * self.fe + 1
    }

    /// Sets both IRMC variants (builder-style). The commit channel gets
    /// the variant's default mode ([`ChannelMode::from`]): IRMC-RC without
    /// dedup, IRMC-SC with §A.9 overlap. Use [`Self::with_commit_mode`]
    /// afterwards to tune the commit channel independently.
    #[must_use]
    pub fn with_variant(mut self, v: Variant) -> Self {
        self.request_variant = v;
        self.commit_mode = v.into();
        self
    }

    /// Sets the commit-channel mode (builder-style).
    #[must_use]
    pub fn with_commit_mode(mut self, mode: impl Into<ChannelMode>) -> Self {
        self.commit_mode = mode.into();
        self
    }

    /// Sets the cost model (builder-style).
    #[must_use]
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Sets fault thresholds (builder-style).
    #[must_use]
    pub fn with_faults(mut self, fa: usize, fe: usize) -> Self {
        self.fa = fa;
        self.fe = fe;
        self
    }

    /// Enables rate-adaptive consensus batching with the given linger cap
    /// and a larger batch-size ceiling for the adaptive policy to grow
    /// into (builder-style).
    #[must_use]
    pub fn with_adaptive_batching(mut self, delay: SimTime, max_batch: usize) -> Self {
        assert!(delay > SimTime::ZERO, "adaptive batching needs a non-zero linger cap");
        self.batching = BatcherConfig { max_batch, delay, adaptive: true };
        self
    }

    /// The request channel of execution group `group` (its replicas send,
    /// the agreement group receives). Both ends build their endpoints
    /// from this one value: if they ever differed, the channel would
    /// silently never deliver.
    pub fn request_channel(&self, group: GroupId) -> IrmcConfig {
        let (n_exec, n_agree) = (self.execution_size(), self.agreement_size());
        IrmcConfig::new(self.request_variant, n_exec, self.fe, n_agree, self.fa, REQUEST_CAPACITY)
            .with_cost(self.cost)
            .with_keys(keys::exec_keys(group, n_exec), keys::agreement_keys(n_agree))
    }

    /// The commit channel of execution group `group` (the agreement group
    /// sends, the group's replicas receive); see
    /// [`Self::request_channel`].
    pub fn commit_channel(&self, group: GroupId) -> IrmcConfig {
        let (n_exec, n_agree) = (self.execution_size(), self.agreement_size());
        IrmcConfig::new(self.commit_mode, n_agree, self.fa, n_exec, self.fe, self.commit_capacity)
            .with_cost(self.cost)
            .with_keys(keys::agreement_keys(n_agree), keys::exec_keys(group, n_exec))
    }

    /// Applies every consensus tuning knob of this deployment config to a
    /// PBFT configuration. Used by the agreement group and by all PBFT
    /// baselines so scenario sweeps exercise identical batching policies.
    #[must_use]
    pub fn tune_pbft(&self, mut pbft: PbftConfig) -> PbftConfig {
        pbft.batching = self.batching;
        pbft.with_cost(self.cost).with_view_change_timeout(self.view_change_timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        SpiderConfig::default().validate();
        assert_eq!(SpiderConfig::default().agreement_size(), 4);
        assert_eq!(SpiderConfig::default().execution_size(), 3);
    }

    #[test]
    fn f2_sizes() {
        let c = SpiderConfig::default().with_faults(2, 2);
        assert_eq!(c.agreement_size(), 7);
        assert_eq!(c.execution_size(), 5);
    }

    #[test]
    fn tune_pbft_carries_batching_knobs() {
        let c = SpiderConfig::default().with_adaptive_batching(SimTime::from_millis(3), 64);
        c.validate();
        let p = c.tune_pbft(PbftConfig::new(c.fa));
        assert_eq!(p.batching, c.batching);
        assert_eq!((p.batching.max_batch, p.batching.delay), (64, SimTime::from_millis(3)));
        assert!(p.batching.adaptive);
    }

    #[test]
    #[should_panic(expected = "non-zero batching.delay")]
    fn adaptive_batching_without_linger_rejected() {
        let mut c = SpiderConfig::default();
        c.batching.adaptive = true;
        c.validate();
    }

    #[test]
    fn commit_range_knobs_roundtrip() {
        // Both channel ends build their endpoints from `commit_channel`,
        // and the agreement group's grid cut reads the same constant.
        let c = SpiderConfig::default();
        assert_eq!(c.commit_channel(GroupId(1)).max_range, spider_irmc::MAX_RANGE);
        assert_eq!(
            c.commit_mode,
            ChannelMode::ReliableCast { dedup: true },
            "digest-only fan-in is on by default"
        );
    }

    #[test]
    fn with_variant_resets_commit_mode_to_the_variant_default() {
        let c = SpiderConfig::default().with_variant(Variant::SenderCollect);
        assert_eq!(c.commit_mode, ChannelMode::SenderCast { overlap: true }, "§A.9 default");
        let c = c.with_commit_mode(ChannelMode::SenderCast { overlap: false });
        assert!(!c.commit_mode.overlap());
        let c = SpiderConfig::default().with_variant(Variant::ReceiverCollect);
        assert_eq!(c.commit_mode, ChannelMode::ReliableCast { dedup: false }, "legacy RC");
    }

    #[test]
    #[should_panic(expected = "max_range must be at least 1")]
    fn zero_commit_range_rejected() {
        let _ = SpiderConfig::default().commit_channel(GroupId(0)).with_range(0);
    }

    #[test]
    #[should_panic(expected = "commit capacity")]
    fn checkpoint_interval_above_capacity_rejected() {
        let mut c = SpiderConfig::default();
        c.ke = c.commit_capacity + 1;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "AG-WIN")]
    fn agreement_window_below_ka_rejected() {
        let mut c = SpiderConfig::default();
        c.ag_win = c.ka - 1;
        c.validate();
    }
}
