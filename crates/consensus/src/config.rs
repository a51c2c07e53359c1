//! PBFT configuration, including weighted-voting quorums.

use crate::batcher::BatcherConfig;
use spider_crypto::CostModel;
use spider_types::SimTime;

/// Watermark window: instances may be proposed in
/// `(last_gc, last_gc + WINDOW]`.
pub(crate) const WINDOW: u64 = 256;

/// Default base timeout before a replica suspects the leader
/// ([`PbftConfig::view_change_timeout`]).
pub const VIEW_CHANGE_TIMEOUT: SimTime = SimTime::from_millis(500);

/// Configuration of a PBFT group.
///
/// The default quorum rule is classic PBFT: `n = 3f + 1` replicas, every
/// vote weighs 1, quorums need weight `2f + 1`. The BFT-WV baseline uses
/// [`PbftConfig::weighted`] to construct a WHEAT-style configuration with
/// `n = 3f + 1 + Δ` replicas where `2f` replicas carry weight
/// `Vmax = 1 + Δ/f` and quorums need weight `2f · Vmax + 1`.
#[derive(Debug, Clone)]
pub struct PbftConfig {
    /// Fault threshold.
    pub f: usize,
    /// Vote weight per replica (length = group size `n`); set by the
    /// constructor.
    pub(crate) weights: Vec<u32>,
    /// Weight a prepare/commit/view-change quorum must reach; set by the
    /// constructor.
    pub(crate) quorum_weight: u32,
    /// The leader's batching policy: size and linger caps plus
    /// rate-adaptive sizing (see [`crate::Batcher`]).
    pub batching: BatcherConfig,
    /// Maximum number of concurrently active (proposed, undelivered)
    /// instances the leader keeps in flight.
    pub pipeline_depth: usize,
    /// Base timeout before a replica suspects the leader and starts a view
    /// change; doubles per consecutive failed view change.
    pub view_change_timeout: SimTime,
    /// CPU cost model for authentication work.
    pub cost: CostModel,
}

impl PbftConfig {
    /// Classic PBFT configuration for fault threshold `f` (`n = 3f + 1`).
    pub fn new(f: usize) -> Self {
        assert!(f >= 1, "f must be at least 1");
        let n = 3 * f + 1;
        PbftConfig {
            f,
            weights: vec![1; n],
            quorum_weight: (2 * f + 1) as u32,
            batching: BatcherConfig::default(),
            pipeline_depth: 32,
            view_change_timeout: VIEW_CHANGE_TIMEOUT,
            cost: CostModel::default(),
        }
    }

    /// WHEAT-style weighted configuration: `n = 3f + 1 + delta` replicas;
    /// the replicas listed in `vmax_holders` carry weight `Vmax = 1 + Δ/f`
    /// (Δ must be a multiple of f), everyone else weight 1. Quorums need
    /// `2f · Vmax + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `delta` is not a positive multiple of `f`, or if
    /// `vmax_holders` does not name exactly `2f` distinct replicas.
    pub fn weighted(f: usize, delta: usize, vmax_holders: &[usize]) -> Self {
        assert!(f >= 1, "f must be at least 1");
        assert!(delta >= 1 && delta.is_multiple_of(f), "delta must be a positive multiple of f");
        let n = 3 * f + 1 + delta;
        let vmax = (1 + delta / f) as u32;
        assert_eq!(vmax_holders.len(), 2 * f, "exactly 2f replicas hold Vmax");
        let mut weights = vec![1u32; n];
        for &i in vmax_holders {
            assert!(i < n, "vmax holder out of range");
            assert_eq!(weights[i], 1, "duplicate vmax holder");
            weights[i] = vmax;
        }
        PbftConfig {
            quorum_weight: 2 * f as u32 * vmax + 1,
            ..PbftConfig::new_with_n(f, n, weights)
        }
    }

    fn new_with_n(f: usize, n: usize, weights: Vec<u32>) -> Self {
        let mut cfg = PbftConfig::new(f);
        assert_eq!(weights.len(), n);
        cfg.weights = weights;
        cfg
    }

    /// Group size.
    pub fn n(&self) -> usize {
        self.weights.len()
    }

    /// Vote weight of replica `i`.
    pub fn weight(&self, i: usize) -> u32 {
        self.weights[i]
    }

    /// Leader of a view (round-robin).
    pub fn leader_of(&self, view: u64) -> usize {
        (view % self.n() as u64) as usize
    }

    /// Sets the batch size (builder-style).
    #[must_use]
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        assert!(max_batch >= 1);
        self.batching.max_batch = max_batch;
        self
    }

    /// Sets the batch linger cap (builder-style). Zero = propose
    /// immediately.
    #[must_use]
    pub fn with_batch_delay(mut self, delay: SimTime) -> Self {
        self.batching.delay = delay;
        self
    }

    /// Sets the pipelining window: how many proposed-but-undelivered
    /// instances the leader keeps in flight (builder-style).
    #[must_use]
    pub fn with_pipeline_depth(mut self, depth: usize) -> Self {
        assert!(depth >= 1);
        self.pipeline_depth = depth;
        self
    }

    /// Sets the view-change timeout (builder-style).
    #[must_use]
    pub fn with_view_change_timeout(mut self, t: SimTime) -> Self {
        self.view_change_timeout = t;
        self
    }

    /// Sets the cost model (builder-style).
    #[must_use]
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_config_has_pbft_quorums() {
        let c = PbftConfig::new(1);
        assert_eq!(c.n(), 4);
        assert_eq!(c.quorum_weight, 3);
        assert_eq!(c.leader_of(0), 0);
        assert_eq!(c.leader_of(5), 1);
    }

    #[test]
    fn weighted_config_matches_wheat() {
        // n = 5, f = 1, delta = 1: Vmax = 2 on two replicas, quorum 5.
        let c = PbftConfig::weighted(1, 1, &[0, 1]);
        assert_eq!(c.n(), 5);
        assert_eq!(c.weights, vec![2, 2, 1, 1, 1]);
        assert_eq!(c.quorum_weight, 5);
        // Safety sanity: two quorums of weight 5 out of total 7 intersect
        // in weight >= 3 > Vmax, i.e. in at least one correct replica.
        let total: u32 = c.weights.iter().sum();
        assert!(2 * c.quorum_weight > total + c.weights.iter().copied().max().unwrap());
    }

    #[test]
    fn batching_builders_set_the_held_policy() {
        let c = PbftConfig::new(1)
            .with_max_batch(16)
            .with_batch_delay(SimTime::from_millis(2))
            .with_pipeline_depth(4);
        assert_eq!(c.pipeline_depth, 4);
        assert_eq!(
            c.batching,
            BatcherConfig {
                max_batch: 16,
                delay: SimTime::from_millis(2),
                ..BatcherConfig::default()
            }
        );
    }

    #[test]
    fn default_batching_is_legacy_greedy() {
        let b = PbftConfig::new(1).batching;
        assert_eq!(b.delay, SimTime::ZERO);
        assert!(!b.adaptive);
        assert_eq!(b.max_batch, 8);
    }

    #[test]
    #[should_panic(expected = "exactly 2f replicas")]
    fn weighted_config_validates_holder_count() {
        let _ = PbftConfig::weighted(1, 1, &[0]);
    }

    #[test]
    #[should_panic(expected = "duplicate vmax holder")]
    fn weighted_config_rejects_duplicates() {
        let _ = PbftConfig::weighted(1, 1, &[0, 0]);
    }
}
