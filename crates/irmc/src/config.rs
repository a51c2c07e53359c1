//! Channel configuration.

use crate::{IrmcError, Subchannel};
use spider_crypto::{CostModel, KeyId};
use spider_types::Position;

/// Default maximum slots per range certificate
/// ([`IrmcConfig::max_range`]): the cap every Spider commit channel runs
/// with, and the grid the agreement group cuts its runs on.
pub const MAX_RANGE: usize = 32;

/// Which IRMC implementation a channel uses (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Variant {
    /// IRMC-RC: every sender ships its signed `Cast` to every receiver;
    /// receivers collect `fs + 1` matching copies (Fig 18).
    ReceiverCollect,
    /// IRMC-SC: senders exchange signature shares locally; a collector
    /// ships one `Certificate` per receiver (Figs 19–20).
    SenderCollect,
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Variant::ReceiverCollect => write!(f, "IRMC-RC"),
            Variant::SenderCollect => write!(f, "IRMC-SC"),
        }
    }
}

/// How a channel achieves BFT delivery, together with the variant's
/// performance lever — the single knob that replaces the old
/// `variant` + `sc_overlap` + dedup boolean sprawl.
///
/// Any plain [`Variant`] converts into its legacy-faithful mode
/// (`From<Variant>`), so call sites that only care about RC-vs-SC keep
/// passing a `Variant` to [`IrmcConfig::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum ChannelMode {
    /// IRMC-RC: receivers collect `fs + 1` matching submissions.
    ReliableCast {
        /// Digest-only fan-in: per range, one deterministically-rotated
        /// carrier ships content + signature while the other senders ship
        /// a MAC-authenticated `Vouch` (subchannel, first, count, Merkle
        /// root), so content crosses the wire and gets hashed at most
        /// once on the happy path. `false` is the legacy
        /// everyone-ships-content fan-in, which a run of one slot always
        /// uses.
        dedup: bool,
    },
    /// IRMC-SC: senders exchange signature shares locally; a collector
    /// ships one certificate per receiver.
    SenderCast {
        /// §A.9: ship range content to receivers before certification
        /// completes, overlapping the intra-region share exchange with
        /// WAN shipping. `false` ships content together with the
        /// certificate (ship-after-bundle).
        overlap: bool,
    },
}

impl ChannelMode {
    /// The underlying IRMC variant (for labels and dispatch).
    pub fn variant(&self) -> Variant {
        match self {
            ChannelMode::ReliableCast { .. } => Variant::ReceiverCollect,
            ChannelMode::SenderCast { .. } => Variant::SenderCollect,
        }
    }

    /// Whether the RC digest-only fan-in is active.
    pub fn dedup(&self) -> bool {
        matches!(self, ChannelMode::ReliableCast { dedup: true })
    }

    /// Whether the SC §A.9 content/share-exchange overlap is active.
    pub fn overlap(&self) -> bool {
        matches!(self, ChannelMode::SenderCast { overlap: true })
    }
}

impl From<Variant> for ChannelMode {
    /// Maps a bare variant to its legacy-faithful mode: RC without dedup,
    /// SC with the §A.9 overlap (the pre-`ChannelMode` defaults).
    fn from(v: Variant) -> Self {
        match v {
            Variant::ReceiverCollect => ChannelMode::ReliableCast { dedup: false },
            Variant::SenderCollect => ChannelMode::SenderCast { overlap: true },
        }
    }
}

impl std::fmt::Display for ChannelMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChannelMode::ReliableCast { dedup: false } => write!(f, "IRMC-RC"),
            ChannelMode::ReliableCast { dedup: true } => write!(f, "IRMC-RC-dedup"),
            ChannelMode::SenderCast { .. } => write!(f, "IRMC-SC"),
        }
    }
}

/// Static parameters of one IRMC.
#[derive(Debug, Clone)]
pub struct IrmcConfig {
    /// Delivery mode (variant + its performance lever).
    pub mode: ChannelMode,
    /// Number of sender endpoints.
    pub n_senders: usize,
    /// Byzantine senders to tolerate (`fs`): delivery needs `fs + 1`
    /// matching submissions.
    pub fs: usize,
    /// Number of receiver endpoints.
    pub n_receivers: usize,
    /// Byzantine receivers to tolerate (`fr`): sender windows follow the
    /// `fr + 1`-highest receiver request.
    pub fr: usize,
    /// Per-subchannel capacity (max positions concurrently in transit).
    pub capacity: u64,
    /// CPU cost model.
    pub cost: CostModel,
    /// Maximum slots per range certificate
    /// ([`crate::SenderEndpoint::send_batch`] chunks longer submissions).
    /// 1 certifies every slot on its own (the paper's per-slot protocol);
    /// [`IrmcConfig::new`] sets [`MAX_RANGE`].
    pub max_range: usize,
    /// Signing identity of each sender endpoint. Defaults to
    /// `KeyId(1000 + i)`; deployments with multiple channels override this
    /// with the replicas' node identities via [`IrmcConfig::with_keys`].
    pub sender_keys: Vec<KeyId>,
    /// Signing identity of each receiver endpoint (default
    /// `KeyId(2000 + j)`).
    pub receiver_keys: Vec<KeyId>,
}

impl IrmcConfig {
    /// Creates a configuration with the default cost model. `mode` is a
    /// [`ChannelMode`] or a bare [`Variant`] (legacy-faithful mapping).
    ///
    /// # Panics
    ///
    /// Panics unless `n_senders > fs`, `n_receivers > fr`, and
    /// `capacity >= 1`.
    pub fn new(
        mode: impl Into<ChannelMode>,
        n_senders: usize,
        fs: usize,
        n_receivers: usize,
        fr: usize,
        capacity: u64,
    ) -> Self {
        assert!(n_senders > fs, "need more senders than faults");
        assert!(n_receivers > fr, "need more receivers than faults");
        assert!(capacity >= 1, "capacity must be at least 1");
        IrmcConfig {
            mode: mode.into(),
            n_senders,
            fs,
            n_receivers,
            fr,
            capacity,
            cost: CostModel::default(),
            max_range: MAX_RANGE,
            sender_keys: (0..n_senders).map(|i| KeyId(1000 + i as u32)).collect(),
            receiver_keys: (0..n_receivers).map(|j| KeyId(2000 + j as u32)).collect(),
        }
    }

    /// Replaces the endpoint identities (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if the vectors do not match the configured group sizes.
    #[must_use]
    pub fn with_keys(mut self, sender_keys: Vec<KeyId>, receiver_keys: Vec<KeyId>) -> Self {
        assert_eq!(sender_keys.len(), self.n_senders);
        assert_eq!(receiver_keys.len(), self.n_receivers);
        self.sender_keys = sender_keys;
        self.receiver_keys = receiver_keys;
        self
    }

    /// Replaces the cost model (builder-style).
    #[must_use]
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Replaces the maximum slots per range certificate (builder-style;
    /// see [`IrmcConfig::max_range`]).
    ///
    /// # Panics
    ///
    /// Panics if `max_range` is zero.
    #[must_use]
    pub fn with_range(mut self, max_range: usize) -> Self {
        assert!(max_range >= 1, "max_range must be at least 1");
        self.max_range = max_range;
        self
    }

    /// The underlying IRMC variant (for labels and dispatch).
    pub fn variant(&self) -> Variant {
        self.mode.variant()
    }

    /// Whether the RC digest-only fan-in is active.
    pub fn dedup(&self) -> bool {
        self.mode.dedup()
    }

    /// Whether the SC §A.9 content/share-exchange overlap is active.
    pub fn sc_overlap(&self) -> bool {
        self.mode.overlap()
    }

    /// Rejects a frame whose slot count no correct endpoint could have
    /// sent: zero, or more than the window holds.
    pub(crate) fn check_count(
        &self,
        sc: Subchannel,
        first: Position,
        count: u64,
    ) -> Result<(), IrmcError> {
        if count < 1 || count > self.capacity {
            return Err(IrmcError::MalformedRange { sc, first, count });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_config_builds() {
        let c = IrmcConfig::new(Variant::ReceiverCollect, 3, 1, 4, 1, 2);
        assert_eq!(c.n_senders, 3);
        assert_eq!(c.capacity, 2);
    }

    #[test]
    #[should_panic(expected = "more senders than faults")]
    fn too_few_senders_rejected() {
        let _ = IrmcConfig::new(Variant::ReceiverCollect, 1, 1, 3, 1, 2);
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(Variant::ReceiverCollect.to_string(), "IRMC-RC");
        assert_eq!(Variant::SenderCollect.to_string(), "IRMC-SC");
        assert_eq!(ChannelMode::ReliableCast { dedup: true }.to_string(), "IRMC-RC-dedup");
        assert_eq!(ChannelMode::SenderCast { overlap: false }.to_string(), "IRMC-SC");
    }

    #[test]
    fn variants_map_to_legacy_faithful_modes() {
        let rc = IrmcConfig::new(Variant::ReceiverCollect, 3, 1, 3, 1, 2);
        assert_eq!(rc.mode, ChannelMode::ReliableCast { dedup: false });
        assert!(!rc.dedup());
        let sc = IrmcConfig::new(Variant::SenderCollect, 3, 1, 3, 1, 2);
        assert_eq!(sc.mode, ChannelMode::SenderCast { overlap: true });
        assert!(sc.sc_overlap(), "§A.9 overlap stays the SC default");
    }

    #[test]
    fn mode_builder_replaces_flag_sprawl() {
        let c = IrmcConfig::new(ChannelMode::ReliableCast { dedup: true }, 3, 1, 3, 1, 2);
        assert!(c.dedup());
        assert_eq!(c.variant(), Variant::ReceiverCollect);
        assert!(!c.sc_overlap(), "overlap is an SC-only lever");
    }
}
