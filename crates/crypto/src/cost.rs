//! CPU cost model for cryptographic operations.
//!
//! The paper's prototype runs on `t3.small` EC2 instances (2 vCPUs) with
//! 1024-bit RSA signatures and HMAC-SHA-256 MACs (§5). In the simulation,
//! protocol handlers charge the costs below to their node's (single-server)
//! CPU; these charges — not the real host's clock — determine processing
//! delay, saturation throughput (Fig 9b), and CPU utilization (Fig 9c).
//!
//! Defaults are calibrated to published OpenSSL/JCE numbers for small cloud
//! VMs of the 2020 era:
//!
//! * RSA-1024 sign ≈ 600 µs, verify ≈ 35 µs,
//! * HMAC-SHA-256 ≈ 1.5 µs + ~3 ns/byte,
//! * threshold-RSA share sign ≈ 1.3 ms, combine ≈ 650 µs (Shoup's scheme is
//!   several times costlier than plain RSA — the reason Steward's local
//!   protocol is CPU-heavy),
//! * a small per-message dispatch overhead.
//!
//! These model the *paper's* hardware, not this host: [`CostModel::hash`]
//! and [`CostModel::hmac`] stay put when the host's SHA-256 gets faster
//! (the SHA-NI kernel in [`crate::sha256`]), and [`CostModel::merkle`]
//! prices the paper's Merkle construction, not the cheaper one
//! [`crate::merkle`] computes. The benchmark's `crypto.model_ratio_hash`
//! and `crypto.model_ratio_hmac` rows (host time ÷ modelled time) falling
//! below 1 is the host getting faster; the model has not moved.

use serde::{Deserialize, Serialize};
use spider_types::SimTime;

/// Per-operation CPU costs, charged to the simulated node.
///
/// # Examples
///
/// ```
/// use spider_crypto::CostModel;
///
/// let cost = CostModel::default();
/// assert!(cost.rsa_sign() > cost.rsa_verify());
/// let free = CostModel::zero(); // pure-logic tests
/// assert_eq!(free.rsa_sign(), spider_types::SimTime::ZERO);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// RSA-1024 signature generation.
    rsa_sign_ns: u64,
    /// RSA-1024 signature verification.
    rsa_verify_ns: u64,
    /// Fixed cost of one HMAC computation (dominated by the keyed
    /// setup/finalization, not the data).
    hmac_base_ns: u64,
    /// Fixed cost of one *unkeyed* hash compression (SHA-256 block). An
    /// order of magnitude below `hmac_base_ns`: a digest pays no key
    /// schedule and no inner/outer re-hash.
    hash_base_ns: u64,
    /// Per-byte cost of hashing message payloads.
    hash_per_byte_ns: u64,
    /// Threshold-RSA share generation (Shoup).
    threshold_share_ns: u64,
    /// Combining f+1 threshold shares.
    threshold_combine_ns: u64,
    /// Verifying a combined threshold signature.
    threshold_verify_ns: u64,
    /// Fixed per-message dispatch overhead (deserialize, demux, bookkeep).
    msg_overhead_ns: u64,
    /// Cost of executing one application request (key-value store get/put).
    app_execute_ns: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            rsa_sign_ns: 600_000,
            rsa_verify_ns: 35_000,
            hmac_base_ns: 1_500,
            hash_base_ns: 150,
            hash_per_byte_ns: 3,
            threshold_share_ns: 1_300_000,
            threshold_combine_ns: 650_000,
            threshold_verify_ns: 35_000,
            msg_overhead_ns: 8_000,
            app_execute_ns: 5_000,
        }
    }
}

impl CostModel {
    /// A cost model where everything is free. Useful for pure-logic tests
    /// where simulated CPU time would only obscure the schedule.
    pub fn zero() -> Self {
        CostModel {
            rsa_sign_ns: 0,
            rsa_verify_ns: 0,
            hmac_base_ns: 0,
            hash_base_ns: 0,
            hash_per_byte_ns: 0,
            threshold_share_ns: 0,
            threshold_combine_ns: 0,
            threshold_verify_ns: 0,
            msg_overhead_ns: 0,
            app_execute_ns: 0,
        }
    }

    /// Cost of one RSA-1024 signature.
    pub fn rsa_sign(&self) -> SimTime {
        SimTime::from_nanos(self.rsa_sign_ns)
    }

    /// Cost of one RSA-1024 verification.
    pub fn rsa_verify(&self) -> SimTime {
        SimTime::from_nanos(self.rsa_verify_ns)
    }

    /// Cost of MAC/digest computation over `bytes` payload bytes.
    pub fn hmac(&self, bytes: usize) -> SimTime {
        SimTime::from_nanos(self.hmac_base_ns + self.hash_per_byte_ns * bytes as u64)
    }

    /// Cost of one unkeyed hash over `bytes` (plain digest — no HMAC key
    /// schedule).
    pub fn hash(&self, bytes: usize) -> SimTime {
        SimTime::from_nanos(self.hash_base_ns + self.hash_per_byte_ns * bytes as u64)
    }

    /// Cost of building (or recomputing) a Merkle tree over `leaves`
    /// 32-byte slot digests, as the paper's replicas would build it:
    /// `leaves` domain-separated leaf wraps plus `leaves - 1` 64-byte
    /// inner combines, each a plain hash. This prices the modelled
    /// construction, not the host's: [`crate::merkle`] runs unwrapped
    /// leaves and one compression per inner node, and that saving is host
    /// time only. Tree nodes are plain hashes, not keyed MACs — billing
    /// each of the `2·leaves - 1` ops an HMAC key-schedule base would
    /// overcharge a 32-leaf tree by ~85 µs and bury the real costs the
    /// commit-channel benchmarks measure (payload hashing and signing).
    pub fn merkle(&self, leaves: usize) -> SimTime {
        if leaves == 0 {
            return SimTime::ZERO;
        }
        let wraps = self.hash(32) * leaves as u64;
        let combines = self.hash(64) * (leaves as u64 - 1);
        wraps + combines
    }

    /// Cost of verifying one digest-only range vouch (IRMC-RC dedup): a
    /// MAC check over the fixed-size statement binding subchannel (8),
    /// first position (8), count (4), and Merkle root (32) — 52 bytes.
    /// Deliberately MAC-class, not RSA-class: a vouch is consumed only by
    /// the receiving endpoint and never forwarded as proof to a third
    /// party, so the authenticated point-to-point link suffices.
    pub fn vouch_verify(&self) -> SimTime {
        self.hmac(52)
    }

    /// Cost of producing a MAC vector for `receivers` receivers.
    pub fn mac_vector(&self, receivers: usize, bytes: usize) -> SimTime {
        // Hash the payload once, then one cheap keyed finalization per
        // receiver.
        self.hmac(bytes) + SimTime::from_nanos(self.hmac_base_ns * receivers as u64)
    }

    /// Cost of one threshold signature share.
    pub fn threshold_share(&self) -> SimTime {
        SimTime::from_nanos(self.threshold_share_ns)
    }

    /// Cost of combining threshold shares.
    pub fn threshold_combine(&self) -> SimTime {
        SimTime::from_nanos(self.threshold_combine_ns)
    }

    /// Cost of verifying a combined threshold signature.
    pub fn threshold_verify(&self) -> SimTime {
        SimTime::from_nanos(self.threshold_verify_ns)
    }

    /// Fixed per-message processing overhead.
    pub fn msg_overhead(&self) -> SimTime {
        SimTime::from_nanos(self.msg_overhead_ns)
    }

    /// Cost of executing one application request.
    pub fn app_execute(&self) -> SimTime {
        SimTime::from_nanos(self.app_execute_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_reflect_rsa_asymmetry() {
        let c = CostModel::default();
        assert!(c.rsa_sign() > c.rsa_verify() * 10, "sign ≫ verify for RSA");
        assert!(c.threshold_share() > c.rsa_sign(), "Shoup shares cost more");
    }

    #[test]
    fn hmac_scales_with_payload() {
        let c = CostModel::default();
        assert!(c.hmac(16_384) > c.hmac(256));
        let delta = c.hmac(1_000) - c.hmac(0);
        assert_eq!(delta, SimTime::from_nanos(c.hash_per_byte_ns * 1_000));
    }

    #[test]
    fn mac_vector_grows_per_receiver() {
        let c = CostModel::default();
        assert!(c.mac_vector(4, 100) > c.mac_vector(1, 100));
    }

    #[test]
    fn merkle_amortizes_below_per_slot_signing() {
        let c = CostModel::default();
        assert_eq!(c.merkle(0), SimTime::ZERO);
        assert_eq!(c.merkle(1), c.hash(32));
        assert!(c.merkle(64) > c.merkle(8), "cost grows with the range");
        // Tree nodes are unkeyed compressions: far below HMAC pricing.
        assert!(c.merkle(32) * 4 < c.hmac(32) * 63, "no HMAC key-schedule base per node");
        // The whole point: hashing a 64-slot tree plus ONE signature is far
        // cheaper than 64 signatures.
        assert!(c.merkle(64) + c.rsa_sign() < c.rsa_sign() * 8);
    }

    #[test]
    fn vouch_verify_is_mac_class() {
        let c = CostModel::default();
        assert_eq!(c.vouch_verify(), c.hmac(52));
        // The dedup premise: confirming a range by digest must be orders
        // of magnitude cheaper than verifying a signature over it.
        assert!(c.vouch_verify() * 20 < c.rsa_verify());
    }

    #[test]
    fn zero_model_is_free() {
        let c = CostModel::zero();
        assert_eq!(c.rsa_sign(), SimTime::ZERO);
        assert_eq!(c.hmac(10_000), SimTime::ZERO);
        assert_eq!(c.mac_vector(8, 10_000), SimTime::ZERO);
        assert_eq!(c.threshold_combine(), SimTime::ZERO);
    }
}
