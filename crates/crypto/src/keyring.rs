//! Identity keys, signatures, and pairwise MACs.
//!
//! A [`Keyring`] derives every identity's secret from a single master seed,
//! so any component holding the keyring can sign for its own identity and
//! verify anyone else's tags — exactly the informational setup a simulated
//! PKI provides. Signatures stand in for the paper's 1024-bit RSA
//! signatures; MACs stand in for HMAC-SHA-256 authenticators. Byte sizes
//! and CPU costs of the real primitives are modeled in
//! [`crate::cost::CostModel`].
//!
//! Secrets are pure functions of the seed and the identities, so a keyring
//! keeps the [`HmacKey`] of every identity and pair it has used: deriving a
//! secret and running its HMAC key schedule happen once, and every later
//! tag under that key costs two compressions. The cache changes no tag.

use crate::digest::Digest;
use crate::hmac::HmacKey;
use crate::sha256::Sha256;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::BTreeMap;

/// Identity of a key owner (replica or client). Conventionally equals the
/// owner's `NodeId`/`ClientId` value.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct KeyId(pub u32);

impl std::fmt::Display for KeyId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "k{}", self.0)
    }
}

/// A simulation-grade digital signature over a [`Digest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Signature {
    /// Claimed signer.
    pub signer: KeyId,
    tag: [u8; 32],
}

/// A pairwise message authentication code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Mac {
    tag: [u8; 32],
}

/// Derives, signs with, and verifies per-identity keys.
#[derive(Debug, Clone)]
pub struct Keyring {
    master: [u8; 32],
    /// Prepared signing keys of the identities used so far.
    sig_keys: RefCell<BTreeMap<KeyId, HmacKey>>,
    /// Prepared keys of the pairs used so far, lower identity first.
    pair_keys: RefCell<BTreeMap<(KeyId, KeyId), HmacKey>>,
}

/// `SHA-256` of the concatenated `parts` (at most one block in total),
/// assembled on the stack so the hasher sees a single update.
fn hash_concat(parts: &[&[u8]]) -> [u8; 32] {
    let mut buf = [0u8; 64];
    let mut len = 0;
    for part in parts {
        buf[len..len + part.len()].copy_from_slice(part);
        len += part.len();
    }
    Sha256::digest(&buf[..len])
}

impl Keyring {
    /// Creates a keyring from a master seed. All parties of one simulation
    /// share the seed (the simulated PKI).
    pub fn new(seed: u64) -> Self {
        Keyring {
            master: hash_concat(&[b"spider-keyring-master", &seed.to_be_bytes()]),
            sig_keys: RefCell::default(),
            pair_keys: RefCell::default(),
        }
    }

    /// The signing secret of identity `id`.
    fn secret(&self, id: KeyId) -> [u8; 32] {
        hash_concat(&[&self.master, b"sig", &id.0.to_be_bytes()])
    }

    /// The symmetric secret shared by the pair `lo <= hi`.
    fn pair_secret(&self, lo: KeyId, hi: KeyId) -> [u8; 32] {
        hash_concat(&[&self.master, b"mac", &lo.0.to_be_bytes(), &hi.0.to_be_bytes()])
    }

    /// `signer`'s tag over `digest`.
    fn sig_tag(&self, signer: KeyId, digest: &Digest) -> [u8; 32] {
        self.sig_keys
            .borrow_mut()
            .entry(signer)
            .or_insert_with(|| HmacKey::new(&self.secret(signer)))
            .mac(&digest.0)
    }

    /// The tag over `digest` under the key of the (unordered) pair `{a, b}`.
    fn pair_tag(&self, a: KeyId, b: KeyId, digest: &Digest) -> [u8; 32] {
        let (lo, hi) = if a.0 <= b.0 { (a, b) } else { (b, a) };
        self.pair_keys
            .borrow_mut()
            .entry((lo, hi))
            .or_insert_with(|| HmacKey::new(&self.pair_secret(lo, hi)))
            .mac(&digest.0)
    }

    /// Signs `digest` as identity `signer`.
    pub fn sign(&self, signer: KeyId, digest: &Digest) -> Signature {
        Signature { signer, tag: self.sig_tag(signer, digest) }
    }

    /// Verifies that `sig` is `signer`'s signature over `digest`.
    pub fn verify(&self, signer: KeyId, digest: &Digest, sig: &Signature) -> bool {
        sig.signer == signer && self.sig_tag(signer, digest) == sig.tag
    }

    /// Computes the MAC authenticating `digest` from `from` to `to`.
    pub fn mac(&self, from: KeyId, to: KeyId, digest: &Digest) -> Mac {
        Mac { tag: self.pair_tag(from, to, digest) }
    }

    /// Verifies a pairwise MAC.
    pub fn verify_mac(&self, from: KeyId, to: KeyId, digest: &Digest, mac: &Mac) -> bool {
        self.pair_tag(from, to, digest) == mac.tag
    }

    /// Computes a PBFT-style MAC vector authenticating `digest` from
    /// `from` to every receiver in `to`.
    pub fn mac_vector(&self, from: KeyId, to: &[KeyId], digest: &Digest) -> Vec<(KeyId, Mac)> {
        to.iter().map(|r| (*r, self.mac(from, *r, digest))).collect()
    }

    /// Verifies the entry for `me` in a MAC vector produced by `from`.
    pub fn verify_mac_vector(
        &self,
        from: KeyId,
        me: KeyId,
        digest: &Digest,
        vector: &[(KeyId, Mac)],
    ) -> bool {
        vector
            .iter()
            .find(|(id, _)| *id == me)
            .is_some_and(|(_, mac)| self.verify_mac(from, me, digest, mac))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring() -> Keyring {
        Keyring::new(7)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let r = ring();
        let d = Digest::of_bytes(b"msg");
        let sig = r.sign(KeyId(1), &d);
        assert!(r.verify(KeyId(1), &d, &sig));
    }

    #[test]
    fn verify_rejects_wrong_signer_or_content() {
        let r = ring();
        let d = Digest::of_bytes(b"msg");
        let sig = r.sign(KeyId(1), &d);
        assert!(!r.verify(KeyId(2), &d, &sig), "claimed wrong signer");
        let d2 = Digest::of_bytes(b"other");
        assert!(!r.verify(KeyId(1), &d2, &sig), "content mismatch");
    }

    #[test]
    fn different_seeds_are_different_pkis() {
        let a = Keyring::new(1);
        let b = Keyring::new(2);
        let d = Digest::of_bytes(b"msg");
        let sig = a.sign(KeyId(1), &d);
        assert!(!b.verify(KeyId(1), &d, &sig));
    }

    #[test]
    fn mac_is_symmetric_pairwise() {
        let r = ring();
        let d = Digest::of_bytes(b"m");
        let mac = r.mac(KeyId(3), KeyId(9), &d);
        // Receiver verifies with the same unordered pair.
        assert!(r.verify_mac(KeyId(3), KeyId(9), &d, &mac));
        assert!(r.verify_mac(KeyId(9), KeyId(3), &d, &mac), "pair key is unordered");
        assert!(!r.verify_mac(KeyId(3), KeyId(8), &d, &mac));
    }

    #[test]
    fn cached_keys_give_the_tags_of_freshly_derived_ones() {
        use crate::hmac::hmac_sha256;
        let d = Digest::of_bytes(b"m");
        let r = ring();
        // Derived from scratch, past the cache.
        let sig_tag = hmac_sha256(&r.secret(KeyId(4)), &d.0);
        let pair_tag = hmac_sha256(&r.pair_secret(KeyId(3), KeyId(9)), &d.0);
        for pass in ["populating the cache", "served from the cache"] {
            assert_eq!(r.sign(KeyId(4), &d).tag, sig_tag, "{pass}");
            assert_eq!(r.mac(KeyId(9), KeyId(3), &d).tag, pair_tag, "{pass}");
            assert_eq!(r.mac(KeyId(3), KeyId(9), &d).tag, pair_tag, "{pass}");
        }
        // A keyring whose cache the other order populated, and a clone of a
        // warm keyring, agree with it.
        let other = ring();
        assert_eq!(other.mac(KeyId(3), KeyId(9), &d).tag, pair_tag);
        assert_eq!(other.mac(KeyId(9), KeyId(3), &d).tag, pair_tag);
        let warm = r.clone();
        assert_eq!(warm.sign(KeyId(4), &d), r.sign(KeyId(4), &d));
        assert!(warm.verify_mac(KeyId(9), KeyId(3), &d, &other.mac(KeyId(3), KeyId(9), &d)));
    }

    #[test]
    fn mac_vector_covers_each_receiver() {
        let r = ring();
        let d = Digest::of_bytes(b"m");
        let receivers = [KeyId(10), KeyId(11), KeyId(12)];
        let v = r.mac_vector(KeyId(1), &receivers, &d);
        assert_eq!(v.len(), 3);
        for me in receivers {
            assert!(r.verify_mac_vector(KeyId(1), me, &d, &v));
        }
        assert!(!r.verify_mac_vector(KeyId(1), KeyId(13), &d, &v), "not addressed");
        let d2 = Digest::of_bytes(b"m2");
        assert!(!r.verify_mac_vector(KeyId(1), KeyId(10), &d2, &v));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// A signature verifies only under the exact (signer, digest) it
        /// was produced for.
        #[test]
        fn signatures_bind_signer_and_content(
            seed in any::<u64>(),
            signer in 0u32..1000,
            other in 0u32..1000,
            data in prop::collection::vec(any::<u8>(), 0..64),
            tweak in prop::collection::vec(any::<u8>(), 1..64),
        ) {
            let ring = Keyring::new(seed);
            let d = Digest::of_bytes(&data);
            let sig = ring.sign(KeyId(signer), &d);
            prop_assert!(ring.verify(KeyId(signer), &d, &sig));
            if other != signer {
                prop_assert!(!ring.verify(KeyId(other), &d, &sig));
            }
            let mut changed = data.clone();
            changed.extend_from_slice(&tweak);
            let d2 = Digest::of_bytes(&changed);
            prop_assert!(!ring.verify(KeyId(signer), &d2, &sig));
        }

        /// MAC verification is symmetric in the pair and rejects third
        /// parties' pair keys.
        #[test]
        fn macs_bind_the_pair(
            seed in any::<u64>(),
            a in 0u32..100,
            b in 0u32..100,
            c in 0u32..100,
            data in prop::collection::vec(any::<u8>(), 0..64),
        ) {
            let ring = Keyring::new(seed);
            let d = Digest::of_bytes(&data);
            let mac = ring.mac(KeyId(a), KeyId(b), &d);
            prop_assert!(ring.verify_mac(KeyId(a), KeyId(b), &d, &mac));
            prop_assert!(ring.verify_mac(KeyId(b), KeyId(a), &d, &mac));
            if c != a && c != b {
                prop_assert!(!ring.verify_mac(KeyId(a), KeyId(c), &d, &mac));
            }
        }
    }
}
