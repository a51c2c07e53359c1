//! Identity keys and signatures.
//!
//! A [`Keyring`] derives every identity's secret from a single master seed,
//! so any component holding the keyring can sign for its own identity and
//! verify anyone else's signatures — exactly the informational setup a
//! simulated PKI provides. Signatures stand in for the paper's 1024-bit RSA
//! signatures. The paper's pairwise HMAC-SHA-256 authenticators are not
//! computed: like the RSA signatures, their byte sizes and CPU costs are
//! modeled in [`crate::cost::CostModel`] and [`spider_types::wire`].
//!
//! Secrets are pure functions of the seed and the identities, so a keyring
//! keeps the [`HmacKey`] of every identity it has used: deriving a secret
//! and running its HMAC key schedule happen once, and every later tag under
//! that key costs two compressions. The cache changes no tag.

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

/// Derives, signs with, and verifies per-identity keys.
#[derive(Debug, Clone)]
pub struct Keyring {
    master: [u8; 32],
    /// Prepared signing keys of the identities used so far.
    sig_keys: RefCell<BTreeMap<KeyId, HmacKey>>,
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
        }
    }

    /// The signing secret of identity `id`.
    fn secret(&self, id: KeyId) -> [u8; 32] {
        hash_concat(&[&self.master, b"sig", &id.0.to_be_bytes()])
    }

    /// `signer`'s tag over `digest`.
    fn sig_tag(&self, signer: KeyId, digest: &Digest) -> [u8; 32] {
        self.sig_keys
            .borrow_mut()
            .entry(signer)
            .or_insert_with(|| HmacKey::new(&self.secret(signer)))
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
    fn cached_keys_give_the_tags_of_freshly_derived_ones() {
        use crate::hmac::hmac_sha256;
        let d = Digest::of_bytes(b"m");
        let r = ring();
        // Derived from scratch, past the cache.
        let sig_tag = hmac_sha256(&r.secret(KeyId(4)), &d.0);
        for pass in ["populating the cache", "served from the cache"] {
            assert_eq!(r.sign(KeyId(4), &d).tag, sig_tag, "{pass}");
        }
        // A clone of a warm keyring and a cold one agree with it.
        let warm = r.clone();
        assert_eq!(warm.sign(KeyId(4), &d), r.sign(KeyId(4), &d));
        assert_eq!(ring().sign(KeyId(4), &d).tag, sig_tag);
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
    }
}
