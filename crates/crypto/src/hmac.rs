//! HMAC-SHA-256 (RFC 2104), validated against the RFC 4231 test vectors.
//!
//! The key schedule — hashing an over-long key, then compressing the
//! `ipad` and `opad` blocks — depends on the key alone, so [`HmacKey`]
//! does it once and keeps the two midstates; a tag under a prepared key
//! costs only the compressions that cover the message and the inner
//! digest. [`hmac_sha256`] is the one-shot form.
//!
//! # Examples
//!
//! ```
//! use spider_crypto::hmac::{hmac_sha256, HmacKey};
//!
//! let tag = hmac_sha256(b"key", b"message");
//! assert_eq!(tag.len(), 32);
//! assert_ne!(tag, hmac_sha256(b"other-key", b"message"));
//! assert_eq!(tag, HmacKey::new(b"key").mac(b"message"));
//! ```

use crate::sha256::Sha256;

const BLOCK: usize = 64;

/// An HMAC-SHA-256 key with its key schedule already done: the inner and
/// outer hashers stopped right after their `ipad` / `opad` block.
#[derive(Debug, Clone)]
pub struct HmacKey {
    inner: Sha256,
    outer: Sha256,
}

impl HmacKey {
    /// Prepares `key` (any length; keys longer than the block size are
    /// hashed first).
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK];
        if key.len() > BLOCK {
            key_block[..32].copy_from_slice(&Sha256::digest(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let keyed = |pad: u8| {
            let mut h = Sha256::new();
            h.update(&key_block.map(|b| b ^ pad));
            h
        };
        HmacKey { inner: keyed(0x36), outer: keyed(0x5c) }
    }

    /// Computes `HMAC-SHA256(key, message)`.
    pub fn mac(&self, message: &[u8]) -> [u8; 32] {
        let mut inner = self.inner.clone();
        inner.update(message);
        let mut outer = self.outer.clone();
        outer.update(&inner.finalize());
        outer.finalize()
    }
}

/// Computes `HMAC-SHA256(key, message)`.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    HmacKey::new(key).mac(message)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Checks a known answer through the one-shot function and through a
    /// prepared key used twice (a key must survive its first tag).
    fn assert_tag(key: &[u8], message: &[u8], expected: &str) {
        assert_eq!(hex(&hmac_sha256(key, message)), expected);
        let prepared = HmacKey::new(key);
        assert_eq!(hex(&prepared.mac(message)), expected);
        assert_eq!(hex(&prepared.mac(message)), expected, "second use of the key");
    }

    // RFC 4231 test case 1 (20-byte key).
    #[test]
    fn rfc4231_case_1() {
        assert_tag(
            &[0x0b; 20],
            b"Hi There",
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        );
    }

    // RFC 4231 test case 2 ("Jefe").
    #[test]
    fn rfc4231_case_2() {
        assert_tag(
            b"Jefe",
            b"what do ya want for nothing?",
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        );
    }

    // RFC 4231 test case 3: 0xaa*20 key, 0xdd*50 data.
    #[test]
    fn rfc4231_case_3() {
        assert_tag(
            &[0xaa; 20],
            &[0xdd; 50],
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
        );
    }

    // RFC 4231 test case 6: key longer than block size (131 bytes).
    #[test]
    fn rfc4231_case_6_long_key() {
        assert_tag(
            &[0xaa; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First",
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        );
    }

    // The key-length edges RFC 4231 leaves out: the empty key and a key of
    // exactly one block (the longest that is not hashed first). Expected
    // tags from Python's `hmac` module.
    #[test]
    fn empty_and_block_sized_keys() {
        assert_tag(
            b"",
            b"Hi There",
            "e48411262715c8370cd5e7bf8e82bef53bd53712d007f3429351843b77c7bb9b",
        );
        assert_tag(
            &[0x0b; 64],
            b"Hi There",
            "21cd586aeca0579d99a1c938127c92525a371f807bc5ba6eb78bc825bd4f2be3",
        );
    }
}
