//! Application state machines for the Spider reproduction.
//!
//! The paper's evaluation runs a **key-value store** behind every system
//! under test (§5). This crate provides that store as a deterministic
//! [`Application`]: binary get/put operations, full-state snapshots, and a
//! workload-operation encoder used by the experiment harness.
//!
//! # Examples
//!
//! ```
//! use spider_app::{KvOp, KvStore};
//! use spider::Application;
//!
//! let mut store = KvStore::new();
//! let put = KvOp::put(b"user:7", vec![1, 2, 3]).encode();
//! store.execute(&put);
//! let get = KvOp::get(b"user:7").encode();
//! assert_eq!(&store.execute_read(&get)[..], &[1, 2, 3]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use bytes::{Buf, BufMut, Bytes, BytesMut};
use spider::Application;
use std::collections::BTreeMap;

/// A key-value store operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvOp {
    /// Store `value` under `key`.
    Put {
        /// The key.
        key: Vec<u8>,
        /// The value.
        value: Vec<u8>,
    },
    /// Read the value under `key`.
    Get {
        /// The key.
        key: Vec<u8>,
    },
}

impl KvOp {
    /// Convenience constructor for puts.
    pub fn put(key: &[u8], value: Vec<u8>) -> KvOp {
        KvOp::Put { key: key.to_vec(), value }
    }

    /// Convenience constructor for gets.
    pub fn get(key: &[u8]) -> KvOp {
        KvOp::Get { key: key.to_vec() }
    }

    /// Serializes the operation to the store's wire format.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        match self {
            KvOp::Put { key, value } => {
                buf.put_u8(b'P');
                buf.put_u16(key.len() as u16);
                buf.put_slice(key);
                buf.put_u32(value.len() as u32);
                buf.put_slice(value);
            }
            KvOp::Get { key } => {
                buf.put_u8(b'G');
                buf.put_u16(key.len() as u16);
                buf.put_slice(key);
            }
        }
        buf.freeze()
    }

    /// Parses an operation; `None` for malformed input.
    pub fn decode(mut buf: &[u8]) -> Option<KvOp> {
        if buf.remaining() < 3 {
            return None;
        }
        let tag = buf.get_u8();
        let klen = buf.get_u16() as usize;
        if buf.remaining() < klen {
            return None;
        }
        let key = buf[..klen].to_vec();
        buf.advance(klen);
        match tag {
            b'P' => {
                if buf.remaining() < 4 {
                    return None;
                }
                let vlen = buf.get_u32() as usize;
                if buf.remaining() < vlen {
                    return None;
                }
                Some(KvOp::Put { key, value: buf[..vlen].to_vec() })
            }
            b'G' => Some(KvOp::Get { key }),
            _ => None,
        }
    }

    /// Builds a put whose total encoded size is exactly `total_bytes`
    /// (padding the value), mirroring the paper's fixed-size requests.
    ///
    /// # Panics
    ///
    /// Panics if `total_bytes` is too small to hold the header and key.
    pub fn sized_put(key: &[u8], total_bytes: usize, fill: u8) -> KvOp {
        let overhead = 1 + 2 + key.len() + 4;
        assert!(total_bytes >= overhead, "payload too small for key");
        KvOp::Put { key: key.to_vec(), value: vec![fill; total_bytes - overhead] }
    }
}

/// Reply returned for a `Get` on a missing key.
pub const NOT_FOUND: &[u8] = b"\0not-found";
/// Reply returned for a successful `Put`.
pub const OK: &[u8] = b"\0ok";
/// Reply returned for a malformed operation.
pub const MALFORMED: &[u8] = b"\0malformed";

/// A deterministic, snapshotable key-value store.
#[derive(Debug, Clone, Default)]
pub struct KvStore {
    map: BTreeMap<Vec<u8>, Vec<u8>>,
    /// Number of executed operations (diagnostics).
    pub ops_applied: u64,
}

impl KvStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        KvStore::default()
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Direct lookup (tests).
    pub fn get(&self, key: &[u8]) -> Option<&[u8]> {
        self.map.get(key).map(|v| v.as_slice())
    }

    /// Digest of the key-value contents only, excluding the
    /// `ops_applied` diagnostic counter.
    ///
    /// Replicas of *one* group always agree on the full
    /// [`Application::state_digest`]; across groups the executed-ops
    /// counter may differ (strongly consistent reads run only at their
    /// target group, §3.3), while the map contents must still match.
    pub fn map_digest(&self) -> spider_crypto::Digest {
        let mut b = spider_crypto::Digest::builder().u64(self.map.len() as u64);
        for (k, v) in &self.map {
            b = b.bytes(k).bytes(v);
        }
        b.finish()
    }
}

impl Application for KvStore {
    fn execute(&mut self, op: &[u8]) -> Bytes {
        self.ops_applied += 1;
        match KvOp::decode(op) {
            Some(KvOp::Put { key, value }) => {
                self.map.insert(key, value);
                Bytes::from_static(OK)
            }
            Some(KvOp::Get { key }) => match self.map.get(&key) {
                Some(v) => Bytes::from(v.clone()),
                None => Bytes::from_static(NOT_FOUND),
            },
            None => Bytes::from_static(MALFORMED),
        }
    }

    fn execute_read(&self, op: &[u8]) -> Bytes {
        match KvOp::decode(op) {
            Some(KvOp::Get { key }) => match self.map.get(&key) {
                Some(v) => Bytes::from(v.clone()),
                None => Bytes::from_static(NOT_FOUND),
            },
            // Writes through the read path are rejected, not applied.
            Some(KvOp::Put { .. }) => Bytes::from_static(MALFORMED),
            None => Bytes::from_static(MALFORMED),
        }
    }

    fn snapshot(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.snapshot_len());
        self.snapshot_into(&mut buf);
        buf.freeze()
    }

    fn snapshot_len(&self) -> usize {
        let entries: usize = self.map.iter().map(|(k, v)| 2 + k.len() + 4 + v.len()).sum();
        4 + entries + 8
    }

    fn snapshot_into(&self, buf: &mut BytesMut) {
        buf.put_u32(self.map.len() as u32);
        for (k, v) in &self.map {
            buf.put_u16(k.len() as u16);
            buf.put_slice(k);
            buf.put_u32(v.len() as u32);
            buf.put_slice(v);
        }
        buf.put_u64(self.ops_applied);
    }

    fn restore(&mut self, snapshot: &[u8]) {
        let mut buf = snapshot;
        let mut map = BTreeMap::new();
        if buf.remaining() < 4 {
            return;
        }
        let n = buf.get_u32() as usize;
        for _ in 0..n {
            if buf.remaining() < 2 {
                return;
            }
            let klen = buf.get_u16() as usize;
            if buf.remaining() < klen + 4 {
                return;
            }
            let key = buf[..klen].to_vec();
            buf.advance(klen);
            let vlen = buf.get_u32() as usize;
            if buf.remaining() < vlen {
                return;
            }
            let value = buf[..vlen].to_vec();
            buf.advance(vlen);
            map.insert(key, value);
        }
        self.map = map;
        if buf.remaining() >= 8 {
            self.ops_applied = buf.get_u64();
        }
    }
}

/// Builds a [`spider::client::OpFactory`] producing key-value operations
/// over a key space of `keys` keys, padding writes to `payload` bytes —
/// the workload shape of the paper's evaluation (§5).
pub fn kv_op_factory(keys: u32) -> spider::client::OpFactory {
    std::sync::Arc::new(move |seq, kind, payload| {
        let key = format!("key-{:06}", seq % keys as u64);
        match kind {
            spider_types::OpKind::Write => {
                KvOp::sized_put(key.as_bytes(), payload.max(key.len() + 8), b'x').encode()
            }
            _ => KvOp::get(key.as_bytes()).encode(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn put_then_get_roundtrip() {
        let mut s = KvStore::new();
        assert_eq!(&s.execute(&KvOp::put(b"a", vec![9]).encode())[..], OK);
        assert_eq!(&s.execute(&KvOp::get(b"a").encode())[..], &[9]);
        assert_eq!(&s.execute(&KvOp::get(b"b").encode())[..], NOT_FOUND);
    }

    #[test]
    fn weak_read_path_cannot_write() {
        let s = KvStore::new();
        let r = s.execute_read(&KvOp::put(b"a", vec![1]).encode());
        assert_eq!(&r[..], MALFORMED);
        assert!(s.is_empty());
    }

    #[test]
    fn malformed_ops_are_rejected_deterministically() {
        let mut s = KvStore::new();
        assert_eq!(&s.execute(b"")[..], MALFORMED);
        assert_eq!(&s.execute(b"X123")[..], MALFORMED);
        assert_eq!(&s.execute(&[b'P', 0xff, 0xff, 1])[..], MALFORMED);
        assert!(s.is_empty());
    }

    #[test]
    fn sized_put_hits_exact_payload_size() {
        let op = KvOp::sized_put(b"key-000001", 200, b'x');
        assert_eq!(op.encode().len(), 200);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut a = KvStore::new();
        for i in 0..50u32 {
            a.execute(&KvOp::put(format!("k{i}").as_bytes(), vec![i as u8; 10]).encode());
        }
        let snap = a.snapshot();
        let mut b = KvStore::new();
        b.restore(&snap);
        assert_eq!(a.state_digest(), b.state_digest());
        assert_eq!(b.get(b"k7"), Some(&[7u8; 10][..]));
        assert_eq!(b.ops_applied, 50);
    }

    #[test]
    fn factory_produces_parseable_ops() {
        let f = kv_op_factory(100);
        let w = f(3, spider_types::OpKind::Write, 200);
        assert_eq!(w.len(), 200);
        assert!(matches!(KvOp::decode(&w), Some(KvOp::Put { .. })));
        let r = f(3, spider_types::OpKind::WeakRead, 200);
        assert!(matches!(KvOp::decode(&r), Some(KvOp::Get { .. })));
    }

    proptest! {
        /// Determinism: two stores fed the same operation sequence agree
        /// on every reply and end in the same state (RSM property A.14).
        #[test]
        fn determinism(ops in prop::collection::vec(
            (prop::collection::vec(any::<u8>(), 1..16),
             prop::collection::vec(any::<u8>(), 0..32),
             any::<bool>()),
            1..60,
        )) {
            let mut a = KvStore::new();
            let mut b = KvStore::new();
            for (key, value, is_put) in ops {
                let op = if is_put {
                    KvOp::Put { key, value }.encode()
                } else {
                    KvOp::Get { key }.encode()
                };
                prop_assert_eq!(a.execute(&op), b.execute(&op));
            }
            prop_assert_eq!(a.state_digest(), b.state_digest());
        }

        /// Encode/decode are inverse for arbitrary keys and values.
        #[test]
        fn codec_roundtrip(key in prop::collection::vec(any::<u8>(), 0..64),
                           value in prop::collection::vec(any::<u8>(), 0..256),
                           is_put in any::<bool>()) {
            let op = if is_put {
                KvOp::Put { key, value }
            } else {
                KvOp::Get { key }
            };
            prop_assert_eq!(KvOp::decode(&op.encode()), Some(op));
        }

        /// Snapshot/restore reproduces the exact state for arbitrary maps.
        #[test]
        fn snapshot_roundtrip(entries in prop::collection::btree_map(
            prop::collection::vec(any::<u8>(), 1..16),
            prop::collection::vec(any::<u8>(), 0..32),
            0..40,
        )) {
            let mut a = KvStore::new();
            for (k, v) in &entries {
                a.execute(&KvOp::Put { key: k.clone(), value: v.clone() }.encode());
            }
            let mut b = KvStore::new();
            b.restore(&a.snapshot());
            prop_assert_eq!(a.state_digest(), b.state_digest());
            // The in-place form appends the same bytes, sized exactly.
            let mut framed = BytesMut::new();
            framed.put_u8(0xff);
            a.snapshot_into(&mut framed);
            prop_assert_eq!(&framed[1..], &a.snapshot()[..]);
            prop_assert_eq!(a.snapshot_len(), a.snapshot().len());
        }
    }
}
