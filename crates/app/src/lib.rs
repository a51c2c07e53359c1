//! Application state machines for the Spider reproduction.
//!
//! The paper's evaluation runs a **key-value store** behind every system
//! under test (§5). This crate provides that store as a deterministic
//! [`Application`]: binary get/put operations, full-state snapshots, and a
//! workload-operation encoder used by the experiment harness.
//!
//! The store keeps its entries in a fixed number of key-hashed buckets and
//! hands a checkpoint one hashed [`Part`] per bucket, reusing the part of
//! every bucket no write has touched since the previous checkpoint (see
//! [`KvStore`]); a checkpoint costs the host what was written, not what
//! is stored.
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
#![cfg_attr(not(test), warn(clippy::wildcard_enum_match_arm))]
#![cfg_attr(not(test), warn(clippy::match_wildcard_for_single_variants))]
#![warn(missing_docs)]

use bytes::{Buf, BufMut, Bytes, BytesMut};
use spider::{Application, Part};
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

/// Number of key-hashed buckets a [`KvStore`] keeps its entries in, and
/// so the number of entry parts in its snapshot. A constant, not a knob:
/// it is part of the snapshot encoding every replica must share (the
/// checkpoint hash covers the part list). A checkpoint pays a floor per
/// bucket (the part list and its hash) and `len / BUCKETS` entries per
/// dirty bucket; 256 balances the two for stores of a few thousand keys
/// (measured in the README's "Checkpoints" section).
const BUCKETS: usize = 256;

/// The entries whose keys hash to one bucket, with the snapshot part
/// encoding them while no write has touched the bucket since it was built.
#[derive(Debug, Clone, Default)]
struct Bucket {
    entries: BTreeMap<Vec<u8>, Vec<u8>>,
    part: Option<Part>,
}

/// `[key len u16][key][value len u32][value]` per entry, in key order.
fn encode_into(entries: &BTreeMap<Vec<u8>, Vec<u8>>, buf: &mut BytesMut) {
    for (k, v) in entries {
        buf.put_u16(k.len() as u16);
        buf.put_slice(k);
        buf.put_u32(v.len() as u32);
        buf.put_slice(v);
    }
}

fn encoded_len(entries: &BTreeMap<Vec<u8>, Vec<u8>>) -> usize {
    entries.iter().map(|(k, v)| 2 + k.len() + 4 + v.len()).sum()
}

/// A deterministic, snapshotable key-value store.
///
/// Entries live in 256 buckets (a private constant) chosen by an FNV-1a
/// hash of the key. The snapshot is `[count][bucket 0 entries]…[bucket
/// 255 entries][ops_applied]` — the count, each bucket and the counter one
/// [`Part`] each, no per-part header — and a bucket keeps its part until
/// a `put` lands in it, so [`Application::snapshot_parts`] encodes and
/// hashes only the buckets written since the last call. Which bucket a
/// key is in, and the order inside a bucket, depend on the keys alone:
/// equal contents give equal parts whatever the history. Keys chosen to
/// collide can make a bucket large and its re-encoding slow; they cannot
/// make two correct replicas disagree.
#[derive(Debug, Clone)]
pub struct KvStore {
    buckets: Vec<Bucket>,
    len: usize,
    /// Number of executed operations (diagnostics).
    pub ops_applied: u64,
}

impl Default for KvStore {
    fn default() -> Self {
        KvStore { buckets: vec![Bucket::default(); BUCKETS], len: 0, ops_applied: 0 }
    }
}

/// FNV-1a over the key, folded onto a bucket index.
fn bucket_of(key: &[u8]) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    ((h ^ (h >> 32)) % BUCKETS as u64) as usize
}

impl KvStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        KvStore::default()
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Direct lookup (tests).
    pub fn get(&self, key: &[u8]) -> Option<&[u8]> {
        self.buckets[bucket_of(key)].entries.get(key).map(|v| v.as_slice())
    }

    fn put(&mut self, key: Vec<u8>, value: Vec<u8>) {
        let bucket = &mut self.buckets[bucket_of(&key)];
        bucket.part = None;
        if bucket.entries.insert(key, value).is_none() {
            self.len += 1;
        }
    }

    /// Digest of the key-value contents only, excluding the
    /// `ops_applied` diagnostic counter, over the entries in key order
    /// (so it says nothing about how the store lays them out).
    ///
    /// Replicas of *one* group always agree on the full
    /// [`Application::state_digest`]; across groups the executed-ops
    /// counter may differ (strongly consistent reads run only at their
    /// target group, §3.3), while the map contents must still match.
    pub fn map_digest(&self) -> spider_crypto::Digest {
        let mut entries: Vec<(&Vec<u8>, &Vec<u8>)> =
            self.buckets.iter().flat_map(|b| &b.entries).collect();
        entries.sort_unstable_by_key(|(k, _)| *k);
        let mut b = spider_crypto::Digest::builder().u64(self.len as u64);
        for (k, v) in entries {
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
                self.put(key, value);
                Bytes::from_static(OK)
            }
            Some(KvOp::Get { key }) => match self.get(&key) {
                Some(v) => Bytes::copy_from_slice(v),
                None => Bytes::from_static(NOT_FOUND),
            },
            None => Bytes::from_static(MALFORMED),
        }
    }

    fn execute_read(&self, op: &[u8]) -> Bytes {
        match KvOp::decode(op) {
            Some(KvOp::Get { key }) => match self.get(&key) {
                Some(v) => Bytes::copy_from_slice(v),
                None => Bytes::from_static(NOT_FOUND),
            },
            // Writes through the read path are rejected, not applied.
            Some(KvOp::Put { .. }) => Bytes::from_static(MALFORMED),
            None => Bytes::from_static(MALFORMED),
        }
    }

    fn snapshot(&self) -> Bytes {
        let entries: usize = self.buckets.iter().map(|b| encoded_len(&b.entries)).sum();
        let mut buf = BytesMut::with_capacity(4 + entries + 8);
        buf.put_u32(self.len as u32);
        for bucket in &self.buckets {
            encode_into(&bucket.entries, &mut buf);
        }
        buf.put_u64(self.ops_applied);
        buf.freeze()
    }

    fn snapshot_parts(&mut self) -> Vec<Part> {
        let mut parts = Vec::with_capacity(BUCKETS + 2);
        parts.push(Part::new(Bytes::from((self.len as u32).to_be_bytes().to_vec())));
        for Bucket { entries, part } in &mut self.buckets {
            let part = part.get_or_insert_with(|| {
                let mut buf = BytesMut::with_capacity(encoded_len(entries));
                encode_into(entries, &mut buf);
                Part::new(buf.freeze())
            });
            parts.push(part.clone());
        }
        parts.push(Part::new(Bytes::from(self.ops_applied.to_be_bytes().to_vec())));
        parts
    }

    fn restore(&mut self, snapshot: &[u8]) {
        let mut buf = snapshot;
        let mut restored = KvStore::new();
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
            restored.put(key, value);
        }
        self.buckets = restored.buckets;
        self.len = restored.len;
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
            spider_types::OpKind::StrongRead | spider_types::OpKind::WeakRead => {
                KvOp::get(key.as_bytes()).encode()
            }
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
        }

        /// The parts are a function of the contents: whatever the order
        /// of puts and wherever snapshots were taken in between, they
        /// equal those of a store restored from their concatenation and
        /// of one filled in key order; a snapshot re-encodes at most one
        /// bucket per put since the previous one.
        #[test]
        fn parts_depend_on_contents_alone(steps in prop::collection::vec(
            (prop::collection::vec(any::<u8>(), 1..4),
             prop::collection::vec(any::<u8>(), 0..24),
             0u8..8),
            1..120,
        )) {
            /// Parts of `now` that are not the very buffer `prev` holds.
            fn reencoded(prev: &[Part], now: &[Part]) -> usize {
                prev.iter().zip(now).filter(|(p, n)| p.bytes.as_ptr() != n.bytes.as_ptr()).count()
            }
            let mut a = KvStore::new();
            let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
            let mut prev = a.snapshot_parts();
            let mut puts = 0;
            for (key, value, action) in steps {
                match action {
                    0..=4 => {
                        a.execute(&KvOp::Put { key: key.clone(), value: value.clone() }.encode());
                        model.insert(key, value);
                        puts += 1;
                    }
                    5 => {
                        let expected = model.get(&key).map_or(NOT_FOUND, |v| v.as_slice());
                        prop_assert_eq!(&a.execute(&KvOp::Get { key }.encode())[..], expected);
                    }
                    _ => {
                        let now = a.snapshot_parts();
                        // The bucket parts; the count and the counter
                        // around them are fresh every time.
                        prop_assert!(reencoded(&prev[1..=BUCKETS], &now[1..=BUCKETS]) <= puts);
                        prev = now;
                        puts = 0;
                    }
                }
            }
            let parts = a.snapshot_parts();
            prop_assert!(reencoded(&prev[1..=BUCKETS], &parts[1..=BUCKETS]) <= puts);
            let again = a.snapshot_parts();
            prop_assert_eq!(reencoded(&parts[1..=BUCKETS], &again[1..=BUCKETS]), 0);
            prop_assert_eq!(&again, &parts);

            prop_assert_eq!(parts.len(), BUCKETS + 2);
            prop_assert!(parts.iter().all(Part::is_intact));
            let concat: Vec<u8> = parts.iter().flat_map(|p| p.bytes.to_vec()).collect();
            prop_assert_eq!(&concat[..], &a.snapshot()[..]);
            let entries: usize = model.iter().map(|(k, v)| 2 + k.len() + 4 + v.len()).sum();
            prop_assert_eq!(concat.len(), 4 + entries + 8, "no per-part header");

            let mut restored = KvStore::new();
            restored.restore(&concat);
            prop_assert_eq!(restored.snapshot_parts(), parts.clone());
            prop_assert_eq!(restored.len(), model.len());

            // Another history of the same contents; `ops_applied` (the
            // last part) counts the history, the rest must not.
            let mut sorted = KvStore::new();
            for (k, v) in &model {
                sorted.execute(&KvOp::Put { key: k.clone(), value: v.clone() }.encode());
            }
            prop_assert_eq!(&sorted.snapshot_parts()[..=BUCKETS], &parts[..=BUCKETS]);

            // The contents digest is over the entries in key order, so it
            // cannot depend on the bucket layout.
            let mut d = spider_crypto::Digest::builder().u64(model.len() as u64);
            for (k, v) in &model {
                d = d.bytes(k).bytes(v);
            }
            let d = d.finish();
            prop_assert_eq!(a.map_digest(), d);
            prop_assert_eq!(restored.map_digest(), d);
        }
    }
}
